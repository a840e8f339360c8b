//! Property tests for the SIMD micro-kernels (`plssvm_core::simd`).
//!
//! Three contracts, exercised over adversarial vector lengths — 0, 1,
//! every lane width W in use (2, 4, 8, 16) plus W−1 and W+1, primes
//! that are coprime to every lane width, and the benchmark widths 64 and
//! 128:
//!
//! 1. **Accuracy** — each SIMD `dot`/`dist_sq` agrees with the scalar
//!    reference within a 4-ULP reassociation bound. The ULP is anchored
//!    at Σ|aᵢ·bᵢ| (the condition-free magnitude of the sum), not at the
//!    result: a dot product can cancel to near zero, where no summation
//!    order stays within ULPs of another, while the element terms bound
//!    the error of *any* reassociation. `dist_sq` terms are squares, so
//!    its result and its magnitude basis coincide.
//! 2. **Panel ≡ per-pair** — every entry of a dispatched panel is
//!    bitwise identical to the per-pair `dot`/`dist_sq` of the same
//!    tier, for full 4×4 tiles and ragged partial tiles alike, in f64 and
//!    f32. This is the invariant that makes the blocked engine's output
//!    independent of how rows are grouped into panels.
//! 3. **Degeneration** — for d below the tier's lane width the vector
//!    chain has no full chunk, so every tier must reproduce the scalar
//!    chain bit for bit.
//!
//! All tiers the host supports are exercised; on a machine without any
//! vector unit the properties reduce to scalar self-consistency.

use plssvm_core::kernel::{self, PANEL_MR, PANEL_NR};
use plssvm_core::simd::{self, Isa};
use plssvm_data::Real;
use proptest::prelude::*;

/// Lengths that straddle every lane width, primes coprime to all of them
/// and the benchmark workloads' widths: 0, 1, W−1, W, W+1 for
/// W ∈ {2, 4, 8, 16}, 97 / 257, and 64 / 128.
fn adversarial_lengths() -> Vec<usize> {
    let mut lens = vec![0, 1, 64, 97, 128, 257];
    for w in [2usize, 4, 8, 16] {
        lens.extend([w - 1, w, w + 1]);
    }
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// A strategy drawing one adversarial length.
fn length() -> impl Strategy<Value = usize> {
    let lens = adversarial_lengths();
    (0..lens.len()).prop_map(move |i| lens[i])
}

/// One vector component: mostly moderate magnitudes, with exact zeros
/// and tiny values mixed in to stress sign and scale edge cases.
fn component() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0..100.0f64,
        -100.0..100.0f64,
        Just(0.0f64),
        -1e-6..1e-6f64,
    ]
}

/// Two equal-length vectors of one adversarial length.
fn vector_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    length().prop_flat_map(|d| {
        (
            proptest::collection::vec(component(), d..=d),
            proptest::collection::vec(component(), d..=d),
        )
    })
}

/// 4-ULP-style reassociation bound anchored at the magnitude `basis`
/// (which must be ≥ |true result| and non-cancelling).
fn bound(basis: f64, d: usize) -> f64 {
    4.0 * f64::EPSILON * d.max(1) as f64 * basis.max(1.0)
}

/// Panel operands of one adversarial length: `PANEL_MR` candidate `a`
/// rows then `PANEL_NR` `b` rows, and a panel height and width.
fn panel_rows() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, usize)> {
    length().prop_flat_map(|d| {
        (
            proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, d..=d),
                PANEL_MR + PANEL_NR..=PANEL_MR + PANEL_NR,
            ),
            1..=PANEL_MR,
            1..=PANEL_NR,
        )
    })
}

/// Checks that every entry of the `h`×`w` panel over `rows` equals the
/// per-pair `dot`/`dist_sq` of the same tier bit for bit, on every tier
/// the host supports.
fn check_panel_matches_per_pair<T: Real>(
    rows: &[Vec<T>],
    h: usize,
    w: usize,
) -> Result<(), TestCaseError> {
    let ra: Vec<&[T]> = rows[..h].iter().map(Vec::as_slice).collect();
    let rb: Vec<&[T]> = rows[PANEL_MR..PANEL_MR + w]
        .iter()
        .map(Vec::as_slice)
        .collect();
    for isa in Isa::available() {
        let dots = simd::panel_dot(isa, &ra, &rb);
        let dists = simd::panel_dist_sq(isa, &ra, &rb);
        for (i, &row_a) in ra.iter().enumerate() {
            for (j, &row_b) in rb.iter().enumerate() {
                prop_assert_eq!(
                    dots[i][j].to_f64().to_bits(),
                    simd::dot(isa, row_a, row_b).to_f64().to_bits(),
                    "{} panel_dot [{},{}] h={} w={} d={}",
                    isa,
                    i,
                    j,
                    h,
                    w,
                    row_a.len()
                );
                prop_assert_eq!(
                    dists[i][j].to_f64().to_bits(),
                    simd::dist_sq(isa, row_a, row_b).to_f64().to_bits(),
                    "{} panel_dist_sq [{},{}] h={} w={} d={}",
                    isa,
                    i,
                    j,
                    h,
                    w,
                    row_a.len()
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SIMD `dot` agrees with the scalar reference within the 4-ULP
    /// reassociation bound, on every tier the host supports.
    #[test]
    fn simd_dot_matches_scalar((a, b) in vector_pair()) {
        let scalar = kernel::dot(&a, &b);
        let basis: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        for isa in Isa::available() {
            let got = simd::dot(isa, &a, &b);
            let err = (got - scalar).abs();
            prop_assert!(
                err <= bound(basis, a.len()),
                "{isa} dot d={}: {got} vs {scalar} (err {err:e})",
                a.len()
            );
        }
    }

    /// SIMD `dist_sq` agrees with the scalar reference within the
    /// 4-ULP reassociation bound; its terms are non-negative so the
    /// result itself is the magnitude basis.
    #[test]
    fn simd_dist_sq_matches_scalar((a, b) in vector_pair()) {
        let scalar = kernel::dist_sq(&a, &b);
        for isa in Isa::available() {
            let got = simd::dist_sq(isa, &a, &b);
            let err = (got - scalar).abs();
            prop_assert!(
                err <= bound(scalar, a.len()),
                "{isa} dist_sq d={}: {got} vs {scalar} (err {err:e})",
                a.len()
            );
        }
    }

    /// Below the lane width the vector chain has no full chunk and must
    /// degenerate to the scalar chain exactly (bitwise).
    #[test]
    fn short_vectors_degenerate_to_scalar_bits(
        (a, b) in length().prop_flat_map(|d| {
            let d = d.min(3);
            (
                proptest::collection::vec(-100.0..100.0f64, d..=d),
                proptest::collection::vec(-100.0..100.0f64, d..=d),
            )
        })
    ) {
        for isa in Isa::available() {
            if a.len() < isa.lanes_f64() {
                prop_assert_eq!(
                    simd::dot(isa, &a, &b).to_bits(),
                    kernel::dot(&a, &b).to_bits(),
                    "{} dot d={}", isa, a.len()
                );
                prop_assert_eq!(
                    simd::dist_sq(isa, &a, &b).to_bits(),
                    kernel::dist_sq(&a, &b).to_bits(),
                    "{} dist_sq d={}", isa, a.len()
                );
            }
        }
    }

    /// Every panel entry — full or ragged — is bitwise identical to the
    /// per-pair evaluation of the same tier.
    #[test]
    fn panel_entries_bitwise_match_per_pair((rows, h, w) in panel_rows()) {
        check_panel_matches_per_pair(&rows, h, w)?;
    }

    /// The f32 twin: pins the 8×8 (AVX2) and 16×16 (AVX-512) lane
    /// transposes of the f32 panel reduction bit for bit against the
    /// per-pair kernels.
    #[test]
    fn panel_entries_bitwise_match_per_pair_f32((rows, h, w) in panel_rows()) {
        let rows: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&x| x as f32).collect())
            .collect();
        check_panel_matches_per_pair(&rows, h, w)?;
    }

    /// f32 accuracy: the same 4-ULP contract holds in single precision.
    #[test]
    fn simd_dot_matches_scalar_f32((a, b) in vector_pair()) {
        let a: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let scalar = kernel::dot(&a, &b);
        let basis: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let tol = 4.0 * f32::EPSILON * a.len().max(1) as f32 * basis.max(1.0);
        for isa in Isa::available() {
            let got = simd::dot(isa, &a, &b);
            let err = (got - scalar).abs();
            prop_assert!(
                err <= tol,
                "{isa} f32 dot d={}: {got} vs {scalar} (err {err:e})",
                a.len()
            );
        }
    }
}

/// The forced-scalar tier is the reference implementation itself: pin
/// that `simd::dot`/`dist_sq` at `Isa::Scalar` route to the exact
/// `kernel` functions on a fixed fixture (belt and braces next to the
/// property tests above, which only exercise host-supported tiers).
#[test]
fn scalar_tier_is_the_reference_implementation() {
    let a: Vec<f64> = (0..97).map(|i| (i as f64).sin() * 10.0).collect();
    let b: Vec<f64> = (0..97).map(|i| (i as f64).cos() * 10.0).collect();
    assert_eq!(
        simd::dot(Isa::Scalar, &a, &b).to_bits(),
        kernel::dot(&a, &b).to_bits()
    );
    assert_eq!(
        simd::dist_sq(Isa::Scalar, &a, &b).to_bits(),
        kernel::dist_sq(&a, &b).to_bits()
    );
}
