//! Kernel function evaluation (§II-E).
//!
//! PLSSVM provides three kernel functions:
//!
//! ```text
//! linear:      ⟨x, x'⟩
//! polynomial:  (γ·⟨x, x'⟩ + r)^d          γ > 0, d ∈ ℤ
//! radial:      exp(−γ·‖x − x'‖²)          γ > 0
//! sigmoid:     tanh(γ·⟨x, x'⟩ + r)        γ > 0   (LIBSVM-parity extension)
//! ```
//!
//! The hyperparameter container [`KernelSpec`] lives in `plssvm-data`
//! because it is part of the model file format; this module adds the
//! evaluation code for both the row-major and the SoA layouts.

use plssvm_data::dense::SoAMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::Real;

use crate::simd::{self, Isa};

/// LIBSVM's default `γ = 1 / num_features`.
///
/// Zero-feature data is rejected at backend construction
/// ([`crate::backend::Prepared::new`]), so the `max(1)` clamp here is a
/// belt-and-braces guard against division by zero, never a silent
/// reinterpretation of real training data.
pub fn default_gamma<T: Real>(num_features: usize) -> T {
    T::ONE / T::from_usize(num_features.max(1))
}

/// Scalar product of two feature rows.
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// Squared euclidean distance of two feature rows.
#[inline]
pub fn dist_sq<T: Real>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc = d.mul_add(d, acc);
    }
    acc
}

/// Evaluates the kernel function on two feature rows.
#[inline]
pub fn kernel_row<T: Real>(spec: &KernelSpec<T>, a: &[T], b: &[T]) -> T {
    match *spec {
        KernelSpec::Linear => dot(a, b),
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => gamma.mul_add(dot(a, b), coef0).powi(degree),
        KernelSpec::Rbf { gamma } => (-gamma * dist_sq(a, b)).exp(),
        KernelSpec::Sigmoid { gamma, coef0 } => gamma.mul_add(dot(a, b), coef0).tanh(),
    }
}

/// Evaluates the kernel function on two points of an SoA matrix.
#[inline]
pub fn kernel_soa<T: Real>(spec: &KernelSpec<T>, data: &SoAMatrix<T>, i: usize, j: usize) -> T {
    match *spec {
        KernelSpec::Linear => data.dot(i, j),
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => gamma.mul_add(data.dot(i, j), coef0).powi(degree),
        KernelSpec::Rbf { gamma } => (-gamma * data.dist_sq(i, j)).exp(),
        KernelSpec::Sigmoid { gamma, coef0 } => gamma.mul_add(data.dot(i, j), coef0).tanh(),
    }
}

/// Applies the kernel's scalar-product postprocessing to an
/// already-computed inner product. Only valid for kernels defined on the
/// inner product (linear and polynomial) — this is the operation that makes
/// the feature-wise multi-device split work for the linear kernel: partial
/// dot products are summed first, the (identity) postprocessing applied
/// once. The tests' reference for the fused panel kernels.
#[cfg(test)]
fn finish_inner_product<T: Real>(spec: &KernelSpec<T>, ip: T) -> T {
    match *spec {
        KernelSpec::Linear => ip,
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => gamma.mul_add(ip, coef0).powi(degree),
        KernelSpec::Sigmoid { gamma, coef0 } => gamma.mul_add(ip, coef0).tanh(),
        KernelSpec::Rbf { .. } => {
            unreachable!("the RBF kernel is not an inner-product kernel")
        }
    }
}

/// Register micro-tile height of the panel evaluators: how many `i` rows
/// one [`kernel_panel`] call covers.
pub const PANEL_MR: usize = 4;

/// Register micro-tile width of the panel evaluators: how many `j` rows
/// one [`kernel_panel`] call covers.
pub const PANEL_NR: usize = 4;

/// One `PANEL_MR×PANEL_NR` block of kernel (or inner-product) values.
/// Entries beyond the active `ra.len()×rb.len()` sub-block are
/// unspecified filler and must not be read.
pub type Panel<T> = [[T; PANEL_NR]; PANEL_MR];

/// GEMM-style panel inner products: `out[a][b] = ⟨ra[a], rb[b]⟩` for up to
/// [`PANEL_MR`]×[`PANEL_NR`] row pairs in a single pass over the features.
///
/// This is the **scalar tier** of the panel engine — the reference the
/// explicit SIMD kernels of [`crate::simd`] are tested against, selected
/// by dispatch whenever vector code is unavailable or forced off. The
/// full-tile fast path keeps all `MR·NR` accumulators live across the
/// feature loop — independent fused multiply–add chains the compiler can
/// hold in registers and auto-vectorize, instead of the latency-bound
/// single chain of [`dot`]. Partial tiles fall back to per-pair [`dot`]s.
#[inline]
pub fn panel_dot<T: Real>(ra: &[&[T]], rb: &[&[T]]) -> Panel<T> {
    debug_assert!(ra.len() <= PANEL_MR && rb.len() <= PANEL_NR);
    let mut acc = [[T::ZERO; PANEL_NR]; PANEL_MR];
    if ra.len() == PANEL_MR && rb.len() == PANEL_NR {
        let d = ra[0].len();
        let a = [ra[0], &ra[1][..d], &ra[2][..d], &ra[3][..d]];
        let b = [&rb[0][..d], &rb[1][..d], &rb[2][..d], &rb[3][..d]];
        for f in 0..d {
            let av = [a[0][f], a[1][f], a[2][f], a[3][f]];
            let bv = [b[0][f], b[1][f], b[2][f], b[3][f]];
            for (acc_row, &x) in acc.iter_mut().zip(&av) {
                for (slot, &y) in acc_row.iter_mut().zip(&bv) {
                    *slot = x.mul_add(y, *slot);
                }
            }
        }
    } else {
        for (acc_row, a) in acc.iter_mut().zip(ra) {
            for (slot, b) in acc_row.iter_mut().zip(rb) {
                *slot = dot(a, b);
            }
        }
    }
    acc
}

/// Panel counterpart of [`dist_sq`]: `out[a][b] = ‖ra[a] − rb[b]‖²` with
/// the same register-tiled accumulation as [`panel_dot`].
#[inline]
pub fn panel_dist_sq<T: Real>(ra: &[&[T]], rb: &[&[T]]) -> Panel<T> {
    debug_assert!(ra.len() <= PANEL_MR && rb.len() <= PANEL_NR);
    let mut acc = [[T::ZERO; PANEL_NR]; PANEL_MR];
    if ra.len() == PANEL_MR && rb.len() == PANEL_NR {
        let d = ra[0].len();
        let a = [ra[0], &ra[1][..d], &ra[2][..d], &ra[3][..d]];
        let b = [&rb[0][..d], &rb[1][..d], &rb[2][..d], &rb[3][..d]];
        for f in 0..d {
            let av = [a[0][f], a[1][f], a[2][f], a[3][f]];
            let bv = [b[0][f], b[1][f], b[2][f], b[3][f]];
            for (acc_row, &x) in acc.iter_mut().zip(&av) {
                for (slot, &y) in acc_row.iter_mut().zip(&bv) {
                    let diff = x - y;
                    *slot = diff.mul_add(diff, *slot);
                }
            }
        }
    } else {
        for (acc_row, a) in acc.iter_mut().zip(ra) {
            for (slot, b) in acc_row.iter_mut().zip(rb) {
                *slot = dist_sq(a, b);
            }
        }
    }
    acc
}

/// Evaluates the kernel on every pair `(ra[a], rb[b])` of an
/// `ra.len()×rb.len()` micro-tile (at most [`PANEL_MR`]×[`PANEL_NR`]) —
/// the panel form of [`kernel_row`] used by the blocked CPU matvec engine
/// and the prediction paths. All four kernel functions are supported: the
/// inner-product kernels (linear, polynomial, sigmoid) post-process a
/// [`panel_dot`], the RBF kernel a [`panel_dist_sq`].
///
/// The inner products run on the micro-kernels of the given [`Isa`] tier
/// (see [`crate::simd`]); `Isa::Scalar` reproduces the pre-SIMD engine
/// bit-for-bit. The transcendental postprocessing is always scalar.
/// Always inlined, so a caller compiled per tier (see [`crate::simd`])
/// runs the postprocessing's `mul_add` as an FMA instruction.
#[inline(always)]
pub fn kernel_panel<T: Real>(spec: &KernelSpec<T>, isa: Isa, ra: &[&[T]], rb: &[&[T]]) -> Panel<T> {
    match *spec {
        KernelSpec::Linear => simd::panel_dot(isa, ra, rb),
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => {
            let mut p = simd::panel_dot(isa, ra, rb);
            for row in &mut p {
                for v in row {
                    *v = gamma.mul_add(*v, coef0).powi(degree);
                }
            }
            p
        }
        KernelSpec::Rbf { gamma } => {
            let mut p = simd::panel_dist_sq(isa, ra, rb);
            for row in &mut p {
                for v in row {
                    *v = (-gamma * *v).exp();
                }
            }
            p
        }
        KernelSpec::Sigmoid { gamma, coef0 } => {
            let mut p = simd::panel_dot(isa, ra, rb);
            for row in &mut p {
                for v in row {
                    *v = gamma.mul_add(*v, coef0).tanh();
                }
            }
            p
        }
    }
}

/// The FLOPs of one kernel evaluation over `d` features. Used by the
/// simulated backend's work tallies (fused multiply-add counted as 2).
pub fn kernel_flops(spec: &KernelSpec<impl Real>, d: usize) -> u64 {
    let d = d as u64;
    match spec {
        KernelSpec::Linear => 2 * d,
        // dot (2d) + scale/offset (2) + pow (~2·degree)
        KernelSpec::Polynomial { degree, .. } => 2 * d + 2 + 2 * (*degree as u64),
        // diff+square+add (3d) + scale (1) + exp (~10)
        KernelSpec::Rbf { .. } => 3 * d + 11,
        // dot (2d) + scale/offset (2) + tanh (~10)
        KernelSpec::Sigmoid { .. } => 2 * d + 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plssvm_data::dense::DenseMatrix;

    fn a() -> Vec<f64> {
        vec![1.0, 2.0, 3.0]
    }
    fn b() -> Vec<f64> {
        vec![-1.0, 0.5, 2.0]
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&a(), &b()), -1.0 + 1.0 + 6.0);
        assert_eq!(dist_sq(&a(), &b()), 4.0 + 2.25 + 1.0);
    }

    #[test]
    fn linear_kernel_is_dot() {
        assert_eq!(kernel_row(&KernelSpec::Linear, &a(), &b()), 6.0);
    }

    #[test]
    fn polynomial_kernel() {
        let spec = KernelSpec::Polynomial {
            degree: 2,
            gamma: 0.5,
            coef0: 1.0,
        };
        // (0.5*6 + 1)^2 = 16
        assert_eq!(kernel_row(&spec, &a(), &b()), 16.0);
    }

    #[test]
    fn rbf_kernel() {
        let spec = KernelSpec::Rbf { gamma: 0.1 };
        let expected = (-0.1f64 * 7.25).exp();
        assert!((kernel_row(&spec, &a(), &b()) - expected).abs() < 1e-15);
    }

    #[test]
    fn rbf_of_identical_points_is_one() {
        let spec = KernelSpec::Rbf { gamma: 2.0 };
        assert_eq!(kernel_row(&spec, &a(), &a()), 1.0);
    }

    #[test]
    fn sigmoid_kernel() {
        let spec = KernelSpec::Sigmoid {
            gamma: 0.25,
            coef0: -0.5,
        };
        let expected = (0.25f64 * 6.0 - 0.5).tanh();
        assert!((kernel_row(&spec, &a(), &b()) - expected).abs() < 1e-15);
        // bounded in (-1, 1)
        assert!(kernel_row(&spec, &a(), &a()).abs() < 1.0);
        // inner-product finish agrees
        assert_eq!(
            finish_inner_product(&spec, dot(&a(), &b())),
            kernel_row(&spec, &a(), &b())
        );
    }

    #[test]
    fn soa_matches_row_major() {
        let m = DenseMatrix::from_rows(vec![a(), b()]).unwrap();
        let s = SoAMatrix::from_dense(&m, 4);
        for spec in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 3,
                gamma: 0.25,
                coef0: 0.5,
            },
            KernelSpec::Rbf { gamma: 0.75 },
            KernelSpec::Sigmoid {
                gamma: 0.3,
                coef0: 0.1,
            },
        ] {
            let row = kernel_row(&spec, &a(), &b());
            let soa = kernel_soa(&spec, &s, 0, 1);
            assert!((row - soa).abs() < 1e-12, "{spec:?}: {row} vs {soa}");
        }
    }

    #[test]
    fn finish_inner_product_matches_full_eval() {
        let ip = dot(&a(), &b());
        assert_eq!(finish_inner_product(&KernelSpec::Linear, ip), 6.0);
        let spec = KernelSpec::Polynomial {
            degree: 2,
            gamma: 0.5,
            coef0: 1.0,
        };
        assert_eq!(
            finish_inner_product(&spec, ip),
            kernel_row(&spec, &a(), &b())
        );
    }

    #[test]
    #[should_panic]
    fn finish_inner_product_rejects_rbf() {
        let _ = finish_inner_product(&KernelSpec::Rbf { gamma: 1.0f64 }, 1.0);
    }

    /// Four deterministic pseudo-random rows of dimension `d`.
    fn panel_rows(d: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..4)
            .map(|r| {
                (0..d)
                    .map(|f| (((r as u64 * 31 + f as u64 * 7 + salt) % 17) as f64 - 8.0) / 5.0)
                    .collect()
            })
            .collect()
    }

    fn all_specs() -> Vec<KernelSpec<f64>> {
        vec![
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 3,
                gamma: 0.25,
                coef0: 0.5,
            },
            KernelSpec::Rbf { gamma: 0.75 },
            KernelSpec::Sigmoid {
                gamma: 0.3,
                coef0: 0.1,
            },
        ]
    }

    #[test]
    fn panels_match_scalar_evaluation_for_all_kernels() {
        for isa in Isa::available() {
            for d in [1, 3, 8, 17] {
                let ra_owned = panel_rows(d, 1);
                let rb_owned = panel_rows(d, 9);
                let ra: Vec<&[f64]> = ra_owned.iter().map(|r| r.as_slice()).collect();
                let rb: Vec<&[f64]> = rb_owned.iter().map(|r| r.as_slice()).collect();
                for spec in all_specs() {
                    // full tiles and every partial-tile shape
                    for mh in 1..=PANEL_MR {
                        for nh in 1..=PANEL_NR {
                            let p = kernel_panel(&spec, isa, &ra[..mh], &rb[..nh]);
                            for (a, row_a) in ra[..mh].iter().enumerate() {
                                for (b, row_b) in rb[..nh].iter().enumerate() {
                                    let reference = kernel_row(&spec, row_a, row_b);
                                    assert!(
                                        (p[a][b] - reference).abs() < 1e-12,
                                        "{spec:?} {isa:?} d={d} tile {mh}x{nh} entry ({a},{b}): \
                                         {} vs {reference}",
                                        p[a][b]
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The scalar tier of the dispatched panel must reproduce the panel
    /// evaluators of this module exactly (the pre-SIMD engine).
    #[test]
    fn scalar_tier_kernel_panel_is_bit_identical_to_scalar_panels() {
        let ra_owned = panel_rows(11, 3);
        let rb_owned = panel_rows(11, 6);
        let ra: Vec<&[f64]> = ra_owned.iter().map(|r| r.as_slice()).collect();
        let rb: Vec<&[f64]> = rb_owned.iter().map(|r| r.as_slice()).collect();
        for spec in all_specs() {
            let dispatched = kernel_panel(&spec, Isa::Scalar, &ra, &rb);
            let reference = match spec {
                KernelSpec::Rbf { gamma } => {
                    let mut p = panel_dist_sq(&ra, &rb);
                    for row in &mut p {
                        for v in row {
                            *v = (-gamma * *v).exp();
                        }
                    }
                    p
                }
                ref s => {
                    let mut p = panel_dot(&ra, &rb);
                    for row in &mut p {
                        for v in row {
                            *v = finish_inner_product(s, *v);
                        }
                    }
                    p
                }
            };
            for a in 0..PANEL_MR {
                for b in 0..PANEL_NR {
                    assert_eq!(
                        dispatched[a][b].to_bits(),
                        reference[a][b].to_bits(),
                        "{spec:?} entry ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn panel_dot_and_dist_match_scalar_helpers() {
        let ra_owned = panel_rows(6, 2);
        let rb_owned = panel_rows(6, 4);
        let ra: Vec<&[f64]> = ra_owned.iter().map(|r| r.as_slice()).collect();
        let rb: Vec<&[f64]> = rb_owned.iter().map(|r| r.as_slice()).collect();
        let pd = panel_dot(&ra, &rb);
        let pq = panel_dist_sq(&ra, &rb);
        for a in 0..PANEL_MR {
            for b in 0..PANEL_NR {
                assert!((pd[a][b] - dot(ra[a], rb[b])).abs() < 1e-12);
                assert!((pq[a][b] - dist_sq(ra[a], rb[b])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn default_gamma_is_reciprocal() {
        assert_eq!(default_gamma::<f64>(4), 0.25);
        assert_eq!(default_gamma::<f64>(0), 1.0); // clamped, no div by zero
    }

    #[test]
    fn kernel_flops_scale_with_dimension() {
        assert_eq!(kernel_flops(&KernelSpec::<f64>::Linear, 10), 20);
        assert!(kernel_flops(&KernelSpec::Rbf { gamma: 1.0f64 }, 10) > 30);
    }
}
