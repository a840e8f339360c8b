//! Bit-identity of the query-blocked prediction engine
//! (`plssvm_core::svm::kernel_expansion`).
//!
//! The engine evaluates 4 support vectors × 4 queries per panel, walks the
//! support vectors in cache tiles and pads ragged query tails; none of
//! that may change a single bit. The reference evaluates every
//! (support vector, query) pair on its own 1×1 panel and accumulates
//! `b + Σᵢ coefᵢ·k(svᵢ, x)` in support-vector order `i = 0..m`.
//!
//! The sweep covers batch sizes 1–9 and 17 (full query blocks plus 1-,
//! 2- and 3-row tails), support-vector counts around the panel height and
//! the 256-row tile edges, all four kernels, f32 and f64, and every ISA
//! tier the host supports. The public entry points are checked at the
//! dispatched tier, so running this suite under `PLSSVM_FORCE_ISA=scalar`
//! pins the forced-scalar path too.

use plssvm_core::kernel::kernel_panel;
use plssvm_core::regression::{predict_values, try_predict_values};
use plssvm_core::simd::Isa;
use plssvm_core::svm::{kernel_expansion, predict_decision_values, try_predict_decision_values};
use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::{KernelSpec, SvmModel, SvrModel};
use plssvm_data::Real;

const BATCHES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 17];
const SV_COUNTS: [usize; 8] = [1, 3, 4, 5, 255, 256, 257, 513];
/// Coprime to every lane width, so each vector chain has a remainder.
const FEATURES: usize = 19;

/// A deterministic value in `[-1, 1)`: element `k` of splitmix64 stream
/// `seed`.
fn unit(seed: u64, k: usize) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 29;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn matrix<T: Real>(rows: usize, seed: u64) -> DenseMatrix<T> {
    let data = (0..rows * FEATURES)
        .map(|k| T::from_f64(unit(seed, k)))
        .collect();
    DenseMatrix::from_vec(rows, FEATURES, data)
}

fn kernels<T: Real>() -> [KernelSpec<T>; 4] {
    [
        KernelSpec::Linear,
        KernelSpec::Polynomial {
            degree: 3,
            gamma: T::from_f64(0.1),
            coef0: T::ONE,
        },
        KernelSpec::Rbf {
            gamma: T::from_f64(0.05),
        },
        KernelSpec::Sigmoid {
            gamma: T::from_f64(0.1),
            coef0: T::from_f64(0.5),
        },
    ]
}

/// One query at a time, one pair per panel, accumulated in `i` order.
fn reference<T: Real>(
    kernel: &KernelSpec<T>,
    isa: Isa,
    sv: &DenseMatrix<T>,
    coef: &[T],
    bias: T,
    x: &DenseMatrix<T>,
) -> Vec<T> {
    (0..x.rows())
        .map(|p| {
            (0..sv.rows()).fold(bias, |acc, i| {
                let k = kernel_panel(kernel, isa, &[sv.row(i)], &[x.row(p)])[0][0];
                coef[i].mul_add(k, acc)
            })
        })
        .collect()
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// The support vectors, coefficients (mixed signs and magnitudes, so any
/// reordering of the sum shows in the low bits) and bias of an `m`-SV
/// model.
fn model_parts<T: Real>(m: usize) -> (DenseMatrix<T>, Vec<T>, T) {
    let sv = matrix(m, 2 + m as u64);
    let coef = (0..m).map(|i| T::from_f64(unit(3, i) * 10.0)).collect();
    (sv, coef, T::from_f64(-0.25))
}

fn first_rows<T: Real>(x: &DenseMatrix<T>, n: usize) -> DenseMatrix<T> {
    x.select_rows(&(0..n).collect::<Vec<_>>())
}

fn engine_matches_reference<T: Real>(precision: &str) {
    let queries = matrix::<T>(17, 1);
    for m in SV_COUNTS {
        let (sv, coef, bias) = model_parts::<T>(m);
        for kernel in kernels::<T>() {
            for isa in Isa::available() {
                let expected = bits(&reference(&kernel, isa, &sv, &coef, bias, &queries));
                for n in BATCHES {
                    let got =
                        kernel_expansion(&kernel, isa, &sv, &coef, bias, &first_rows(&queries, n));
                    assert_eq!(
                        bits(&got),
                        expected[..n],
                        "{precision} {kernel:?} {isa} m={m} batch={n}"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_is_bit_identical_to_per_pair_reference_f64() {
    engine_matches_reference::<f64>("f64");
}

#[test]
fn engine_is_bit_identical_to_per_pair_reference_f32() {
    engine_matches_reference::<f32>("f32");
}

/// Classification and regression share the engine: their public entry
/// points, panicking and fallible, reproduce the reference at the
/// dispatched tier.
#[test]
fn svm_and_svr_entry_points_match_reference_at_dispatched_tier() {
    let isa = Isa::select();
    let queries = matrix::<f64>(17, 1);
    for m in [5, 257] {
        let (sv, coef, bias) = model_parts::<f64>(m);
        for kernel in kernels::<f64>() {
            let svm = SvmModel {
                kernel,
                labels: [1, -1],
                rho: -bias,
                sv: sv.clone(),
                coef: coef.clone(),
                nr_sv: [m, 0],
                solver: None,
            };
            let svr = SvrModel {
                kernel,
                rho: -bias,
                sv: sv.clone(),
                coef: coef.clone(),
                solver: None,
            };
            let expected = bits(&reference(&kernel, isa, &sv, &coef, bias, &queries));
            for n in BATCHES {
                let x = first_rows(&queries, n);
                let tag = format!("{kernel:?} {isa} m={m} batch={n}");
                assert_eq!(
                    bits(&predict_decision_values(&svm, &x)),
                    expected[..n],
                    "{tag}"
                );
                assert_eq!(
                    bits(&try_predict_decision_values(&svm, &x).unwrap()),
                    expected[..n],
                    "{tag}"
                );
                assert_eq!(bits(&predict_values(&svr, &x)), expected[..n], "{tag}");
                assert_eq!(
                    bits(&try_predict_values(&svr, &x).unwrap()),
                    expected[..n],
                    "{tag}"
                );
            }
        }
    }
}

/// Degenerate shapes: an empty batch yields no values and a model
/// without support vectors predicts its bias.
#[test]
fn empty_batch_and_empty_model() {
    let (sv, coef, bias) = model_parts::<f64>(4);
    let kernel = KernelSpec::Rbf { gamma: 0.05 };
    let none = DenseMatrix::<f64>::zeros(0, FEATURES);
    assert!(kernel_expansion(&kernel, Isa::select(), &sv, &coef, bias, &none).is_empty());
    let no_sv = DenseMatrix::<f64>::zeros(0, FEATURES);
    let got = kernel_expansion(&kernel, Isa::select(), &no_sv, &[], bias, &matrix(5, 1));
    assert_eq!(got, vec![bias; 5]);
}
