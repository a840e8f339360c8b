//! Cross-crate property-based tests (proptest): the mathematical
//! invariants of the reproduction hold on *random* data, not just on the
//! hand-picked fixtures of the unit tests.

// index loops mirror the paper's subscript notation
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use plssvm::core::backend::{BackendSelection, Prepared};
use plssvm::core::cg::{conjugate_gradients, CgConfig, LinOp};
use plssvm::core::kernel::kernel_row;
use plssvm::core::matrix_free::{assemble_q_tilde, bias, full_alpha, reduced_rhs, QTildeParams};
use plssvm::core::svm::LsSvm;
use plssvm::data::dense::{DenseMatrix, SoAMatrix};
use plssvm::data::libsvm::{read_libsvm_str, write_libsvm_string, LabeledData};
use plssvm::data::model::KernelSpec;
use plssvm::data::scale::ScalingParams;
use plssvm::simgpu::{hw, Backend as DeviceApi};

/// Strategy: a small random labeled data set with both classes present.
fn labeled_data(max_points: usize, max_features: usize) -> impl Strategy<Value = LabeledData<f64>> {
    (2..max_points, 1..max_features)
        .prop_flat_map(|(m, d)| {
            (
                proptest::collection::vec(proptest::collection::vec(-5.0..5.0f64, d..=d), m..=m),
                proptest::collection::vec(prop_oneof![Just(1.0), Just(-1.0)], m..=m),
            )
        })
        .prop_map(|(rows, y)| LabeledData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap())
}

fn kernels() -> impl Strategy<Value = KernelSpec<f64>> {
    prop_oneof![
        Just(KernelSpec::Linear),
        // coef0 ≥ 0: a polynomial kernel is only a Mercer (PSD) kernel for
        // non-negative offsets — negative r makes Q̃ indefinite, which the
        // q_tilde_is_spd property correctly flags
        (1..4i32, 0.01..2.0f64, 0.0..1.0f64).prop_map(|(degree, gamma, coef0)| {
            KernelSpec::Polynomial {
                degree,
                gamma,
                coef0,
            }
        }),
        (0.01..2.0f64).prop_map(|gamma| KernelSpec::Rbf { gamma }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel function is symmetric for every kernel type.
    #[test]
    fn kernel_is_symmetric(data in labeled_data(12, 6), kernel in kernels()) {
        for i in 0..data.points() {
            for j in 0..data.points() {
                let a = kernel_row(&kernel, data.x.row(i), data.x.row(j));
                let b = kernel_row(&kernel, data.x.row(j), data.x.row(i));
                prop_assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
            }
        }
    }

    /// The assembled Q̃ is symmetric positive semi-definite plus the ridge
    /// (vᵀQ̃v > 0 for v ≠ 0) — the precondition for CG.
    #[test]
    fn q_tilde_is_spd(data in labeled_data(10, 4), kernel in kernels(), c in 0.1..10.0f64) {
        let soa = SoAMatrix::from_dense(&data.x, 4);
        let q = assemble_q_tilde(&soa, &kernel, c);
        let n = q.rows();
        // symmetry
        for i in 0..n {
            for j in 0..n {
                prop_assert!((q.get(i, j) - q.get(j, i)).abs() < 1e-9);
            }
        }
        // positive definiteness along random-ish directions
        for s in 0..3u32 {
            let v: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.3) * (s as f64 + 0.7)).sin()).collect();
            let norm_sq: f64 = v.iter().map(|x| x * x).sum();
            if norm_sq < 1e-12 {
                continue;
            }
            let mut quad = 0.0;
            for i in 0..n {
                for j in 0..n {
                    quad += v[i] * q.get(i, j) * v[j];
                }
            }
            prop_assert!(quad > 0.0, "vᵀQ̃v = {quad}");
        }
    }

    /// Serial, parallel and simulated-device backends compute the same
    /// Q̃·v on random data for every kernel.
    #[test]
    fn backends_agree_on_random_data(data in labeled_data(24, 8), kernel in kernels(), c in 0.1..10.0f64) {
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) / 3.0).collect();
        let mut reference = vec![0.0; n];
        Prepared::new(&BackendSelection::Serial, &data.x, None, &kernel, c)
            .unwrap()
            .apply(&v, &mut reference);
        for sel in [
            BackendSelection::openmp(Some(2)),
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ] {
            let mut out = vec![0.0; n];
            Prepared::new(&sel, &data.x, None, &kernel, c)
                .unwrap()
                .apply(&v, &mut out);
            for i in 0..n {
                let scale = reference[i].abs().max(1.0);
                prop_assert!(
                    (out[i] - reference[i]).abs() < 1e-7 * scale,
                    "{} row {i}: {} vs {}",
                    sel.name(), out[i], reference[i]
                );
            }
        }
    }

    /// CG solves the reduced system: the returned solution satisfies the
    /// augmented KKT system of Eq. 11 (both block rows).
    #[test]
    fn trained_solution_satisfies_eq11(data in labeled_data(16, 5), c in 0.5..5.0f64) {
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let soa = SoAMatrix::from_dense(&data.x, 4);
        let params = QTildeParams::compute(&soa, &kernel, c);
        let prepared = Prepared::new(&BackendSelection::Serial, &data.x, None, &kernel, c).unwrap();
        let rhs = reduced_rhs(&data.y);
        let solve = conjugate_gradients(&prepared, &rhs, &CgConfig::with_epsilon(1e-12), None, None, None, None);
        prop_assume!(solve.converged);
        let b = bias(&params, &data.y, &solve.x);
        let alpha = full_alpha(&solve.x);
        let m = data.points();
        // Σ αᵢ = 0 (last row of Eq. 11)
        let s: f64 = alpha.iter().sum();
        prop_assert!(s.abs() < 1e-6);
        // rows i: Σⱼ (k(xᵢ,xⱼ) + δᵢⱼ/C) αⱼ + b = yᵢ
        for i in 0..m {
            let mut lhs = b;
            for j in 0..m {
                let k = kernel_row(&kernel, data.x.row(i), data.x.row(j))
                    + if i == j { 1.0 / c } else { 0.0 };
                lhs += k * alpha[j];
            }
            prop_assert!((lhs - data.y[i]).abs() < 1e-5, "row {i}: {lhs} vs {}", data.y[i]);
        }
    }

    /// LIBSVM text serialization round-trips arbitrary data sets exactly.
    #[test]
    fn libsvm_roundtrip(data in labeled_data(16, 8), sparse in any::<bool>()) {
        let text = write_libsvm_string(&data, sparse);
        let back = read_libsvm_str::<f64>(&text, Some(data.features())).unwrap();
        prop_assert_eq!(&data.x, &back.x);
        // the ±1 mapping may flip (first label in the file ↦ +1), but the
        // original label of every point must survive
        for i in 0..data.points() {
            prop_assert_eq!(
                data.original_label(data.y[i]),
                back.original_label(back.y[i])
            );
        }
    }

    /// Scaling maps the fitted data into the target interval, and the
    /// range-file round trip reproduces the parameters.
    #[test]
    fn scaling_bounds_and_roundtrip(data in labeled_data(12, 6), lo in -3.0..0.0f64, width in 0.5..4.0f64) {
        let hi = lo + width;
        let mut x = data.x.clone();
        let params = ScalingParams::fit(&x, lo, hi).unwrap();
        params.apply(&mut x).unwrap();
        for p in 0..x.rows() {
            for f in 0..x.cols() {
                let v = x.get(p, f);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
            }
        }
        let reparsed = ScalingParams::<f64>::from_range_string(&params.to_range_string()).unwrap();
        prop_assert_eq!(params, reparsed);
    }

    /// Any seeded fault plan that leaves at least one live device (the
    /// generator never fail-stops device 0) trains to the same model as
    /// the fault-free run: recovery restores the computation, it does not
    /// approximate it.
    #[test]
    fn fault_recovery_preserves_model(data in labeled_data(20, 8), devices in 2..5usize, seed in any::<u64>()) {
        // the backend clamps the device count to the feature count; the
        // plan must address the devices that actually exist
        let devices = devices.min(data.features());
        let backend = BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, devices);
        let clean = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(backend.clone())
            .train(&data)
            .unwrap();
        let plan = plssvm::simgpu::FaultPlan::seeded(seed, devices, 8);
        let faulted = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(backend)
            .with_fault_plan(plan)
            .train(&data)
            .unwrap();
        prop_assert!(faulted.converged == clean.converged);
        // shard redistribution reassociates partial sums, so agreement is
        // to solver tolerance (same bound as feature_split_invariance)
        let scale = clean.model.rho.abs().max(1.0);
        prop_assert!(
            (clean.model.rho - faulted.model.rho).abs() < 1e-5 * scale,
            "rho {} vs {}", clean.model.rho, faulted.model.rho
        );
        let a = plssvm::core::svm::predict_decision_values(&clean.model, &data.x);
        let b = plssvm::core::svm::predict_decision_values(&faulted.model, &data.x);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    /// A solve interrupted at an arbitrary iteration and resumed from its
    /// checkpoint performs the exact arithmetic of an uninterrupted solve:
    /// bit-identical solution, identical total iteration count.
    #[test]
    fn checkpoint_restart_equals_uninterrupted_solve(data in labeled_data(16, 6), c in 0.5..5.0f64, stop in 1..8usize) {
        let kernel = KernelSpec::Rbf { gamma: 0.5 };
        let prepared = Prepared::new(&BackendSelection::Serial, &data.x, None, &kernel, c).unwrap();
        let rhs = reduced_rhs(&data.y);
        let cfg = CgConfig::with_epsilon(1e-10);
        let full = conjugate_gradients(&prepared, &rhs, &cfg, None, None, None, None);

        let stop_cfg = CgConfig {
            max_iterations: Some(stop),
            checkpoint_interval: Some(1),
            ..CgConfig::with_epsilon(1e-10)
        };
        let interrupted = conjugate_gradients(&prepared, &rhs, &stop_cfg, None, None, None, None);
        let state = interrupted.checkpoint.expect("checkpointing enabled");
        let resumed = conjugate_gradients(&prepared, &rhs, &cfg, None, None, Some(&state), None);
        prop_assert_eq!(&resumed.x, &full.x);
        prop_assert_eq!(resumed.iterations, full.iterations);
        prop_assert_eq!(resumed.converged, full.converged);
        prop_assert_eq!(resumed.residual_norm, full.residual_norm);
    }

    /// The weighted feature split (the failover redistribution primitive)
    /// covers every feature exactly once, in order, for any positive
    /// weight vector.
    #[test]
    fn weighted_split_covers_every_feature_exactly_once(
        data in labeled_data(12, 10),
        weights in proptest::collection::vec(0.1..10.0f64, 1..5),
    ) {
        let soa = SoAMatrix::from_dense(&data.x, 4);
        let parts = soa.split_features_weighted(&weights);
        prop_assert_eq!(parts.len(), weights.len());
        let total: usize = parts.iter().map(|p| p.features()).sum();
        prop_assert_eq!(total, soa.features());
        let mut start = 0;
        for part in &parts {
            prop_assert_eq!(part.points(), soa.points());
            for f in 0..part.features() {
                for p in 0..soa.points() {
                    prop_assert_eq!(part.get(p, f), soa.get(p, start + f));
                }
            }
            start += part.features();
        }
    }

    /// Multi-device linear training equals single-device training.
    #[test]
    fn feature_split_invariance(data in labeled_data(20, 8), devices in 2..5usize) {
        let single = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
            .train(&data)
            .unwrap();
        let multi = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, devices))
            .train(&data)
            .unwrap();
        // partial sums reassociate across devices and CG amplifies the
        // rounding on ill-conditioned random data — agreement is to solver
        // tolerance, not bit-exact
        let scale = single.model.rho.abs().max(1.0);
        prop_assert!(
            (single.model.rho - multi.model.rho).abs() < 1e-5 * scale,
            "rho {} vs {}", single.model.rho, multi.model.rho
        );
        let a = plssvm::core::svm::predict_decision_values(&single.model, &data.x);
        let b = plssvm::core::svm::predict_decision_values(&multi.model, &data.x);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4 * x.abs().max(1.0), "{x} vs {y}");
        }
    }
}
