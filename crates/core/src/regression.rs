//! Least squares support vector regression (LS-SVR) — the paper's §V
//! "regression tasks" extension.
//!
//! The beauty of the least squares formulation is that regression needs no
//! new machinery at all: the augmented KKT system of Eq. 11 never uses the
//! fact that `y ∈ {±1}`, so with real-valued targets the *identical*
//! reduced system `Q̃·α̃ = ȳ − y_m·1` yields the ridge-regression-in-
//! feature-space estimator of Saunders et al. (the paper's reference \[33\]).
//! Training is therefore [`crate::svm::LsSvm::train_regression`], the
//! classification pipeline with the result assembled into an [`SvrModel`];
//! only the model file and the prediction (no sign function) differ, and
//! they live here.

use plssvm_data::dense::DenseMatrix;
use plssvm_data::libsvm::RegressionData;
use plssvm_data::model::SvrModel;
use plssvm_data::Real;

use crate::simd::Isa;
use crate::svm::kernel_expansion;

/// Predicted regression values `f(x) = Σᵢ coefᵢ·k(svᵢ, x) + b` for every
/// row of `x`, computed by the same query-blocked
/// [`kernel_expansion`] as classification (4 support vectors × 4 test
/// points per feature pass).
pub fn predict_values<T: Real>(model: &SvrModel<T>, x: &DenseMatrix<T>) -> Vec<T> {
    assert_eq!(
        x.cols(),
        model.features(),
        "test data has {} features, model expects {}",
        x.cols(),
        model.features()
    );
    let isa = Isa::select();
    kernel_expansion(&model.kernel, isa, &model.sv, &model.coef, model.bias(), x)
}

/// Fallible [`predict_values`]: returns a structured
/// [`crate::error::SvmError::Solver`] instead of panicking when the query
/// batch is empty, has zero-feature rows, or does not match the model's
/// feature count.
pub fn try_predict_values<T: Real>(
    model: &SvrModel<T>,
    x: &DenseMatrix<T>,
) -> Result<Vec<T>, crate::error::SvmError> {
    crate::svm::validate_query_batch(model.features(), x)?;
    Ok(predict_values(model, x))
}

/// Mean squared error of the model on a labeled regression set.
pub fn mean_squared_error<T: Real>(model: &SvrModel<T>, data: &RegressionData<T>) -> f64 {
    let predictions = predict_values(model, &data.x);
    predictions
        .iter()
        .zip(&data.y)
        .map(|(p, y)| {
            let e = (*p - *y).to_f64();
            e * e
        })
        .sum::<f64>()
        / data.points() as f64
}

/// Coefficient of determination `R²` on a labeled regression set.
pub fn r_squared<T: Real>(model: &SvrModel<T>, data: &RegressionData<T>) -> f64 {
    let mean = data.y.iter().map(|v| v.to_f64()).sum::<f64>() / data.points() as f64;
    let ss_tot: f64 = data
        .y
        .iter()
        .map(|v| {
            let d = v.to_f64() - mean;
            d * d
        })
        .sum();
    if ss_tot == 0.0 {
        return 1.0;
    }
    1.0 - mean_squared_error(model, data) * data.points() as f64 / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSelection;
    use crate::error::SvmError;
    use crate::lowrank::SolverSelection;
    use crate::svm::LsSvm;
    use plssvm_data::model::KernelSpec;
    use plssvm_data::synthetic::{generate_sinc, SincConfig};
    use plssvm_data::CheckpointJournal;
    use plssvm_simgpu::{hw, Backend as DeviceApi};

    fn sinc(points: usize, noise: f64, seed: u64) -> RegressionData<f64> {
        generate_sinc(&SincConfig::new(points, seed).with_noise(noise)).unwrap()
    }

    fn rbf_svr() -> LsSvm<f64> {
        LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_cost(100.0)
            .with_epsilon(1e-8)
    }

    #[test]
    fn fits_noiseless_sinc_tightly() {
        let data = sinc(200, 0.0, 1);
        let out = rbf_svr().train_regression(&data).unwrap();
        assert!(out.converged);
        let mse = mean_squared_error(&out.model, &data);
        assert!(mse < 1e-5, "mse {mse}");
        assert!(r_squared(&out.model, &data) > 0.999);
    }

    #[test]
    fn generalizes_from_noisy_data() {
        let train = sinc(200, 0.05, 2);
        let test = sinc(100, 0.0, 3); // clean targets measure the true fit
        let out = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_cost(10.0) // moderate C: smooth, doesn't chase noise
            .with_epsilon(1e-8)
            .train_regression(&train)
            .unwrap();
        let mse = mean_squared_error(&out.model, &test);
        assert!(mse < 0.01, "test mse {mse}");
        assert!(r_squared(&out.model, &test) > 0.9);
    }

    #[test]
    fn linear_svr_recovers_a_linear_function() {
        // y = 2x₁ − 3x₂ + 1, exactly representable by the linear LS-SVR
        let mut x = DenseMatrix::<f64>::zeros(50, 2);
        let mut y = Vec::new();
        for p in 0..50 {
            let a = (p as f64) / 10.0 - 2.5;
            let b = ((p * 7 % 13) as f64) / 3.0 - 2.0;
            x.set(p, 0, a);
            x.set(p, 1, b);
            y.push(2.0 * a - 3.0 * b + 1.0);
        }
        let data = RegressionData::new(x, y).unwrap();
        let out = LsSvm::new()
            .with_cost(1e6) // tiny ridge → near-interpolation
            .with_epsilon(1e-12)
            .train_regression(&data)
            .unwrap();
        let mse = mean_squared_error(&out.model, &data);
        assert!(mse < 1e-6, "mse {mse}");
    }

    #[test]
    fn all_backends_agree_on_regression() {
        let data = sinc(80, 0.02, 4);
        let reference = rbf_svr()
            .with_backend(BackendSelection::Serial)
            .train_regression(&data)
            .unwrap();
        for backend in [
            BackendSelection::openmp(Some(2)),
            BackendSelection::SparseCpu { threads: None },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ] {
            let out = rbf_svr()
                .with_backend(backend.clone())
                .train_regression(&data)
                .unwrap();
            assert!(
                (out.model.rho - reference.model.rho).abs() < 1e-6,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn multi_device_regression_linear_kernel() {
        let data = {
            // multi-feature linear regression set
            let mut x = DenseMatrix::<f64>::zeros(60, 6);
            let mut y = Vec::new();
            for p in 0..60 {
                let mut t = 0.5;
                for f in 0..6 {
                    let v = ((p * (f + 3)) % 17) as f64 / 5.0 - 1.5;
                    x.set(p, f, v);
                    t += (f as f64 - 2.5) * v;
                }
                y.push(t);
            }
            RegressionData::new(x, y).unwrap()
        };
        let single = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
            .train_regression(&data)
            .unwrap();
        let quad = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_multi_gpu(
                hw::A100,
                DeviceApi::Cuda,
                3,
            ))
            .train_regression(&data)
            .unwrap();
        assert!((single.model.rho - quad.model.rho).abs() < 1e-6);
        assert!(quad.device.unwrap().per_device.len() == 3);
    }

    #[test]
    fn model_file_roundtrip_preserves_predictions() {
        let data = sinc(60, 0.05, 5);
        let out = rbf_svr().train_regression(&data).unwrap();
        let dir = std::env::temp_dir().join("plssvm_svr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sinc.model");
        out.model.save(&path).unwrap();
        let loaded = SvrModel::<f64>::load(&path).unwrap();
        let a = predict_values(&out.model, &data.x);
        let b = predict_values(&loaded, &data.x);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_mirrors_classification_api() {
        use crate::trace::{spans, Telemetry};
        let data = sinc(80, 0.02, 4);
        let t = Telemetry::shared();
        let out = rbf_svr()
            .with_metrics(t.clone())
            .train_regression(&data)
            .unwrap();
        let report = out.telemetry.expect("telemetry");
        assert_eq!(report.iterations(), out.iterations);
        assert!(report.kernels["svm_kernel"].launches >= out.iterations as u64);
        assert!(report.span(spans::CG) >= report.span(spans::CG_SOLVE));
        assert!(report.span(spans::TRAIN) >= report.span(spans::CG));
    }

    #[test]
    fn journaled_regression_resumes_bit_exactly() {
        let data = sinc(120, 0.0, 9);
        let dir = std::env::temp_dir().join(format!("plssvm_svr_journal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let reference = rbf_svr().train_regression(&data).unwrap();
        let journaled = rbf_svr()
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal.clone())
            .train_regression(&data)
            .unwrap();
        assert_eq!(reference.model.coef, journaled.model.coef);
        assert!(!journal.is_empty().unwrap());
        let resumed = rbf_svr()
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal)
            .with_resume(true)
            .train_regression(&data)
            .unwrap();
        assert_eq!(resumed.model.coef, reference.model.coef);
        assert_eq!(resumed.model.rho, reference.model.rho);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn svr_and_svm_journals_are_mutually_exclusive() {
        // an SVR journal must not be resumable by the classification
        // trainer even on identical x/y shapes — the "svr" tag in the
        // context fingerprint separates them
        let labeled = plssvm_data::synthetic::generate_planes::<f64>(
            &plssvm_data::synthetic::PlanesConfig::new(40, 3, 11),
        )
        .unwrap();
        let data = RegressionData::new(labeled.x.clone(), labeled.y.clone()).unwrap();
        let dir = std::env::temp_dir().join(format!("plssvm_svr_tag_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let trainer = LsSvm::new()
            .with_epsilon(1e-8)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal);
        trainer.train_regression(&data).unwrap();
        let err = trainer.with_resume(true).train(&labeled).unwrap_err();
        assert!(
            matches!(&err, SvmError::Checkpoint(e) if e.kind() == "context_mismatch"),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lowrank_regression_matches_exact() {
        let data = sinc(150, 0.0, 21);
        let exact = rbf_svr().train_regression(&data).unwrap();
        let lowrank = rbf_svr()
            .with_solver(SolverSelection::lowrank(40))
            .train_regression(&data)
            .unwrap();
        assert!(lowrank.converged, "{:?}", lowrank.outcome);
        assert!((exact.model.rho - lowrank.model.rho).abs() < 1e-5);
        let mse = mean_squared_error(&lowrank.model, &data);
        assert!(mse < 1e-5, "mse {mse}");
    }

    #[test]
    fn lowrank_resume_is_rejected() {
        let data = sinc(30, 0.0, 22);
        let dir = std::env::temp_dir().join(format!("plssvm_svr_lr_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let err = rbf_svr()
            .with_solver(SolverSelection::lowrank(8))
            .with_checkpoint_journal(journal)
            .with_resume(true)
            .train_regression(&data)
            .unwrap_err();
        assert!(
            matches!(&err, SvmError::Solver(msg) if msg.contains("resume")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let one = RegressionData::new(
            DenseMatrix::from_rows(vec![vec![1.0f64]]).unwrap(),
            vec![1.0],
        )
        .unwrap();
        assert!(LsSvm::new().train_regression(&one).is_err());
    }

    #[test]
    fn r_squared_of_constant_targets_is_one_for_perfect_fit() {
        let x = DenseMatrix::from_rows(vec![vec![1.0f64], vec![2.0], vec![3.0]]).unwrap();
        let data = RegressionData::new(x, vec![5.0, 5.0, 5.0]).unwrap();
        let out = LsSvm::new()
            .with_epsilon(1e-10)
            .train_regression(&data)
            .unwrap();
        assert!(mean_squared_error(&out.model, &data) < 1e-10);
        assert_eq!(r_squared(&out.model, &data), 1.0);
    }
}
