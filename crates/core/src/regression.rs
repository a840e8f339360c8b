//! Least squares support vector regression (LS-SVR) — the paper's §V
//! "regression tasks" extension.
//!
//! The beauty of the least squares formulation is that regression needs no
//! new machinery at all: the augmented KKT system of Eq. 11 never uses the
//! fact that `y ∈ {±1}`, so with real-valued targets the *identical*
//! reduced system `Q̃·α̃ = ȳ − y_m·1` yields the ridge-regression-in-
//! feature-space estimator of Saunders et al. (the paper's reference \[33\]).
//! Every backend, the CG solver and the multi-device split work unchanged;
//! only the model file and the prediction (no sign function) differ.

use std::sync::Arc;
use std::time::Instant;

use plssvm_data::dense::{DenseMatrix, SoAMatrix};
use plssvm_data::libsvm::RegressionData;
use plssvm_data::model::{KernelSpec, SvrModel};
use plssvm_data::Real;
use plssvm_simgpu::device::AtomicScalar;

use plssvm_data::CheckpointJournal;

use crate::backend::{BackendSelection, CpuTilingConfig, DeviceReport, Prepared};
use crate::cg::{CgConfig, SolveOutcome};
use crate::checkpoint::{load_resume_point, ContextFingerprint, JournalSink};
use crate::error::SvmError;
use crate::guard::{
    solve_with_guardrails_checkpointed, GuardedSolve, JacobiDiagonal, RecoveryPolicy,
    RungCheckpointSink,
};
use crate::kernel::kernel_row;
use crate::lowrank::{solve_lowrank, SolverSelection};
use crate::matrix_free::{bias, full_alpha, reduced_rhs};
use crate::simd::Isa;
use crate::svm::kernel_expansion;
use crate::trace::{spans, MetricsSink, RecoveryKind, SpanRecorder, Telemetry, TelemetryReport};

/// LS-SVR trainer configuration (mirrors [`crate::svm::LsSvm`]).
///
/// ```
/// use plssvm_core::prelude::*;
/// use plssvm_data::synthetic::{generate_sinc, SincConfig};
///
/// let data = generate_sinc::<f64>(&SincConfig::new(100, 7).with_noise(0.0))?;
/// let out = LsSvr::new()
///     .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
///     .with_cost(100.0)
///     .with_epsilon(1e-8)
///     .train(&data)?;
/// assert!(mean_squared_error(&out.model, &data) < 1e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LsSvr<T> {
    /// Kernel function (default linear).
    pub kernel: KernelSpec<T>,
    /// The regularization constant `C > 0` (LS-SVM's `γ` in Suykens'
    /// notation).
    pub cost: T,
    /// CG relative-residual termination criterion ε.
    pub epsilon: T,
    /// Optional CG iteration cap.
    pub max_iterations: Option<usize>,
    /// Execution backend.
    pub backend: BackendSelection,
    /// Optional cache-tiling override for the blocked CPU matvec engine;
    /// mirrors [`crate::svm::LsSvm::cpu_tiling`].
    pub cpu_tiling: Option<CpuTilingConfig>,
    /// Optional observability sink (see [`crate::trace`]); mirrors
    /// [`crate::svm::LsSvm::metrics`].
    pub metrics: Option<Arc<Telemetry>>,
    /// Optional deterministic fault-injection plan (simulated device
    /// backends only); mirrors [`crate::svm::LsSvm::fault_plan`].
    pub fault_plan: Option<plssvm_simgpu::FaultPlan>,
    /// Snapshot CG state every this many iterations; mirrors
    /// [`crate::svm::LsSvm::checkpoint_interval`].
    pub checkpoint_interval: Option<usize>,
    /// Durable on-disk checkpoint journal; mirrors
    /// [`crate::svm::LsSvm::checkpoint_journal`].
    pub checkpoint_journal: Option<CheckpointJournal>,
    /// Resume from the journal's newest valid generation; mirrors
    /// [`crate::svm::LsSvm::resume`].
    pub resume: bool,
    /// Extra entropy for the checkpoint context fingerprint; mirrors
    /// [`crate::svm::LsSvm::checkpoint_salt`].
    pub checkpoint_salt: u64,
    /// Escalation ladder for non-converged solves; mirrors
    /// [`crate::svm::LsSvm::recovery_policy`].
    pub recovery_policy: RecoveryPolicy,
    /// Which solver runs the reduced system; mirrors
    /// [`crate::svm::LsSvm::solver`] (including the resume rejection).
    pub solver: SolverSelection,
}

impl<T: Real> Default for LsSvr<T> {
    fn default() -> Self {
        Self {
            kernel: KernelSpec::Linear,
            cost: T::ONE,
            epsilon: T::from_f64(1e-3),
            max_iterations: None,
            backend: BackendSelection::default(),
            cpu_tiling: None,
            metrics: None,
            fault_plan: None,
            checkpoint_interval: None,
            checkpoint_journal: None,
            resume: false,
            checkpoint_salt: 0,
            recovery_policy: RecoveryPolicy::default(),
            solver: SolverSelection::default(),
        }
    }
}

/// Everything a regression training run produces.
#[derive(Debug)]
pub struct SvrTrainOutput<T> {
    /// The trained regression model.
    pub model: SvrModel<T>,
    /// CG iterations performed (summed across all escalation rungs).
    pub iterations: usize,
    /// Whether CG met the ε criterion.
    pub converged: bool,
    /// Why the solve stopped (see [`crate::svm::TrainOutput::outcome`]).
    pub outcome: SolveOutcome,
    /// The recovery rungs that engaged, in order (empty on the happy
    /// path).
    pub escalations: Vec<RecoveryKind>,
    /// Final `‖r‖/‖r₀‖`.
    pub relative_residual: f64,
    /// Device counters (simulated backends only).
    pub device: Option<DeviceReport>,
    /// The unified observability report (`Some` iff a sink was attached
    /// via [`LsSvr::with_metrics`]).
    pub telemetry: Option<TelemetryReport>,
    /// True when persistent storage failures disabled durable
    /// checkpointing partway through the solve (see
    /// [`crate::svm::TrainOutput::io_degraded`]).
    pub io_degraded: bool,
}

impl<T: AtomicScalar> LsSvr<T> {
    /// A trainer with all defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the kernel function.
    pub fn with_kernel(mut self, kernel: KernelSpec<T>) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the regularization constant `C`.
    pub fn with_cost(mut self, cost: T) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the CG tolerance ε.
    pub fn with_epsilon(mut self, epsilon: T) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: BackendSelection) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the cache tiling of the blocked CPU matvec engine;
    /// mirrors [`crate::svm::LsSvm::with_cpu_tiling`].
    pub fn with_cpu_tiling(mut self, tiling: CpuTilingConfig) -> Self {
        self.cpu_tiling = Some(tiling);
        self
    }

    /// Attaches an observability sink; mirrors
    /// [`crate::svm::LsSvm::with_metrics`].
    pub fn with_metrics(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = Some(telemetry);
        self
    }

    /// Installs a deterministic device-fault plan for the solve; mirrors
    /// [`crate::svm::LsSvm::with_fault_plan`].
    pub fn with_fault_plan(mut self, plan: plssvm_simgpu::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Snapshots CG state every `iterations` iterations; mirrors
    /// [`crate::svm::LsSvm::with_checkpoint_interval`].
    pub fn with_checkpoint_interval(mut self, iterations: usize) -> Self {
        self.checkpoint_interval = Some(iterations);
        self
    }

    /// Streams snapshots into a durable on-disk journal; mirrors
    /// [`crate::svm::LsSvm::with_checkpoint_journal`].
    pub fn with_checkpoint_journal(mut self, journal: CheckpointJournal) -> Self {
        self.checkpoint_journal = Some(journal);
        self
    }

    /// Resumes from the journal's newest valid generation; mirrors
    /// [`crate::svm::LsSvm::with_resume`].
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Folds extra entropy into the checkpoint context fingerprint;
    /// mirrors [`crate::svm::LsSvm::with_checkpoint_salt`].
    pub fn with_checkpoint_salt(mut self, salt: u64) -> Self {
        self.checkpoint_salt = salt;
        self
    }

    /// The checkpoint context fingerprint of this invocation (see
    /// [`crate::svm::LsSvm`]'s equivalent; the `"svr"` tag keeps
    /// classification and regression journals mutually exclusive).
    fn checkpoint_context(&self, data: &RegressionData<T>) -> u64 {
        let mut fp = ContextFingerprint::new()
            .push_str("svr")
            .push_kernel(&self.kernel)
            .push_f64(self.cost.to_f64())
            .push_u64(T::BYTES as u64)
            .push_u64(data.points() as u64)
            .push_u64(data.features() as u64)
            .push_u64(self.checkpoint_salt);
        for p in 0..data.points() {
            for &v in data.x.row(p) {
                fp = fp.push_f64(v.to_f64());
            }
            fp = fp.push_f64(data.y[p].to_f64());
        }
        fp.finish()
    }

    /// Overrides the solver recovery policy; mirrors
    /// [`crate::svm::LsSvm::with_recovery_policy`].
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery_policy = policy;
        self
    }

    /// Selects the solver for the reduced system; mirrors
    /// [`crate::svm::LsSvm::with_solver`].
    pub fn with_solver(mut self, solver: SolverSelection) -> Self {
        self.solver = solver;
        self
    }

    /// Trains on a regression data set.
    pub fn train(&self, data: &RegressionData<T>) -> Result<SvrTrainOutput<T>, SvmError> {
        let t_total = Instant::now();
        if data.points() < 2 {
            return Err(SvmError::Solver(
                "regression needs at least two data points".into(),
            ));
        }
        if self.resume && matches!(self.solver, SolverSelection::LowRank { .. }) {
            return Err(SvmError::Solver(
                "cannot resume a checkpointed run with the low-rank solver: the \
                 checkpoint journal streams exact-CG state only (drop the resume \
                 flag or select the exact solver)"
                    .into(),
            ));
        }
        let mut rec = SpanRecorder::new();
        // the tiling knob overrides what the OpenMP selection carries
        let backend = match (&self.backend, self.cpu_tiling) {
            (BackendSelection::OpenMp { threads, .. }, Some(tiling)) => BackendSelection::OpenMp {
                threads: *threads,
                tiling,
            },
            _ => self.backend.clone(),
        };
        let soa = rec.time(spans::TRANSFORM, || match &backend {
            BackendSelection::SimGpu { tiling, .. }
            | BackendSelection::SimGpuRows { tiling, .. }
            | BackendSelection::SimCluster { tiling, .. } => {
                Some(SoAMatrix::from_dense(&data.x, tiling.tile()))
            }
            _ => None,
        });
        let t_cg = Instant::now();
        let t_setup = Instant::now();
        let mut prepared = Prepared::new(&backend, &data.x, soa.as_ref(), &self.kernel, self.cost)?;
        if let Some(sink) = &self.metrics {
            prepared.set_metrics(Arc::clone(sink) as Arc<dyn MetricsSink>);
        }
        if let Some(plan) = &self.fault_plan {
            prepared.install_fault_plan(plan)?;
        }
        let rhs = reduced_rhs(&data.y);
        rec.record(spans::CG_SETUP, t_setup.elapsed());
        let cfg = CgConfig {
            epsilon: self.epsilon,
            max_iterations: self.max_iterations,
            checkpoint_interval: self.checkpoint_interval,
            ..CgConfig::default()
        };
        let metrics_ref = self.metrics.as_deref().map(|t| t as &dyn MetricsSink);
        let t_solve = Instant::now();
        // diag(Q̃)ᵢ = k(xᵢ,xᵢ) + ridgeᵢ − 2qᵢ + Q_mm — only computed if the
        // preconditioner rung of the escalation ladder engages
        let compute_diagonal = || {
            let params = prepared.params();
            (0..params.dim())
                .map(|i| {
                    kernel_row(&self.kernel, data.x.row(i), data.x.row(i)) + params.ridge(i)
                        - T::TWO * params.q[i]
                        + params.q_mm()
                })
                .collect::<Vec<T>>()
        };
        let mut io_degraded = false;
        let GuardedSolve {
            result: solve,
            total_iterations,
            escalations,
        } = match self.solver {
            SolverSelection::LowRank {
                rank,
                seed,
                strategy,
            } => solve_lowrank(
                &prepared,
                prepared.params(),
                &data.x,
                &self.kernel,
                rank,
                seed,
                strategy,
                &rhs,
                &cfg,
                &self.recovery_policy,
                JacobiDiagonal::Lazy(&compute_diagonal),
                metrics_ref,
            )?,
            SolverSelection::Exact => {
                let mut resume_point = None;
                let journal_sink = match &self.checkpoint_journal {
                    Some(journal) => {
                        let context = self.checkpoint_context(data);
                        if self.resume {
                            resume_point =
                                load_resume_point::<T>(journal, context, rhs.len(), metrics_ref)?;
                        }
                        Some(JournalSink::new(
                            journal.clone(),
                            context,
                            self.metrics
                                .as_ref()
                                .map(|t| Arc::clone(t) as Arc<dyn MetricsSink>),
                        ))
                    }
                    None => None,
                };
                let guarded = solve_with_guardrails_checkpointed(
                    &prepared,
                    &rhs,
                    &cfg,
                    &self.recovery_policy,
                    JacobiDiagonal::Lazy(&compute_diagonal),
                    metrics_ref,
                    journal_sink
                        .as_ref()
                        .map(|s| s as &dyn RungCheckpointSink<T>),
                    resume_point.as_ref(),
                );
                io_degraded = journal_sink.as_ref().is_some_and(JournalSink::is_degraded);
                guarded
            }
        };
        rec.record(spans::CG_SOLVE, t_solve.elapsed());
        rec.record(spans::CG, t_cg.elapsed());
        let t_write = Instant::now();
        let b = bias(prepared.params(), &data.y, &solve.x);
        let alpha = full_alpha(&solve.x);
        let model = SvrModel {
            kernel: self.kernel,
            rho: -b,
            sv: data.x.clone(),
            coef: alpha,
            solver: self.solver.provenance(),
        };
        rec.record(spans::WRITE, t_write.elapsed());
        rec.record(spans::TRAIN, t_total.elapsed());
        let device = prepared.device_report();
        let telemetry = self.metrics.as_ref().map(|t| {
            if let Some(dev) = &device {
                dev.fold_into(&**t);
            }
            rec.flush_into(&**t);
            t.report()
        });
        Ok(SvrTrainOutput {
            model,
            iterations: total_iterations,
            converged: solve.converged,
            outcome: solve.outcome,
            escalations,
            relative_residual: solve.relative_residual().to_f64(),
            device,
            telemetry,
            io_degraded,
        })
    }
}

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
    use plssvm_data::synthetic::{generate_sinc, SincConfig};
    use plssvm_simgpu::{hw, Backend as DeviceApi};

    fn sinc(points: usize, noise: f64, seed: u64) -> RegressionData<f64> {
        generate_sinc(&SincConfig::new(points, seed).with_noise(noise)).unwrap()
    }

    fn rbf_svr() -> LsSvr<f64> {
        LsSvr::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_cost(100.0)
            .with_epsilon(1e-8)
    }

    #[test]
    fn fits_noiseless_sinc_tightly() {
        let data = sinc(200, 0.0, 1);
        let out = rbf_svr().train(&data).unwrap();
        assert!(out.converged);
        let mse = mean_squared_error(&out.model, &data);
        assert!(mse < 1e-5, "mse {mse}");
        assert!(r_squared(&out.model, &data) > 0.999);
    }

    #[test]
    fn generalizes_from_noisy_data() {
        let train = sinc(200, 0.05, 2);
        let test = sinc(100, 0.0, 3); // clean targets measure the true fit
        let out = LsSvr::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_cost(10.0) // moderate C: smooth, doesn't chase noise
            .with_epsilon(1e-8)
            .train(&train)
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
        let out = LsSvr::new()
            .with_cost(1e6) // tiny ridge → near-interpolation
            .with_epsilon(1e-12)
            .train(&data)
            .unwrap();
        let mse = mean_squared_error(&out.model, &data);
        assert!(mse < 1e-6, "mse {mse}");
    }

    #[test]
    fn all_backends_agree_on_regression() {
        let data = sinc(80, 0.02, 4);
        let reference = rbf_svr()
            .with_backend(BackendSelection::Serial)
            .train(&data)
            .unwrap();
        for backend in [
            BackendSelection::openmp(Some(2)),
            BackendSelection::SparseCpu { threads: None },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ] {
            let out = rbf_svr()
                .with_backend(backend.clone())
                .train(&data)
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
        let single = LsSvr::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
            .train(&data)
            .unwrap();
        let quad = LsSvr::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_multi_gpu(
                hw::A100,
                DeviceApi::Cuda,
                3,
            ))
            .train(&data)
            .unwrap();
        assert!((single.model.rho - quad.model.rho).abs() < 1e-6);
        assert!(quad.device.unwrap().per_device.len() == 3);
    }

    #[test]
    fn model_file_roundtrip_preserves_predictions() {
        let data = sinc(60, 0.05, 5);
        let out = rbf_svr().train(&data).unwrap();
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
        let out = rbf_svr().with_metrics(t.clone()).train(&data).unwrap();
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
        let reference = rbf_svr().train(&data).unwrap();
        let journaled = rbf_svr()
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal.clone())
            .train(&data)
            .unwrap();
        assert_eq!(reference.model.coef, journaled.model.coef);
        assert!(!journal.is_empty().unwrap());
        let resumed = rbf_svr()
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal)
            .with_resume(true)
            .train(&data)
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
        let data = sinc(40, 0.0, 11);
        let dir = std::env::temp_dir().join(format!("plssvm_svr_tag_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        LsSvr::new()
            .with_epsilon(1e-8)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal.clone())
            .train(&data)
            .unwrap();
        let err = LsSvr::new()
            .with_epsilon(1e-8)
            .with_cost(3.0)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal)
            .with_resume(true)
            .train(&data)
            .unwrap_err();
        assert!(
            matches!(&err, SvmError::Checkpoint(e) if e.kind() == "context_mismatch"),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lowrank_regression_matches_exact() {
        let data = sinc(150, 0.0, 21);
        let exact = rbf_svr().train(&data).unwrap();
        let lowrank = rbf_svr()
            .with_solver(SolverSelection::lowrank(40))
            .train(&data)
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
            .train(&data)
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
        assert!(LsSvr::new().train(&one).is_err());
    }

    #[test]
    fn r_squared_of_constant_targets_is_one_for_perfect_fit() {
        let x = DenseMatrix::from_rows(vec![vec![1.0f64], vec![2.0], vec![3.0]]).unwrap();
        let data = RegressionData::new(x, vec![5.0, 5.0, 5.0]).unwrap();
        let out = LsSvr::new().with_epsilon(1e-10).train(&data).unwrap();
        assert!(mean_squared_error(&out.model, &data) < 1e-10);
        assert_eq!(r_squared(&out.model, &data), 1.0);
    }
}
