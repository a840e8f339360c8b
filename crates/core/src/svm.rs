//! The public LS-SVM training and prediction API.
//!
//! Training follows the paper's four steps (§III): (1) read the training
//! data, (2) transform it into the padded SoA layout and load it onto the
//! device, (3) solve the reduced system `Q̃·α̃ = ȳ − y_m·1` with CG on the
//! selected backend, (4) assemble (and optionally save) the model file.
//! Every step is timed individually (Fig. 2).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use plssvm_data::dense::{DenseMatrix, SoAMatrix};
use plssvm_data::libsvm::{read_libsvm_file, LabeledData, RegressionData};
use plssvm_data::model::{KernelSpec, SvmModel, SvrModel};
use plssvm_data::Real;
use plssvm_simgpu::device::AtomicScalar;
use plssvm_simgpu::FaultPlan;

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
use crate::simd::{tiered, Isa};
use crate::timing::ComponentTimes;
use crate::trace::{spans, MetricsSink, RecoveryKind, SpanRecorder, Telemetry, TelemetryReport};

/// LS-SVM trainer configuration (builder style).
///
/// Defaults mirror PLSSVM's command line: linear kernel, `C = 1`,
/// `ε = 1e-3` relative residual, the multi-threaded CPU backend.
///
/// ```
/// use plssvm_core::prelude::*;
/// use plssvm_data::synthetic::{generate_planes, PlanesConfig};
///
/// let data = generate_planes::<f64>(&PlanesConfig::new(64, 8, 42))?;
/// let out = LsSvm::new()
///     .with_kernel(KernelSpec::Linear)
///     .with_epsilon(1e-6)
///     .train(&data)?;
/// assert!(out.converged);
/// assert!(accuracy(&out.model, &data) > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LsSvm<T> {
    /// Kernel function (default linear).
    pub kernel: KernelSpec<T>,
    /// The weighting constant `C > 0` of the LS-SVM objective.
    pub cost: T,
    /// CG relative-residual termination criterion ε.
    pub epsilon: T,
    /// Optional CG iteration cap (`None`: the system dimension).
    pub max_iterations: Option<usize>,
    /// Execution backend.
    pub backend: BackendSelection,
    /// Optional cache-tiling override for the blocked CPU matvec engine
    /// (applies when `backend` is the "OpenMP" backend; `None` keeps the
    /// tiling already carried by the selection).
    pub cpu_tiling: Option<CpuTilingConfig>,
    /// Optional per-sample weights `vᵢ > 0` (weighted LS-SVM, Suykens et
    /// al. \[25\]): the error term of sample `i` is weighted `C·vᵢ`, i.e.
    /// small weights let suspected outliers violate the margin cheaply.
    pub sample_weights: Option<Vec<T>>,
    /// Solve with Jacobi-preconditioned CG instead of plain CG (an
    /// extension past the paper; helps on badly scaled kernels).
    pub jacobi_preconditioner: bool,
    /// Optional observability sink (see [`crate::trace`]): when set, the
    /// run records per-iteration CG telemetry, unified kernel-launch
    /// counters and timing spans, and [`TrainOutput::telemetry`] carries
    /// the report. `None` (the default) records nothing.
    pub metrics: Option<Arc<Telemetry>>,
    /// Optional deterministic fault schedule injected into the simulated
    /// devices (device backends only): transient timeouts are retried
    /// with simulated backoff, fail-stopped devices are dropped with
    /// their shard redistributed across the survivors, and slow devices
    /// are rebalanced away from. Recovery events appear in the telemetry
    /// report when a sink is attached.
    pub fault_plan: Option<FaultPlan>,
    /// Snapshot the CG state every this many iterations (see
    /// [`crate::cg::CgState`]); each snapshot emits a `checkpoint`
    /// recovery event to the metrics sink. `None` (the default) disables
    /// checkpointing.
    pub checkpoint_interval: Option<usize>,
    /// Durable on-disk checkpoint journal: every periodic snapshot is
    /// additionally appended as a checksummed generation file, making the
    /// run crash-safe (see [`crate::checkpoint`]). Requires
    /// `checkpoint_interval` to actually produce snapshots.
    pub checkpoint_journal: Option<CheckpointJournal>,
    /// Resume from the journal's newest valid generation instead of
    /// starting fresh. The journal must belong to the same training
    /// context (data, kernel, cost, precision, shape) — a mismatch is a
    /// hard [`SvmError::Checkpoint`] error. An *empty* journal resumes as
    /// a fresh start (a crash before the first checkpoint loses nothing).
    pub resume: bool,
    /// Extra entropy folded into the checkpoint context fingerprint. The
    /// CLI sets this to a hash of the training file's bytes so a journal
    /// written for one data set can never be resumed against another.
    pub checkpoint_salt: u64,
    /// Escalation ladder engaged when the CG solve comes back
    /// non-converged (see [`crate::guard`]): restart with exact residual,
    /// then Jacobi preconditioning, then (f32 only) f64 iterative
    /// refinement over the working-precision backend. The default engages
    /// every rung; [`RecoveryPolicy::disabled`] returns the first
    /// attempt's classified outcome untouched.
    pub recovery_policy: RecoveryPolicy,
    /// Which solver runs the reduced system (the CLI's `--solver`): the
    /// exact CG ladder (default) or the randomized low-rank (Nyström)
    /// path of [`crate::lowrank`]. The low-rank path never streams
    /// durable checkpoints (an attached journal is left untouched) and
    /// rejects [`LsSvm::with_resume`] with a structured error — the
    /// journal carries exact-CG state only.
    pub solver: SolverSelection,
}

impl<T: Real> Default for LsSvm<T> {
    fn default() -> Self {
        Self {
            kernel: KernelSpec::Linear,
            cost: T::ONE,
            epsilon: T::from_f64(1e-3),
            max_iterations: None,
            backend: BackendSelection::default(),
            cpu_tiling: None,
            sample_weights: None,
            jacobi_preconditioner: false,
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

impl<T: AtomicScalar> LsSvm<T> {
    /// A trainer with all defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the kernel function.
    pub fn with_kernel(mut self, kernel: KernelSpec<T>) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the cost parameter `C`.
    pub fn with_cost(mut self, cost: T) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the CG tolerance ε.
    pub fn with_epsilon(mut self, epsilon: T) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Caps the number of CG iterations.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = Some(iters);
        self
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: BackendSelection) -> Self {
        self.backend = backend;
        self
    }

    /// Installs per-sample weights (weighted LS-SVM).
    pub fn with_sample_weights(mut self, weights: Vec<T>) -> Self {
        self.sample_weights = Some(weights);
        self
    }

    /// Enables the Jacobi-preconditioned CG solver.
    pub fn with_jacobi_preconditioner(mut self, enabled: bool) -> Self {
        self.jacobi_preconditioner = enabled;
        self
    }

    /// Attaches an observability sink: the training run records CG
    /// telemetry, unified kernel counters and timing spans into it, and
    /// [`TrainOutput::telemetry`] carries the resulting report.
    pub fn with_metrics(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = Some(telemetry);
        self
    }

    /// Injects a deterministic [`FaultPlan`] into the simulated devices
    /// (device backends only; training errors on CPU backends). The
    /// recovery policy — retry-with-backoff, fail-stop shard
    /// redistribution, straggler rebalancing — engages automatically.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Snapshots the CG state every `iterations` iterations (warm-restart
    /// checkpointing; must be at least 1).
    pub fn with_checkpoint_interval(mut self, iterations: usize) -> Self {
        self.checkpoint_interval = Some(iterations);
        self
    }

    /// Streams every periodic snapshot into a durable on-disk journal
    /// (crash-safe training). Combine with
    /// [`LsSvm::with_checkpoint_interval`] to control the cadence.
    pub fn with_checkpoint_journal(mut self, journal: CheckpointJournal) -> Self {
        self.checkpoint_journal = Some(journal);
        self
    }

    /// Resumes from the journal's newest valid generation (requires
    /// [`LsSvm::with_checkpoint_journal`]).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Folds extra entropy (e.g. a training-file content hash) into the
    /// checkpoint context fingerprint.
    pub fn with_checkpoint_salt(mut self, salt: u64) -> Self {
        self.checkpoint_salt = salt;
        self
    }

    /// Overrides the solver recovery policy (which escalation rungs may
    /// engage on a non-converged solve).
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery_policy = policy;
        self
    }

    /// Selects the solver for the reduced system: exact CG (the default)
    /// or the randomized low-rank (Nyström) path (see [`crate::lowrank`]).
    /// Incompatible with [`LsSvm::with_resume`].
    pub fn with_solver(mut self, solver: SolverSelection) -> Self {
        self.solver = solver;
        self
    }

    /// Trains on an in-memory data set (the `read` component is zero).
    pub fn train(&self, data: &LabeledData<T>) -> Result<TrainOutput<T>, SvmError> {
        self.train_classifier(data, Duration::ZERO, None)
    }

    /// [`LsSvm::train`] on data the caller parsed, reporting `read` (the
    /// time that parse took) as the `read` component, so a caller that
    /// must inspect the file before training still parses it only once.
    pub fn train_parsed(
        &self,
        data: &LabeledData<T>,
        read: Duration,
    ) -> Result<TrainOutput<T>, SvmError> {
        self.train_classifier(data, read, None)
    }

    /// Trains from a LIBSVM data file, timing the `read` component, and
    /// optionally writes the model file (timed as `write`).
    pub fn train_from_file(
        &self,
        train_path: impl AsRef<Path>,
        model_path: Option<&Path>,
    ) -> Result<TrainOutput<T>, SvmError> {
        let t0 = Instant::now();
        let data = read_libsvm_file::<T>(train_path, None)?;
        self.train_classifier(&data, t0.elapsed(), model_path)
    }

    /// Trains an LS-SVR on real-valued targets (the paper's §V regression
    /// extension): the reduced system never uses `y ∈ {±1}`, so this is
    /// the [`LsSvm::train`] pipeline with the result assembled into an
    /// [`SvrModel`] (see [`crate::regression`]).
    ///
    /// ```
    /// use plssvm_core::prelude::*;
    /// use plssvm_data::synthetic::{generate_sinc, SincConfig};
    ///
    /// let data = generate_sinc::<f64>(&SincConfig::new(100, 7).with_noise(0.0))?;
    /// let out = LsSvm::new()
    ///     .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
    ///     .with_cost(100.0)
    ///     .with_epsilon(1e-8)
    ///     .train_regression(&data)?;
    /// assert!(mean_squared_error(&out.model, &data) < 1e-4);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn train_regression(
        &self,
        data: &RegressionData<T>,
    ) -> Result<TrainOutput<T, SvrModel<T>>, SvmError> {
        self.run(
            Task::Regression,
            &data.x,
            &data.y,
            Duration::ZERO,
            |_, coef, b| {
                let model = SvrModel {
                    kernel: self.kernel,
                    rho: -b,
                    sv: data.x.clone(),
                    coef,
                    solver: self.solver.provenance(),
                };
                Ok((model, None))
            },
        )
    }

    fn train_classifier(
        &self,
        data: &LabeledData<T>,
        read: Duration,
        model_path: Option<&Path>,
    ) -> Result<TrainOutput<T>, SvmError> {
        self.run(
            Task::Classification,
            &data.x,
            &data.y,
            read,
            |prepared, coef, b| {
                // Eq. 15: for the linear kernel the explicit normal vector w is
                // materialized (the paper's third compute kernel, `w_kernel`) so
                // prediction costs O(d) per point instead of O(m·d)
                let linear_w = if matches!(self.kernel, KernelSpec::Linear) {
                    prepared.compute_linear_w(&coef)?
                } else {
                    None
                };
                let (pos, neg) = data.class_counts();
                let model = SvmModel {
                    kernel: self.kernel,
                    labels: data.label_map,
                    rho: -b,
                    sv: data.x.clone(),
                    coef,
                    nr_sv: [pos, neg],
                    solver: self.solver.provenance(),
                };
                if let Some(path) = model_path {
                    model.save(path)?;
                }
                Ok((model, linear_w))
            },
        )
    }

    /// The fingerprint that must match between the run that wrote a
    /// checkpoint and the run resuming from it: the task, training data
    /// (features *and* targets), kernel, cost, working precision, problem
    /// shape, preconditioning mode, sample weights, plus the caller's salt.
    /// Regression journals carry an `"svr"` tag and the preconditioning
    /// mode only when it is on, and weights are folded in only when set,
    /// so journals written before either existed still resume.
    fn checkpoint_context(&self, task: Task, x: &DenseMatrix<T>, y: &[T]) -> u64 {
        let mut fp = ContextFingerprint::new();
        if task == Task::Regression {
            fp = fp.push_str("svr");
        }
        fp = fp
            .push_kernel(&self.kernel)
            .push_f64(self.cost.to_f64())
            .push_u64(T::BYTES as u64)
            .push_u64(x.rows() as u64)
            .push_u64(x.cols() as u64);
        if task == Task::Classification || self.jacobi_preconditioner {
            fp = fp.push_u64(u64::from(self.jacobi_preconditioner));
        }
        fp = fp.push_u64(self.checkpoint_salt);
        for (p, &target) in y.iter().enumerate() {
            for &v in x.row(p) {
                fp = fp.push_f64(v.to_f64());
            }
            fp = fp.push_f64(target.to_f64());
        }
        if let Some(weights) = &self.sample_weights {
            fp = fp.push_str("weights");
            for &w in weights {
                fp = fp.push_f64(w.to_f64());
            }
        }
        fp.finish()
    }

    /// The one training pipeline (§III): input checks, transform, setup,
    /// the exact or low-rank solve, spans and telemetry. `assemble` turns
    /// the full `α` and the bias `b` into the model (plus the linear `w`)
    /// inside the `write` span.
    fn run<M>(
        &self,
        task: Task,
        x: &DenseMatrix<T>,
        y: &[T],
        read: Duration,
        assemble: impl FnOnce(&Prepared<T>, Vec<T>, T) -> Result<(M, Option<Vec<T>>), SvmError>,
    ) -> Result<TrainOutput<T, M>, SvmError> {
        let t_total = Instant::now();
        if x.rows() < 2 {
            return Err(SvmError::Solver(
                "training needs at least two data points".into(),
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
        rec.record(spans::READ, read);

        // the tiling knob overrides what the OpenMP selection carries
        let backend = match (&self.backend, self.cpu_tiling) {
            (BackendSelection::OpenMp { threads, .. }, Some(tiling)) => BackendSelection::OpenMp {
                threads: *threads,
                tiling,
            },
            _ => self.backend.clone(),
        };

        // (2a) transform: 2D row-major → padded column-major SoA. The
        // paper applies this step only for its GPU backends (§IV-E); the
        // CPU backends work on the row-major layout directly.
        let soa = rec.time(spans::TRANSFORM, || match &backend {
            BackendSelection::SimGpu { tiling, .. }
            | BackendSelection::SimGpuRows { tiling, .. }
            | BackendSelection::SimCluster { tiling, .. } => {
                Some(SoAMatrix::from_dense(x, tiling.tile()))
            }
            _ => None,
        });

        // (2b + 3) device setup, upload and CG solve
        let t_cg = Instant::now();
        let t_setup = Instant::now();
        let mut prepared = Prepared::new(&backend, x, soa.as_ref(), &self.kernel, self.cost)?;
        if let Some(sink) = &self.metrics {
            prepared.set_metrics(Arc::clone(sink) as Arc<dyn MetricsSink>);
        }
        if let Some(plan) = &self.fault_plan {
            prepared.install_fault_plan(plan)?;
            // with no survivor there is nobody to redistribute to
            let (stopped, live) = (plan.fail_stopped_devices(), prepared.live_devices());
            if stopped >= live {
                return Err(SvmError::Solver(format!(
                    "the fault plan fail-stops {stopped} of {live} live device(s); \
                     no survivor could finish the solve"
                )));
            }
        }
        if let Some(weights) = &self.sample_weights {
            if weights.len() != x.rows() {
                return Err(SvmError::Solver(format!(
                    "{} sample weights for {} data points",
                    weights.len(),
                    x.rows()
                )));
            }
            prepared.set_sample_weights(weights, self.cost)?;
        }
        let rhs = reduced_rhs(y);
        rec.record(spans::CG_SETUP, t_setup.elapsed());
        let cg_cfg = CgConfig {
            epsilon: self.epsilon,
            max_iterations: self.max_iterations,
            checkpoint_interval: self.checkpoint_interval,
            ..CgConfig::default()
        };
        let metrics_ref = self.metrics.as_deref().map(|t| t as &dyn MetricsSink);
        let t_solve = Instant::now();
        // diag(Q̃)ᵢ = k(xᵢ,xᵢ) + ridgeᵢ − 2qᵢ + Q_mm, O(m·d) on the host
        let compute_diagonal = || {
            let params = prepared.params();
            (0..params.dim())
                .map(|i| {
                    kernel_row(&self.kernel, x.row(i), x.row(i)) + params.ridge(i)
                        - T::TWO * params.q[i]
                        + params.q_mm()
                })
                .collect::<Vec<T>>()
        };
        let eager_diagonal = self.jacobi_preconditioner.then(compute_diagonal);
        let jacobi = match &eager_diagonal {
            // Jacobi requested up front: the first attempt already solves
            // preconditioned, exactly as before guardrails existed
            Some(diag) => JacobiDiagonal::Immediate(diag),
            // otherwise the diagonal is only computed if rung 2 engages
            None => JacobiDiagonal::Lazy(&compute_diagonal),
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
                x,
                &self.kernel,
                rank,
                seed,
                strategy,
                &rhs,
                &cg_cfg,
                &self.recovery_policy,
                jacobi,
                metrics_ref,
            )?,
            SolverSelection::Exact => {
                // durable checkpointing: open the sink (and optionally the
                // resume point) before the solve starts
                let mut resume_point = None;
                let journal_sink = match &self.checkpoint_journal {
                    Some(journal) => {
                        let context = self.checkpoint_context(task, x, y);
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
                    &cg_cfg,
                    &self.recovery_policy,
                    jacobi,
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

        // (4) assemble the model (and optionally write it)
        let t_write = Instant::now();
        let b = bias(prepared.params(), y, &solve.x);
        let (model, linear_w) = assemble(&prepared, full_alpha(&solve.x), b)?;
        rec.record(spans::WRITE, t_write.elapsed());
        rec.record(spans::TRAIN, t_total.elapsed() + read);

        let device = prepared.device_report();
        let telemetry = self.metrics.as_ref().map(|t| {
            // the device backend's counters live on-device; fold them into
            // the unified schema now that the run is over
            if let Some(dev) = &device {
                dev.fold_into(&**t);
            }
            rec.flush_into(&**t);
            t.report()
        });

        Ok(TrainOutput {
            model,
            times: ComponentTimes::from_spans(rec.spans()),
            iterations: total_iterations,
            converged: solve.converged,
            outcome: solve.outcome,
            escalations,
            relative_residual: solve.relative_residual().to_f64(),
            backend_name: backend.name(),
            linear_w,
            device,
            telemetry,
            io_degraded,
        })
    }
}

/// Which problem the reduced system encodes; only the checkpoint
/// fingerprint tells them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Classification,
    Regression,
}

/// Everything a training run produces: `M` is [`SvmModel`] for
/// [`LsSvm::train`] and [`SvrModel`] for [`LsSvm::train_regression`].
#[derive(Debug)]
pub struct TrainOutput<T, M = SvmModel<T>> {
    /// The trained model (all `m` training points as support vectors).
    pub model: M,
    /// Component wall-clock timings.
    pub times: ComponentTimes,
    /// CG iterations performed (summed across all escalation rungs).
    pub iterations: usize,
    /// Whether CG met the ε criterion within its budget.
    pub converged: bool,
    /// Why the solve stopped — [`SolveOutcome::Converged`] on success,
    /// otherwise the classified failure mode of the *last* escalation rung
    /// that ran.
    pub outcome: SolveOutcome,
    /// The recovery rungs that engaged, in order (empty on the happy
    /// path); each also appears as a `recovery` telemetry event.
    pub escalations: Vec<RecoveryKind>,
    /// Final `‖r‖/‖r₀‖`.
    pub relative_residual: f64,
    /// Human-readable backend description.
    pub backend_name: String,
    /// The explicit normal vector `w = Σᵢ αᵢ·xᵢ` (Eq. 15), materialized
    /// for the linear classifier on every backend (the paper's `w_kernel`
    /// on the simulated devices); enables O(d) prediction via
    /// [`predict_linear`]. `None` for regression.
    pub linear_w: Option<Vec<T>>,
    /// Device counters (simulated backends only).
    pub device: Option<DeviceReport>,
    /// The unified observability report (`Some` iff a sink was attached
    /// via [`LsSvm::with_metrics`]): per-iteration CG telemetry, unified
    /// kernel-launch counters and hierarchical timing spans.
    pub telemetry: Option<TelemetryReport>,
    /// True when persistent storage failures disabled durable
    /// checkpointing partway through the solve (an `io_degraded`
    /// telemetry event carries the detail). The model itself is
    /// unaffected — the run just lost its crash insurance.
    pub io_degraded: bool,
}

/// Trains with the given configuration — convenience wrapper around
/// [`LsSvm::train`].
pub fn train<T: AtomicScalar>(
    data: &LabeledData<T>,
    config: &LsSvm<T>,
) -> Result<TrainOutput<T>, SvmError> {
    config.train(data)
}

/// Decision values `f(x) = Σᵢ coefᵢ·k(svᵢ, x) + b` for every row of `x`
/// (Eq. 10), computed by the query-blocked [`kernel_expansion`]: each
/// feature pass evaluates 4 support vectors against 4 test points.
///
/// Panics on a feature-count mismatch; long-lived callers that must never
/// panic on untrusted query batches use [`try_predict_decision_values`].
pub fn predict_decision_values<T: Real>(model: &SvmModel<T>, x: &DenseMatrix<T>) -> Vec<T> {
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

/// Fallible [`predict_decision_values`]: returns a structured
/// [`SvmError::Solver`] instead of panicking when the query batch is
/// empty, has zero-feature rows, or does not match the model's feature
/// count — the contract the serving layer needs for untrusted requests.
pub fn try_predict_decision_values<T: Real>(
    model: &SvmModel<T>,
    x: &DenseMatrix<T>,
) -> Result<Vec<T>, SvmError> {
    validate_query_batch(model.features(), x)?;
    Ok(predict_decision_values(model, x))
}

/// Fallible [`predict_labels`] with the same validation as
/// [`try_predict_decision_values`].
pub fn try_predict_labels<T: Real>(
    model: &SvmModel<T>,
    x: &DenseMatrix<T>,
) -> Result<Vec<i32>, SvmError> {
    Ok(try_predict_decision_values(model, x)?
        .into_iter()
        .map(|d| model.decide(d))
        .collect())
}

/// Shared query-batch validation for the fallible prediction entry
/// points: rejects empty batches, zero-feature rows and feature-count
/// mismatches with a structured error instead of a panic.
pub(crate) fn validate_query_batch<T: Real>(
    model_features: usize,
    x: &DenseMatrix<T>,
) -> Result<(), SvmError> {
    if x.rows() == 0 {
        return Err(SvmError::Solver("prediction batch is empty".into()));
    }
    if x.cols() == 0 {
        return Err(SvmError::Solver(
            "prediction rows have zero features".into(),
        ));
    }
    if x.cols() != model_features {
        return Err(SvmError::Solver(format!(
            "query has {} features, model expects {}",
            x.cols(),
            model_features
        )));
    }
    Ok(())
}

/// Support-vector rows per tile of [`kernel_expansion`]: every query block
/// sweeps a tile while it is still in L2.
const SV_TILE: usize = 256;

/// The kernel expansion `f(x_p) = b + Σᵢ coefᵢ·k(svᵢ, x_p)` (Eq. 10) for
/// every row of `x`, the one prediction engine of binary, multiclass and
/// regression models. Each panel evaluates 4 support vectors × 4 queries;
/// 2–3 row tails pad with the block's first row and drop those columns,
/// a lone row keeps a 4×1 panel. Panel entries equal the per-pair values
/// bit for bit and each query sums in order `i = 0..m`, so the blocking
/// never changes a result.
///
/// The query rows split into one contiguous share of whole 4-row blocks
/// per thread, forked once per call; each share sweeps the SV tiles in its
/// own cache. Rows × SVs × features under [`crate::par::PAR_GRAIN`] run on
/// the calling thread. Every row is computed by exactly one share in the
/// same order, so the thread count never changes a bit.
pub fn kernel_expansion<T: Real>(
    kernel: &KernelSpec<T>,
    isa: Isa,
    sv: &DenseMatrix<T>,
    coef: &[T],
    bias: T,
    x: &DenseMatrix<T>,
) -> Vec<T> {
    use crate::kernel::PANEL_NR;
    let mut out = vec![bias; x.rows()];
    let work = x.rows() as u128 * sv.rows() as u128 * x.cols() as u128;
    crate::par::with_grain(work, || {
        let blocks = x.rows().div_ceil(PANEL_NR);
        let share = blocks.div_ceil(rayon::current_num_threads()).max(1) * PANEL_NR;
        out.par_chunks_mut(share)
            .enumerate()
            .for_each(|(s, rows)| expand_share(isa, kernel, sv, coef, x, s * share, rows));
    });
    out
}

tiered! {
    /// [`kernel_expansion`] for the query rows `first..first + out.len()`
    /// (`first` a multiple of 4), accumulating into `out`: the SV tiles are
    /// the outer loop, so a tile stays in cache while every query block of
    /// the share sweeps it. Compiled for the tier `isa`.
    fn expand_share<T: Real>(
        isa: Isa,
        kernel: &KernelSpec<T>,
        sv: &DenseMatrix<T>,
        coef: &[T],
        x: &DenseMatrix<T>,
        first: usize,
        out: &mut [T],
    ) = expand_share_body;
}

#[inline(always)]
fn expand_share_body<T: Real>(
    isa: Isa,
    kernel: &KernelSpec<T>,
    sv: &DenseMatrix<T>,
    coef: &[T],
    x: &DenseMatrix<T>,
    first: usize,
    out: &mut [T],
) {
    use crate::kernel::{kernel_panel, PANEL_MR, PANEL_NR};
    let m = sv.rows();
    for tile in (0..m).step_by(SV_TILE) {
        let tile_end = (tile + SV_TILE).min(m);
        for (ci, acc) in out.chunks_mut(PANEL_NR).enumerate() {
            let base = first + ci * PANEL_NR;
            let mut rb: [&[T]; PANEL_NR] = [x.row(base); PANEL_NR];
            for (b, slot) in rb.iter_mut().enumerate().take(acc.len()) {
                *slot = x.row(base + b);
            }
            let rb = if acc.len() == 1 { &rb[..1] } else { &rb[..] };
            // A fixed-size local the panel updates as whole vectors; each
            // sum still takes its `mul_add`s in SV order. Lanes past
            // `acc.len()` are scratch and never stored.
            let mut sums = [T::ZERO; PANEL_NR];
            sums[..acc.len()].copy_from_slice(acc);
            let mut i = tile;
            while i < tile_end {
                let h = (tile_end - i).min(PANEL_MR);
                let mut ra: [&[T]; PANEL_MR] = [rb[0]; PANEL_MR];
                for (a, slot) in ra.iter_mut().enumerate().take(h) {
                    *slot = sv.row(i + a);
                }
                let panel = kernel_panel(kernel, isa, &ra[..h], rb);
                for (prow, &c) in panel.iter().zip(&coef[i..i + h]) {
                    for (s, &k) in sums.iter_mut().zip(prow) {
                        *s = c.mul_add(k, *s);
                    }
                }
                i += h;
            }
            acc.copy_from_slice(&sums[..acc.len()]);
        }
    }
}

/// Predicted ±1 signs for every row of `x`.
pub fn predict<T: Real>(model: &SvmModel<T>, x: &DenseMatrix<T>) -> Vec<T> {
    predict_decision_values(model, x)
        .into_iter()
        .map(|d| if d.to_f64() >= 0.0 { T::ONE } else { -T::ONE })
        .collect()
}

/// Predicted original class labels for every row of `x`.
pub fn predict_labels<T: Real>(model: &SvmModel<T>, x: &DenseMatrix<T>) -> Vec<i32> {
    predict_decision_values(model, x)
        .into_iter()
        .map(|d| model.decide(d))
        .collect()
}

/// Fast linear-kernel prediction from the explicit normal vector:
/// `f(x) = ⟨w, x⟩ + b` — O(d) per point instead of the O(m·d) kernel sum
/// (Eq. 4 of the paper). `bias` is `−rho`. Computed over `PANEL_MR`-point
/// panels sharing one feature pass over `w`, on the calling thread: a
/// panel is too little work to hand to another thread.
pub fn predict_linear<T: Real>(w: &[T], bias: T, x: &DenseMatrix<T>) -> Vec<T> {
    use crate::kernel::PANEL_MR;
    assert_eq!(
        w.len(),
        x.cols(),
        "w has {} features, data {}",
        w.len(),
        x.cols()
    );
    let isa = crate::simd::Isa::select();
    let mut out = vec![T::ZERO; x.rows()];
    for (ci, chunk) in out.chunks_mut(PANEL_MR).enumerate() {
        let base = ci * PANEL_MR;
        let mut ra: [&[T]; PANEL_MR] = [w; PANEL_MR];
        for (a, slot) in ra.iter_mut().enumerate().take(chunk.len()) {
            *slot = x.row(base + a);
        }
        let panel = crate::simd::panel_dot(isa, &ra[..chunk.len()], &[w]);
        for (a, o) in chunk.iter_mut().enumerate() {
            *o = panel[a][0] + bias;
        }
    }
    out
}

/// Fraction of correctly classified points of a labeled data set.
pub fn accuracy<T: Real>(model: &SvmModel<T>, data: &LabeledData<T>) -> f64 {
    let signs = predict(model, &data.x);
    let correct = signs
        .iter()
        .zip(&data.y)
        .filter(|(p, y)| p.to_f64() == y.to_f64())
        .count();
    correct as f64 / data.points() as f64
}

#[cfg(test)]
// index loops in these tests mirror the paper's subscript notation
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};
    use plssvm_simgpu::hw;
    use plssvm_simgpu::Backend as DeviceApi;

    fn planes(points: usize, features: usize, seed: u64) -> LabeledData<f64> {
        generate_planes(
            &PlanesConfig::new(points, features, seed)
                .with_cluster_sep(3.0)
                .with_flip_fraction(0.0),
        )
        .unwrap()
    }

    /// Every tier's compiled prediction loop gives the bits of the plain
    /// body called directly, over lone rows, partial panels and ragged SV
    /// tails.
    #[test]
    fn tiered_kernel_expansion_matches_its_plain_body_bit_for_bit() {
        fn noisy<T: Real>(len: usize, salt: usize) -> Vec<T> {
            (0..len)
                .map(|i| T::from_f64(((i * 7 + salt * 13) as f64 * 0.618).sin()))
                .collect()
        }
        fn check<T: Real>() {
            let r = T::from_f64;
            let kernels = [
                KernelSpec::Linear,
                KernelSpec::Polynomial {
                    degree: 3,
                    gamma: r(0.1),
                    coef0: r(0.5),
                },
                KernelSpec::Rbf { gamma: r(0.05) },
                KernelSpec::Sigmoid {
                    gamma: r(0.1),
                    coef0: r(-0.2),
                },
            ];
            let d = 19;
            let bias = r(0.25);
            for m in [1usize, 3, 5, 37, 67] {
                let sv = DenseMatrix::from_vec(m, d, noisy::<T>(m * d, 1));
                let coef = noisy::<T>(m, 2);
                for q in [1usize, 3, 5, 37, 67] {
                    let x = DenseMatrix::from_vec(q, d, noisy::<T>(q * d, 3));
                    for kernel in &kernels {
                        for isa in Isa::available() {
                            let tiered = kernel_expansion(kernel, isa, &sv, &coef, bias, &x);
                            let mut plain = vec![bias; q];
                            expand_share_body(isa, kernel, &sv, &coef, &x, 0, &mut plain);
                            for (i, (t, p)) in tiered.iter().zip(&plain).enumerate() {
                                assert_eq!(
                                    t.to_f64().to_bits(),
                                    p.to_f64().to_bits(),
                                    "{kernel:?} {isa} m={m} q={q} row {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn trains_separable_problem_to_high_accuracy() {
        let data = planes(120, 8, 1);
        let out = LsSvm::new().with_epsilon(1e-6).train(&data).unwrap();
        assert!(out.converged);
        assert!(out.iterations >= 1);
        let acc = accuracy(&out.model, &data);
        assert!(acc >= 0.97, "accuracy {acc}");
    }

    #[test]
    fn all_backends_reach_same_accuracy() {
        let data = planes(80, 6, 2);
        let mut accs = Vec::new();
        for backend in [
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 2),
        ] {
            let out = LsSvm::new()
                .with_epsilon(1e-8)
                .with_backend(backend)
                .train(&data)
                .unwrap();
            accs.push(accuracy(&out.model, &data));
        }
        for w in accs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12, "{accs:?}");
        }
        assert!(accs[0] >= 0.97);
    }

    #[test]
    fn backends_produce_nearly_identical_models() {
        let data = planes(60, 5, 3);
        let serial = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::Serial)
            .train(&data)
            .unwrap();
        let device = LsSvm::new()
            .with_epsilon(1e-10)
            .with_backend(BackendSelection::sim_gpu(hw::V100, DeviceApi::OpenCl))
            .train(&data)
            .unwrap();
        assert!((serial.model.rho - device.model.rho).abs() < 1e-6);
        for (a, b) in serial.model.coef.iter().zip(&device.model.coef) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rbf_kernel_solves_nonlinear_problem() {
        // XOR-like data: not linearly separable, easy for RBF.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (i as f64 / 5.0 - 1.0, j as f64 / 5.0 - 1.0);
                rows.push(vec![a, b]);
                y.push(if (a > 0.0) == (b > 0.0) { 1.0 } else { -1.0 });
            }
        }
        let data = LabeledData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap();
        let out = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 2.0 })
            .with_cost(10.0)
            .with_epsilon(1e-8)
            .train(&data)
            .unwrap();
        let acc = accuracy(&out.model, &data);
        assert!(acc >= 0.97, "rbf accuracy {acc}");

        // the linear kernel cannot do much better than chance here
        let lin = LsSvm::new().with_epsilon(1e-8).train(&data).unwrap();
        assert!(accuracy(&lin.model, &data) < 0.75);
    }

    #[test]
    fn model_has_all_points_as_support_vectors() {
        let data = planes(30, 4, 4);
        let out = LsSvm::new().train(&data).unwrap();
        assert_eq!(out.model.total_sv(), 30);
        assert_eq!(out.model.coef.len(), 30);
        // the eliminated constraint: Σ αᵢ = 0
        let s: f64 = out.model.coef.iter().sum();
        assert!(s.abs() < 1e-8);
    }

    #[test]
    fn tighter_epsilon_more_iterations_not_worse_accuracy() {
        let data = planes(100, 6, 5);
        let loose = LsSvm::new().with_epsilon(1e-1).train(&data).unwrap();
        let tight = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
        assert!(tight.iterations >= loose.iterations);
        assert!(tight.relative_residual <= 1e-10);
    }

    #[test]
    fn file_roundtrip_preserves_predictions() {
        let data = planes(40, 5, 6);
        let out = LsSvm::new().with_epsilon(1e-8).train(&data).unwrap();
        let dir = std::env::temp_dir().join("plssvm_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trained.model");
        out.model.save(&path).unwrap();
        let loaded = SvmModel::<f64>::load(&path).unwrap();
        let a = predict_labels(&out.model, &data.x);
        let b = predict_labels(&loaded, &data.x);
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_from_file_times_read_and_write() {
        let data = planes(30, 4, 7);
        let dir = std::env::temp_dir().join("plssvm_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_path = dir.join("train.libsvm");
        let model_path = dir.join("out.model");
        plssvm_data::write_libsvm_file(&train_path, &data, true).unwrap();

        let out = LsSvm::<f64>::new()
            .train_from_file(&train_path, Some(&model_path))
            .unwrap();
        assert!(out.times.read.as_nanos() > 0);
        assert!(out.times.cg.as_nanos() > 0);
        assert!(model_path.exists());
        assert!(out.times.total >= out.times.cg);
        std::fs::remove_file(&train_path).ok();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn device_backend_reports_counters() {
        let data = planes(50, 8, 8);
        let out = LsSvm::new()
            .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
            .train(&data)
            .unwrap();
        let report = out.device.expect("device report");
        assert_eq!(report.per_device.len(), 1);
        let r = &report.per_device[0];
        // one q_kernel + one svm_kernel per CG iteration (plus refreshes)
        assert!(r.per_kernel["svm_kernel"].launches as usize >= out.iterations);
        assert!(r.total_flops > 0);
        assert!(report.sim_parallel_time_s > 0.0);
        assert!(report.peak_memory_per_device_bytes > 0);
    }

    #[test]
    fn jacobi_preconditioned_training_matches_plain() {
        let data = planes(80, 6, 30);
        let plain = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
        let pcg = LsSvm::new()
            .with_epsilon(1e-10)
            .with_jacobi_preconditioner(true)
            .train(&data)
            .unwrap();
        assert!(pcg.converged);
        assert!((plain.model.rho - pcg.model.rho).abs() < 1e-6);
        assert!((accuracy(&plain.model, &data) - accuracy(&pcg.model, &data)).abs() < 1e-12);
    }

    #[test]
    fn jacobi_helps_on_badly_scaled_ridge() {
        // extreme per-sample weights make diag(Q̃) span orders of
        // magnitude (ridge 1/(C·vᵢ) from 1 to 10⁴) — exactly the structure
        // Jacobi preconditioning removes
        let data = planes(100, 6, 31);
        let weights: Vec<f64> = (0..100)
            .map(|i| if i % 4 == 0 { 1e-4 } else { 1.0 })
            .collect();
        let cfg = |pc: bool| {
            LsSvm::new()
                .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
                .with_epsilon(1e-8)
                .with_sample_weights(weights.clone())
                .with_jacobi_preconditioner(pc)
        };
        let plain = cfg(false).train(&data).unwrap();
        let pcg = cfg(true).train(&data).unwrap();
        assert!(pcg.converged);
        assert!(
            pcg.iterations < plain.iterations || !plain.converged,
            "pcg {} vs plain {} iterations",
            pcg.iterations,
            plain.iterations
        );
        // both reach the same solution when both converge
        if plain.converged {
            assert!((plain.model.rho - pcg.model.rho).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_w_matches_kernel_predictions() {
        let data = planes(50, 6, 20);
        for backend in [
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::SparseCpu { threads: None },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 3),
        ] {
            let out = LsSvm::new()
                .with_epsilon(1e-10)
                .with_backend(backend.clone())
                .train(&data)
                .unwrap();
            let w = out.linear_w.as_ref().expect("linear w");
            assert_eq!(w.len(), data.features());
            // w = Σ αᵢ xᵢ computed on the host as ground truth
            for f in 0..data.features() {
                let expected: f64 = (0..data.points())
                    .map(|p| out.model.coef[p] * data.x.get(p, f))
                    .sum();
                assert!((w[f] - expected).abs() < 1e-9, "{backend:?} w[{f}]");
            }
            // fast prediction equals the kernel-sum prediction
            let fast = predict_linear(w, out.model.bias(), &data.x);
            let slow = predict_decision_values(&out.model, &data.x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn nonlinear_kernels_have_no_linear_w() {
        let data = planes(20, 4, 21);
        let out = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .train(&data)
            .unwrap();
        assert!(out.linear_w.is_none());
    }

    #[test]
    fn device_backend_launches_three_kernel_kinds() {
        // the paper's profiling claim: "our implementation only spawns 3
        // compute kernels" — q_kernel, svm_kernel, w_kernel
        let data = planes(40, 6, 22);
        let out = LsSvm::new()
            .with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda))
            .train(&data)
            .unwrap();
        let report = out.device.unwrap();
        let kernels: Vec<&String> = report.per_device[0].per_kernel.keys().collect();
        assert_eq!(kernels.len(), 3, "{kernels:?}");
        assert!(report.per_device[0].per_kernel.contains_key("w_kernel"));
        assert_eq!(report.per_device[0].per_kernel["w_kernel"].launches, 1);
    }

    #[test]
    fn minimal_two_point_problem_trains_on_every_backend() {
        // m = 2 → the reduced system is 1x1; every backend and kernel must
        // handle the degenerate tiling (single partial tile)
        let x = DenseMatrix::from_rows(vec![vec![1.0f64, 0.5], vec![-1.0, -0.5]]).unwrap();
        let data = LabeledData::new(x, vec![1.0, -1.0]).unwrap();
        for backend in [
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::SparseCpu { threads: None },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 2),
            BackendSelection::sim_multi_gpu_rows(hw::A100, DeviceApi::Cuda, 2),
        ] {
            for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 1.0 }] {
                if matches!(kernel, KernelSpec::Rbf { .. })
                    && matches!(backend, BackendSelection::SimGpu { devices: 2, .. })
                {
                    continue; // feature-split multi-GPU is linear-only
                }
                let out = LsSvm::new()
                    .with_kernel(kernel)
                    .with_epsilon(1e-10)
                    .with_backend(backend.clone())
                    .train(&data)
                    .unwrap();
                assert!(out.converged, "{kernel:?} on {}", backend.name());
                assert_eq!(
                    accuracy(&out.model, &data),
                    1.0,
                    "{kernel:?} on {}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn three_point_training_with_duplicates() {
        // duplicated points keep Q̃ SPD thanks to the ridge
        let x = DenseMatrix::from_rows(vec![vec![1.0f64, 1.0], vec![1.0, 1.0], vec![-1.0, -1.0]])
            .unwrap();
        let data = LabeledData::new(x, vec![1.0, 1.0, -1.0]).unwrap();
        let out = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
        assert!(out.converged);
        assert_eq!(accuracy(&out.model, &data), 1.0);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let one = LabeledData::new(
            DenseMatrix::from_rows(vec![vec![1.0f64]]).unwrap(),
            vec![1.0],
        )
        .unwrap();
        assert!(LsSvm::new().train(&one).is_err());
    }

    #[test]
    fn single_class_data_trains_and_predicts_that_class() {
        let x = DenseMatrix::from_rows(vec![vec![1.0f64, 0.0], vec![0.9, 0.1], vec![1.1, -0.1]])
            .unwrap();
        let data = LabeledData::new(x, vec![1.0, 1.0, 1.0]).unwrap();
        let out = LsSvm::new().with_epsilon(1e-8).train(&data).unwrap();
        assert_eq!(accuracy(&out.model, &data), 1.0);
    }

    #[test]
    fn prediction_feature_mismatch_panics() {
        let data = planes(20, 4, 9);
        let out = LsSvm::new().train(&data).unwrap();
        let wrong = DenseMatrix::from_rows(vec![vec![1.0f64, 2.0]]).unwrap();
        let result = std::panic::catch_unwind(|| predict(&out.model, &wrong));
        assert!(result.is_err());
    }

    #[test]
    fn try_predict_rejects_degenerate_batches_without_panicking() {
        let data = planes(20, 4, 9);
        let out = LsSvm::new().train(&data).unwrap();
        // empty batch: structured error, not a panic or a silent empty vec
        let empty = DenseMatrix::<f64>::zeros(0, 4);
        let err = try_predict_decision_values(&out.model, &empty).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        // zero-feature rows
        let zero_features = DenseMatrix::<f64>::zeros(3, 0);
        let err = try_predict_decision_values(&out.model, &zero_features).unwrap_err();
        assert!(err.to_string().contains("zero features"), "{err}");
        // feature-count mismatch carries both counts
        let wrong = DenseMatrix::from_rows(vec![vec![1.0f64, 2.0]]).unwrap();
        let err = try_predict_labels(&out.model, &wrong).unwrap_err();
        assert!(
            err.to_string().contains('2') && err.to_string().contains('4'),
            "{err}"
        );
        // a valid batch matches the panicking entry point bit-for-bit
        let ok = try_predict_decision_values(&out.model, &data.x).unwrap();
        assert_eq!(ok, predict_decision_values(&out.model, &data.x));
        assert_eq!(
            try_predict_labels(&out.model, &data.x).unwrap(),
            predict_labels(&out.model, &data.x)
        );
    }

    #[test]
    fn journaled_training_is_unperturbed_and_resumes_bit_exactly() {
        let data = planes(80, 6, 44);
        let dir = std::env::temp_dir().join(format!("plssvm_svm_journal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 4).unwrap();
        let reference = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
        let journaled = LsSvm::new()
            .with_epsilon(1e-10)
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal.clone())
            .train(&data)
            .unwrap();
        // streaming snapshots to disk must not perturb the numerics
        assert_eq!(reference.model.coef, journaled.model.coef);
        assert_eq!(reference.model.rho, journaled.model.rho);
        assert!(!journal.is_empty().unwrap());

        // resuming from the newest snapshot replays only the tail of the
        // solve and still lands on the bit-identical model
        let resumed = LsSvm::new()
            .with_epsilon(1e-10)
            .with_checkpoint_interval(5)
            .with_checkpoint_journal(journal.clone())
            .with_resume(true)
            .train(&data)
            .unwrap();
        assert_eq!(resumed.model.coef, reference.model.coef);
        assert_eq!(resumed.model.rho, reference.model.rho);
        // the iteration counter is absolute (it continues from the
        // snapshot), so the resumed run reports the same total
        assert_eq!(resumed.iterations, reference.iterations);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_against_changed_context_is_rejected() {
        let data = planes(40, 4, 45);
        let dir = std::env::temp_dir().join(format!("plssvm_svm_ctx_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        LsSvm::new()
            .with_epsilon(1e-10)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal.clone())
            .train(&data)
            .unwrap();
        // different cost → different system → the journal must refuse
        let err = LsSvm::new()
            .with_epsilon(1e-10)
            .with_cost(7.0)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal.clone())
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
    fn resume_with_empty_journal_is_a_fresh_start() {
        let data = planes(30, 4, 46);
        let dir = std::env::temp_dir().join(format!("plssvm_svm_fresh_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let reference = LsSvm::new().with_epsilon(1e-10).train(&data).unwrap();
        let out = LsSvm::new()
            .with_epsilon(1e-10)
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal)
            .with_resume(true)
            .train(&data)
            .unwrap();
        assert_eq!(out.model.coef, reference.model.coef);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lowrank_solver_matches_exact_training() {
        let data = planes(100, 6, 50);
        let exact = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_epsilon(1e-8)
            .train(&data)
            .unwrap();
        let lowrank = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_epsilon(1e-8)
            .with_solver(SolverSelection::lowrank(24))
            .train(&data)
            .unwrap();
        assert!(lowrank.converged, "{:?}", lowrank.outcome);
        assert!((exact.model.rho - lowrank.model.rho).abs() < 1e-5);
        assert_eq!(
            accuracy(&exact.model, &data),
            accuracy(&lowrank.model, &data)
        );
    }

    #[test]
    fn lowrank_resume_is_rejected_with_structured_error() {
        let data = planes(30, 4, 51);
        let dir = std::env::temp_dir().join(format!("plssvm_svm_lr_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let err = LsSvm::new()
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
    fn f32_training_works() {
        let data = generate_planes::<f32>(
            &PlanesConfig::new(60, 4, 10)
                .with_cluster_sep(3.0)
                .with_flip_fraction(0.0),
        )
        .unwrap();
        let out = LsSvm::<f32>::new()
            .with_epsilon(1e-4f32)
            .train(&data)
            .unwrap();
        assert!(accuracy(&out.model, &data) >= 0.95);
    }

    #[test]
    fn classification_and_regression_run_one_pipeline() {
        // ±1 targets through train and train_regression solve the same
        // reduced system on the same path, bit for bit
        let data = planes(90, 5, 61);
        let targets = RegressionData::new(data.x.clone(), data.y.clone()).unwrap();
        for solver in [SolverSelection::Exact, SolverSelection::lowrank(24)] {
            let trainer = LsSvm::new()
                .with_kernel(KernelSpec::Rbf { gamma: 0.3 })
                .with_epsilon(1e-8)
                .with_solver(solver);
            let svm = trainer.train(&data).unwrap();
            let svr = trainer.train_regression(&targets).unwrap();
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&svm.model.coef), bits(&svr.model.coef), "{solver:?}");
            assert_eq!(
                svm.model.rho.to_bits(),
                svr.model.rho.to_bits(),
                "{solver:?}"
            );
            assert_eq!(svm.iterations, svr.iterations, "{solver:?}");
        }
    }

    #[test]
    fn unweighted_checkpoint_fingerprints_are_stable() {
        // journals already on disk must keep resuming, so unweighted
        // fingerprints are pinned for both tasks
        let data = generate_planes::<f64>(&PlanesConfig::new(16, 3, 7)).unwrap();
        let sinc = plssvm_data::synthetic::generate_sinc::<f64>(
            &plssvm_data::synthetic::SincConfig::new(16, 5).with_noise(0.0),
        )
        .unwrap();
        let plain = LsSvm::<f64>::new();
        let tuned = LsSvm::<f64>::new()
            .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
            .with_cost(2.0)
            .with_checkpoint_salt(99);
        let svm = |t: &LsSvm<f64>| t.checkpoint_context(Task::Classification, &data.x, &data.y);
        let svr = |t: &LsSvm<f64>| t.checkpoint_context(Task::Regression, &sinc.x, &sinc.y);
        let jacobi = tuned.clone().with_jacobi_preconditioner(true);
        assert_eq!(svm(&plain), 0x0a57_1e8e_9550_4c4f);
        assert_eq!(svm(&jacobi), 0x6fb0_4dfa_b7f8_1743);
        assert_eq!(svr(&plain), 0xcba2_0cd5_e377_88a5);
        assert_eq!(svr(&tuned), 0xd371_05df_5d02_5438);
        // preconditioning and weights each change the context
        assert_ne!(svr(&jacobi), svr(&tuned));
        let weighted = plain.clone().with_sample_weights(vec![1.0; 16]);
        assert_ne!(svm(&weighted), svm(&plain));
        assert_ne!(svr(&weighted), svr(&plain));
    }

    #[test]
    fn resume_with_different_sample_weights_is_rejected() {
        let data = planes(40, 4, 63);
        // -w1 0.01: the first class's error terms weigh C·0.01
        let weights: Vec<f64> = data
            .y
            .iter()
            .map(|&y| if y > 0.0 { 0.01 } else { 1.0 })
            .collect();
        let dir = std::env::temp_dir().join(format!("plssvm_svm_wctx_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let trainer = LsSvm::new()
            .with_epsilon(1e-10)
            .with_checkpoint_interval(2)
            .with_checkpoint_journal(journal);
        trainer.train(&data).unwrap();
        let weighted = trainer.clone().with_sample_weights(weights);
        let err = weighted.clone().with_resume(true).train(&data).unwrap_err();
        assert!(
            matches!(&err, SvmError::Checkpoint(e) if e.kind() == "context_mismatch"),
            "{err:?}"
        );
        // a weighted journal resumes under the same weights, bit-exactly
        let reference = weighted.train(&data).unwrap();
        let resumed = weighted.with_resume(true).train(&data).unwrap();
        assert_eq!(resumed.model.coef, reference.model.coef);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fault_plan_that_stops_every_device_is_rejected_before_the_solve() {
        let data = planes(40, 4, 64);
        let train = |devices: usize, plan: &str| {
            LsSvm::new()
                .with_backend(BackendSelection::sim_multi_gpu(
                    hw::A100,
                    DeviceApi::Cuda,
                    devices,
                ))
                .with_fault_plan(FaultPlan::parse(plan).unwrap())
                .train(&data)
        };
        for (devices, plan) in [(1, "fail:0@1"), (2, "fail:0@3;fail:1@5")] {
            let err = train(devices, plan).unwrap_err();
            assert!(
                matches!(&err, SvmError::Solver(msg) if msg.contains("no survivor")),
                "{plan}: {err:?}"
            );
        }
        // one survivor finishes the solve
        assert!(train(2, "fail:1@3").unwrap().converged);
    }
}
