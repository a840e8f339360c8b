//! Command implementations shared by the binaries (testable without
//! spawning processes).

use std::error::Error;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

use plssvm_core::cg::SolveOutcome;
use plssvm_core::multiclass::{
    train_multiclass_with_outcomes, MultiClassModel, MultiClassStrategy,
};
use plssvm_core::regression::{mean_squared_error, predict_values, r_squared};
use plssvm_core::simd::FORCE_ISA_ENV;
use plssvm_core::svm::{accuracy, predict_labels, LsSvm, TrainOutput};
use plssvm_core::trace::{MetricsSink, RecoveryKind, Telemetry, TelemetryReport};
use plssvm_core::validation::cross_validate;
use plssvm_core::SvmError;
use plssvm_data::arff::read_arff_file;
use plssvm_data::checkpoint::fnv1a64;
use plssvm_data::io::write_atomic_with;
use plssvm_data::libsvm::{
    read_libsvm_file, read_libsvm_regression_file, write_libsvm_string, RegressionData,
};
use plssvm_data::model::{peek_svm_type, SvmModel, SvrModel};
use plssvm_data::multiclass::{read_libsvm_classes_file, read_libsvm_multiclass_file, Classes};
use plssvm_data::sat6::{generate_sat6, Sat6Config};
use plssvm_data::scale::ScalingParams;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};
use plssvm_data::vfs::Vfs;
use plssvm_data::{write_atomic, CheckpointJournal, DataError, FaultVfs, RealVfs};

use plssvm_serve::{
    serve_lines, serve_tcp, spawn_watcher, ConnectionOptions, Engine, EngineConfig, PollTrigger,
    ServeModel, ServerControl, SystemClock,
};

use crate::args::{
    kernel_from_args, Algorithm, GenerateArgs, IoDegradedAction, McStrategy, NonConvergedAction,
    PredictArgs, ScaleArgs, ServeArgs, TrainArgs,
};

/// A durable-storage failure that survived the retry policy. The
/// binaries map it to exit code 4, distinct from generic runtime
/// errors, so operators can tell "the disk is dying" from "the solve
/// failed".
#[derive(Debug)]
pub struct StorageError(pub String);

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage failure: {}", self.0)
    }
}

impl Error for StorageError {}

/// The VFS every durability-bearing path of this invocation runs
/// through: a passthrough normally, a deterministic [`FaultVfs`]
/// replaying `--io-faults`.
fn vfs_for(args: &TrainArgs) -> Arc<dyn Vfs> {
    match &args.io_faults {
        Some(plan) => Arc::new(FaultVfs::new(plan.clone())),
        None => Arc::new(RealVfs),
    }
}

/// Writes a final artifact (model, metrics) through the VFS, retrying
/// transient faults; an exhausted retry budget surfaces as
/// [`StorageError`] → exit code 4.
fn write_final<E: std::fmt::Display>(
    metrics: Option<&dyn MetricsSink>,
    what: &str,
    op: impl FnMut() -> Result<(), E>,
) -> Result<(), StorageError> {
    let policy = plssvm_core::resilience::IoRetryPolicy::default();
    plssvm_core::resilience::with_io_retry(&policy, metrics, what, op)
        .map_err(|e| StorageError(format!("{what}: {e}")))
}

/// Applies the `--on-io-degraded` policy when the checkpoint journal
/// was disabled mid-run by persistent storage faults: `error` refuses
/// the model (exit code 4), `warn` returns a summary line.
fn apply_io_degraded_policy(
    action: IoDegradedAction,
    degraded: bool,
) -> Result<Option<String>, Box<dyn Error>> {
    if !degraded {
        return Ok(None);
    }
    match action {
        IoDegradedAction::Error => Err(Box::new(StorageError(
            "checkpoint journal degraded (writes kept failing after retries); \
             model refused (--on-io-degraded error)"
                .into(),
        ))),
        IoDegradedAction::Warn => Ok(Some(
            "WARNING: checkpoint journal degraded; checkpointing was disabled mid-run \
             and the model cannot be resumed from it (--on-io-degraded warn)\n"
                .to_owned(),
        )),
    }
}

/// True if the path names an ARFF file (PLSSVM's second input format).
fn is_arff(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("arff"))
}

/// Fresh telemetry sink when `--metrics-out` or `--verbose` asked for one.
fn telemetry_for(args: &TrainArgs) -> Option<Arc<Telemetry>> {
    (args.metrics_out.is_some() || args.verbose).then(Telemetry::shared)
}

/// A warning line when `PLSSVM_FORCE_ISA` holds an unparseable value —
/// the engine itself silently falls back to auto-detection
/// ([`Isa::select`] never fails), so the CLI is where the typo surfaces.
fn force_isa_warning() -> Option<String> {
    plssvm_core::simd::Isa::forced()
        .err()
        .map(|e| format!("WARNING: {}: {e}; using auto-detection\n", FORCE_ISA_ENV))
}

/// Renders the SIMD dispatch decision for `--verbose` summaries and the
/// serve startup log, e.g. `avx2 (f32x8/f64x4, panel 4x4), auto-detected`.
fn isa_summary_line() -> String {
    let (isa, forced) = plssvm_core::simd::Isa::select_with_provenance();
    format!(
        "{}, {}",
        isa.summary(),
        if forced {
            "forced via PLSSVM_FORCE_ISA"
        } else {
            "auto-detected"
        }
    )
}

/// Generations retained by the on-disk checkpoint journal: the newest
/// plus fallbacks in case the tail is damaged.
const JOURNAL_KEEP: usize = 4;

/// Opens the durable checkpoint journal when `--checkpoint-dir` was
/// given. The training-file *content* hash becomes the checkpoint salt,
/// so a journal can never be resumed against a different (or edited)
/// data file even if every hyperparameter matches.
fn journal_for(
    args: &TrainArgs,
    vfs: &Arc<dyn Vfs>,
) -> Result<Option<(CheckpointJournal, u64)>, Box<dyn Error>> {
    let Some(dir) = &args.checkpoint_dir else {
        return Ok(None);
    };
    let journal = CheckpointJournal::open_with_vfs(dir, JOURNAL_KEEP, Arc::clone(vfs))?;
    let salt = fnv1a64(&fs::read(&args.input)?);
    Ok(Some((journal, salt)))
}

/// Writes the unified telemetry as JSON lines when `--metrics-out` was
/// given, and appends the per-kernel counters to the summary when
/// `--verbose` was.
fn emit_telemetry(
    args: &TrainArgs,
    vfs: &dyn Vfs,
    report: &TelemetryReport,
    summary: &mut String,
) -> Result<(), Box<dyn Error>> {
    if let Some(path) = &args.metrics_out {
        write_final(None, "metrics write", || {
            write_atomic_with(
                vfs,
                std::path::Path::new(path),
                report.to_json_lines().as_bytes(),
            )
        })?;
    }
    if args.verbose {
        if let Some(d) = &report.dispatch {
            summary.push_str(&format!(
                "simd dispatch: {} (f32x{}/f64x{}, panel {}x{}), {}\n",
                d.isa,
                d.lanes_f32,
                d.lanes_f64,
                d.panel_mr,
                d.panel_nr,
                if d.forced {
                    "forced via PLSSVM_FORCE_ISA"
                } else {
                    "auto-detected"
                }
            ));
        }
        summary.push_str(&format!(
            "telemetry: {} kernel launches, {} FLOPs, {} bytes moved\n",
            report.total_launches(),
            report.total_flops(),
            report.total_bytes()
        ));
        for (name, k) in &report.kernels {
            summary.push_str(&format!(
                "  {name}: {} launches, {} FLOPs, {} bytes, {:.3e} s simulated\n",
                k.launches, k.flops, k.bytes, k.sim_time_s
            ));
        }
    }
    Ok(())
}

/// Applies the `--on-nonconverged` policy to a finished solve: `error`
/// refuses the model with [`SvmError::NonConverged`] (the binary maps it
/// to exit code 3), `warn` returns a warning line for the summary,
/// `accept` stays silent. Converged solves pass through untouched.
fn apply_nonconverged_policy(
    action: NonConvergedAction,
    outcome: SolveOutcome,
    relative_residual: f64,
    iterations: usize,
) -> Result<Option<String>, Box<dyn Error>> {
    if outcome.is_converged() {
        return Ok(None);
    }
    match action {
        NonConvergedAction::Error => Err(Box::new(SvmError::NonConverged {
            outcome,
            relative_residual,
            iterations,
        })),
        NonConvergedAction::Warn => Ok(Some(format!(
            "WARNING: solver did not converge ({outcome}, relative residual \
             {relative_residual:.3e} after {iterations} iterations); model accepted \
             (--on-nonconverged warn)\n"
        ))),
        NonConvergedAction::Accept => Ok(None),
    }
}

/// Renders the escalation ladder for the summary (`restart ->
/// precondition -> ...`), or `None` when no rung engaged.
fn escalation_summary(escalations: &[RecoveryKind]) -> Option<String> {
    if escalations.is_empty() {
        return None;
    }
    Some(
        escalations
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(" -> "),
    )
}

/// Runs `svm-train`; returns the human-readable summary printed to stdout.
pub fn run_train(args: &TrainArgs) -> Result<String, Box<dyn Error>> {
    match force_isa_warning() {
        Some(warning) => Ok(format!("{warning}{}", train_inner(args)?)),
        None => train_inner(args),
    }
}

/// Refuses a flag that `mode` would otherwise silently ignore.
fn refuse(given: bool, flag: &str, mode: &str) -> Result<(), Box<dyn Error>> {
    if given {
        return Err(format!("{flag} does not apply to {mode}").into());
    }
    Ok(())
}

/// The one `TrainArgs → LsSvm` mapping that every LS-SVM and LS-SVR mode
/// of `svm-train` trains with: kernel, cost, ε, solver, backend, fault
/// plan, checkpointing and the telemetry sink.
fn lssvm_trainer(
    args: &TrainArgs,
    features: usize,
    vfs: &Arc<dyn Vfs>,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<LsSvm<f64>, Box<dyn Error>> {
    let mut trainer = LsSvm::new()
        .with_kernel(kernel_from_args(args, features))
        .with_cost(args.cost)
        .with_epsilon(args.epsilon)
        .with_solver(args.solver)
        .with_backend(args.backend.clone());
    trainer.fault_plan = args.fault_plan.clone();
    trainer.checkpoint_interval = args.checkpoint_every;
    trainer.metrics = telemetry;
    if let Some((journal, salt)) = journal_for(args, vfs)? {
        trainer = trainer
            .with_checkpoint_journal(journal)
            .with_checkpoint_salt(salt)
            .with_resume(args.resume);
    }
    Ok(trainer)
}

/// Accepts a finished LS-SVM/LS-SVR run: the `--on-nonconverged` and
/// `--on-io-degraded` policies may refuse the model before `save` writes
/// it. Returns the summary: policy warnings, then (unless `-q`) `header`
/// and the solve report, the telemetry, and `quality` of the model.
fn finish_lssvm<M>(
    args: &TrainArgs,
    vfs: &dyn Vfs,
    trainer: &LsSvm<f64>,
    out: &TrainOutput<f64, M>,
    header: String,
    save: impl Fn(&M, &dyn Vfs, &std::path::Path) -> Result<(), DataError>,
    quality: impl FnOnce(&M) -> String,
) -> Result<String, Box<dyn Error>> {
    // --on-nonconverged error refuses the model before it is written
    let warning = apply_nonconverged_policy(
        args.on_nonconverged,
        out.outcome,
        out.relative_residual,
        out.iterations,
    )?;
    // ... and so does --on-io-degraded error when the journal died
    let degraded = apply_io_degraded_policy(args.on_io_degraded, out.io_degraded)?;
    write_final(
        trainer.metrics.as_deref().map(|t| t as &dyn MetricsSink),
        "model write",
        || save(&out.model, vfs, std::path::Path::new(&args.model)),
    )?;
    let mut summary = warning.unwrap_or_default();
    summary.push_str(&degraded.unwrap_or_default());
    if !args.quiet {
        summary.push_str(&header);
        summary.push_str(&format!("backend: {}\n", out.backend_name));
        if let Some(solver) = args.solver.provenance() {
            summary.push_str(&format!("solver: {solver}\n"));
        }
        summary.push_str(&format!(
            "CG iterations: {} (converged: {}, relative residual {:.3e})\n",
            out.iterations, out.converged, out.relative_residual
        ));
        summary.push_str(&format!("solver outcome: {}\n", out.outcome));
        if let Some(ladder) = escalation_summary(&out.escalations) {
            summary.push_str(&format!("recovery escalations: {ladder}\n"));
        }
        summary.push_str(&format!("timings: {}\n", out.times));
        if let Some(device) = &out.device {
            summary.push_str(&format!(
                "simulated device time: {:.3} s, peak memory/device: {:.3} GiB\n",
                device.sim_parallel_time_s,
                device.peak_memory_per_device_bytes as f64 / (1u64 << 30) as f64
            ));
        }
    }
    if let Some(report) = &out.telemetry {
        emit_telemetry(args, vfs, report, &mut summary)?;
    }
    if !args.quiet {
        summary.push_str(&quality(&out.model));
    }
    Ok(summary)
}

fn train_inner(args: &TrainArgs) -> Result<String, Box<dyn Error>> {
    // -s 3: regression (LS-SVR)
    if args.svm_type == 3 {
        return run_train_regression(args);
    }
    // classification: one parse, which also tells binary from multi-class
    // LIBSVM input (ARFF input is binary in PLSSVM v1 style)
    let t_read = Instant::now();
    let data = if is_arff(&args.input) {
        read_arff_file::<f64>(&args.input)?
    } else {
        match read_libsvm_classes_file::<f64>(&args.input)? {
            Classes::Binary(data) => data,
            Classes::Multi(multi) => return run_train_multiclass(args, &multi),
        }
    };
    let read = t_read.elapsed();
    let vfs = vfs_for(args);

    // -v k: cross validation instead of model training (LIBSVM behaviour)
    if let Some(folds) = args.cv_folds {
        if args.algorithm != Algorithm::LsSvm {
            return Err("cross validation is implemented for the lssvm algorithm".into());
        }
        let mode = "cross validation";
        refuse(args.checkpoint_dir.is_some(), "--checkpoint-dir", mode)?;
        refuse(!args.label_weights.is_empty(), "-wi", mode)?;
        refuse(args.metrics_out.is_some(), "--metrics-out", mode)?;
        let trainer = lssvm_trainer(args, data.features(), &vfs, telemetry_for(args))?;
        let cv = cross_validate(&data, &trainer, folds, 42)?;
        // the first fold that missed ε drives the --on-nonconverged policy
        let failed: Vec<_> = cv
            .fold_solves
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.outcome.is_converged())
            .collect();
        let mut summary = String::new();
        if let Some(&(fold, first)) = failed.first() {
            match args.on_nonconverged {
                NonConvergedAction::Error => {
                    return Err(Box::new(SvmError::NonConverged {
                        outcome: first.outcome,
                        relative_residual: first.relative_residual,
                        iterations: first.iterations,
                    }))
                }
                NonConvergedAction::Warn => summary.push_str(&format!(
                    "WARNING: {} of {folds} folds did not converge (first: fold {fold}, {}, \
                     relative residual {:.3e} after {} iterations); accuracy reported \
                     (--on-nonconverged warn)\n",
                    failed.len(),
                    first.outcome,
                    first.relative_residual,
                    first.iterations
                )),
                NonConvergedAction::Accept => {}
            }
        }
        summary.push_str(&format!(
            "Cross Validation Accuracy = {:.4}% ({folds}-fold)\n",
            100.0 * cv.accuracy
        ));
        if let Some(telemetry) = &trainer.metrics {
            emit_telemetry(args, vfs.as_ref(), &telemetry.report(), &mut summary)?;
        }
        return Ok(summary);
    }

    if args.fault_plan.is_some() && args.algorithm != Algorithm::LsSvm {
        return Err("--fault-plan is implemented for the lssvm algorithm".into());
    }
    if args.checkpoint_dir.is_some() && args.algorithm != Algorithm::LsSvm {
        return Err("--checkpoint-dir is implemented for the lssvm algorithm".into());
    }
    if args.algorithm == Algorithm::LsSvm {
        let mut trainer = lssvm_trainer(args, data.features(), &vfs, telemetry_for(args))?;
        if !args.label_weights.is_empty() {
            // -wi: class weights become per-sample weights of the
            // weighted LS-SVM (the error term of sample i is C·wᵢ)
            let weights: Vec<f64> = (0..data.points())
                .map(|i| args.weight_of(data.original_label(data.y[i])))
                .collect();
            trainer = trainer.with_sample_weights(weights);
        }
        let out = trainer.train_parsed(&data, read)?;
        return finish_lssvm(
            args,
            vfs.as_ref(),
            &trainer,
            &out,
            format!(
                "PLSSVM (LS-SVM) trained on {} points x {} features\n",
                data.points(),
                data.features()
            ),
            SvmModel::save_with,
            |model| {
                format!(
                    "training accuracy: {:.2}%\n",
                    100.0 * accuracy(model, &data)
                )
            },
        );
    }
    // the SMO baselines
    let kernel = kernel_from_args(args, data.features());
    let (model, header) = if args.algorithm == Algorithm::Thunder {
        let config = plssvm_smo::ThunderConfig {
            kernel,
            cost: args.cost,
            epsilon: args.epsilon,
            ..Default::default()
        };
        let out = plssvm_smo::ThunderSolver::new(config)?.train(&data)?;
        let header = format!(
            "ThunderSVM-style trained: {} outer / {} inner iterations, {} SVs\n",
            out.outer_iterations,
            out.inner_iterations,
            out.model.total_sv()
        );
        (out.model, header)
    } else {
        let config = plssvm_smo::SmoConfig {
            kernel,
            cost: args.cost,
            epsilon: args.epsilon,
            shrinking: args.shrinking,
            cache_bytes: args.cache_mb << 20,
            class_weights: [
                args.weight_of(data.label_map[0]),
                args.weight_of(data.label_map[1]),
            ],
            ..Default::default()
        };
        let sparse = args.algorithm == Algorithm::Smo;
        let out = if sparse {
            plssvm_smo::solver::train_sparse(&data, &config)?
        } else {
            plssvm_smo::solver::train_dense(&data, &config)?
        };
        let header = format!(
            "SMO ({}) trained: {} iterations, {} SVs, obj {:.6}\n",
            if sparse { "sparse" } else { "dense" },
            out.iterations,
            out.model.total_sv(),
            out.objective
        );
        (out.model, header)
    };
    write_final(None, "model write", || {
        model.save_with(vfs.as_ref(), std::path::Path::new(&args.model))
    })?;
    if args.quiet {
        return Ok(String::new());
    }
    Ok(format!(
        "{header}training accuracy: {:.2}%\n",
        100.0 * accuracy(&model, &data)
    ))
}

fn run_train_regression(args: &TrainArgs) -> Result<String, Box<dyn Error>> {
    if args.algorithm != Algorithm::LsSvm {
        return Err("regression is implemented for the lssvm algorithm (LS-SVR)".into());
    }
    let mode = "regression (-s 3)";
    refuse(args.cv_folds.is_some(), "-v", mode)?;
    refuse(!args.label_weights.is_empty(), "-wi", mode)?;
    let data: RegressionData<f64> = read_libsvm_regression_file(&args.input, None)?;
    let vfs = vfs_for(args);
    let trainer = lssvm_trainer(args, data.features(), &vfs, telemetry_for(args))?;
    let out = trainer.train_regression(&data)?;
    finish_lssvm(
        args,
        vfs.as_ref(),
        &trainer,
        &out,
        format!(
            "LS-SVR trained on {} points x {} features\n",
            data.points(),
            data.features()
        ),
        SvrModel::save_with,
        |model| {
            format!(
                "training MSE: {:.6e}, R^2: {:.4}\n",
                mean_squared_error(model, &data),
                r_squared(model, &data)
            )
        },
    )
}

fn run_train_multiclass(
    args: &TrainArgs,
    data: &plssvm_data::multiclass::MultiClassData<f64>,
) -> Result<String, Box<dyn Error>> {
    if args.algorithm != Algorithm::LsSvm {
        return Err(format!(
            "the training file has {} classes; multi-class is implemented for the lssvm algorithm",
            data.num_classes()
        )
        .into());
    }
    if args.cv_folds.is_some() {
        return Err("cross validation currently supports binary problems only".into());
    }
    let mode = "multi-class input";
    refuse(!args.label_weights.is_empty(), "-wi", mode)?;
    refuse(args.metrics_out.is_some(), "--metrics-out", mode)?;
    let vfs = vfs_for(args);
    // each binary subproblem checkpoints into its own task-<k>/
    // sub-journal (handled by the multiclass driver)
    let trainer = lssvm_trainer(args, data.features(), &vfs, telemetry_for(args))?;
    let strategy = match args.multiclass {
        McStrategy::Ovo => MultiClassStrategy::OneVsOne,
        McStrategy::Ovr => MultiClassStrategy::OneVsRest,
    };
    let out = train_multiclass_with_outcomes(data, &trainer, strategy)?;
    // the worst subproblem outcome drives the --on-nonconverged policy
    let mut warning = None;
    let non_converged = out.non_converged();
    if let Some(((a, b), worst)) = non_converged.first().copied() {
        let pair = if b == i32::MIN {
            format!("{a} vs rest")
        } else {
            format!("{a} vs {b}")
        };
        match args.on_nonconverged {
            NonConvergedAction::Error => {
                return Err(Box::new(SvmError::NonConverged {
                    outcome: worst,
                    relative_residual: f64::NAN,
                    iterations: out.total_iterations,
                }))
            }
            NonConvergedAction::Warn => {
                warning = Some(format!(
                    "WARNING: {} of {} binary subproblems did not converge \
                     (first: {pair}, {worst}); model accepted (--on-nonconverged warn)\n",
                    non_converged.len(),
                    out.outcomes.len()
                ));
            }
            NonConvergedAction::Accept => {}
        }
    }
    let degraded = apply_io_degraded_policy(args.on_io_degraded, out.io_degraded)?;
    let model = out.model;
    write_final(None, "model write", || {
        model.save_with(vfs.as_ref(), std::path::Path::new(&args.model))
    })?;
    let mut summary = warning.unwrap_or_default();
    summary.push_str(&degraded.unwrap_or_default());
    if !args.quiet {
        summary.push_str(&format!(
            "multi-class LS-SVM ({}) trained: {} classes, {} binary models\ntraining accuracy: {:.2}%\n",
            strategy.name(),
            model.classes.len(),
            model.num_models(),
            100.0 * model.accuracy(data),
        ));
    }
    if let Some(telemetry) = &trainer.metrics {
        emit_telemetry(args, vfs.as_ref(), &telemetry.report(), &mut summary)?;
    }
    Ok(summary)
}

/// Runs `svm-predict`; writes one label per line and returns the summary.
pub fn run_predict(args: &PredictArgs) -> Result<String, Box<dyn Error>> {
    let start = Instant::now();
    let accuracy_summary = predict_inner(args)?;
    let wall = start.elapsed();
    if let Some(path) = &args.metrics_out {
        let telemetry = Telemetry::new();
        telemetry.record_span("predict", wall);
        write_atomic(path, telemetry.report().to_json_lines().as_bytes())?;
    }
    let mut summary = force_isa_warning().unwrap_or_default();
    if !args.quiet {
        summary.push_str(&accuracy_summary);
    }
    if args.verbose {
        // prediction resolves the tier per call (no long-lived backend),
        // so report what the panel engine will dispatch to on this host
        summary.push_str(&format!("simd dispatch: {}\n", isa_summary_line()));
        summary.push_str(&format!(
            "prediction wall time: {:.3} s\n",
            wall.as_secs_f64()
        ));
    }
    Ok(summary)
}

/// The prediction pipeline proper: dispatches on the model kind
/// (multiclass container, SVR, or binary) and returns the accuracy /
/// error report.
fn predict_inner(args: &PredictArgs) -> Result<String, Box<dyn Error>> {
    let content = fs::read_to_string(&args.model)
        .map_err(|e| format!("reading model '{}': {e}", args.model))?;
    // dispatch on the model kind: multiclass container, SVR, or binary
    if content.starts_with("plssvm_multiclass") {
        let model = MultiClassModel::<f64>::from_container_string(&content)?;
        let data = read_libsvm_multiclass_file::<f64>(&args.test, None)?;
        let labels = model.predict(&data.x);
        let mut out = String::with_capacity(labels.len() * 4);
        for l in &labels {
            out.push_str(&l.to_string());
            out.push('\n');
        }
        write_atomic(&args.output, out.as_bytes())?;
        let correct = labels
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        return Ok(format!(
            "Accuracy = {:.4}% ({}/{}) (multi-class classification)\n",
            100.0 * correct as f64 / labels.len() as f64,
            correct,
            labels.len()
        ));
    }
    if peek_svm_type(&content) == Some("epsilon_svr") {
        let model = SvrModel::<f64>::from_model_string(&content)?;
        let data: RegressionData<f64> =
            read_libsvm_regression_file(&args.test, Some(model.features()))?;
        let values = predict_values(&model, &data.x);
        let mut out = String::with_capacity(values.len() * 12);
        for v in &values {
            out.push_str(&format!("{v}\n"));
        }
        write_atomic(&args.output, out.as_bytes())?;
        let mse = mean_squared_error(&model, &data);
        return Ok(format!(
            "Mean squared error = {mse:.6} (regression)\nSquared correlation coefficient R^2 = {:.6} (regression)\n",
            r_squared(&model, &data)
        ));
    }
    let model = SvmModel::<f64>::load(&args.model)?;
    let data = if is_arff(&args.test) {
        read_arff_file::<f64>(&args.test)?
    } else {
        read_libsvm_file::<f64>(&args.test, Some(model.features()))?
    };
    let labels = predict_labels(&model, &data.x);
    let mut out = String::with_capacity(labels.len() * 4);
    for l in &labels {
        out.push_str(&l.to_string());
        out.push('\n');
    }
    write_atomic(&args.output, out.as_bytes())?;

    // `data.y` is the test file's own ±1 encoding (its first label ↦ +1),
    // so the truth comes from the test file's label map, not the model's.
    let correct = labels
        .iter()
        .zip(&data.y)
        .filter(|(&l, &y)| l == data.label_map[if y > 0.0 { 0 } else { 1 }])
        .count();
    Ok(format!(
        "Accuracy = {:.4}% ({}/{}) (classification)\n",
        100.0 * correct as f64 / labels.len() as f64,
        correct,
        labels.len()
    ))
}

/// Runs `svm-scale`; returns the scaled data set in LIBSVM format (the
/// binary prints it to stdout, like LIBSVM).
pub fn run_scale(args: &ScaleArgs) -> Result<String, Box<dyn Error>> {
    let mut data = read_libsvm_file::<f64>(&args.input, None)?;
    let params = match &args.restore {
        Some(path) => ScalingParams::<f64>::load(path)?,
        None => ScalingParams::fit(&data.x, args.lower, args.upper)?,
    };
    params.apply(&mut data.x)?;
    if let Some(path) = &args.save {
        params.save(path)?;
    }
    Ok(write_libsvm_string(&data, true))
}

/// Runs `generate-data`; writes the file and returns a summary.
pub fn run_generate(args: &GenerateArgs) -> Result<String, Box<dyn Error>> {
    let data = if args.sat6 {
        generate_sat6::<f64>(&Sat6Config::new(args.points, args.seed))?
    } else {
        generate_planes::<f64>(
            &PlanesConfig::new(args.points, args.features, args.seed)
                .with_cluster_sep(args.cluster_sep)
                .with_flip_fraction(args.flip),
        )?
    };
    if args.arff {
        plssvm_data::arff::write_arff_file(&args.output, &data, "generated")?;
    } else {
        plssvm_data::write_libsvm_file(&args.output, &data, true)?;
    }
    Ok(format!(
        "wrote {} points x {} features to {}\n",
        data.points(),
        data.features(),
        args.output
    ))
}

/// Runs `svm-serve`: loads the model, builds the micro-batching engine,
/// optionally watches the model file for hot reloads, then serves
/// newline-delimited requests from stdin (default) or TCP until the
/// input closes or a drain is requested (SIGTERM/SIGINT or the
/// `shutdown` control line). Responses go to stdout / the socket;
/// status lines go to stderr so piped output stays pure protocol.
/// A graceful drain finishes in-flight requests and returns `Ok` — the
/// process exits 0 after printing a deterministic final summary.
pub fn run_serve(args: &ServeArgs) -> Result<(), Box<dyn Error>> {
    let model =
        ServeModel::load(&args.model).map_err(|e| format!("loading '{}': {e}", args.model))?;
    // telemetry is always on: the overload counters feed the final
    // drain summary even when --metrics-out is absent
    let telemetry = Telemetry::shared();
    let engine = Arc::new(Engine::new(
        model,
        EngineConfig {
            max_batch: args.max_batch,
            queue_watermark: args.queue_watermark,
            deadline_us: args.deadline_us,
        },
        Arc::new(SystemClock::new()),
        Some(Arc::clone(&telemetry) as Arc<dyn MetricsSink>),
    ));
    if let Some(warning) = force_isa_warning() {
        eprint!("svm-serve: {warning}");
    }
    if !args.quiet {
        let (kind, features, total_sv) = engine.model_info();
        eprintln!(
            "svm-serve: serving {kind} model '{}' ({features} features, {total_sv} SVs), \
             max_batch={}",
            args.model, args.max_batch
        );
        eprintln!(
            "svm-serve: admission max_connections={} queue_watermark={} deadline_us={} \
             client_timeout_ms={}",
            args.max_connections, args.queue_watermark, args.deadline_us, args.client_timeout_ms
        );
        eprintln!("svm-serve: simd dispatch {}", isa_summary_line());
    }
    // hot reload: the watcher thread polls the model file's signature
    // and swaps generations atomically (with a failure-storm circuit
    // breaker); it lives until process exit
    if args.reload_poll_ms > 0 {
        let trigger = PollTrigger::new(
            &args.model,
            std::time::Duration::from_millis(args.reload_poll_ms),
        );
        let _watcher = spawn_watcher(
            Arc::clone(&engine),
            std::path::PathBuf::from(&args.model),
            Box::new(trigger),
        );
    }
    let snapshot = || {
        if let Some(path) = &args.metrics_out {
            if let Err(e) = write_atomic(path, telemetry.report().to_json_lines().as_bytes()) {
                eprintln!("svm-serve: failed to write metrics to '{path}': {e}");
            }
        }
    };
    let opts = ConnectionOptions {
        client_timeout: (args.client_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(args.client_timeout_ms)),
    };
    match &args.listen {
        None => {
            let stdout = std::io::stdout();
            // BufReader over Stdin (not StdinLock, which is not Send —
            // the reader moves onto a pipeline thread); BufWriter over
            // stdout because serve_lines flushes at every pipeline
            // drain, keeping interactive use prompt and bursts cheap
            serve_lines(
                &engine,
                std::io::BufReader::new(std::io::stdin()),
                std::io::BufWriter::new(stdout.lock()),
            )?;
            engine.shutdown();
            snapshot();
            if !args.quiet {
                eprintln!("svm-serve: input closed, exiting");
                eprint_drain_summary(&telemetry);
            }
        }
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding '{addr}': {e}"))?;
            if !args.quiet {
                eprintln!("svm-serve: listening on {}", listener.local_addr()?);
            }
            // SIGTERM/SIGINT flip the drain flag; the accept loop then
            // stops accepting, wakes blocked readers, finishes in-flight
            // requests, and serve_tcp returns Ok — exit code 0
            crate::signals::install_drain_handler();
            let control = ServerControl::new(args.max_connections);
            serve_tcp(
                &engine,
                listener,
                &control,
                opts,
                crate::signals::drain_flag(),
                &snapshot,
            )?;
            engine.shutdown();
            snapshot();
            if !args.quiet {
                eprint_drain_summary(&telemetry);
            }
        }
    }
    Ok(())
}

/// The final deterministic drain summary: counts only (no timings), so
/// a fixed request schedule prints byte-identical lines across runs.
fn eprint_drain_summary(telemetry: &Telemetry) {
    let serve = telemetry.report().serve;
    eprintln!(
        "svm-serve: drained; requests={} errors={} shed_overloaded={} deadline_exceeded={} \
         rejected_draining={} refused_connections={} reload_backoffs={}",
        serve.requests,
        serve.request_errors,
        serve.shed_overloaded,
        serve.shed_deadline,
        serve.shed_draining,
        serve.refused_connections,
        serve.reload_backoffs.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_generate, parse_predict, parse_scale, parse_train};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("plssvm_cli_test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn end_to_end_generate_train_predict() {
        let dir = tmpdir("e2e");
        let data = dir.join("train.dat");
        let model = dir.join("train.model");
        let preds = dir.join("preds.txt");

        let gen = parse_generate(&sv(&[
            "--points",
            "80",
            "--features",
            "6",
            "--seed",
            "3",
            "--sep",
            "4.0",
            "--flip",
            "0.0",
            "-o",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_generate(&gen).unwrap();
        assert!(msg.contains("80 points"));

        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("PLSSVM"), "{msg}");
        assert!(model.exists());

        let predict = parse_predict(&sv(&[
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_predict(&predict).unwrap();
        assert!(msg.contains("Accuracy"), "{msg}");
        let lines = std::fs::read_to_string(&preds).unwrap();
        assert_eq!(lines.lines().count(), 80);
        // separable data at tight epsilon → near-perfect accuracy
        let acc: f64 = msg
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc >= 97.0, "{msg}");
    }

    #[test]
    fn train_all_algorithms_produce_models() {
        let dir = tmpdir("algos");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "4",
                "--seed",
                "5",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        for algo in ["lssvm", "smo", "smo-dense", "thunder"] {
            let model = dir.join(format!("{algo}.model"));
            let train = parse_train(&sv(&[
                "-a",
                algo,
                data.to_str().unwrap(),
                model.to_str().unwrap(),
            ]))
            .unwrap();
            let msg = run_train(&train).unwrap();
            assert!(model.exists(), "{algo}: {msg}");
            let loaded = SvmModel::<f64>::load(&model).unwrap();
            assert!(loaded.total_sv() > 0);
        }
    }

    #[test]
    fn train_on_simulated_gpu_reports_device() {
        let dir = tmpdir("gpu");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "40",
                "--features",
                "8",
                "--seed",
                "9",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let train = parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "2",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("simulated device time"), "{msg}");
        assert!(msg.contains("2x"), "{msg}");
    }

    #[test]
    fn scale_fit_save_restore() {
        let dir = tmpdir("scale");
        let data = dir.join("d.dat");
        std::fs::write(&data, "1 1:0 2:10\n-1 1:4 2:20\n").unwrap();
        let ranges = dir.join("r.txt");

        let scaled = run_scale(
            &parse_scale(&sv(&[
                "-s",
                ranges.to_str().unwrap(),
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(scaled.contains("-1") && ranges.exists(), "{scaled}");

        // restoring on the same data gives identical output
        let restored = run_scale(
            &parse_scale(&sv(&[
                "-r",
                ranges.to_str().unwrap(),
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(scaled, restored);
    }

    #[test]
    fn generate_sat6_shape() {
        let dir = tmpdir("sat6");
        let out = dir.join("sat.dat");
        let msg = run_generate(
            &parse_generate(&sv(&[
                "--sat6",
                "--points",
                "6",
                "-o",
                out.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(msg.contains("3136 features"), "{msg}");
    }

    #[test]
    fn regression_train_and_predict() {
        let dir = tmpdir("svr");
        let data = dir.join("sinc.dat");
        let model = dir.join("sinc.model");
        let preds = dir.join("preds.txt");
        // write a tiny sinc regression file
        let sinc = plssvm_data::synthetic::generate_sinc::<f64>(
            &plssvm_data::synthetic::SincConfig::new(80, 1).with_noise(0.0),
        )
        .unwrap();
        std::fs::write(
            &data,
            plssvm_data::libsvm::write_libsvm_regression_string(&sinc, false),
        )
        .unwrap();

        let train = parse_train(&sv(&[
            "-s",
            "3",
            "-t",
            "2",
            "-g",
            "0.5",
            "-c",
            "100",
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("LS-SVR"), "{msg}");
        assert!(model.exists());

        let predict = parse_predict(&sv(&[
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_predict(&predict).unwrap();
        assert!(msg.contains("Mean squared error"), "{msg}");
        let mse: f64 = msg
            .split('=')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(mse < 1e-4, "{msg}");
        assert_eq!(std::fs::read_to_string(&preds).unwrap().lines().count(), 80);
    }

    #[test]
    fn multiclass_train_and_predict() {
        let dir = tmpdir("mc");
        let data = dir.join("blobs.dat");
        let model = dir.join("blobs.model");
        let preds = dir.join("preds.txt");
        let blobs = plssvm_data::synthetic::generate_blobs::<f64>(
            &plssvm_data::synthetic::BlobsConfig::new(90, 4, 3, 5).with_separation(6.0),
        )
        .unwrap();
        let mut content = String::new();
        for p in 0..blobs.points() {
            content.push_str(&blobs.labels[p].to_string());
            for f in 0..blobs.features() {
                content.push_str(&format!(" {}:{}", f + 1, blobs.x.get(p, f)));
            }
            content.push('\n');
        }
        std::fs::write(&data, content).unwrap();

        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("multi-class"), "{msg}");
        assert!(msg.contains("3 binary models"), "{msg}");

        let predict = parse_predict(&sv(&[
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_predict(&predict).unwrap();
        assert!(msg.contains("multi-class classification"), "{msg}");
        let acc: f64 = msg
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc >= 95.0, "{msg}");
    }

    #[test]
    fn cross_validation_mode() {
        let dir = tmpdir("cv");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "80",
                "--features",
                "4",
                "--seed",
                "8",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let train = parse_train(&sv(&["-v", "5", "-e", "1e-6", data.to_str().unwrap()])).unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("Cross Validation Accuracy"), "{msg}");
        // no model file in CV mode
        assert!(!dir.join("train.dat.model").exists());
    }

    #[test]
    fn sigmoid_kernel_via_cli() {
        let dir = tmpdir("sigmoid");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "4",
                "--seed",
                "2",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        // sigmoid works cleanly with SMO (no PSD requirement)
        let train = parse_train(&sv(&[
            "-t",
            "3",
            "-g",
            "0.1",
            "-a",
            "smo",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("SMO"), "{msg}");
    }

    #[test]
    fn arff_train_and_predict() {
        let dir = tmpdir("arff");
        let data = dir.join("train.arff");
        let model = dir.join("train.model");
        let preds = dir.join("preds.txt");
        // generate directly in ARFF format
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "4",
                "--seed",
                "6",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "--format",
                "arff",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let content = std::fs::read_to_string(&data).unwrap();
        assert!(content.starts_with("@RELATION"), "{content}");

        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("PLSSVM"), "{msg}");

        let predict = parse_predict(&sv(&[
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_predict(&predict).unwrap();
        let acc: f64 = msg
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc >= 97.0, "{msg}");
    }

    #[test]
    fn metrics_out_emits_documented_json_lines_and_predict_round_trips() {
        let dir = tmpdir("metrics");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "5",
                "--seed",
                "11",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        // plain training: the reference model and accuracy
        let plain_model = dir.join("plain.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            plain_model.to_str().unwrap(),
        ]))
        .unwrap();
        let plain_msg = run_train(&train).unwrap();

        // instrumented training: --metrics-out writes JSON lines
        let traced_model = dir.join("traced.model");
        let metrics = dir.join("train.jsonl");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--metrics-out",
            metrics.to_str().unwrap(),
            data.to_str().unwrap(),
            traced_model.to_str().unwrap(),
        ]))
        .unwrap();
        let traced_msg = run_train(&train).unwrap();

        // golden shape: one JSON object per line, with the documented keys
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(!json.is_empty());
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
        for key in [
            "\"type\":\"cg_start\"",
            "\"type\":\"cg_iteration\"",
            "\"type\":\"kernel\"",
            "\"type\":\"span\"",
            "\"name\":\"q_kernel\"",
            "\"name\":\"svm_kernel\"",
            "\"name\":\"w_kernel\"",
            "\"path\":\"train/cg\"",
            "\"residual_norm\":",
            "\"flops\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }

        // telemetry must not change the trained model: identical
        // predictions and an identical accuracy report
        assert_eq!(
            std::fs::read_to_string(&plain_model).unwrap(),
            std::fs::read_to_string(&traced_model).unwrap()
        );
        let plain_acc = plain_msg.lines().last().unwrap().to_owned();
        let traced_acc = traced_msg.lines().last().unwrap().to_owned();
        assert_eq!(plain_acc, traced_acc);
        let preds_a = dir.join("a.txt");
        let preds_b = dir.join("b.txt");
        let pa = run_predict(
            &parse_predict(&sv(&[
                data.to_str().unwrap(),
                plain_model.to_str().unwrap(),
                preds_a.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let pb = run_predict(
            &parse_predict(&sv(&[
                data.to_str().unwrap(),
                traced_model.to_str().unwrap(),
                preds_b.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(pa, pb);
        assert_eq!(
            std::fs::read_to_string(&preds_a).unwrap(),
            std::fs::read_to_string(&preds_b).unwrap()
        );
    }

    #[test]
    fn quiet_and_verbose_modes() {
        let dir = tmpdir("verbosity");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "40",
                "--features",
                "4",
                "--seed",
                "13",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let model = dir.join("q.model");
        let train = parse_train(&sv(&[
            "-q",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(run_train(&train).unwrap(), "");
        assert!(model.exists());

        let train = parse_train(&sv(&[
            "--verbose",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("telemetry:"), "{msg}");
        assert!(msg.contains("svm_kernel"), "{msg}");
        assert!(msg.contains("training accuracy"), "{msg}");

        // predict: --metrics-out writes a span line, -q silences the report
        let preds = dir.join("p.txt");
        let pm = dir.join("predict.jsonl");
        let predict = parse_predict(&sv(&[
            "--metrics-out",
            pm.to_str().unwrap(),
            "-q",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(run_predict(&predict).unwrap(), "");
        let json = std::fs::read_to_string(&pm).unwrap();
        assert!(json.contains("\"type\":\"span\""), "{json}");
        assert!(json.contains("\"path\":\"predict\""), "{json}");
    }

    #[test]
    fn regression_metrics_out() {
        let dir = tmpdir("svr_metrics");
        let data = dir.join("sinc.dat");
        let model = dir.join("sinc.model");
        let metrics = dir.join("svr.jsonl");
        let sinc = plssvm_data::synthetic::generate_sinc::<f64>(
            &plssvm_data::synthetic::SincConfig::new(50, 1).with_noise(0.0),
        )
        .unwrap();
        std::fs::write(
            &data,
            plssvm_data::libsvm::write_libsvm_regression_string(&sinc, false),
        )
        .unwrap();
        let train = parse_train(&sv(&[
            "-s",
            "3",
            "-t",
            "2",
            "-g",
            "0.5",
            "-c",
            "100",
            "--metrics-out",
            metrics.to_str().unwrap(),
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("LS-SVR"), "{msg}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"type\":\"cg_iteration\""), "{json}");
        assert!(json.contains("\"name\":\"svm_kernel\""), "{json}");
    }

    #[test]
    fn fault_injected_training_recovers_and_logs_recovery_telemetry() {
        let dir = tmpdir("fault");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "8",
                "--seed",
                "17",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let model = dir.join("fault.model");
        let metrics = dir.join("fault.jsonl");
        let train = parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "4",
            "--fault-plan",
            "fail:1@4;transient:2@0x2",
            "--checkpoint-every",
            "4",
            "-e",
            "1e-8",
            "--metrics-out",
            metrics.to_str().unwrap(),
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("converged: true"), "{msg}");
        assert!(model.exists());
        let json = std::fs::read_to_string(&metrics).unwrap();
        for key in [
            "\"type\":\"recovery\"",
            "\"kind\":\"failover\"",
            "\"kind\":\"retry\"",
            "\"kind\":\"checkpoint\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // the recovered model still predicts the training set well
        let preds = dir.join("p.txt");
        let pm = run_predict(
            &parse_predict(&sv(&[
                data.to_str().unwrap(),
                model.to_str().unwrap(),
                preds.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let acc: f64 = pm
            .split('=')
            .nth(1)
            .unwrap()
            .trim()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc >= 97.0, "{pm}");

        // fault plans are rejected for solvers without a recovery driver
        let bad = parse_train(&sv(&[
            "-a",
            "smo",
            "--backend",
            "cuda",
            "--fault-plan",
            "fail:0@1",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run_train(&bad).is_err());
    }

    #[test]
    fn on_nonconverged_policy_gates_the_model_file() {
        let dir = tmpdir("nonconverged");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "50",
                "--features",
                "4",
                "--seed",
                "23",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        // epsilon 1e-16 sits below the f64 noise floor: the solve can
        // classify (stalled / iteration budget) but never converge
        let model = dir.join("refused.model");
        let train = parse_train(&sv(&[
            "-c",
            "1e12",
            "-e",
            "1e-16",
            "--on-nonconverged",
            "error",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run_train(&train).unwrap_err();
        let svm_err = err
            .downcast_ref::<SvmError>()
            .expect("NonConverged must surface as SvmError for the exit-code mapping");
        assert!(
            matches!(svm_err, SvmError::NonConverged { .. }),
            "{svm_err}"
        );
        assert!(!model.exists(), "error mode must refuse the model file");

        // warn (the default) writes the model and flags it in the summary
        let model = dir.join("warned.model");
        let train = parse_train(&sv(&[
            "-c",
            "1e12",
            "-e",
            "1e-16",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("WARNING: solver did not converge"), "{msg}");
        assert!(msg.contains("converged: false"), "{msg}");
        assert!(model.exists());

        // accept stays silent about it
        let model = dir.join("accepted.model");
        let train = parse_train(&sv(&[
            "-c",
            "1e12",
            "-e",
            "1e-16",
            "--on-nonconverged",
            "accept",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(!msg.contains("WARNING"), "{msg}");
        assert!(model.exists());

        // a converged solve reports its outcome in the summary
        let model = dir.join("converged.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--on-nonconverged",
            "error",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(msg.contains("solver outcome: converged"), "{msg}");
        assert!(model.exists());
    }

    fn planes_file(dir: &std::path::Path, points: &str, seed: &str) -> std::path::PathBuf {
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                points,
                "--features",
                "4",
                "--seed",
                seed,
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        data
    }

    #[test]
    fn on_nonconverged_policy_reaches_cross_validation_folds() {
        let dir = tmpdir("cv_nonconverged");
        let data = planes_file(&dir, "60", "23");
        let cv = |policy: &str| {
            run_train(
                &parse_train(&sv(&[
                    "-v",
                    "3",
                    "-c",
                    "1e12",
                    "-e",
                    "1e-16",
                    "--on-nonconverged",
                    policy,
                    data.to_str().unwrap(),
                ]))
                .unwrap(),
            )
        };
        let err = cv("error").unwrap_err();
        let svm_err = err
            .downcast_ref::<SvmError>()
            .expect("NonConverged must surface as SvmError for the exit-code mapping");
        assert!(
            matches!(svm_err, SvmError::NonConverged { .. }),
            "{svm_err}"
        );
        let msg = cv("warn").unwrap();
        assert!(msg.contains("3 of 3 folds did not converge"), "{msg}");
        assert!(msg.contains("Cross Validation Accuracy"), "{msg}");
        let msg = cv("accept").unwrap();
        assert!(!msg.contains("WARNING"), "{msg}");
        assert!(msg.contains("Cross Validation Accuracy"), "{msg}");
    }

    #[test]
    fn verbose_reports_dispatch_and_counters_in_cross_validation() {
        let dir = tmpdir("cv_verbose");
        let data = planes_file(&dir, "60", "8");
        let cv = |extra: &[&str]| {
            let mut a = vec!["-v", "3", "-e", "1e-6"];
            a.extend_from_slice(extra);
            a.push(data.to_str().unwrap());
            run_train(&parse_train(&sv(&a)).unwrap()).unwrap()
        };
        let verbose = cv(&["--verbose"]);
        assert!(verbose.contains("simd dispatch: "), "{verbose}");
        assert!(verbose.contains("telemetry: "), "{verbose}");
        let plain = cv(&[]);
        assert!(!plain.contains("simd dispatch"), "{plain}");
        // the report is added, the accuracy line is the same
        assert!(verbose.starts_with(plain.as_str()), "{verbose}");
    }

    #[test]
    fn verbose_reports_dispatch_and_counters_for_multiclass_input() {
        let dir = tmpdir("mc_verbose");
        let data = dir.join("blobs.dat");
        let blobs = plssvm_data::synthetic::generate_blobs::<f64>(
            &plssvm_data::synthetic::BlobsConfig::new(60, 4, 3, 5).with_separation(6.0),
        )
        .unwrap();
        let mut content = String::new();
        for p in 0..blobs.points() {
            content.push_str(&blobs.labels[p].to_string());
            for f in 0..blobs.features() {
                content.push_str(&format!(" {}:{}", f + 1, blobs.x.get(p, f)));
            }
            content.push('\n');
        }
        std::fs::write(&data, content).unwrap();
        let train = |extra: &str| {
            let model = dir.join(format!("blobs{extra}.model"));
            let mut a = vec!["-e", "1e-8"];
            if !extra.is_empty() {
                a.push(extra);
            }
            a.extend([data.to_str().unwrap(), model.to_str().unwrap()]);
            let msg = run_train(&parse_train(&sv(&a)).unwrap()).unwrap();
            (msg, std::fs::read(model).unwrap())
        };
        let (verbose, verbose_model) = train("--verbose");
        assert!(verbose.contains("3 binary models"), "{verbose}");
        assert!(verbose.contains("simd dispatch: "), "{verbose}");
        assert!(verbose.contains("telemetry: "), "{verbose}");
        let (plain, plain_model) = train("");
        assert!(!plain.contains("simd dispatch"), "{plain}");
        assert_eq!(
            verbose_model, plain_model,
            "--verbose must not change the model"
        );
    }

    #[test]
    fn checkpoint_dir_train_and_resume_round_trip() {
        let dir = tmpdir("ckpt_cli");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "80",
                "--features",
                "6",
                "--seed",
                "29",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        // reference: no journal at all
        let reference = dir.join("reference.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            data.to_str().unwrap(),
            reference.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();

        // journaled run: byte-identical model, generations on disk
        let journal_dir = dir.join("journal");
        let journaled = dir.join("journaled.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "5",
            data.to_str().unwrap(),
            journaled.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&journaled).unwrap(),
            "journaling must not perturb the model"
        );
        let journal = CheckpointJournal::open(&journal_dir, 4).unwrap();
        assert!(!journal.generations().unwrap().is_empty());

        // resume from the populated journal: byte-identical model again
        let resumed = dir.join("resumed.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "5",
            "--resume",
            data.to_str().unwrap(),
            resumed.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "resume must reproduce the reference model byte for byte"
        );

        // editing the data file changes the content salt: the journal is
        // rejected as belonging to a different run
        let mut content = std::fs::read_to_string(&data).unwrap();
        content.push_str("1 1:0.5 2:0.25 3:0 4:0 5:0 6:0\n");
        std::fs::write(&data, content).unwrap();
        let err = run_train(&train).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn checkpoint_dir_is_refused_outside_the_lssvm_solver() {
        let dir = tmpdir("ckpt_refused");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "40",
                "--features",
                "4",
                "--seed",
                "31",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let journal_dir = dir.join("journal");
        let smo = parse_train(&sv(&[
            "-a",
            "smo",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run_train(&smo).is_err());
        let cv = parse_train(&sv(&[
            "-v",
            "3",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            data.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run_train(&cv).is_err());
    }

    #[test]
    fn multiclass_checkpoint_uses_per_task_journals() {
        let dir = tmpdir("ckpt_mc");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("blobs.dat");
        let blobs = plssvm_data::synthetic::generate_blobs::<f64>(
            &plssvm_data::synthetic::BlobsConfig::new(90, 4, 3, 5).with_separation(6.0),
        )
        .unwrap();
        let mut content = String::new();
        for p in 0..blobs.points() {
            content.push_str(&blobs.labels[p].to_string());
            for f in 0..blobs.features() {
                content.push_str(&format!(" {}:{}", f + 1, blobs.x.get(p, f)));
            }
            content.push('\n');
        }
        std::fs::write(&data, content).unwrap();

        let journal_dir = dir.join("journal");
        let reference = dir.join("reference.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            reference.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();

        let journaled = dir.join("journaled.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
            data.to_str().unwrap(),
            journaled.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&journaled).unwrap()
        );
        // one sub-journal per binary subproblem (3 classes OvO -> 3 pairs)
        for task in 0..3 {
            assert!(
                journal_dir.join(format!("task-{task:03}")).is_dir(),
                "missing sub-journal for task {task}"
            );
        }

        let resumed = dir.join("resumed.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
            "--resume",
            data.to_str().unwrap(),
            resumed.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&resumed).unwrap()
        );
    }

    #[test]
    fn lowrank_solver_trains_and_predicts_like_exact() {
        let dir = tmpdir("lowrank");
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "120",
                "--features",
                "6",
                "--seed",
                "37",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        let exact_model = dir.join("exact.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            exact_model.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();

        let lr_model = dir.join("lowrank.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--solver",
            "lowrank",
            "--rank",
            "32",
            data.to_str().unwrap(),
            lr_model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(
            msg.contains("solver: lowrank rank=32 seed=42 strategy=uniform"),
            "{msg}"
        );
        assert!(msg.contains("converged: true"), "{msg}");

        // the low-rank model records its provenance in the model file
        let content = std::fs::read_to_string(&lr_model).unwrap();
        assert!(content.contains("solver lowrank rank=32"), "{content}");
        // ... while the exact model stays LIBSVM-plain
        assert!(!std::fs::read_to_string(&exact_model)
            .unwrap()
            .contains("solver "));

        // both models classify the training set equally well
        for model in [&exact_model, &lr_model] {
            let preds = dir.join("p.txt");
            let pm = run_predict(
                &parse_predict(&sv(&[
                    data.to_str().unwrap(),
                    model.to_str().unwrap(),
                    preds.to_str().unwrap(),
                ]))
                .unwrap(),
            )
            .unwrap();
            let acc: f64 = pm
                .split('=')
                .nth(1)
                .unwrap()
                .trim()
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(acc >= 97.0, "{pm}");
        }
    }

    #[test]
    fn io_faults_transient_fault_retries_to_an_identical_model() {
        let dir = tmpdir("io_faults_transient");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "50",
                "--features",
                "4",
                "--seed",
                "41",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        let reference = dir.join("reference.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            data.to_str().unwrap(),
            reference.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();

        // a transient EIO on the first model-write operation is retried
        // away; the written model is byte-identical to the fault-free one
        let faulted = dir.join("faulted.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--io-faults",
            "eio:write@0~model",
            data.to_str().unwrap(),
            faulted.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&faulted).unwrap(),
            "a retried transient fault must not perturb the artifact"
        );
    }

    #[test]
    fn io_faults_persistent_model_write_fault_is_a_storage_error() {
        let dir = tmpdir("io_faults_persistent");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "50",
                "--features",
                "4",
                "--seed",
                "43",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();
        let model = dir.join("refused.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-8",
            "--io-faults",
            "enospc:write@0~model!",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run_train(&train).unwrap_err();
        err.downcast_ref::<StorageError>()
            .expect("exhausted retries must surface as StorageError (exit code 4)");
        assert!(
            !model.exists(),
            "a failed atomic write must not leave a model file"
        );
    }

    #[test]
    fn io_faults_dead_journal_degrades_or_refuses_by_policy() {
        let dir = tmpdir("io_faults_degraded");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("train.dat");
        run_generate(
            &parse_generate(&sv(&[
                "--points",
                "60",
                "--features",
                "5",
                "--seed",
                "47",
                "--sep",
                "4.0",
                "--flip",
                "0.0",
                "-o",
                data.to_str().unwrap(),
            ]))
            .unwrap(),
        )
        .unwrap();

        let reference = dir.join("reference.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            data.to_str().unwrap(),
            reference.to_str().unwrap(),
        ]))
        .unwrap();
        run_train(&train).unwrap();

        // every journal write fails persistently: checkpointing degrades,
        // training continues, and the default policy warns but still
        // writes a byte-identical model
        let journal_dir = dir.join("journal");
        let model = dir.join("degraded.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
            "--io-faults",
            "eio:write@0~gen-!",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run_train(&train).unwrap();
        assert!(
            msg.contains("WARNING: checkpoint journal degraded"),
            "{msg}"
        );
        assert_eq!(
            std::fs::read_to_string(&reference).unwrap(),
            std::fs::read_to_string(&model).unwrap(),
            "a dead journal must not perturb the model"
        );

        // --on-io-degraded error refuses the model instead
        let journal_dir = dir.join("journal_err");
        let model = dir.join("refused.model");
        let train = parse_train(&sv(&[
            "-e",
            "1e-10",
            "--checkpoint-dir",
            journal_dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
            "--io-faults",
            "eio:write@0~gen-!",
            "--on-io-degraded",
            "error",
            data.to_str().unwrap(),
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run_train(&train).unwrap_err();
        err.downcast_ref::<StorageError>()
            .expect("degraded journal under error policy must be a StorageError");
        assert!(!model.exists());
    }

    #[test]
    fn missing_files_error_cleanly() {
        let train = parse_train(&sv(&["/nonexistent/file.dat"])).unwrap();
        assert!(run_train(&train).is_err());
        let predict = parse_predict(&sv(&["/no/t.dat", "/no/m.model", "/no/o.txt"])).unwrap();
        assert!(run_predict(&predict).is_err());
        let scale = parse_scale(&sv(&["/no/d.dat"])).unwrap();
        assert!(run_scale(&scale).is_err());
    }

    /// A 60-point binary LIBSVM file in a fresh test directory.
    fn binary_file(name: &str) -> std::path::PathBuf {
        let data = tmpdir(name).join("train.dat");
        let args = ["--points", "60", "--features", "4", "--seed", "71", "-o"];
        let mut args = sv(&args);
        args.push(data.to_str().unwrap().to_owned());
        run_generate(&parse_generate(&args).unwrap()).unwrap();
        data
    }

    /// A 45-point 3-class LIBSVM file in a fresh test directory.
    fn multiclass_file(name: &str) -> std::path::PathBuf {
        let data = tmpdir(name).join("blobs.dat");
        let blobs = plssvm_data::synthetic::generate_blobs::<f64>(
            &plssvm_data::synthetic::BlobsConfig::new(45, 3, 3, 72).with_separation(6.0),
        )
        .unwrap();
        let mut content = String::new();
        for p in 0..blobs.points() {
            content.push_str(&blobs.labels[p].to_string());
            for f in 0..blobs.features() {
                content.push_str(&format!(" {}:{}", f + 1, blobs.x.get(p, f)));
            }
            content.push('\n');
        }
        std::fs::write(&data, content).unwrap();
        data
    }

    /// Runs `svm-train` expecting an error before anything is written;
    /// returns the message.
    fn train_error(data: &std::path::Path, flags: &[&str]) -> String {
        let model = data.with_extension("model");
        let metrics = data.with_extension("jsonl");
        std::fs::remove_file(&model).ok();
        let mut args = sv(flags);
        args.push(data.to_str().unwrap().to_owned());
        args.push(model.to_str().unwrap().to_owned());
        let err = run_train(&parse_train(&args).unwrap()).unwrap_err();
        assert!(!model.exists(), "{flags:?} wrote a model");
        assert!(!metrics.exists(), "{flags:?} wrote metrics");
        err.to_string()
    }

    #[test]
    fn class_weights_with_cross_validation_are_rejected() {
        let data = binary_file("wi_cv");
        let err = train_error(&data, &["-v", "3", "-w1", "0.001"]);
        assert!(
            err.contains("-wi") && err.contains("cross validation"),
            "{err}"
        );
    }

    #[test]
    fn class_weights_with_regression_are_rejected() {
        let data = binary_file("wi_svr");
        let err = train_error(&data, &["-s", "3", "-w1", "0.001"]);
        assert!(err.contains("-wi") && err.contains("regression"), "{err}");
    }

    #[test]
    fn class_weights_with_multiclass_input_are_rejected() {
        let data = multiclass_file("wi_mc");
        let err = train_error(&data, &["-w1", "0.001"]);
        assert!(err.contains("-wi") && err.contains("multi-class"), "{err}");
    }

    #[test]
    fn metrics_out_with_cross_validation_is_rejected() {
        let data = binary_file("metrics_cv");
        let metrics = data.with_extension("jsonl");
        let err = train_error(
            &data,
            &["-v", "3", "--metrics-out", metrics.to_str().unwrap()],
        );
        assert!(
            err.contains("--metrics-out") && err.contains("cross validation"),
            "{err}"
        );
    }

    #[test]
    fn metrics_out_with_multiclass_input_is_rejected() {
        let data = multiclass_file("metrics_mc");
        let metrics = data.with_extension("jsonl");
        let err = train_error(&data, &["--metrics-out", metrics.to_str().unwrap()]);
        assert!(
            err.contains("--metrics-out") && err.contains("multi-class"),
            "{err}"
        );
    }

    #[test]
    fn cross_validation_with_regression_is_rejected() {
        let data = binary_file("cv_svr");
        let err = train_error(&data, &["-s", "3", "-v", "3"]);
        assert!(err.contains("-v") && err.contains("regression"), "{err}");
    }

    #[test]
    fn cross_validation_honours_the_solver() {
        let path = binary_file("cv_solver");
        let args = sv(&["-v", "3", "--solver", "lowrank", "--rank", "4"]);
        let mut args = args;
        args.push(path.to_str().unwrap().to_owned());
        let msg = run_train(&parse_train(&args).unwrap()).unwrap();
        let data = read_libsvm_file::<f64>(&path, None).unwrap();
        let trainer = LsSvm::new()
            .with_kernel(plssvm_data::model::KernelSpec::Linear)
            .with_solver(plssvm_core::lowrank::SolverSelection::lowrank(4));
        let cv = cross_validate(&data, &trainer, 3, 42).unwrap();
        let expected = format!(
            "Cross Validation Accuracy = {:.4}% (3-fold)\n",
            100.0 * cv.accuracy
        );
        assert_eq!(msg, expected);
    }

    #[test]
    fn fault_plan_reaches_cross_validation_and_multiclass() {
        // a plan that stops the only device fails every mode that
        // installs it; a mode that dropped it would train fine
        let binary = binary_file("fault_cv");
        let err = train_error(
            &binary,
            &["-v", "3", "-b", "cuda", "--fault-plan", "fail:0@1"],
        );
        assert!(err.contains("no survivor"), "{err}");
        let blobs = multiclass_file("fault_mc");
        let err = train_error(&blobs, &["-b", "cuda", "--fault-plan", "fail:0@1"]);
        assert!(err.contains("no survivor"), "{err}");
        // with a survivor both modes recover
        let mut args = sv(&["-b", "cuda", "-n", "2", "--fault-plan", "fail:1@3"]);
        args.push(blobs.to_str().unwrap().to_owned());
        args.push(blobs.with_extension("model").to_str().unwrap().to_owned());
        let msg = run_train(&parse_train(&args).unwrap()).unwrap();
        assert!(msg.contains("3 binary models"), "{msg}");
    }

    #[test]
    fn quiet_silences_multiclass_and_smo_training() {
        let blobs = multiclass_file("quiet_mc");
        let binary = binary_file("quiet_smo");
        for (data, flags) in [(&blobs, &["-q"][..]), (&binary, &["-q", "-a", "smo"][..])] {
            let model = data.with_extension("model");
            let mut args = sv(flags);
            args.push(data.to_str().unwrap().to_owned());
            args.push(model.to_str().unwrap().to_owned());
            assert_eq!(run_train(&parse_train(&args).unwrap()).unwrap(), "");
            assert!(model.exists());
        }
    }
}
