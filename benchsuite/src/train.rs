//! The training workloads end to end, and the traced copy of the training
//! pipeline that splits one training call into its layers.
//!
//! End-to-end runs call exactly what `svm-train` and `svm-predict` call:
//! `read_libsvm_file`, `LsSvm::train`, `SvmModel::save`, `SvmModel::load`
//! and `predict_labels`. Each repetition trains on a fresh data set drawn
//! from the run's seed, so one unlucky data set cannot move a median.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use plssvm_core::backend::Prepared;
use plssvm_core::cg::{CgConfig, LinOp};
use plssvm_core::guard::{solve_with_guardrails, GuardedSolve, JacobiDiagonal};
use plssvm_core::kernel::kernel_row;
use plssvm_core::lowrank::{solve_lowrank, SolverSelection};
use plssvm_core::matrix_free::{bias, full_alpha, reduced_rhs};
use plssvm_core::svm::{predict_labels, LsSvm};
use plssvm_core::trace::{MetricsSink, Telemetry, TelemetryReport};
use plssvm_data::libsvm::{read_libsvm_file, LabeledData};
use plssvm_data::model::{KernelSpec, SvmModel};

use crate::host;
use crate::report::{median, RunReport};
use crate::workload::{held_out_accuracy, write_dataset, DataFiles, MIN_ACCURACY};
use crate::{Options, Result};

/// Reads of the training file behind `setup_s`.
pub const SETUP_READS: usize = 5;
/// Fewest training repetitions per end-to-end run, however long they take.
const MIN_REPS: usize = 3;

/// Writes data set 0 and reads its training file [`SETUP_READS`] times,
/// as `svm-train` reads its input. Returns the files, the parsed data and
/// each read's wall time.
pub fn read_setup(opts: &Options) -> Result<(DataFiles, LabeledData<f64>, Vec<f64>)> {
    let files = write_dataset(
        &opts.work_dir,
        opts.workload.sizes(opts.smoke),
        opts.seed,
        0,
    )?;
    let mut reads = Vec::with_capacity(SETUP_READS);
    let mut data = None;
    for _ in 0..SETUP_READS {
        let t = Instant::now();
        data = Some(read_libsvm_file::<f64>(&files.train, None)?);
        reads.push(t.elapsed().as_secs_f64());
    }
    Ok((files, data.expect("at least one read"), reads))
}

/// Data set `index` of the run and the seconds its training file took to
/// read: data set 0 comes from [`read_setup`] (no read time here), later
/// ones are generated and read here.
pub fn dataset(
    opts: &Options,
    index: usize,
    first: &mut Option<(DataFiles, LabeledData<f64>)>,
) -> Result<(DataFiles, LabeledData<f64>, Option<f64>)> {
    if let Some((files, data)) = first.take() {
        return Ok((files, data, None));
    }
    let files = write_dataset(
        &opts.work_dir,
        opts.workload.sizes(opts.smoke),
        opts.seed,
        index,
    )?;
    let t = Instant::now();
    let data = read_libsvm_file::<f64>(&files.train, None)?;
    Ok((files, data, Some(t.elapsed().as_secs_f64())))
}

/// The end-to-end run of `train-exact` / `train-lowrank`.
pub fn run_e2e(opts: &Options) -> Result<RunReport> {
    let trainer = opts.workload.trainer(opts.smoke);
    let (files, data, reads) = read_setup(opts)?;
    let mut first = Some((files, data));
    let model_path = opts.work_dir.join("model.txt");

    let (mut train_s, mut predict_rate, mut accuracy, mut iterations, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut unconverged, mut inaccurate, mut failed) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + opts.duration();
    while train_s.len() < MIN_REPS || Instant::now() < deadline {
        let (files, data, _) = dataset(opts, train_s.len(), &mut first)?;
        // peak memory of training and of saving, each measured from a
        // trimmed heap so that what one step leaves free does not count
        // against the next; the input is resident, as it is in svm-train
        let reset = host::reset_peak_rss();
        let t = Instant::now();
        let out = trainer.train(&data)?;
        let fit_s = t.elapsed().as_secs_f64();
        let fit_peak = host::peak_rss_mib(None);
        let reset = host::reset_peak_rss() && reset;
        let t = Instant::now();
        out.model.save(&model_path)?;
        train_s.push(fit_s + t.elapsed().as_secs_f64());
        if let (true, Some(fit), Some(save)) = (reset, fit_peak, host::peak_rss_mib(None)) {
            rss.push(fit.max(save));
        }
        drop(data);

        // svm-predict: load the model file, read the held-out file, predict
        let model = SvmModel::<f64>::load(&model_path)?;
        let test = read_libsvm_file::<f64>(&files.test, Some(model.features()))?;
        let t = Instant::now();
        let labels = predict_labels(&model, &test.x);
        predict_rate.push(test.points() as f64 / t.elapsed().as_secs_f64());
        let acc = held_out_accuracy(&labels, &test);
        accuracy.push(acc);
        iterations.push(out.iterations as f64);
        unconverged += u64::from(!out.converged);
        inaccurate += u64::from(acc < MIN_ACCURACY);
        failed += u64::from(!out.converged || acc < MIN_ACCURACY);
        eprintln!(
            "  rep {}: train {:.3} s ({} CG iterations), held-out accuracy {:.4}",
            train_s.len(),
            train_s.last().expect("pushed"),
            out.iterations,
            acc
        );
    }

    let mut r = RunReport {
        attempted: train_s.len() as u64,
        failed,
        ..RunReport::default()
    };
    r.median_metric("setup_s", "s", &reads);
    r.median_metric(
        "latency_ms",
        "ms",
        &train_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    r.median_metric("throughput_per_s", "1/s", &predict_rate);
    r.median_metric("test_accuracy", "fraction", &accuracy);
    // the mean, not the median: a repetition's peak takes one of a few
    // values 2 MiB apart (whether two large buffers overlap depends on
    // allocator state), and the median of such a sample jumps between them
    let mean_rss = if rss.len() == train_s.len() {
        rss.iter().sum::<f64>() / rss.len() as f64
    } else {
        f64::NAN
    };
    r.metric("peak_rss_mb", "MiB", mean_rss);
    r.diagnostic("reps", "count", train_s.len() as f64);
    r.diagnostic("cg_iterations.median", "count", median(&iterations));
    r.diagnostic(
        "cg_iterations.max",
        "count",
        iterations.iter().copied().fold(0.0, f64::max),
    );
    r.check(
        "converged",
        unconverged == 0,
        format!(
            "{unconverged} of {} repetitions did not converge",
            train_s.len()
        ),
    );
    r.check(
        "held_out_accuracy",
        inaccurate == 0,
        format!(
            "{inaccurate} of {} repetitions below {MIN_ACCURACY} held-out accuracy",
            train_s.len()
        ),
    );
    r.check(
        "peak_rss_measured",
        rss.len() == train_s.len(),
        "VmHWM reset through /proc/self/clear_refs and read back around every train and save",
    );
    Ok(r)
}

/// [`Prepared`] as a [`LinOp`] that logs the wall and process CPU time of
/// every `apply`.
struct TimedOp<'a> {
    inner: &'a Prepared<f64>,
    applies: Mutex<Vec<(f64, f64)>>,
}

impl LinOp<f64> for TimedOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let cpu0 = host::process_cpu_s();
        let t = Instant::now();
        self.inner.apply(v, out);
        let wall = t.elapsed().as_secs_f64();
        let cpu = match (cpu0, host::process_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        self.applies
            .lock()
            .expect("apply log lock poisoned")
            .push((wall, cpu));
    }
}

/// One traced training call, stage by stage; the model itself is only
/// written to the model file.
#[derive(Debug)]
pub struct TracedTrain {
    /// Whether the solve met its tolerance.
    pub converged: bool,
    /// CG (or low-rank PCG) iterations across all escalation rungs.
    pub iterations: usize,
    /// Escalation rungs that engaged.
    pub escalations: usize,
    /// Wall time of the whole pipeline.
    pub total_s: f64,
    /// `Prepared::new` (backend set-up and the `q⃗` pass).
    pub prepare_s: f64,
    /// `reduced_rhs`.
    pub rhs_s: f64,
    /// The guarded or low-rank solve, matvecs included.
    pub solve_s: f64,
    /// `bias`, `full_alpha`, the linear `w` and the model struct.
    pub assemble_s: f64,
    /// `SvmModel::save`.
    pub write_s: f64,
    /// `(wall, cpu)` seconds of every matvec of the solve.
    pub applies: Vec<(f64, f64)>,
    /// Counters the backend recorded into the attached sink.
    pub telemetry: TelemetryReport,
}

impl TracedTrain {
    /// Summed matvec wall time.
    pub fn matvec_s(&self) -> f64 {
        self.applies.iter().map(|a| a.0).sum()
    }

    /// Share of the pipeline's wall time its stages account for.
    pub fn coverage(&self) -> f64 {
        (self.prepare_s + self.rhs_s + self.solve_s + self.assemble_s + self.write_s) / self.total_s
    }
}

/// `LsSvm::train` followed by `SvmModel::save`, rebuilt from the public
/// calls `LsSvm::train_inner` makes, with a timer around each:
///
/// `Prepared::new` → `reduced_rhs` → guarded or low-rank solve →
/// `bias` / `full_alpha` → `SvmModel` → `save`.
///
/// Only the configurations the workloads use are mirrored (CPU backend,
/// no sample weights, fault plan, journal or up-front Jacobi); the model
/// file must come out byte-identical to the untraced call's.
pub fn traced_train(
    cfg: &LsSvm<f64>,
    data: &LabeledData<f64>,
    model_path: &Path,
) -> Result<TracedTrain> {
    assert!(
        cfg.cpu_tiling.is_none()
            && cfg.sample_weights.is_none()
            && cfg.fault_plan.is_none()
            && cfg.checkpoint_journal.is_none()
            && !cfg.jacobi_preconditioner,
        "the traced pipeline mirrors only the workloads' trainer settings"
    );
    let t_total = Instant::now();

    let t = Instant::now();
    let mut prepared = Prepared::new(&cfg.backend, &data.x, None, &cfg.kernel, cfg.cost)?;
    let telemetry = Telemetry::shared();
    prepared.set_metrics(Arc::clone(&telemetry) as Arc<dyn MetricsSink>);
    let prepare_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rhs = reduced_rhs(&data.y);
    let rhs_s = t.elapsed().as_secs_f64();

    let cg_cfg = CgConfig {
        epsilon: cfg.epsilon,
        max_iterations: cfg.max_iterations,
        checkpoint_interval: cfg.checkpoint_interval,
        ..CgConfig::default()
    };
    // the lazily computed Jacobi diagonal of the escalation ladder
    let compute_diagonal = || {
        let params = prepared.params();
        (0..params.dim())
            .map(|i| {
                kernel_row(&cfg.kernel, data.x.row(i), data.x.row(i)) + params.ridge(i)
                    - 2.0 * params.q[i]
                    + params.q_mm()
            })
            .collect::<Vec<f64>>()
    };
    let jacobi = JacobiDiagonal::Lazy(&compute_diagonal);
    let timed = TimedOp {
        inner: &prepared,
        applies: Mutex::new(Vec::new()),
    };
    let t = Instant::now();
    let GuardedSolve {
        result: solve,
        total_iterations,
        escalations,
    } = match cfg.solver {
        SolverSelection::LowRank {
            rank,
            seed,
            strategy,
        } => solve_lowrank(
            &timed,
            prepared.params(),
            &data.x,
            &cfg.kernel,
            rank,
            seed,
            strategy,
            &rhs,
            &cg_cfg,
            &cfg.recovery_policy,
            jacobi,
            None,
        )?,
        SolverSelection::Exact => {
            solve_with_guardrails(&timed, &rhs, &cg_cfg, &cfg.recovery_policy, jacobi, None)
        }
    };
    let solve_s = t.elapsed().as_secs_f64();
    let applies = timed.applies.into_inner().expect("apply log lock poisoned");

    let t = Instant::now();
    let b = bias(prepared.params(), &data.y, &solve.x);
    let alpha = full_alpha(&solve.x);
    if matches!(cfg.kernel, KernelSpec::Linear) {
        // train_inner materializes w = Σ αᵢ·xᵢ for linear models
        prepared.compute_linear_w(&alpha)?;
    }
    let (pos, neg) = data.class_counts();
    let model = SvmModel {
        kernel: cfg.kernel,
        labels: data.label_map,
        rho: -b,
        sv: data.x.clone(),
        coef: alpha,
        nr_sv: [pos, neg],
        solver: cfg.solver.provenance(),
    };
    let assemble_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    model.save(model_path)?;
    let write_s = t.elapsed().as_secs_f64();

    Ok(TracedTrain {
        converged: solve.converged,
        iterations: total_iterations,
        escalations: escalations.len(),
        total_s: t_total.elapsed().as_secs_f64(),
        prepare_s,
        rhs_s,
        solve_s,
        assemble_s,
        write_s,
        applies,
        telemetry: telemetry.report(),
    })
}
