//! Argument parsing for the CLI binaries (hand rolled, LIBSVM style).

use std::fmt;

use plssvm_core::backend::simgpu::TilingConfig;
use plssvm_core::backend::BackendSelection;
use plssvm_core::backend::CpuTilingConfig;
use plssvm_core::lowrank::{LandmarkStrategy, SolverSelection, DEFAULT_SEED};
use plssvm_data::model::KernelSpec;
use plssvm_data::vfs::FaultPlan as IoFaultPlan;
use plssvm_simgpu::hw;
use plssvm_simgpu::Backend as DeviceApi;
use plssvm_simgpu::FaultPlan;

/// Errors from command line parsing.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Which solver `svm-train` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The least squares SVM (PLSSVM, the default).
    LsSvm,
    /// LIBSVM-style SMO over sparse rows.
    Smo,
    /// LIBSVM-style SMO over dense rows.
    SmoDense,
    /// ThunderSVM-style batched SMO.
    Thunder,
}

/// Multi-class strategy selection for `svm-train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McStrategy {
    /// One-vs-one (LIBSVM's scheme, the default).
    Ovo,
    /// One-vs-rest.
    Ovr,
}

/// What `svm-train` does when the solver finishes non-converged even after
/// the escalation ladder (`--on-nonconverged`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonConvergedAction {
    /// Refuse the model: exit with code 3 and no model file.
    Error,
    /// Write the model but print a warning with the classified outcome
    /// (the default).
    Warn,
    /// Write the model silently.
    Accept,
}

/// What `svm-train` does when the checkpoint journal degrades mid-run
/// (persistent storage faults exhausted the retry budget and
/// checkpointing was disabled) — `--on-io-degraded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDegradedAction {
    /// Refuse the model: exit with code 4 and no model file.
    Error,
    /// Write the model but print a warning (the default — losing the
    /// journal costs resumability, not correctness).
    Warn,
}

/// Parsed `svm-train` invocation.
#[derive(Debug, Clone)]
pub struct TrainArgs {
    /// LIBSVM `-s`: 0 = C-SVC classification (default), 3 = epsilon-SVR
    /// regression (solved as LS-SVR).
    pub svm_type: u8,
    /// Cross-validation folds (LIBSVM `-v`); reports CV accuracy instead
    /// of writing a model.
    pub cv_folds: Option<usize>,
    /// Multi-class decomposition (`--multiclass ovo|ovr`), used when the
    /// training file has more than two classes.
    pub multiclass: McStrategy,
    /// Kernel: 0 = linear, 1 = polynomial, 2 = rbf, 3 = sigmoid (LIBSVM
    /// `-t`). Gamma defaults to `1/num_features` at run time when not
    /// given.
    pub kernel_type: u8,
    /// Polynomial degree (`-d`).
    pub degree: i32,
    /// Kernel γ (`-g`); `None` = `1/num_features`.
    pub gamma: Option<f64>,
    /// Polynomial offset (`-r`).
    pub coef0: f64,
    /// Cost `C` (`-c`).
    pub cost: f64,
    /// Termination criterion ε (`-e`).
    pub epsilon: f64,
    /// Per-label weights on `C` (LIBSVM `-wi`): `(label, weight)` pairs.
    pub label_weights: Vec<(i32, f64)>,
    /// Shrinking heuristic for the SMO algorithms (LIBSVM `-h`, default
    /// on).
    pub shrinking: bool,
    /// Kernel cache budget in MB (LIBSVM `-m`, default 100).
    pub cache_mb: usize,
    /// Solver selection (`-a`).
    pub algorithm: Algorithm,
    /// Execution backend (`--backend`), LS-SVM only.
    pub backend: BackendSelection,
    /// Write unified telemetry as JSON lines to this file
    /// (`--metrics-out`), LS-SVM / LS-SVR only.
    pub metrics_out: Option<String>,
    /// Deterministic device-fault injection plan (`--fault-plan`),
    /// simulated device backends only. Spec grammar:
    /// `fail:DEV@LAUNCH`, `transient:DEV@LAUNCH[xCOUNT]`,
    /// `slow:DEV@LAUNCH[xFACTOR]`, separated by `;` or `,`, or
    /// `seed:N` for a randomized plan.
    pub fault_plan: Option<FaultPlan>,
    /// Snapshot CG state every this many iterations
    /// (`--checkpoint-every`), LS-SVM / LS-SVR only. Defaults to 50
    /// when `--checkpoint-dir` is given without an explicit interval.
    pub checkpoint_every: Option<usize>,
    /// Durable checkpoint journal directory (`--checkpoint-dir`),
    /// LS-SVM / LS-SVR only. Solver state is snapshotted to disk so an
    /// interrupted run can be continued with `--resume`.
    pub checkpoint_dir: Option<String>,
    /// Continue from the newest loadable generation in
    /// `--checkpoint-dir` (`--resume`).
    pub resume: bool,
    /// Handling of non-converged solves (`--on-nonconverged
    /// error|warn|accept`, default warn), LS-SVM / LS-SVR only.
    pub on_nonconverged: NonConvergedAction,
    /// Deterministic storage-fault injection plan (`--io-faults`):
    /// every durable write (model, checkpoint journal, metrics) runs
    /// through a [`FaultVfs`](plssvm_data::FaultVfs) replaying this
    /// plan. Spec grammar: `kind:class@n[~substr][!]` entries separated
    /// by `;` or `,`, or `seed:N[@H]` for a randomized plan.
    pub io_faults: Option<IoFaultPlan>,
    /// Handling of a degraded checkpoint journal
    /// (`--on-io-degraded error|warn`, default warn).
    pub on_io_degraded: IoDegradedAction,
    /// Reduced-system solver (`--solver exact|lowrank`), LS-SVM / LS-SVR
    /// only. The low-rank path needs `--rank` and optionally takes
    /// `--lowrank-seed` and `--landmarks uniform|leverage`; it is
    /// incompatible with `--resume`.
    pub solver: SolverSelection,
    /// Suppress informational output (`-q` / `--quiet`).
    pub quiet: bool,
    /// Print per-kernel telemetry counters with the summary (`--verbose`).
    pub verbose: bool,
    /// Input data file.
    pub input: String,
    /// Output model file (default: `<input>.model`).
    pub model: String,
}

/// Parses `svm-train` arguments.
pub fn parse_train(args: &[String]) -> Result<TrainArgs, CliError> {
    let mut out = TrainArgs {
        svm_type: 0,
        cv_folds: None,
        multiclass: McStrategy::Ovo,
        kernel_type: 0,
        degree: 3,
        gamma: None,
        coef0: 0.0,
        cost: 1.0,
        epsilon: 1e-3,
        label_weights: Vec::new(),
        shrinking: true,
        cache_mb: 100,
        algorithm: Algorithm::LsSvm,
        backend: BackendSelection::default(),
        metrics_out: None,
        fault_plan: None,
        checkpoint_every: None,
        checkpoint_dir: None,
        resume: false,
        on_nonconverged: NonConvergedAction::Warn,
        io_faults: None,
        on_io_degraded: IoDegradedAction::Warn,
        solver: SolverSelection::Exact,
        quiet: false,
        verbose: false,
        input: String::new(),
        model: String::new(),
    };
    let mut fault_spec: Option<String> = None;
    let mut solver_name = "exact".to_owned();
    let mut rank: Option<usize> = None;
    let mut lowrank_seed: u64 = DEFAULT_SEED;
    let mut landmarks = LandmarkStrategy::Uniform;
    let mut backend_name = "openmp".to_owned();
    let mut devices = 1usize;
    let mut row_split = false;
    let mut threads: Option<usize> = None;
    let mut cpu_tile: Option<CpuTilingConfig> = None;
    let mut hardware = "a100".to_owned();
    let mut positional = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(|s| s.to_owned())
                .ok_or_else(|| err(format!("missing value for {name}")))
        };
        match arg.as_str() {
            "-s" => out.svm_type = parse_num(&take("-s")?, "-s")?,
            "-v" => out.cv_folds = Some(parse_num(&take("-v")?, "-v")?),
            "--multiclass" => {
                out.multiclass = match take("--multiclass")?.as_str() {
                    "ovo" => McStrategy::Ovo,
                    "ovr" => McStrategy::Ovr,
                    other => return Err(err(format!("unknown multiclass strategy '{other}'"))),
                }
            }
            "-t" => out.kernel_type = parse_num(&take("-t")?, "-t")?,
            "-d" => out.degree = parse_num(&take("-d")?, "-d")?,
            "-g" => out.gamma = Some(parse_num(&take("-g")?, "-g")?),
            "-r" => out.coef0 = parse_num(&take("-r")?, "-r")?,
            "-c" => out.cost = parse_num(&take("-c")?, "-c")?,
            "-e" => out.epsilon = parse_num(&take("-e")?, "-e")?,
            "-h" => {
                let v: u8 = parse_num(&take("-h")?, "-h")?;
                out.shrinking = v != 0;
            }
            "-m" => out.cache_mb = parse_num(&take("-m")?, "-m")?,
            w if w.starts_with("-w") && w.len() > 2 && w[2..].parse::<i32>().is_ok() => {
                let label: i32 = w[2..].parse().unwrap();
                let weight: f64 = parse_num(&take(w)?, w)?;
                if weight <= 0.0 {
                    return Err(err(format!("weight for label {label} must be positive")));
                }
                out.label_weights.push((label, weight));
            }
            "-a" | "--algorithm" => {
                out.algorithm = match take("-a")?.as_str() {
                    "lssvm" => Algorithm::LsSvm,
                    "smo" => Algorithm::Smo,
                    "smo-dense" => Algorithm::SmoDense,
                    "thunder" => Algorithm::Thunder,
                    other => return Err(err(format!("unknown algorithm '{other}'"))),
                }
            }
            "-b" | "--backend" => backend_name = take("--backend")?,
            "-n" | "--devices" => devices = parse_num(&take("--devices")?, "--devices")?,
            "-T" | "--threads" => threads = Some(parse_num(&take("--threads")?, "--threads")?),
            "--cpu-tile" => cpu_tile = Some(parse_cpu_tile(&take("--cpu-tile")?)?),
            "--metrics-out" => out.metrics_out = Some(take("--metrics-out")?),
            "--fault-plan" => fault_spec = Some(take("--fault-plan")?),
            "--checkpoint-every" => {
                let k: usize = parse_num(&take("--checkpoint-every")?, "--checkpoint-every")?;
                if k == 0 {
                    return Err(err("--checkpoint-every must be at least 1"));
                }
                out.checkpoint_every = Some(k);
            }
            "--checkpoint-dir" => out.checkpoint_dir = Some(take("--checkpoint-dir")?),
            "--resume" => out.resume = true,
            "--solver" => solver_name = take("--solver")?,
            "--rank" => {
                let k: usize = parse_num(&take("--rank")?, "--rank")?;
                if k == 0 {
                    return Err(err("--rank must be at least 1"));
                }
                rank = Some(k);
            }
            "--lowrank-seed" => {
                lowrank_seed = parse_num(&take("--lowrank-seed")?, "--lowrank-seed")?
            }
            "--landmarks" => {
                landmarks = take("--landmarks")?.parse().map_err(err)?;
            }
            "--on-nonconverged" => {
                out.on_nonconverged = match take("--on-nonconverged")?.as_str() {
                    "error" => NonConvergedAction::Error,
                    "warn" => NonConvergedAction::Warn,
                    "accept" => NonConvergedAction::Accept,
                    other => {
                        return Err(err(format!(
                            "unknown --on-nonconverged action '{other}' \
                             (expected error, warn or accept)"
                        )))
                    }
                }
            }
            "--io-faults" => {
                let spec = take("--io-faults")?;
                out.io_faults = Some(
                    IoFaultPlan::parse(&spec)
                        .map_err(|e| err(format!("invalid --io-faults spec '{spec}': {e}")))?,
                );
            }
            "--on-io-degraded" => {
                out.on_io_degraded = match take("--on-io-degraded")?.as_str() {
                    "error" => IoDegradedAction::Error,
                    "warn" => IoDegradedAction::Warn,
                    other => {
                        return Err(err(format!(
                            "unknown --on-io-degraded action '{other}' (expected error or warn)"
                        )))
                    }
                }
            }
            "-q" | "--quiet" => out.quiet = true,
            "--verbose" => out.verbose = true,
            "--hardware" => hardware = take("--hardware")?,
            "--split" => {
                row_split = match take("--split")?.as_str() {
                    "rows" => true,
                    "features" => false,
                    other => return Err(err(format!("unknown split '{other}'"))),
                }
            }
            flag if flag.starts_with('-')
                && flag.len() > 1
                && !flag[1..2].chars().next().unwrap().is_ascii_digit() =>
            {
                return Err(err(format!("unknown option '{flag}'")))
            }
            _ => positional.push(arg.clone()),
        }
    }

    match positional.len() {
        0 => return Err(err("missing training_set_file")),
        1 => {
            out.input = positional[0].clone();
            out.model = format!("{}.model", positional[0]);
        }
        2 => {
            out.input = positional[0].clone();
            out.model = positional[1].clone();
        }
        _ => return Err(err("too many positional arguments")),
    }
    if out.kernel_type > 3 {
        return Err(err(
            "kernel type must be 0 (linear), 1 (polynomial), 2 (rbf) or 3 (sigmoid)",
        ));
    }
    if out.svm_type != 0 && out.svm_type != 3 {
        return Err(err("svm type must be 0 (c_svc) or 3 (epsilon_svr)"));
    }
    if let Some(v) = out.cv_folds {
        if v < 2 {
            return Err(err("cross validation needs at least 2 folds"));
        }
    }
    if out.quiet && out.verbose {
        return Err(err("-q and --verbose are mutually exclusive"));
    }
    if out.resume && out.checkpoint_dir.is_none() {
        return Err(err("--resume requires --checkpoint-dir"));
    }
    if out.checkpoint_dir.is_some() && out.checkpoint_every.is_none() {
        out.checkpoint_every = Some(50);
    }
    out.solver = match solver_name.as_str() {
        "exact" => {
            if rank.is_some() {
                return Err(err("--rank requires --solver lowrank"));
            }
            SolverSelection::Exact
        }
        "lowrank" => {
            let rank = rank.ok_or_else(|| err("--solver lowrank requires --rank"))?;
            if out.resume {
                // the checkpoint journal streams exact-CG state only
                return Err(err("--resume is not supported with --solver lowrank \
                     (the checkpoint journal streams exact-CG state only)"));
            }
            if out.algorithm != Algorithm::LsSvm {
                return Err(err("--solver lowrank requires the lssvm algorithm"));
            }
            SolverSelection::LowRank {
                rank,
                seed: lowrank_seed,
                strategy: landmarks,
            }
        }
        other => return Err(err(format!("unknown solver '{other}'"))),
    };

    if cpu_tile.is_some() && backend_name != "openmp" {
        return Err(err("--cpu-tile requires --backend openmp"));
    }
    out.backend = match backend_name.as_str() {
        "serial" => BackendSelection::Serial,
        "openmp" => BackendSelection::OpenMp {
            threads,
            tiling: cpu_tile.unwrap_or_default(),
        },
        "sparse" => BackendSelection::SparseCpu { threads },
        api @ ("cuda" | "opencl" | "sycl" | "dpcpp") => {
            let api = match api {
                "cuda" => DeviceApi::Cuda,
                "opencl" => DeviceApi::OpenCl,
                "sycl" => DeviceApi::SyclHip,
                _ => DeviceApi::SyclDpcpp,
            };
            let spec = lookup_hardware(&hardware)?;
            if row_split {
                BackendSelection::SimGpuRows {
                    hardware: spec,
                    api,
                    devices,
                    tiling: TilingConfig::default(),
                }
            } else {
                BackendSelection::SimGpu {
                    hardware: spec,
                    api,
                    devices,
                    tiling: TilingConfig::default(),
                }
            }
        }
        other => return Err(err(format!("unknown backend '{other}'"))),
    };
    if let Some(spec) = fault_spec {
        let simulated = matches!(
            out.backend,
            BackendSelection::SimGpu { .. } | BackendSelection::SimGpuRows { .. }
        );
        if !simulated {
            return Err(err(
                "--fault-plan requires a simulated device backend (cuda, opencl, sycl or dpcpp)",
            ));
        }
        let plan = match spec.strip_prefix("seed:") {
            Some(seed) => {
                let seed: u64 = parse_num(seed.trim(), "--fault-plan seed")?;
                FaultPlan::seeded(seed, devices, 32)
            }
            None => FaultPlan::parse(&spec).map_err(err)?,
        };
        if plan.max_device().is_some_and(|d| d >= devices) {
            return Err(err(format!(
                "--fault-plan addresses device {} but only {devices} device(s) are configured",
                plan.max_device().unwrap()
            )));
        }
        out.fault_plan = Some(plan);
    }
    Ok(out)
}

impl TrainArgs {
    /// The `-wi` weight of a label (1.0 when not given).
    pub fn weight_of(&self, label: i32) -> f64 {
        self.label_weights
            .iter()
            .rev()
            .find(|(l, _)| *l == label)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
    }
}

/// Maps a hardware name to the simulated catalog.
pub fn lookup_hardware(name: &str) -> Result<hw::GpuSpec, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "a100" => hw::A100,
        "v100" => hw::V100,
        "p100" => hw::P100,
        "gtx1080ti" | "1080ti" => hw::GTX_1080_TI,
        "rtx3080" | "3080" => hw::RTX_3080,
        "radeonvii" | "radeon7" => hw::RADEON_VII,
        "p630" | "intel" => hw::INTEL_P630,
        other => return Err(err(format!("unknown hardware '{other}'"))),
    })
}

/// Builds the kernel spec, resolving the default γ against the data.
pub fn kernel_from_args(args: &TrainArgs, num_features: usize) -> KernelSpec<f64> {
    let gamma = args
        .gamma
        .unwrap_or_else(|| 1.0 / num_features.max(1) as f64);
    match args.kernel_type {
        0 => KernelSpec::Linear,
        1 => KernelSpec::Polynomial {
            degree: args.degree,
            gamma,
            coef0: args.coef0,
        },
        2 => KernelSpec::Rbf { gamma },
        _ => KernelSpec::Sigmoid {
            gamma,
            coef0: args.coef0,
        },
    }
}

/// Parsed `svm-predict` invocation:
/// `svm-predict [options] test_file model_file output_file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictArgs {
    /// Test data file (labels used for the accuracy report).
    pub test: String,
    /// Model file from `svm-train`.
    pub model: String,
    /// Output file, one predicted label per line.
    pub output: String,
    /// Write prediction telemetry as JSON lines to this file
    /// (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Suppress informational output (`-q` / `--quiet`).
    pub quiet: bool,
    /// Print timing details with the summary (`--verbose`).
    pub verbose: bool,
}

/// Parses `svm-predict` arguments.
pub fn parse_predict(args: &[String]) -> Result<PredictArgs, CliError> {
    let mut metrics_out = None;
    let mut quiet = false;
    let mut verbose = false;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .map(|s| s.to_owned())
                        .ok_or_else(|| err("missing value for --metrics-out"))?,
                )
            }
            "-q" | "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(err(format!("unknown option '{flag}'")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    if quiet && verbose {
        return Err(err("-q and --verbose are mutually exclusive"));
    }
    if positional.len() != 3 {
        return Err(err(format!(
            "expected 3 positional arguments (test_file model_file output_file), got {}",
            positional.len()
        )));
    }
    Ok(PredictArgs {
        test: positional[0].clone(),
        model: positional[1].clone(),
        output: positional[2].clone(),
        metrics_out,
        quiet,
        verbose,
    })
}

/// Parsed `svm-scale` invocation.
#[derive(Debug, Clone)]
pub struct ScaleArgs {
    /// Target lower bound (`-l`, default −1).
    pub lower: f64,
    /// Target upper bound (`-u`, default +1).
    pub upper: f64,
    /// Write fitted ranges to this file (`-s`).
    pub save: Option<String>,
    /// Restore ranges from this file instead of fitting (`-r`).
    pub restore: Option<String>,
    /// Input data file; scaled data goes to stdout (LIBSVM behaviour).
    pub input: String,
}

/// Parses `svm-scale` arguments.
pub fn parse_scale(args: &[String]) -> Result<ScaleArgs, CliError> {
    let mut out = ScaleArgs {
        lower: -1.0,
        upper: 1.0,
        save: None,
        restore: None,
        input: String::new(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(|s| s.to_owned())
                .ok_or_else(|| err(format!("missing value for {name}")))
        };
        match arg.as_str() {
            "-l" => out.lower = parse_num(&take("-l")?, "-l")?,
            "-u" => out.upper = parse_num(&take("-u")?, "-u")?,
            "-s" => out.save = Some(take("-s")?),
            "-r" => out.restore = Some(take("-r")?),
            flag if flag.starts_with('-')
                && flag.len() > 1
                && !flag[1..2].chars().next().unwrap().is_ascii_digit() =>
            {
                return Err(err(format!("unknown option '{flag}'")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    if positional.len() != 1 {
        return Err(err("usage: svm-scale [options] data_file"));
    }
    if out.save.is_some() && out.restore.is_some() {
        return Err(err("-s and -r are mutually exclusive"));
    }
    out.input = positional[0].clone();
    Ok(out)
}

/// Parsed `svm-serve` invocation: `svm-serve [options] model_file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Model file to serve (anything `svm-train` writes: binary,
    /// multiclass container, or epsilon-SVR).
    pub model: String,
    /// TCP listen address (`--listen host:port`); `None` = stdin mode.
    pub listen: Option<String>,
    /// Largest micro-batch the engine predicts in one call
    /// (`--max-batch`).
    pub max_batch: usize,
    /// Write serve telemetry as JSON lines to this file
    /// (`--metrics-out`): request/batch/queue/reload statistics.
    pub metrics_out: Option<String>,
    /// Poll the model file for hot reload every this many milliseconds
    /// (`--reload-poll-ms`); 0 disables watching.
    pub reload_poll_ms: u64,
    /// Maximum concurrent TCP connections (`--max-connections`); excess
    /// connections get one structured refusal line. 0 = unlimited.
    pub max_connections: usize,
    /// Shed requests with `overloaded` once this many are queued
    /// (`--queue-watermark`); 0 disables shedding.
    pub queue_watermark: usize,
    /// Answer `deadline_exceeded` to requests queued longer than this
    /// many microseconds (`--deadline-us`); 0 disables deadlines.
    pub deadline_us: u64,
    /// Per-line read budget in milliseconds (`--client-timeout-ms`): a
    /// client stalling mid-line longer than this is answered
    /// `client_timeout` and disconnected. 0 disables.
    pub client_timeout_ms: u64,
    /// Suppress informational output on stderr (`-q` / `--quiet`).
    pub quiet: bool,
}

/// Parses `svm-serve` arguments.
pub fn parse_serve(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs {
        model: String::new(),
        listen: None,
        max_batch: 64,
        metrics_out: None,
        reload_poll_ms: 200,
        max_connections: 256,
        queue_watermark: 1_024,
        deadline_us: 0,
        client_timeout_ms: 10_000,
        quiet: false,
    };
    let mut stdin_explicit = false;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(|s| s.to_owned())
                .ok_or_else(|| err(format!("missing value for {name}")))
        };
        match arg.as_str() {
            "--listen" => out.listen = Some(take("--listen")?),
            "--stdin" => stdin_explicit = true,
            "--max-batch" => out.max_batch = parse_num(&take("--max-batch")?, "--max-batch")?,
            "--metrics-out" => out.metrics_out = Some(take("--metrics-out")?),
            "--reload-poll-ms" => {
                out.reload_poll_ms = parse_num(&take("--reload-poll-ms")?, "--reload-poll-ms")?
            }
            "--max-connections" => {
                out.max_connections = parse_num(&take("--max-connections")?, "--max-connections")?
            }
            "--queue-watermark" => {
                out.queue_watermark = parse_num(&take("--queue-watermark")?, "--queue-watermark")?
            }
            "--deadline-us" => {
                out.deadline_us = parse_num(&take("--deadline-us")?, "--deadline-us")?
            }
            "--client-timeout-ms" => {
                out.client_timeout_ms =
                    parse_num(&take("--client-timeout-ms")?, "--client-timeout-ms")?
            }
            "-q" | "--quiet" => out.quiet = true,
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(err(format!("unknown option '{flag}'")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    if stdin_explicit && out.listen.is_some() {
        return Err(err("--stdin and --listen are mutually exclusive"));
    }
    if out.max_batch == 0 {
        return Err(err("--max-batch must be at least 1"));
    }
    if positional.len() != 1 {
        return Err(err(format!(
            "expected 1 positional argument (model_file), got {}",
            positional.len()
        )));
    }
    out.model = positional[0].clone();
    Ok(out)
}

/// Parsed `generate-data` invocation.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    /// Number of data points.
    pub points: usize,
    /// Number of features ("planes" problem only; SAT-6 is 28×28×4).
    pub features: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cluster separation ("planes").
    pub cluster_sep: f64,
    /// Label flip fraction ("planes").
    pub flip: f64,
    /// Generate the SAT-6-like image set instead of "planes".
    pub sat6: bool,
    /// Write ARFF instead of LIBSVM format.
    pub arff: bool,
    /// Output file.
    pub output: String,
}

/// Parses `generate-data` arguments.
pub fn parse_generate(args: &[String]) -> Result<GenerateArgs, CliError> {
    let mut out = GenerateArgs {
        points: 1024,
        features: 16,
        seed: 42,
        cluster_sep: 2.0,
        flip: 0.01,
        sat6: false,
        arff: false,
        output: String::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(|s| s.to_owned())
                .ok_or_else(|| err(format!("missing value for {name}")))
        };
        match arg.as_str() {
            "--points" | "-p" => out.points = parse_num(&take("--points")?, "--points")?,
            "--features" | "-f" => out.features = parse_num(&take("--features")?, "--features")?,
            "--seed" | "-s" => out.seed = parse_num(&take("--seed")?, "--seed")?,
            "--sep" => out.cluster_sep = parse_num(&take("--sep")?, "--sep")?,
            "--flip" => out.flip = parse_num(&take("--flip")?, "--flip")?,
            "--sat6" => out.sat6 = true,
            "--format" => {
                out.arff = match take("--format")?.as_str() {
                    "arff" => true,
                    "libsvm" => false,
                    other => return Err(err(format!("unknown format '{other}'"))),
                }
            }
            "-o" | "--output" => out.output = take("--output")?,
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    if out.output.is_empty() {
        return Err(err("missing -o output file"));
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| err(format!("invalid value '{s}' for {flag}")))
}

/// Parses the `--cpu-tile` spec: `R` (square tile), `RxC`, with an optional
/// `,nosym` suffix that disables the symmetric schedule.
fn parse_cpu_tile(spec: &str) -> Result<CpuTilingConfig, CliError> {
    let (dims, symmetry) = match spec.strip_suffix(",nosym") {
        Some(rest) => (rest, false),
        None => (spec, true),
    };
    let (row, col) = match dims.split_once('x') {
        Some((r, c)) => (
            parse_num::<usize>(r, "--cpu-tile")?,
            parse_num::<usize>(c, "--cpu-tile")?,
        ),
        None => {
            let r = parse_num::<usize>(dims, "--cpu-tile")?;
            (r, r)
        }
    };
    let tiling = CpuTilingConfig::new(row, col).with_symmetry(symmetry);
    tiling
        .validate()
        .map_err(|e| err(format!("invalid --cpu-tile '{spec}': {e}")))?;
    Ok(tiling)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn train_defaults() {
        let a = parse_train(&sv(&["data.txt"])).unwrap();
        assert_eq!(a.kernel_type, 0);
        assert_eq!(a.cost, 1.0);
        assert_eq!(a.epsilon, 1e-3);
        assert_eq!(a.algorithm, Algorithm::LsSvm);
        assert_eq!(a.input, "data.txt");
        assert_eq!(a.model, "data.txt.model");
        assert!(matches!(
            a.backend,
            BackendSelection::OpenMp { threads: None, .. }
        ));
    }

    #[test]
    fn train_libsvm_flags() {
        let a = parse_train(&sv(&[
            "-t",
            "2",
            "-g",
            "0.5",
            "-c",
            "10",
            "-e",
            "1e-6",
            "train.dat",
            "out.model",
        ]))
        .unwrap();
        assert_eq!(a.kernel_type, 2);
        assert_eq!(a.gamma, Some(0.5));
        assert_eq!(a.cost, 10.0);
        assert_eq!(a.epsilon, 1e-6);
        assert_eq!(a.model, "out.model");
        assert!(matches!(
            kernel_from_args(&a, 4),
            KernelSpec::Rbf { gamma } if gamma == 0.5
        ));
    }

    #[test]
    fn train_default_gamma_is_one_over_features() {
        let a = parse_train(&sv(&["-t", "2", "x.dat"])).unwrap();
        assert!(matches!(
            kernel_from_args(&a, 8),
            KernelSpec::Rbf { gamma } if gamma == 0.125
        ));
    }

    #[test]
    fn train_backend_selection() {
        let a = parse_train(&sv(&["--backend", "cuda", "-n", "4", "x.dat"])).unwrap();
        match a.backend {
            BackendSelection::SimGpu { devices, api, .. } => {
                assert_eq!(devices, 4);
                assert_eq!(api, DeviceApi::Cuda);
            }
            other => panic!("{other:?}"),
        }
        let a = parse_train(&sv(&["--backend", "openmp", "-T", "8", "x.dat"])).unwrap();
        assert!(matches!(
            a.backend,
            BackendSelection::OpenMp {
                threads: Some(8),
                ..
            }
        ));
        let a = parse_train(&sv(&["--backend", "serial", "x.dat"])).unwrap();
        assert!(matches!(a.backend, BackendSelection::Serial));
    }

    #[test]
    fn train_cpu_tile() {
        let a = parse_train(&sv(&["--cpu-tile", "32", "x.dat"])).unwrap();
        match a.backend {
            BackendSelection::OpenMp { tiling, .. } => {
                assert_eq!(tiling, CpuTilingConfig::new(32, 32));
            }
            other => panic!("{other:?}"),
        }

        let a = parse_train(&sv(&["--cpu-tile", "64x32,nosym", "x.dat"])).unwrap();
        match a.backend {
            BackendSelection::OpenMp { tiling, .. } => {
                assert_eq!(tiling, CpuTilingConfig::new(64, 32).with_symmetry(false));
            }
            other => panic!("{other:?}"),
        }

        // Default when the flag is absent.
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        match a.backend {
            BackendSelection::OpenMp { tiling, .. } => {
                assert_eq!(tiling, CpuTilingConfig::default());
            }
            other => panic!("{other:?}"),
        }

        assert!(parse_train(&sv(&["--cpu-tile", "0", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--cpu-tile", "64x", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--cpu-tile", "banana", "x.dat"])).is_err());
        assert!(
            parse_train(&sv(&["--backend", "serial", "--cpu-tile", "32", "x.dat"])).is_err(),
            "--cpu-tile must be rejected for non-openmp backends"
        );
    }

    #[test]
    fn train_hardware_lookup() {
        let a = parse_train(&sv(&[
            "--backend",
            "opencl",
            "--hardware",
            "radeonvii",
            "x",
        ]))
        .unwrap();
        match a.backend {
            BackendSelection::SimGpu { hardware, .. } => {
                assert_eq!(hardware.name, "AMD Radeon VII")
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_train(&sv(&["--hardware", "tpu", "--backend", "cuda", "x"])).is_err());
    }

    #[test]
    fn train_algorithms() {
        for (name, expected) in [
            ("lssvm", Algorithm::LsSvm),
            ("smo", Algorithm::Smo),
            ("smo-dense", Algorithm::SmoDense),
            ("thunder", Algorithm::Thunder),
        ] {
            let a = parse_train(&sv(&["-a", name, "x.dat"])).unwrap();
            assert_eq!(a.algorithm, expected);
        }
        assert!(parse_train(&sv(&["-a", "qp", "x.dat"])).is_err());
    }

    #[test]
    fn train_new_flags() {
        let a = parse_train(&sv(&["-s", "3", "x.dat"])).unwrap();
        assert_eq!(a.svm_type, 3);
        let a = parse_train(&sv(&["-v", "5", "x.dat"])).unwrap();
        assert_eq!(a.cv_folds, Some(5));
        let a = parse_train(&sv(&["--multiclass", "ovr", "x.dat"])).unwrap();
        assert_eq!(a.multiclass, McStrategy::Ovr);
        assert!(parse_train(&sv(&["-s", "1", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["-v", "1", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--multiclass", "tree", "x.dat"])).is_err());
        // sigmoid kernel id parses
        let a = parse_train(&sv(&["-t", "3", "-r", "0.5", "x.dat"])).unwrap();
        assert!(matches!(
            kernel_from_args(&a, 4),
            KernelSpec::Sigmoid { gamma, coef0 } if gamma == 0.25 && coef0 == 0.5
        ));
        assert!(parse_train(&sv(&["-t", "4", "x.dat"])).is_err());
    }

    #[test]
    fn train_split_mode_flag() {
        let a = parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "2",
            "--split",
            "rows",
            "x.dat",
        ]))
        .unwrap();
        assert!(matches!(
            a.backend,
            BackendSelection::SimGpuRows { devices: 2, .. }
        ));
        assert!(parse_train(&sv(&["--split", "diagonal", "x.dat"])).is_err());
    }

    #[test]
    fn train_weight_shrinking_cache_flags() {
        let a = parse_train(&sv(&["-w1", "5", "-w-1", "2", "x.dat"])).unwrap();
        assert_eq!(a.weight_of(1), 5.0);
        assert_eq!(a.weight_of(-1), 2.0);
        assert_eq!(a.weight_of(7), 1.0);
        assert!(parse_train(&sv(&["-w1", "-3", "x.dat"])).is_err());

        let a = parse_train(&sv(&["-h", "0", "x.dat"])).unwrap();
        assert!(!a.shrinking);
        let a = parse_train(&sv(&["-m", "250", "x.dat"])).unwrap();
        assert_eq!(a.cache_mb, 250);
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        assert!(a.shrinking);
        assert_eq!(a.cache_mb, 100);
    }

    #[test]
    fn train_rejects_bad_input() {
        assert!(parse_train(&sv(&[])).is_err());
        assert!(parse_train(&sv(&["-t"])).is_err());
        assert!(parse_train(&sv(&["-t", "9", "x"])).is_err());
        assert!(parse_train(&sv(&["-z", "1", "x"])).is_err());
        assert!(parse_train(&sv(&["a", "b", "c"])).is_err());
        assert!(parse_train(&sv(&["--backend", "vulkan", "x"])).is_err());
    }

    #[test]
    fn train_negative_numbers_not_mistaken_for_flags() {
        let a = parse_train(&sv(&["-r", "-1.5", "x.dat"])).unwrap();
        assert_eq!(a.coef0, -1.5);
    }

    #[test]
    fn predict_args() {
        let a = parse_predict(&sv(&["t.dat", "m.model", "out.txt"])).unwrap();
        assert_eq!(
            a,
            PredictArgs {
                test: "t.dat".into(),
                model: "m.model".into(),
                output: "out.txt".into(),
                metrics_out: None,
                quiet: false,
                verbose: false,
            }
        );
        assert!(parse_predict(&sv(&["a", "b"])).is_err());
        assert!(parse_predict(&sv(&["-x", "a", "b", "c"])).is_err());
    }

    #[test]
    fn metrics_and_verbosity_flags() {
        let a = parse_train(&sv(&["--metrics-out", "m.jsonl", "x.dat"])).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(!a.quiet && !a.verbose);
        let a = parse_train(&sv(&["-q", "x.dat"])).unwrap();
        assert!(a.quiet);
        let a = parse_train(&sv(&["--verbose", "x.dat"])).unwrap();
        assert!(a.verbose);
        assert!(parse_train(&sv(&["-q", "--verbose", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--metrics-out"])).is_err());

        let a = parse_predict(&sv(&[
            "--metrics-out",
            "m.jsonl",
            "--verbose",
            "t.dat",
            "m.model",
            "out.txt",
        ]))
        .unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(a.verbose);
        let a = parse_predict(&sv(&["-q", "t.dat", "m.model", "out.txt"])).unwrap();
        assert!(a.quiet);
        assert!(parse_predict(&sv(&["-q", "--verbose", "a", "b", "c"])).is_err());
        assert!(parse_predict(&sv(&["--metrics-out"])).is_err());
    }

    #[test]
    fn train_fault_plan_and_checkpoint_flags() {
        let a = parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "4",
            "--fault-plan",
            "fail:1@4;transient:2@0x2",
            "--checkpoint-every",
            "8",
            "x.dat",
        ]))
        .unwrap();
        let plan = a.fault_plan.expect("plan parsed");
        assert_eq!(plan, FaultPlan::new().fail_stop(1, 4).transient(2, 0, 2));
        assert_eq!(a.checkpoint_every, Some(8));

        // seeded plans resolve against the configured device count
        let a = parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "4",
            "--fault-plan",
            "seed:7",
            "x.dat",
        ]))
        .unwrap();
        let plan = a.fault_plan.expect("seeded plan");
        assert_eq!(plan, FaultPlan::seeded(7, 4, 32));
        assert!(plan.max_device().is_some_and(|d| d < 4));

        // CPU backends cannot inject device faults
        assert!(parse_train(&sv(&["--fault-plan", "fail:0@1", "x.dat"])).is_err());
        // plan must fit the device count
        assert!(parse_train(&sv(&[
            "--backend",
            "cuda",
            "-n",
            "2",
            "--fault-plan",
            "fail:5@1",
            "x.dat",
        ]))
        .is_err());
        // malformed specs and zero intervals are rejected
        assert!(parse_train(&sv(&[
            "--backend",
            "cuda",
            "--fault-plan",
            "explode:0@1",
            "x.dat",
        ]))
        .is_err());
        assert!(parse_train(&sv(&["--checkpoint-every", "0", "x.dat"])).is_err());
        // defaults stay off
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        assert!(a.fault_plan.is_none() && a.checkpoint_every.is_none());
        assert!(a.checkpoint_dir.is_none() && !a.resume);
    }

    #[test]
    fn train_checkpoint_dir_and_resume_flags() {
        let a = parse_train(&sv(&["--checkpoint-dir", "ckpt", "x.dat"])).unwrap();
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
        // a journal without an explicit interval checkpoints every 50
        assert_eq!(a.checkpoint_every, Some(50));
        assert!(!a.resume);

        let a = parse_train(&sv(&[
            "--checkpoint-dir",
            "ckpt",
            "--checkpoint-every",
            "10",
            "--resume",
            "x.dat",
        ]))
        .unwrap();
        assert_eq!(a.checkpoint_every, Some(10));
        assert!(a.resume);

        // --checkpoint-every alone keeps the in-memory behaviour
        let a = parse_train(&sv(&["--checkpoint-every", "8", "x.dat"])).unwrap();
        assert!(a.checkpoint_dir.is_none());

        // resuming without a journal directory is a usage error
        assert!(parse_train(&sv(&["--resume", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--checkpoint-dir"])).is_err());
    }

    #[test]
    fn train_solver_flags() {
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        assert_eq!(a.solver, SolverSelection::Exact);

        let a = parse_train(&sv(&["--solver", "lowrank", "--rank", "64", "x.dat"])).unwrap();
        assert_eq!(
            a.solver,
            SolverSelection::LowRank {
                rank: 64,
                seed: DEFAULT_SEED,
                strategy: LandmarkStrategy::Uniform,
            }
        );

        let a = parse_train(&sv(&[
            "--solver",
            "lowrank",
            "--rank",
            "32",
            "--lowrank-seed",
            "7",
            "--landmarks",
            "leverage",
            "x.dat",
        ]))
        .unwrap();
        assert_eq!(
            a.solver,
            SolverSelection::LowRank {
                rank: 32,
                seed: 7,
                strategy: LandmarkStrategy::Leverage,
            }
        );

        // the low-rank solver needs a rank; a rank alone is meaningless
        assert!(parse_train(&sv(&["--solver", "lowrank", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--rank", "8", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--solver", "lowrank", "--rank", "0", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--solver", "cholesky", "x.dat"])).is_err());
        assert!(parse_train(&sv(&[
            "--solver",
            "lowrank",
            "--rank",
            "8",
            "--landmarks",
            "grid",
            "x.dat",
        ]))
        .is_err());
        // SMO has no reduced system to approximate
        assert!(parse_train(&sv(&[
            "-a", "smo", "--solver", "lowrank", "--rank", "8", "x.dat",
        ]))
        .is_err());
    }

    #[test]
    fn train_lowrank_resume_rejected_at_parse() {
        // the PR 5 journal streams CG state only — the combination must
        // die as a usage error (exit 2), before any training work
        let e = parse_train(&sv(&[
            "--solver",
            "lowrank",
            "--rank",
            "16",
            "--checkpoint-dir",
            "ckpt",
            "--resume",
            "x.dat",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--resume"), "{e}");
        assert!(e.0.contains("lowrank"), "{e}");
    }

    #[test]
    fn train_on_nonconverged_flag() {
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        assert_eq!(a.on_nonconverged, NonConvergedAction::Warn);
        for (name, expected) in [
            ("error", NonConvergedAction::Error),
            ("warn", NonConvergedAction::Warn),
            ("accept", NonConvergedAction::Accept),
        ] {
            let a = parse_train(&sv(&["--on-nonconverged", name, "x.dat"])).unwrap();
            assert_eq!(a.on_nonconverged, expected);
        }
        assert!(parse_train(&sv(&["--on-nonconverged", "panic", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--on-nonconverged"])).is_err());
    }

    #[test]
    fn train_io_faults_flag() {
        let a = parse_train(&sv(&["x.dat"])).unwrap();
        assert!(a.io_faults.is_none());
        assert_eq!(a.on_io_degraded, IoDegradedAction::Warn);

        // explicit plans parse at the arg layer (usage errors → exit 2)
        let a = parse_train(&sv(&["--io-faults", "enospc:write@2", "x.dat"])).unwrap();
        let plan = a.io_faults.expect("plan parsed");
        assert_eq!(plan.specs().len(), 1);

        // the storage plan needs no simulated device backend: it works
        // on the default CPU path (unlike --fault-plan)
        let a = parse_train(&sv(&[
            "--io-faults",
            "eio:sync@1~journal!;bitrot:read@3",
            "x.dat",
        ]))
        .unwrap();
        assert_eq!(a.io_faults.unwrap().specs().len(), 2);

        // seeded plans parse through the same grammar
        let a = parse_train(&sv(&["--io-faults", "seed:7", "x.dat"])).unwrap();
        assert!(!a.io_faults.unwrap().is_empty());

        for (name, expected) in [
            ("error", IoDegradedAction::Error),
            ("warn", IoDegradedAction::Warn),
        ] {
            let a = parse_train(&sv(&["--on-io-degraded", name, "x.dat"])).unwrap();
            assert_eq!(a.on_io_degraded, expected);
        }

        // malformed specs and unknown actions are usage errors
        assert!(parse_train(&sv(&["--io-faults", "explode:write@1", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--io-faults", "enospc:read@1", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--io-faults"])).is_err());
        assert!(parse_train(&sv(&["--on-io-degraded", "panic", "x.dat"])).is_err());
        assert!(parse_train(&sv(&["--on-io-degraded"])).is_err());
    }

    #[test]
    fn scale_args() {
        let a = parse_scale(&sv(&["-l", "0", "-u", "2", "-s", "r.txt", "d.dat"])).unwrap();
        assert_eq!(a.lower, 0.0);
        assert_eq!(a.upper, 2.0);
        assert_eq!(a.save.as_deref(), Some("r.txt"));
        assert_eq!(a.input, "d.dat");
        let a = parse_scale(&sv(&["-r", "r.txt", "d.dat"])).unwrap();
        assert_eq!(a.restore.as_deref(), Some("r.txt"));
        assert_eq!((a.lower, a.upper), (-1.0, 1.0));
        assert!(parse_scale(&sv(&["-s", "a", "-r", "b", "d.dat"])).is_err());
        assert!(parse_scale(&sv(&[])).is_err());
        // negative bound values parse
        let a = parse_scale(&sv(&["-l", "-2", "d.dat"])).unwrap();
        assert_eq!(a.lower, -2.0);
    }

    #[test]
    fn serve_args() {
        let a = parse_serve(&sv(&["m.model"])).unwrap();
        assert_eq!(a.model, "m.model");
        assert_eq!(a.listen, None);
        assert_eq!(a.max_batch, 64);
        assert_eq!(a.metrics_out, None);
        assert_eq!(a.reload_poll_ms, 200);
        // overload-hardening defaults: capped connections, bounded
        // queue, slow-client timeout on, per-request deadline off
        assert_eq!(a.max_connections, 256);
        assert_eq!(a.queue_watermark, 1_024);
        assert_eq!(a.deadline_us, 0);
        assert_eq!(a.client_timeout_ms, 10_000);
        assert!(!a.quiet);

        let a = parse_serve(&sv(&[
            "--listen",
            "127.0.0.1:7777",
            "--max-batch",
            "8",
            "--metrics-out",
            "m.json",
            "--reload-poll-ms",
            "0",
            "--max-connections",
            "4",
            "--queue-watermark",
            "16",
            "--deadline-us",
            "2500",
            "--client-timeout-ms",
            "250",
            "-q",
            "m.model",
        ]))
        .unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(a.max_batch, 8);
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(a.reload_poll_ms, 0);
        assert_eq!(a.max_connections, 4);
        assert_eq!(a.queue_watermark, 16);
        assert_eq!(a.deadline_us, 2_500);
        assert_eq!(a.client_timeout_ms, 250);
        assert!(a.quiet);

        // 0 disables each overload knob without erroring
        let a = parse_serve(&sv(&[
            "--max-connections",
            "0",
            "--queue-watermark",
            "0",
            "--client-timeout-ms",
            "0",
            "m.model",
        ]))
        .unwrap();
        assert_eq!(a.max_connections, 0);
        assert_eq!(a.queue_watermark, 0);
        assert_eq!(a.client_timeout_ms, 0);

        // explicit stdin mode is the default, spelled out
        let a = parse_serve(&sv(&["--stdin", "m.model"])).unwrap();
        assert_eq!(a.listen, None);

        assert!(parse_serve(&sv(&[])).is_err()); // no model
        assert!(parse_serve(&sv(&["a.model", "b.model"])).is_err());
        assert!(parse_serve(&sv(&["--max-batch", "0", "m.model"])).is_err());
        assert!(parse_serve(&sv(&["--max-batch", "x", "m.model"])).is_err());
        // the flush timer is gone: its flag is an unknown option now
        let e = parse_serve(&sv(&["--max-wait-us", "500", "m.model"])).unwrap_err();
        assert!(
            e.to_string().contains("unknown option '--max-wait-us'"),
            "{e}"
        );
        assert!(parse_serve(&sv(&["--max-connections", "x", "m.model"])).is_err());
        assert!(parse_serve(&sv(&["--deadline-us"])).is_err()); // missing value
        assert!(parse_serve(&sv(&["--listen"])).is_err()); // missing value
        assert!(parse_serve(&sv(&["--stdin", "--listen", "h:1", "m.model"])).is_err());
        assert!(parse_serve(&sv(&["--bogus", "m.model"])).is_err());
    }

    #[test]
    fn generate_args() {
        let a = parse_generate(&sv(&[
            "--points",
            "100",
            "--features",
            "8",
            "--seed",
            "7",
            "-o",
            "out.dat",
        ]))
        .unwrap();
        assert_eq!((a.points, a.features, a.seed), (100, 8, 7));
        assert!(!a.sat6);
        let a = parse_generate(&sv(&["--sat6", "-o", "x.dat"])).unwrap();
        assert!(a.sat6);
        assert!(parse_generate(&sv(&["--points", "10"])).is_err()); // no -o
        assert!(parse_generate(&sv(&["--bogus", "-o", "x"])).is_err());
    }
}
