//! Argument parsing for the CLI binaries (LIBSVM style).
//!
//! Each binary declares its flags in one table (a `Cli`). A row holds a
//! flag's spellings and value placeholder, its help text with the
//! default, the `svm-train` modes it applies in, a condition it needs
//! from the rest of the command line, and its parse action. One loop
//! parses every binary's arguments from its table, the usage text is
//! rendered from it, and one `main` helper runs every binary. Each
//! parsed-arguments struct's `Default` is its all-zero value; its
//! `parse_*` function applies every row's default over it.

use std::error::Error;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

use plssvm_core::backend::BackendSelection;
use plssvm_core::backend::CpuTilingConfig;
use plssvm_core::lowrank::{LandmarkStrategy, SolverSelection, DEFAULT_SEED};
use plssvm_core::SvmError;
use plssvm_data::model::KernelSpec;
use plssvm_data::vfs::FaultPlan as IoFaultPlan;
use plssvm_simgpu::hw;
use plssvm_simgpu::Backend as DeviceApi;
use plssvm_simgpu::FaultPlan;

use crate::commands::{run_generate, run_predict, run_scale, run_serve, run_train, StorageError};

/// Errors from command line parsing. An empty message asks for the usage
/// text alone (`--help`).
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

// The `svm-train` mode axis, one bit per mode; `commands::check_modes`
// works out a run's mode and refuses the flags outside it.
pub(crate) const BINARY: u8 = 1;
pub(crate) const SVR: u8 = 2;
pub(crate) const MULTI: u8 = 4;
pub(crate) const CV: u8 = 8;
pub(crate) const SMO_SPARSE: u8 = 16;
pub(crate) const SMO_DENSE: u8 = 32;
pub(crate) const THUNDER: u8 = 64;
const SMO: u8 = SMO_SPARSE | SMO_DENSE;
const LSSVM: u8 = BINARY | SVR | MULTI | CV;
const ALL: u8 = LSSVM | SMO | THUNDER;

/// One row of a binary's flag table.
pub(crate) struct Flag<A> {
    /// Spellings and value placeholder as the usage text shows them
    /// (`-b, --backend backend`); a switch has no placeholder.
    head: &'static str,
    /// Help text. A final `(default X)` names the default: the parser
    /// applies `X` first, and giving exactly `X` counts as not giving the
    /// flag.
    help: &'static str,
    /// A prefix row (`-wi`) matches its spelling without the last letter
    /// followed by more text (`-w1`, `-w-1`).
    prefix: bool,
    /// The `svm-train` modes the flag applies in.
    pub(crate) modes: u8,
    /// A condition on the whole command line that a given flag needs,
    /// and the usage error when it is false.
    needs: fn(&A) -> bool,
    unmet: &'static str,
    /// Applies the value (empty for a switch) given for the flag as typed.
    action: fn(&mut A, &str, &str) -> Result<(), CliError>,
}

impl<A> Flag<A> {
    const fn of(head: &'static str, help: &'static str) -> Self {
        let (prefix, modes, unmet) = (false, ALL, "");
        let (needs, action) = (|_: &A| true, |_: &mut A, _: &str, _: &str| Ok(()));
        Flag {
            head,
            help,
            prefix,
            modes,
            needs,
            unmet,
            action,
        }
    }

    const fn needs(self, needs: fn(&A) -> bool, unmet: &'static str) -> Self {
        Flag {
            needs,
            unmet,
            ..self
        }
    }

    const fn prefix(self) -> Self {
        Flag {
            prefix: true,
            ..self
        }
    }

    const fn action(self, action: fn(&mut A, &str, &str) -> Result<(), CliError>) -> Self {
        Flag { action, ..self }
    }

    /// The spellings (`-b, --backend`) and the value placeholder.
    fn split(&self) -> (&'static str, &'static str) {
        match self.head.rsplit_once(' ') {
            Some((names, value)) if !value.starts_with('-') => (names, value),
            _ => (self.head, ""),
        }
    }

    /// The spelling errors and refusals use.
    pub(crate) fn name(&self) -> &'static str {
        self.split().0.split(", ").next().unwrap_or_default()
    }

    fn default(&self) -> Option<&'static str> {
        self.help
            .strip_suffix(')')?
            .rsplit_once("(default ")
            .map(|(_, d)| d)
    }

    fn matches(&self, arg: &str) -> bool {
        let names = self.split().0;
        match names.strip_suffix('i').filter(|_| self.prefix) {
            Some(stem) => arg.len() > stem.len() && arg.starts_with(stem),
            None => names.split(", ").any(|name| name == arg),
        }
    }
}

impl Flag<TrainArgs> {
    /// An `svm-train` row that applies in `modes`.
    const fn on(modes: u8, head: &'static str, help: &'static str) -> Self {
        Flag {
            modes,
            ..Self::of(head, help)
        }
    }
}

/// A binary's command line: name, operands, flag table and usage footer.
pub(crate) struct Cli<A: 'static> {
    name: &'static str,
    operands: &'static str,
    pub(crate) flags: &'static [Flag<A>],
    footer: &'static str,
}

impl<A: Default> Cli<A> {
    /// The one parse loop: applies every row's default, then each flag
    /// through its row (a negative number is an operand, not a flag),
    /// then checks what every given row needs. Returns the result, the
    /// operands and the given rows (row `i` is bit `i`).
    fn parse(&self, args: &[String]) -> Result<(A, Vec<String>, u64), CliError> {
        let (mut out, mut operands, mut given) = (A::default(), Vec::new(), 0u64);
        for flag in self.flags {
            if let Some(default) = flag.default() {
                (flag.action)(&mut out, flag.name(), default)?;
            }
        }
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" {
                return Err(err(""));
            }
            let Some(i) = self.flags.iter().position(|f| f.matches(arg)) else {
                let rest = arg.strip_prefix('-').unwrap_or_default();
                if !rest.is_empty() && !rest.starts_with(|c: char| c.is_ascii_digit()) {
                    return Err(err(format!("unknown option '{arg}'")));
                }
                operands.push(arg.clone());
                continue;
            };
            let flag = &self.flags[i];
            let value = match flag.split().1 {
                "" => "",
                _ => it
                    .next()
                    .ok_or_else(|| err(format!("missing value for {arg}")))?,
            };
            (flag.action)(&mut out, arg, value)?;
            if value.is_empty() || flag.default() != Some(value) {
                given |= 1 << i;
            }
        }
        let mut rows = self.flags.iter().enumerate();
        if let Some((_, flag)) = rows.find(|(i, f)| given >> i & 1 == 1 && !(f.needs)(&out)) {
            return Err(err(flag.unmet));
        }
        Ok((out, operands, given))
    }

    /// The usage text, rendered from the flag table.
    pub(crate) fn usage(&self) -> String {
        let width = self.flags.iter().map(|f| f.head.len()).max().unwrap_or(0);
        let indent = format!("\n{:1$}", "", width + 5);
        let mut text = format!(
            "usage: {} [options] {}\noptions:\n",
            self.name, self.operands
        );
        for flag in self.flags {
            let help = flag.help.replace('\n', &indent);
            text.push_str(&format!("  {:width$} : {help}\n", flag.head));
        }
        text.push_str(&format!(
            "  {:width$} : print this text\n{}",
            "--help", self.footer
        ));
        text
    }
}

fn num<T: FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| err(format!("invalid value '{s}' for {flag}")))
}

fn put<T>(slot: &mut T, value: T) -> Result<(), CliError> {
    *slot = value;
    Ok(())
}

fn set<T: FromStr>(slot: &mut T, flag: &str, value: &str) -> Result<(), CliError> {
    put(slot, num(value, flag)?)
}

fn some<T: FromStr>(slot: &mut Option<T>, flag: &str, value: &str) -> Result<(), CliError> {
    put(slot, Some(num(value, flag)?))
}

/// Parses a count of at least 1.
fn positive<T: From<usize>>(slot: &mut T, flag: &str, value: &str) -> Result<(), CliError> {
    match num(value, flag)? {
        0 => Err(err(format!("{flag} must be at least 1"))),
        k => put(slot, T::from(k)),
    }
}

/// Stores the choice the value names.
fn pick<T: Copy>(
    slot: &mut T,
    flag: &str,
    value: &str,
    choices: &[(&str, T)],
) -> Result<(), CliError> {
    match choices.iter().find(|(name, _)| *name == value) {
        Some(&(_, choice)) => put(slot, choice),
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            let expected = names.join(", ");
            Err(err(format!(
                "unknown {flag} value '{value}' (expected {expected})"
            )))
        }
    }
}

/// Which solver `svm-train` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The least squares SVM (PLSSVM, the default).
    #[default]
    LsSvm,
    /// LIBSVM-style SMO over sparse rows.
    Smo,
    /// LIBSVM-style SMO over dense rows.
    SmoDense,
    /// ThunderSVM-style batched SMO.
    Thunder,
}

/// Multi-class strategy selection for `svm-train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McStrategy {
    /// One-vs-one (LIBSVM's scheme, the default).
    #[default]
    Ovo,
    /// One-vs-rest.
    Ovr,
}

/// What `svm-train` does with a solve that stays non-converged after the
/// escalation ladder (`--on-nonconverged`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonConvergedAction {
    /// Refuse the model: exit with code 3 and no model file.
    Error,
    /// Write the model and warn with the classified outcome (the default).
    #[default]
    Warn,
    /// Write the model silently.
    Accept,
}

/// What `svm-train` does when persistent storage faults disable the
/// checkpoint journal mid-run (`--on-io-degraded`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoDegradedAction {
    /// Refuse the model: exit with code 4 and no model file.
    Error,
    /// Write the model and warn (the default: resumability is lost, not
    /// correctness).
    #[default]
    Warn,
}

/// Parsed `svm-train` invocation. The flags are documented in the
/// `svm-train` table, whose defaults [`parse_train`] applies over the
/// all-zero [`Default`].
#[derive(Debug, Clone, Default)]
pub struct TrainArgs {
    /// LIBSVM `-s`: 0 = C-SVC classification, 3 = epsilon-SVR (LS-SVR).
    pub svm_type: u8,
    /// Cross-validation folds (`-v`): report CV accuracy, write no model.
    pub cv_folds: Option<usize>,
    /// Multi-class decomposition (`--multiclass`) for >2 classes.
    pub multiclass: McStrategy,
    /// Kernel (`-t`): 0 = linear, 1 = polynomial, 2 = rbf, 3 = sigmoid.
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
    /// SMO shrinking heuristic (LIBSVM `-h`).
    pub shrinking: bool,
    /// SMO kernel cache budget in MB (LIBSVM `-m`); its bytes fit a `usize`.
    pub cache_mb: usize,
    /// Solver selection (`-a`).
    pub algorithm: Algorithm,
    /// Execution backend (`-b`, `-n`, `-T`, `--cpu-tile`, `--hardware`, `--split`).
    pub backend: BackendSelection,
    /// Telemetry JSON-lines file (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Deterministic device-fault injection plan (`--fault-plan`).
    pub fault_plan: Option<FaultPlan>,
    /// Snapshot CG state every this many iterations (`--checkpoint-every`).
    pub checkpoint_every: Option<usize>,
    /// Durable checkpoint journal directory (`--checkpoint-dir`).
    pub checkpoint_dir: Option<String>,
    /// Continue from the newest loadable generation (`--resume`).
    pub resume: bool,
    /// Handling of non-converged solves (`--on-nonconverged`).
    pub on_nonconverged: NonConvergedAction,
    /// Storage-fault plan every durable write replays (`--io-faults`).
    pub io_faults: Option<IoFaultPlan>,
    /// Handling of a degraded checkpoint journal (`--on-io-degraded`).
    pub on_io_degraded: IoDegradedAction,
    /// Reduced-system solver (`--solver`, `--rank`, `--lowrank-seed`, `--landmarks`).
    pub solver: SolverSelection,
    /// Suppress informational output (`-q` / `--quiet`).
    pub quiet: bool,
    /// Print per-kernel telemetry counters with the summary (`--verbose`).
    pub verbose: bool,
    /// Input data file.
    pub input: String,
    /// Output model file (default: `<input>.model`).
    pub model: String,
    /// The table rows given with a non-default value (row `i` is bit `i`).
    pub(crate) given: u64,
    // the flags `backend`, `solver` and `fault_plan` are assembled from
    // once every flag is in
    backend_name: String,
    devices: usize,
    threads: Option<usize>,
    cpu_tile: Option<CpuTilingConfig>,
    hardware: String,
    row_split: bool,
    fault_spec: Option<String>,
    lowrank: bool,
    rank: Option<usize>,
    lowrank_seed: u64,
    landmarks: LandmarkStrategy,
}

/// The simulated device backends.
const DEVICES: [&str; 4] = ["cuda", "opencl", "sycl", "dpcpp"];

fn device(a: &TrainArgs) -> bool {
    DEVICES.contains(&&*a.backend_name)
}

// the `--lowrank-seed` row's default is the library's
const _: () = assert!(DEFAULT_SEED == 42);

/// The `svm-train` flag table.
#[rustfmt::skip]
pub(crate) static TRAIN: Cli<TrainArgs> = Cli {
    name: "svm-train",
    operands: "training_set_file [model_file]",
    flags: &[
        Flag::on(BINARY | SVR | MULTI, "-s svm_type",
                 "0 C-SVC classification, 3 epsilon-SVR regression (default 0)")
            .action(|a, f, v| pick(&mut a.svm_type, f, v, &[("0", 0), ("3", 3)])),
        Flag::on(ALL, "-t kernel_type", "0 linear, 1 polynomial, 2 rbf, 3 sigmoid (default 0)")
            .action(|a, f, v| {
                pick(&mut a.kernel_type, f, v, &[("0", 0), ("1", 1), ("2", 2), ("3", 3)])
            }),
        Flag::on(ALL, "-d degree", "polynomial degree (default 3)")
            .action(|a, f, v| set(&mut a.degree, f, v)),
        Flag::on(ALL, "-g gamma", "kernel gamma, 1/num_features when not given")
            .action(|a, f, v| some(&mut a.gamma, f, v)),
        Flag::on(ALL, "-r coef0", "polynomial coef0 (default 0)")
            .action(|a, f, v| set(&mut a.coef0, f, v)),
        Flag::on(ALL, "-c cost", "C parameter (default 1)")
            .action(|a, f, v| set(&mut a.cost, f, v)),
        Flag::on(ALL, "-e epsilon", "termination criterion (default 0.001)")
            .action(|a, f, v| set(&mut a.epsilon, f, v)),
        Flag::on(BINARY | SMO | THUNDER, "-a, --algorithm algorithm",
                 "lssvm | smo | smo-dense | thunder (default lssvm)")
            .action(|a, f, v| pick(&mut a.algorithm, f, v, &[
                ("lssvm", Algorithm::LsSvm), ("smo", Algorithm::Smo),
                ("smo-dense", Algorithm::SmoDense), ("thunder", Algorithm::Thunder),
            ])),
        Flag::on(BINARY | CV, "-v folds", "k-fold cross validation (no model file written)")
            .action(|a, f, v| match num(v, f)? {
                0 | 1 => Err(err("cross validation needs at least 2 folds")),
                k => put(&mut a.cv_folds, Some(k)),
            }),
        Flag::on(BINARY | SMO, "-wi weight", "weight on C for label i, -wLABEL (e.g. -w1 5 -w-1 1)")
            .prefix()
            .action(|a, f, v| match (num::<i32>(&f[2..], f)?, num::<f64>(v, f)?) {
                (label, weight) if weight > 0.0 => {
                    a.label_weights.push((label, weight));
                    Ok(())
                }
                (label, _) => Err(err(format!("weight for label {label} must be positive"))),
            }),
        // LIBSVM's shrinking flag; any other value asks for help
        Flag::on(SMO, "-h 0|1", "shrinking heuristic for SMO algorithms (default 1)")
            .action(|a, _, v| match v {
                "0" | "1" => put(&mut a.shrinking, v == "1"),
                _ => Err(err("")),
            }),
        Flag::on(SMO, "-m megabytes", "SMO kernel cache size (default 100)")
            .action(|a, f, v| match num::<usize>(v, f)? {
                mb if mb > usize::MAX >> 20 => Err(err(format!("-m {mb} is too large"))),
                mb => put(&mut a.cache_mb, mb),
            }),
        Flag::on(MULTI, "--multiclass s", "ovo | ovr for files with >2 classes (default ovo)")
            .action(|a, f, v| {
                pick(&mut a.multiclass, f, v, &[("ovo", McStrategy::Ovo), ("ovr", McStrategy::Ovr)])
            }),
        Flag::on(LSSVM, "-b, --backend backend",
                 "serial | openmp | sparse | cuda | opencl | sycl | dpcpp (default openmp)")
            .action(|a, f, v| set(&mut a.backend_name, f, v)),
        Flag::on(LSSVM, "-n, --devices devices", "simulated device count (default 1)")
            .needs(device, "-n requires a device backend (-b cuda|opencl|sycl|dpcpp)")
            .action(|a, f, v| set(&mut a.devices, f, v)),
        Flag::on(LSSVM, "-T, --threads threads",
                 "openmp or sparse thread count, all cores when not given")
            .needs(|a| matches!(&*a.backend_name, "openmp" | "sparse"),
                   "-T requires --backend openmp or sparse")
            .action(|a, f, v| some(&mut a.threads, f, v)),
        Flag::on(LSSVM, "--cpu-tile t",
                 "openmp cache tile, 'R', 'RxC' or 'RxC,nosym' (default 64x64)")
            .needs(|a| a.backend_name == "openmp", "--cpu-tile requires --backend openmp")
            .action(|a, _, v| put(&mut a.cpu_tile, Some(parse_cpu_tile(v)?))),
        Flag::on(LSSVM, "--hardware hw",
                 "a100 | v100 | p100 | gtx1080ti | rtx3080 | radeonvii | p630 (default a100)")
            .needs(device, "--hardware requires a device backend (-b cuda|opencl|sycl|dpcpp)")
            .action(|a, f, v| set(&mut a.hardware, f, v)),
        Flag::on(LSSVM, "--split mode",
                 "features (linear only) | rows (any kernel) (default features)")
            .needs(device, "--split requires a device backend (-b cuda|opencl|sycl|dpcpp)")
            .action(|a, f, v| pick(&mut a.row_split, f, v, &[("features", false), ("rows", true)])),
        Flag::on(BINARY | SVR, "--metrics-out f", "write solver telemetry as JSON lines")
            .action(|a, f, v| some(&mut a.metrics_out, f, v)),
        Flag::on(LSSVM, "--fault-plan p",
                 "inject device faults, e.g. 'fail:1@4;transient:0@2x2;slow:2@0x4'\n\
                  or 'seed:N' for a random plan")
            .needs(device, "--fault-plan requires a device backend (-b cuda|opencl|sycl|dpcpp)")
            .action(|a, f, v| some(&mut a.fault_spec, f, v)),
        Flag::on(LSSVM, "--checkpoint-every k",
                 "snapshot CG state every k iterations\n\
                  (defaults to 50 when --checkpoint-dir is set)")
            .action(|a, f, v| positive(&mut a.checkpoint_every, f, v)),
        Flag::on(BINARY | SVR | MULTI, "--checkpoint-dir d",
                 "durable on-disk checkpoint journal; an interrupted run\n\
                  can be continued with --resume")
            .action(|a, f, v| some(&mut a.checkpoint_dir, f, v)),
        Flag::on(BINARY | SVR | MULTI, "--resume",
                 "continue from the newest loadable checkpoint in --checkpoint-dir")
            .needs(|a| a.checkpoint_dir.is_some(), "--resume requires --checkpoint-dir")
            .action(|a, _, _| put(&mut a.resume, true)),
        Flag::on(LSSVM, "--solver s",
                 "exact | lowrank randomized Nystrom solver\n\
                  (incompatible with --resume; requires --rank) (default exact)")
            .needs(|a| a.algorithm == Algorithm::LsSvm && a.rank.is_some(),
                   "--solver lowrank requires --rank and the lssvm algorithm")
            .action(|a, f, v| pick(&mut a.lowrank, f, v, &[("exact", false), ("lowrank", true)])),
        Flag::on(LSSVM, "--rank k",
                 "number of Nystrom landmarks for --solver lowrank\n(clamped to the system size)")
            .needs(|a| a.lowrank, "--rank requires --solver lowrank")
            .action(|a, f, v| positive(&mut a.rank, f, v)),
        Flag::on(LSSVM, "--lowrank-seed n", "landmark sampling seed, deterministic (default 42)")
            .needs(|a| a.lowrank, "--lowrank-seed requires --solver lowrank")
            .action(|a, f, v| set(&mut a.lowrank_seed, f, v)),
        Flag::on(LSSVM, "--landmarks s", "uniform | leverage landmark selection (default uniform)")
            .needs(|a| a.lowrank, "--landmarks requires --solver lowrank")
            .action(|a, _, v| put(&mut a.landmarks, v.parse().map_err(err)?)),
        Flag::on(LSSVM, "--on-nonconverged a",
                 "error | warn | accept a solve that missed epsilon (default warn)")
            .action(|a, f, v| {
                use NonConvergedAction::*;
                let choices = [("error", Error), ("warn", Warn), ("accept", Accept)];
                pick(&mut a.on_nonconverged, f, v, &choices)
            }),
        Flag::on(ALL & !CV, "--io-faults p",
                 "inject deterministic storage faults into every durable write\n\
                  (model, checkpoint journal, metrics), e.g.\n\
                  'enospc:write@3;eio:sync@1~journal!' or 'seed:N'")
            .action(|a, _, v| match IoFaultPlan::parse(v) {
                Ok(plan) => put(&mut a.io_faults, Some(plan)),
                Err(e) => Err(err(format!("invalid --io-faults spec '{v}': {e}"))),
            }),
        Flag::on(BINARY | SVR | MULTI, "--on-io-degraded a",
                 "error | warn when the checkpoint journal\n\
                  degrades mid-run (persistent write failures) (default warn)")
            .action(|a, f, v| {
                use IoDegradedAction::*;
                pick(&mut a.on_io_degraded, f, v, &[("error", Error), ("warn", Warn)])
            }),
        Flag::on(ALL, "-q, --quiet", "suppress the training summary")
            .needs(|a| !a.verbose, "-q and --verbose are mutually exclusive")
            .action(|a, _, _| put(&mut a.quiet, true)),
        Flag::on(LSSVM, "--verbose", "append per-kernel telemetry counters to the summary")
            .action(|a, _, _| put(&mut a.verbose, true)),
    ],
    footer: "input files: LIBSVM format, or ARFF when the extension is .arff\n\
             exit codes: 0 success, 1 runtime error, 2 usage error,\n\
             \x20           3 non-converged under --on-nonconverged error,\n\
             \x20           4 storage failure (final write failed after retries, or\n\
             \x20           degraded journal under --on-io-degraded error)",
};

/// Parses `svm-train` arguments. No arguments, `--help`, or a `-h` that
/// is not LIBSVM's shrinking flag (`-h 0` / `-h 1`) ask for the usage text.
pub fn parse_train(args: &[String]) -> Result<TrainArgs, CliError> {
    if args.last().is_none_or(|last| last == "-h") {
        return Err(err(""));
    }
    let (mut out, operands, given) = TRAIN.parse(args)?;
    out.given = given;
    (out.input, out.model) = match &operands[..] {
        [] => return Err(err("missing training_set_file")),
        [input] => (input.clone(), format!("{input}.model")),
        [input, model] => (input.clone(), model.clone()),
        _ => return Err(err("too many positional arguments")),
    };
    out.checkpoint_every = out
        .checkpoint_every
        .or(out.checkpoint_dir.as_ref().map(|_| 50));
    if out.lowrank {
        if out.resume {
            return Err(err("--resume is not supported with --solver lowrank \
                 (the checkpoint journal streams exact-CG state only)"));
        }
        out.solver = SolverSelection::LowRank {
            rank: out.rank.expect("the --solver row needs --rank"),
            seed: out.lowrank_seed,
            strategy: out.landmarks,
        };
    }
    let threads = out.threads;
    out.backend = match out.backend_name.as_str() {
        "serial" => BackendSelection::Serial,
        "openmp" => BackendSelection::OpenMp {
            threads,
            tiling: out.cpu_tile.unwrap_or_default(),
        },
        "sparse" => BackendSelection::SparseCpu { threads },
        name => {
            let api = match name {
                "cuda" => DeviceApi::Cuda,
                "opencl" => DeviceApi::OpenCl,
                "sycl" => DeviceApi::SyclHip,
                "dpcpp" => DeviceApi::SyclDpcpp,
                other => return Err(err(format!("unknown backend '{other}'"))),
            };
            let split = match out.row_split {
                true => BackendSelection::sim_multi_gpu_rows,
                false => BackendSelection::sim_multi_gpu,
            };
            split(lookup_hardware(&out.hardware)?, api, out.devices)
        }
    };
    if let Some(spec) = &out.fault_spec {
        let plan = match spec.strip_prefix("seed:") {
            Some(seed) => {
                FaultPlan::seeded(num(seed.trim(), "--fault-plan seed")?, out.devices, 32)
            }
            None => FaultPlan::parse(spec).map_err(err)?,
        };
        if let Some(max) = plan.max_device().filter(|&max| max >= out.devices) {
            return Err(err(format!(
                "--fault-plan addresses device {max} but only {} device(s) are configured",
                out.devices
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
            .rfind(|(l, _)| *l == label)
            .map_or(1.0, |&(_, w)| w)
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

/// Parses the `--cpu-tile` spec: `R` (square tile), `RxC`, with an optional
/// `,nosym` suffix that disables the symmetric schedule.
fn parse_cpu_tile(spec: &str) -> Result<CpuTilingConfig, CliError> {
    let (dims, symmetry) = spec
        .strip_suffix(",nosym")
        .map_or((spec, true), |d| (d, false));
    let (row, col) = dims.split_once('x').unwrap_or((dims, dims));
    let tiling = CpuTilingConfig::new(num(row, "--cpu-tile")?, num(col, "--cpu-tile")?);
    let tiling = tiling.with_symmetry(symmetry);
    let invalid = |e| err(format!("invalid --cpu-tile '{spec}': {e}"));
    tiling.validate().map_err(invalid).map(|()| tiling)
}

/// The exit-code line of every binary but `svm-train`.
const EXIT_CODES: &str = "exit codes: 0 success, 1 runtime error, 2 usage error";

/// Parsed `svm-predict` invocation:
/// `svm-predict [options] test_file model_file output_file`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredictArgs {
    /// Test data file (labels used for the accuracy report).
    pub test: String,
    /// Model file from `svm-train`.
    pub model: String,
    /// Output file, one predicted label per line.
    pub output: String,
    /// Prediction telemetry JSON-lines file (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Suppress informational output (`-q` / `--quiet`).
    pub quiet: bool,
    /// Print timing details with the summary (`--verbose`).
    pub verbose: bool,
}

static PREDICT: Cli<PredictArgs> = Cli {
    name: "svm-predict",
    operands: "test_file model_file output_file",
    flags: &[
        Flag::of(
            "--metrics-out file",
            "write prediction telemetry as JSON lines",
        )
        .action(|a, f, v| some(&mut a.metrics_out, f, v)),
        Flag::of("-q, --quiet", "suppress the accuracy report")
            .needs(
                |a: &PredictArgs| !a.verbose,
                "-q and --verbose are mutually exclusive",
            )
            .action(|a, _, _| put(&mut a.quiet, true)),
        Flag::of(
            "--verbose",
            "append the SIMD tier and the prediction wall time",
        )
        .action(|a, _, _| put(&mut a.verbose, true)),
    ],
    footer: EXIT_CODES,
};

/// Parses `svm-predict` arguments.
pub fn parse_predict(args: &[String]) -> Result<PredictArgs, CliError> {
    let (mut out, operands, _) = PREDICT.parse(args)?;
    [out.test, out.model, out.output] = operands.try_into().map_err(|o: Vec<_>| {
        let got = o.len();
        err(format!(
            "expected 3 positional arguments (test_file model_file output_file), got {got}"
        ))
    })?;
    Ok(out)
}

/// Parsed `svm-scale` invocation.
#[derive(Debug, Clone, Default)]
pub struct ScaleArgs {
    /// Target lower bound (`-l`).
    pub lower: f64,
    /// Target upper bound (`-u`).
    pub upper: f64,
    /// Write fitted ranges to this file (`-s`).
    pub save: Option<String>,
    /// Restore ranges from this file instead of fitting (`-r`).
    pub restore: Option<String>,
    /// Input data file; scaled data goes to stdout (LIBSVM behaviour).
    pub input: String,
}

static SCALE: Cli<ScaleArgs> = Cli {
    name: "svm-scale",
    operands: "data_file",
    flags: &[
        Flag::of("-l lower", "target lower bound (default -1)")
            .action(|a, f, v| set(&mut a.lower, f, v)),
        Flag::of("-u upper", "target upper bound (default 1)")
            .action(|a, f, v| set(&mut a.upper, f, v)),
        Flag::of("-s save_file", "write the fitted ranges to this file")
            .needs(
                |a: &ScaleArgs| a.restore.is_none(),
                "-s and -r are mutually exclusive",
            )
            .action(|a, f, v| some(&mut a.save, f, v)),
        Flag::of(
            "-r restore_file",
            "restore the ranges from this file instead of fitting",
        )
        .action(|a, f, v| some(&mut a.restore, f, v)),
    ],
    footer: EXIT_CODES,
};

/// Parses `svm-scale` arguments.
pub fn parse_scale(args: &[String]) -> Result<ScaleArgs, CliError> {
    let (mut out, operands, _) = SCALE.parse(args)?;
    [out.input] = operands.try_into().map_err(|o: Vec<_>| {
        err(format!(
            "expected 1 positional argument (data_file), got {}",
            o.len()
        ))
    })?;
    Ok(out)
}

/// Parsed `svm-serve` invocation: `svm-serve [options] model_file`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeArgs {
    /// Model file to serve (anything `svm-train` writes).
    pub model: String,
    /// TCP listen address (`--listen host:port`); `None` = stdin mode.
    pub listen: Option<String>,
    /// Largest micro-batch the engine predicts in one call (`--max-batch`).
    pub max_batch: usize,
    /// Serve telemetry JSON-lines file (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Hot-reload poll interval in ms (`--reload-poll-ms`); 0 = off.
    pub reload_poll_ms: u64,
    /// Concurrent TCP connections (`--max-connections`); 0 = unlimited.
    pub max_connections: usize,
    /// Queued requests before shedding (`--queue-watermark`); 0 = off.
    pub queue_watermark: usize,
    /// Queueing deadline per request in µs (`--deadline-us`); 0 = off.
    pub deadline_us: u64,
    /// Per-line read budget in ms (`--client-timeout-ms`); 0 = off.
    pub client_timeout_ms: u64,
    /// Suppress informational output on stderr (`-q` / `--quiet`).
    pub quiet: bool,
}

static SERVE: Cli<ServeArgs> = Cli {
    name: "svm-serve",
    operands: "model_file",
    flags: &[
        Flag::of("--stdin", "serve request lines from stdin (the default)").needs(
            |a| a.listen.is_none(),
            "--stdin and --listen are mutually exclusive",
        ),
        Flag::of("--listen host:port", "serve over TCP instead of stdin")
            .action(|a, f, v| some(&mut a.listen, f, v)),
        Flag::of("--max-batch n", "largest micro-batch (default 64)")
            .action(|a, f, v| positive(&mut a.max_batch, f, v)),
        Flag::of(
            "--max-connections n",
            "concurrent TCP connections, 0 = unlimited (default 256)",
        )
        .action(|a, f, v| set(&mut a.max_connections, f, v)),
        Flag::of(
            "--queue-watermark n",
            "queued requests before shedding, 0 = off (default 1024)",
        )
        .action(|a, f, v| set(&mut a.queue_watermark, f, v)),
        Flag::of(
            "--deadline-us n",
            "queueing deadline per request, 0 = off (default 0)",
        )
        .action(|a, f, v| set(&mut a.deadline_us, f, v)),
        Flag::of(
            "--client-timeout-ms n",
            "per-line read budget, 0 = off (default 10000)",
        )
        .action(|a, f, v| set(&mut a.client_timeout_ms, f, v)),
        Flag::of(
            "--reload-poll-ms n",
            "model file poll interval, 0 = off (default 200)",
        )
        .action(|a, f, v| set(&mut a.reload_poll_ms, f, v)),
        Flag::of("--metrics-out file", "write serve telemetry as JSON lines")
            .action(|a, f, v| some(&mut a.metrics_out, f, v)),
        Flag::of("-q, --quiet", "suppress the status lines on stderr")
            .action(|a, _, _| put(&mut a.quiet, true)),
    ],
    footer: EXIT_CODES,
};

/// Parses `svm-serve` arguments.
pub fn parse_serve(args: &[String]) -> Result<ServeArgs, CliError> {
    let (mut out, operands, _) = SERVE.parse(args)?;
    [out.model] = operands.try_into().map_err(|o: Vec<_>| {
        err(format!(
            "expected 1 positional argument (model_file), got {}",
            o.len()
        ))
    })?;
    Ok(out)
}

/// Parsed `generate-data` invocation.
#[derive(Debug, Clone, Default)]
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

fn planes(a: &GenerateArgs) -> bool {
    !a.sat6
}

static GENERATE: Cli<GenerateArgs> = Cli {
    name: "generate-data",
    operands: "-o FILE",
    flags: &[
        Flag::of("-p, --points N", "number of data points (default 1024)")
            .action(|a, f, v| set(&mut a.points, f, v)),
        Flag::of("-f, --features D", "number of planes features (default 16)")
            .needs(
                planes,
                "--features requires the planes problem (not --sat6)",
            )
            .action(|a, f, v| set(&mut a.features, f, v)),
        Flag::of("-s, --seed S", "random seed (default 42)")
            .action(|a, f, v| set(&mut a.seed, f, v)),
        Flag::of("--sep X", "planes cluster separation (default 2)")
            .needs(planes, "--sep requires the planes problem (not --sat6)")
            .action(|a, f, v| set(&mut a.cluster_sep, f, v)),
        Flag::of("--flip F", "planes label flip fraction (default 0.01)")
            .needs(planes, "--flip requires the planes problem (not --sat6)")
            .action(|a, f, v| set(&mut a.flip, f, v)),
        Flag::of(
            "--sat6",
            "generate the SAT-6-like image set (28x28x4) instead of planes",
        )
        .action(|a, _, _| put(&mut a.sat6, true)),
        Flag::of("--format fmt", "libsvm | arff (default libsvm)")
            .action(|a, f, v| pick(&mut a.arff, f, v, &[("libsvm", false), ("arff", true)])),
        Flag::of("-o, --output FILE", "output file (required)")
            .action(|a, f, v| set(&mut a.output, f, v)),
    ],
    footer: EXIT_CODES,
};

/// Parses `generate-data` arguments.
pub fn parse_generate(args: &[String]) -> Result<GenerateArgs, CliError> {
    let (out, operands, _) = GENERATE.parse(args)?;
    if let Some(extra) = operands.first() {
        return Err(err(format!("unexpected argument '{extra}'")));
    }
    if out.output.is_empty() {
        return Err(err("missing -o output file"));
    }
    Ok(out)
}

/// `svm-train`'s `main`.
pub fn train_main() -> ExitCode {
    drive(&TRAIN, parse_train, run_train)
}

/// `svm-predict`'s `main`.
pub fn predict_main() -> ExitCode {
    drive(&PREDICT, parse_predict, run_predict)
}

/// `svm-scale`'s `main`.
pub fn scale_main() -> ExitCode {
    drive(&SCALE, parse_scale, run_scale)
}

/// `svm-serve`'s `main`.
pub fn serve_main() -> ExitCode {
    drive(&SERVE, parse_serve, |a| {
        run_serve(a).map(|()| String::new())
    })
}

/// `generate-data`'s `main`.
pub fn generate_main() -> ExitCode {
    drive(&GENERATE, parse_generate, run_generate)
}

/// Runs one binary on the process arguments. A usage error prints the
/// error and the usage text and exits 2; `--help` prints the usage text
/// and exits 2. A runtime error prints the error alone and exits 1, or 3
/// for a non-converged solve under `--on-nonconverged error` and 4 for a
/// storage failure. Each binary instantiates only its own parser and
/// command, so it links only their code.
fn drive<A: Default, T>(
    cli: &Cli<A>,
    parse: fn(&[String]) -> Result<T, CliError>,
    run: fn(&T) -> Result<String, Box<dyn Error>>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(CliError(e)) => {
            match e.as_str() {
                "" => eprintln!("{}", cli.usage()),
                e => eprintln!("{}: {e}\n{}", cli.name, cli.usage()),
            }
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", cli.name);
            ExitCode::from(match e.downcast_ref::<SvmError>() {
                Some(SvmError::NonConverged { .. }) => 3,
                _ if e.is::<StorageError>() => 4,
                _ => 1,
            })
        }
    }
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

    #[test]
    fn backend_and_problem_scoped_flags_need_their_backend_or_problem() {
        for flags in [
            &["-b", "serial", "-T", "4"][..],
            &["-b", "cuda", "-T", "4"],
            &["-b", "openmp", "-n", "2"],
            &["--hardware", "v100"],
            &["--split", "rows"],
            &["--lowrank-seed", "7"],
            &["--landmarks", "leverage"],
        ] {
            let mut args = sv(flags);
            args.push("x.dat".into());
            let e = parse_train(&args).unwrap_err();
            assert!(
                e.0.contains(flags[flags.len() - 2]) && e.0.contains("requires"),
                "{e}"
            );
        }
        // restating a default is not giving the flag
        assert!(parse_train(&sv(&["-n", "1", "--hardware", "a100", "x.dat"])).is_ok());
        // -m must fit a byte count
        assert!(parse_train(&sv(&["-m", "17592186044416", "x.dat"])).is_err());
        for flag in ["--features", "--sep", "--flip"] {
            let e = parse_generate(&sv(&["--sat6", flag, "3", "-o", "x"])).unwrap_err();
            assert!(e.0.contains(flag) && e.0.contains("requires"), "{e}");
        }
    }
}
