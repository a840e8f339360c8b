//! `plssvm-bench`: the PLSSVM benchmark.
//!
//! One run measures one workload for a fixed number of seconds, either end
//! to end with tracing off or as a traced run that splits the same work
//! into per-layer numbers, and reports medians, the checks it made and a
//! host fingerprint. `BENCHMARK.md` next to this crate describes the
//! workloads and metrics; `BENCHMARK.json` at the repository root lists
//! them with their units, directions and regression bounds.

use std::path::{Path, PathBuf};
use std::time::Duration;

pub mod host;
pub mod report;
mod serve;
mod trace;
mod train;
mod workload;

pub use report::RunReport;
pub use workload::Workload;

/// The harness's error type: every failure ends the run with a message.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Environment variable naming the `svm-serve` binary to drive.
pub const SERVE_BIN_ENV: &str = "PLSSVM_SERVE_BIN";

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// A traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Test-suite sizes instead of the benchmark's.
    pub smoke: bool,
    /// Working directory for the run's data, model and metrics files.
    pub work_dir: PathBuf,
    /// The `svm-serve` binary (needed by serve workloads and traced runs).
    pub serve_bin: Option<PathBuf>,
}

impl Options {
    /// The measuring time as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The `svm-serve` binary, or an error naming how to provide it.
    pub fn serve_bin(&self) -> Result<&Path> {
        self.serve_bin.as_deref().ok_or_else(|| {
            format!(
                "{} runs drive svm-serve: set {SERVE_BIN_ENV} to its path \
                 (benchsuite/run.sh builds it)",
                self.workload.name()
            )
            .into()
        })
    }
}

/// Runs one workload once.
pub fn run(opts: &Options) -> Result<RunReport> {
    std::fs::create_dir_all(&opts.work_dir)?;
    match (opts.trace, opts.workload.is_serve()) {
        (true, _) => trace::run(opts),
        (false, false) => train::run_e2e(opts),
        (false, true) => serve::run_e2e(opts),
    }
}
