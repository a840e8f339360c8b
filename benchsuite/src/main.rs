//! `plssvm-bench` — runs one workload of the PLSSVM benchmark.
//!
//! ```text
//! plssvm-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--smoke] [--out DIR]
//! ```
//!
//! Progress goes to stderr. The full result (metrics with quartiles,
//! diagnostics, checks, host fingerprint) is written to
//! `DIR/<workload>-seed<N>-trace<0|1>.json`, and the last line of stdout
//! is the one-line summary: `correct`, `attempted`, `failed` and the
//! metrics of the mode with their units.

use std::path::PathBuf;
use std::process::ExitCode;

use plssvm_benchsuite::{host, run, Options, Workload, SERVE_BIN_ENV};

const USAGE: &str =
    "usage: plssvm-bench --workload <train-exact|train-lowrank|serve-rbf|serve-tiny> \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

fn parse_args(args: &[String]) -> Result<(Options, PathBuf), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (7u64, 25.0f64, false, false);
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = out.join(format!("work-{}-{}", workload.name(), std::process::id()));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        work_dir,
        serve_bin: std::env::var_os(SERVE_BIN_ENV).map(PathBuf::from),
    };
    Ok((opts, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("plssvm-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "plssvm-bench: {} seed {} for {} s ({})",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "end to end" }
    );
    let result = run(&opts);
    std::fs::remove_dir_all(&opts.work_dir).ok();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("plssvm-bench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };

    for m in report.metrics.iter().chain(&report.diagnostics) {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for c in &report.checks {
        let status = if c.passed { "ok" } else { "FAILED" };
        eprintln!("  check {:<32} {status}: {}", c.name, c.detail);
    }
    let run_fields = [
        ("workload", format!("\"{}\"", opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("smoke", opts.smoke.to_string()),
    ];
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let json = report.to_json(&run_fields, &host::fingerprint_json(opts.seed));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("plssvm-bench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("  result written to {}", path.display());
    println!("{}", report.summary_line());
    ExitCode::SUCCESS
}
