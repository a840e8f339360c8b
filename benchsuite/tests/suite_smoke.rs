//! Every workload at test sizes (`--smoke`: 512-point training sets,
//! sub-second serve phases), end to end and traced, checked against the
//! metric list in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use plssvm_benchsuite::{run, Options, RunReport, Workload, SERVE_BIN_ENV};

/// The `svm-serve` binary: `PLSSVM_SERVE_BIN` when set, otherwise built
/// once from the repository into the test's temporary target directory.
fn serve_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os(SERVE_BIN_ENV) {
            return bin.into();
        }
        let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-build");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "plssvm-cli", "--bin", "svm-serve"])
            .arg("--manifest-path")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building svm-serve failed");
        target.join("release").join("svm-serve")
    })
    .clone()
}

fn run_smoke(workload: Workload, trace: bool, tag: &str) -> RunReport {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1.5,
        trace,
        smoke: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}-{tag}", workload.name())),
        serve_bin: Some(serve_bin()),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    std::fs::remove_dir_all(&opts.work_dir).ok();
    let failing: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
    assert!(
        report.correct(),
        "{} (trace {trace}): failed {} of {}, failing checks {failing:?}",
        workload.name(),
        report.failed,
        report.attempted
    );
    report
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`, which
/// keeps one metric object per line.
fn listed(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &text[start..start + text[start..].find(']').expect("list end")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_owned())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn emitted(report: &RunReport) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

#[test]
fn every_workload_emits_every_listed_metric_and_passes_its_checks() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 5);
    assert!(per_layer.len() >= 20);
    for workload in Workload::ALL {
        let report = run_smoke(workload, false, "e2e");
        assert_eq!(emitted(&report), end_to_end, "{}", workload.name());
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0: {:?}",
            workload.name(),
            report.metrics
        );
        let report = run_smoke(workload, true, "trace");
        assert_eq!(emitted(&report), per_layer, "{}", workload.name());
    }
}

#[test]
fn exact_counters_repeat_and_traced_models_are_byte_identical() {
    const EXACT: [&str; 4] = [
        "backend.matvec_calls",
        "backend.kernel_evals",
        "solver.iterations",
        "solver.escalations",
    ];
    for workload in [Workload::TrainExact, Workload::TrainLowrank] {
        let first = run_smoke(workload, true, "first");
        let second = run_smoke(workload, true, "second");
        for name in EXACT {
            assert_eq!(
                first.value(name),
                second.value(name),
                "{} {name}",
                workload.name()
            );
        }
        for report in [&first, &second] {
            let identity = report
                .checks
                .iter()
                .find(|c| c.name == "traced_model_byte_identical")
                .expect("byte-identity check");
            assert!(identity.passed, "{}: {}", workload.name(), identity.detail);
        }
    }
}
