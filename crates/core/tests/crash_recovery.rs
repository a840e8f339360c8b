//! Crash-injection recovery harness (library level).
//!
//! The acceptance property for durable checkpointing is *kill-anywhere*:
//! a training process killed immediately after any checkpoint generation
//! becomes durable must, on `--resume`, produce a model byte-identical
//! to the uninterrupted run. This harness proves it by re-spawning the
//! test binary as a child with [`plssvm_data::checkpoint::CRASH_AFTER_ENV`]
//! set — the journal then calls `std::process::abort()` right after the
//! chosen generation hits disk, the worst possible moment — and resuming
//! in the parent.
//!
//! The default test covers a representative slice of the
//! backend × kernel × precision matrix plus the corruption-fallback
//! scenario; the exhaustive matrix (every backend, every kernel, every
//! precision, killed at *every* generation) runs under `--ignored` and
//! is exercised by the CI crash-recovery leg in release mode.

use std::env;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use plssvm_core::backend::BackendSelection;
use plssvm_core::svm::{LsSvm, TrainOutput};
use plssvm_core::trace::{RecoveryKind, Telemetry};
use plssvm_data::checkpoint::CRASH_AFTER_ENV;
use plssvm_data::libsvm::LabeledData;
use plssvm_data::model::KernelSpec;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};
use plssvm_data::CheckpointJournal;
use plssvm_simgpu::device::AtomicScalar;
use plssvm_simgpu::{hw, Backend as DeviceApi};

/// Marks a spawned process as the crash-injection child and names its
/// `backend:kernel:precision` case.
const CASE_ENV: &str = "PLSSVM_CRASH_CHILD_CASE";
/// Journal directory handed to the crash-injection child.
const DIR_ENV: &str = "PLSSVM_CRASH_CHILD_DIR";

/// Retention window — larger than any solve in this harness produces,
/// so the parent can count generations exactly.
const KEEP: usize = 64;

fn dataset<T: AtomicScalar>() -> LabeledData<T> {
    generate_planes(
        &PlanesConfig::new(64, 8, 20260)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .unwrap()
}

fn backend_for(tag: &str) -> BackendSelection {
    match tag {
        "serial" => BackendSelection::Serial,
        "openmp" => BackendSelection::openmp(Some(2)),
        "simgpu" => BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        other => panic!("unknown backend tag '{other}'"),
    }
}

fn kernel_for<T: AtomicScalar>(tag: &str) -> KernelSpec<T> {
    match tag {
        "linear" => KernelSpec::Linear,
        "rbf" => KernelSpec::Rbf {
            gamma: T::from_f64(0.5),
        },
        other => panic!("unknown kernel tag '{other}'"),
    }
}

fn trainer<T: AtomicScalar>(backend: &str, kernel: &str) -> LsSvm<T> {
    // single precision cannot reach the double-precision target and
    // converges in fewer iterations, so it checkpoints more often to
    // still produce several generations to kill at
    let (epsilon, interval) = if T::BYTES == 4 { (1e-5, 2) } else { (1e-10, 4) };
    LsSvm::new()
        .with_kernel(kernel_for(kernel))
        .with_cost(T::from_f64(2.0))
        .with_epsilon(T::from_f64(epsilon))
        .with_backend(backend_for(backend))
        .with_checkpoint_interval(interval)
}

fn train_journaled<T: AtomicScalar>(
    backend: &str,
    kernel: &str,
    dir: &Path,
    resume: bool,
) -> TrainOutput<T> {
    let journal = CheckpointJournal::open(dir, KEEP).unwrap();
    trainer(backend, kernel)
        .with_checkpoint_journal(journal)
        .with_resume(resume)
        .train(&dataset::<T>())
        .unwrap()
}

fn run_child(case: &str, dir: &Path) {
    let parts: Vec<&str> = case.split(':').collect();
    let [backend, kernel, precision] = parts[..] else {
        panic!("malformed case '{case}'");
    };
    match precision {
        "f32" => {
            train_journaled::<f32>(backend, kernel, dir, false);
        }
        "f64" => {
            train_journaled::<f64>(backend, kernel, dir, false);
        }
        other => panic!("unknown precision tag '{other}'"),
    }
}

/// Child dispatcher. In a normal test run the marker environment is
/// unset and this test is an immediate pass; when the harness re-spawns
/// the binary with [`CASE_ENV`] set, it trains with crash injection
/// armed and is expected to die by `abort()` before returning.
#[test]
fn child_entry() {
    if let (Ok(case), Ok(dir)) = (env::var(CASE_ENV), env::var(DIR_ENV)) {
        run_child(&case, Path::new(&dir));
        panic!("crash-injection child completed without crashing");
    }
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = env::temp_dir().join(format!(
        "plssvm-crash-{}-{}",
        std::process::id(),
        label.replace(':', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns this test binary as a crash-injection child that aborts right
/// after `crash_gen` becomes durable, and asserts it died by signal
/// (abort), not by an orderly test failure.
fn spawn_crashing_child(case: &str, dir: &Path, crash_gen: u64) {
    let exe = env::current_exe().unwrap();
    let out = Command::new(exe)
        .args(["child_entry", "--exact", "--test-threads=1"])
        .env(CASE_ENV, case)
        .env(DIR_ENV, dir)
        .env(CRASH_AFTER_ENV, crash_gen.to_string())
        .output()
        .unwrap();
    assert!(
        out.status.code().is_none(),
        "{case}: child killed at generation {crash_gen} should die by \
         signal (abort), got {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The kill-anywhere property for one case and one crash point: kill
/// the child right after `crash_gen` is durable, resume in-process,
/// and require the resumed model to be byte-identical to `reference`.
fn kill_and_resume<T: AtomicScalar>(case: &str, crash_gen: u64, reference: &TrainOutput<T>) {
    let parts: Vec<&str> = case.split(':').collect();
    let (backend, kernel) = (parts[0], parts[1]);
    let dir = scratch_dir(&format!("{case}-g{crash_gen}"));

    spawn_crashing_child(case, &dir, crash_gen);

    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    let gens = journal.generations().unwrap();
    assert_eq!(
        gens.last().copied(),
        Some(crash_gen),
        "{case}: journal must end at the crash generation"
    );

    let resumed = train_journaled::<T>(backend, kernel, &dir, true);
    assert_eq!(
        resumed.model.to_model_string(),
        reference.model.to_model_string(),
        "{case}: resumed model after crash at generation {crash_gen} \
         must be byte-identical"
    );
    assert_eq!(resumed.model.coef, reference.model.coef, "{case}: alphas");
    assert_eq!(resumed.model.rho, reference.model.rho, "{case}: rho");
    // the resumed iteration counter is absolute, so it matches the
    // uninterrupted run exactly
    assert_eq!(
        resumed.iterations, reference.iterations,
        "{case}: iterations"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts how many checkpoint generations an uninterrupted journaled
/// run of this case produces, and returns it with the reference output.
fn reference_run<T: AtomicScalar>(case: &str) -> (TrainOutput<T>, u64) {
    let parts: Vec<&str> = case.split(':').collect();
    let (backend, kernel) = (parts[0], parts[1]);
    let dir = scratch_dir(&format!("{case}-reference"));
    let out = train_journaled::<T>(backend, kernel, &dir, false);
    assert!(out.converged, "{case}: reference run must converge");
    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    let generations = journal.generations().unwrap().len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        generations >= 3,
        "{case}: need at least 3 generations to kill at, got {generations}"
    );
    (out, generations)
}

fn exercise_case<T: AtomicScalar>(case: &str, every_generation: bool) {
    let (reference, generations) = reference_run::<T>(case);
    let crash_points: Vec<u64> = if every_generation {
        (1..=generations).collect()
    } else {
        // first, middle and last generation — the retention edge cases
        vec![1, generations / 2 + 1, generations]
    };
    for crash_gen in crash_points {
        kill_and_resume::<T>(case, crash_gen, &reference);
    }
}

/// Representative slice of the kill matrix, fast enough for tier-1.
#[test]
fn kill_anywhere_resume_is_bit_exact_representative() {
    exercise_case::<f64>("serial:linear:f64", false);
    exercise_case::<f32>("openmp:rbf:f32", false);
    exercise_case::<f64>("simgpu:rbf:f64", false);
}

/// The exhaustive matrix: every backend × kernel × precision, killed at
/// every checkpoint generation. Run via `cargo test --release -- --ignored`
/// (the CI crash-recovery leg).
#[test]
#[ignore = "exhaustive kill matrix; run by the CI crash-recovery leg"]
fn kill_matrix_full() {
    for backend in ["serial", "openmp", "simgpu"] {
        for kernel in ["linear", "rbf"] {
            exercise_case::<f32>(&format!("{backend}:{kernel}:f32"), true);
            exercise_case::<f64>(&format!("{backend}:{kernel}:f64"), true);
        }
    }
}

/// Corruption fallback: after a crash at generation g, the newest
/// snapshot is damaged on disk (torn write / bit rot). Resume must fall
/// back to generation g−1, record the skipped generation as recovery
/// telemetry, and still converge to the byte-identical model.
#[test]
fn corrupted_newest_generation_falls_back_and_still_converges() {
    let case = "serial:rbf:f64";
    let (reference, generations) = reference_run::<f64>(case);
    let crash_gen = generations.min(4);
    let dir = scratch_dir("corrupt-tail");

    spawn_crashing_child(case, &dir, crash_gen);

    // damage the newest generation: truncate it mid-payload (torn write)
    let newest = dir.join(format!("gen-{crash_gen:08}.ckpt"));
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let telemetry = Telemetry::shared();
    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    let resumed = trainer::<f64>("serial", "rbf")
        .with_checkpoint_journal(journal)
        .with_resume(true)
        .with_metrics(Arc::clone(&telemetry))
        .train(&dataset::<f64>())
        .unwrap();

    assert!(resumed.converged);
    assert_eq!(
        resumed.model.to_model_string(),
        reference.model.to_model_string()
    );
    assert_eq!(resumed.iterations, reference.iterations);

    let report = resumed.telemetry.expect("telemetry enabled");
    let skipped: Vec<_> = report
        .recovery
        .iter()
        .filter(|e| e.kind == RecoveryKind::Checkpoint && e.detail.contains("skipped damaged"))
        .collect();
    assert_eq!(skipped.len(), 1, "{:?}", report.recovery);
    assert!(
        skipped[0]
            .detail
            .contains(&format!("generation {crash_gen}")),
        "{}",
        skipped[0].detail
    );
    assert!(report.recovery.iter().any(|e| e.detail.contains(&format!(
        "resuming from checkpoint generation {}",
        crash_gen - 1
    ))));

    let _ = std::fs::remove_dir_all(&dir);
}
