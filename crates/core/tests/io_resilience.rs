//! Storage-fault resilience at the library level: journaled training on
//! a [`FaultVfs`] must retry transient faults (leaving `io_retry`
//! telemetry), degrade gracefully under persistent journal failures
//! (`io_degraded`, solve continues), and fall back past bit-rotted
//! generations on resume — in every case producing a model
//! byte-identical to the fault-free run. A fault-free [`FaultVfs`] must
//! be observationally identical to [`RealVfs`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use plssvm_core::backend::BackendSelection;
use plssvm_core::svm::{LsSvm, TrainOutput};
use plssvm_core::trace::{RecoveryKind, Telemetry};
use plssvm_data::libsvm::LabeledData;
use plssvm_data::model::KernelSpec;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};
use plssvm_data::vfs::{FaultKind, FaultPlan, FaultVfs, OpClass, Vfs};
use plssvm_data::CheckpointJournal;

/// Retention window larger than any solve here produces, so every
/// generation survives and resume points are predictable.
const KEEP: usize = 64;

fn dataset() -> LabeledData<f64> {
    generate_planes(
        &PlanesConfig::new(64, 8, 20260)
            .with_cluster_sep(3.0)
            .with_flip_fraction(0.0),
    )
    .unwrap()
}

fn trainer() -> LsSvm<f64> {
    LsSvm::new()
        .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
        .with_cost(2.0)
        .with_epsilon(1e-10)
        .with_backend(BackendSelection::Serial)
        .with_checkpoint_interval(4)
}

fn scratch_dir(label: &str) -> PathBuf {
    // Every test builds its own reference run in parallel: a per-call
    // suffix keeps one test's cleanup from deleting another's live journal.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("plssvm-io-res-{}-{label}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journaled training over an explicit VFS, with telemetry collected.
fn train_over(
    dir: &std::path::Path,
    vfs: Arc<dyn Vfs>,
    resume: bool,
) -> (TrainOutput<f64>, Arc<Telemetry>) {
    let telemetry = Telemetry::shared();
    let journal = CheckpointJournal::open_with_vfs(dir, KEEP, vfs).unwrap();
    let out = trainer()
        .with_checkpoint_journal(journal)
        .with_resume(resume)
        .with_metrics(Arc::clone(&telemetry))
        .train(&dataset())
        .unwrap();
    (out, telemetry)
}

/// The fault-free reference: journaled training over the real
/// filesystem. Every faulted run below must reproduce this model
/// byte-for-byte.
fn reference() -> TrainOutput<f64> {
    let dir = scratch_dir("reference");
    let (out, _) = train_over(&dir, Arc::new(plssvm_data::RealVfs), false);
    assert!(out.converged, "reference run must converge");
    assert!(!out.io_degraded);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn assert_bit_identical(label: &str, got: &TrainOutput<f64>, want: &TrainOutput<f64>) {
    assert!(got.converged, "{label}: must converge");
    assert_eq!(
        got.model.to_model_string(),
        want.model.to_model_string(),
        "{label}: model must be byte-identical to the fault-free run"
    );
    assert_eq!(got.iterations, want.iterations, "{label}: iterations");
}

/// A fault-free FaultVfs is a pure pass-through: training over it is
/// indistinguishable from training over RealVfs.
#[test]
fn fault_free_fault_vfs_trains_identically_to_real_vfs() {
    let want = reference();
    let dir = scratch_dir("passthrough");
    let vfs = Arc::new(FaultVfs::new(FaultPlan::new()));
    let (out, _) = train_over(&dir, Arc::clone(&vfs) as Arc<dyn Vfs>, false);
    assert_bit_identical("passthrough", &out, &want);
    assert!(!out.io_degraded);
    assert_eq!(vfs.total_injected(), 0);
    assert!(
        vfs.ops(OpClass::Write) > 0,
        "journaled training must route checkpoint writes through the VFS"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transient EIO on the first checkpoint write is absorbed by the
/// retry policy: one or more `io_retry` telemetry events, no
/// degradation, and a bit-identical model.
#[test]
fn transient_journal_fault_is_retried_and_leaves_io_retry_telemetry() {
    let want = reference();
    let dir = scratch_dir("transient");
    let plan = FaultPlan::new().fault(FaultKind::Eio, OpClass::Write, 0, Some("gen-"), false);
    let vfs = Arc::new(FaultVfs::new(plan));
    let (out, telemetry) = train_over(&dir, Arc::clone(&vfs) as Arc<dyn Vfs>, false);

    assert_bit_identical("transient", &out, &want);
    assert!(
        !out.io_degraded,
        "a transient fault must not degrade checkpointing"
    );
    assert_eq!(vfs.total_injected(), 1, "{:?}", vfs.injected());

    let report = telemetry.report();
    let retries: Vec<_> = report
        .recovery
        .iter()
        .filter(|e| e.kind == RecoveryKind::IoRetry)
        .collect();
    assert!(
        !retries.is_empty(),
        "retried append must be recorded: {:?}",
        report.recovery
    );
    assert!(retries[0].detail.contains("checkpoint append"));
    assert!(
        !report
            .recovery
            .iter()
            .any(|e| e.kind == RecoveryKind::IoDegraded),
        "no degradation on a transient fault"
    );
    // the retried generation made it to disk after all
    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    assert!(!journal.is_empty().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent write failure on the journal exhausts the retry budget,
/// degrades checkpointing (one `io_degraded` event, `io_degraded` flag
/// on the output) — and the solve still completes bit-identically.
#[test]
fn persistent_journal_fault_degrades_but_training_completes() {
    let want = reference();
    let dir = scratch_dir("persistent");
    let plan = FaultPlan::new().fault(FaultKind::Enospc, OpClass::Write, 0, Some("gen-"), true);
    let vfs = Arc::new(FaultVfs::new(plan));
    let (out, telemetry) = train_over(&dir, Arc::clone(&vfs) as Arc<dyn Vfs>, false);

    assert_bit_identical("persistent", &out, &want);
    assert!(
        out.io_degraded,
        "persistent journal failure must surface as io_degraded"
    );

    let report = telemetry.report();
    let degraded: Vec<_> = report
        .recovery
        .iter()
        .filter(|e| e.kind == RecoveryKind::IoDegraded)
        .collect();
    assert_eq!(degraded.len(), 1, "{:?}", report.recovery);
    assert!(degraded[0].detail.contains("checkpointing disabled"));
    // the retry budget was spent before giving up
    assert!(report
        .recovery
        .iter()
        .any(|e| e.kind == RecoveryKind::IoRetry));
    // nothing durable ever landed
    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    assert!(journal.is_empty().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume over a journal whose newest generation suffers bit rot at
/// read time: the damaged generation is skipped (recorded as recovery
/// telemetry), the previous one is used, and the resumed solve is
/// byte-identical.
#[test]
fn bit_rotted_newest_generation_falls_back_on_resume() {
    let want = reference();
    // first, a clean journaled run leaves its generations behind
    let dir = scratch_dir("bitrot");
    let (first, _) = train_over(&dir, Arc::new(plssvm_data::RealVfs), false);
    assert!(first.converged);
    let journal = CheckpointJournal::open(&dir, KEEP).unwrap();
    let gens = journal.generations().unwrap();
    assert!(
        gens.len() >= 2,
        "need at least 2 generations to fall back across, got {gens:?}"
    );
    let newest = *gens.last().unwrap();

    // resume with the first `gen-` read bit-rotted (transient: only the
    // newest generation's read is damaged, the fallback read is clean)
    let plan = FaultPlan::new().fault(FaultKind::BitRot, OpClass::Read, 0, Some("gen-"), false);
    let vfs = Arc::new(FaultVfs::new(plan));
    let (out, telemetry) = train_over(&dir, Arc::clone(&vfs) as Arc<dyn Vfs>, true);

    assert_bit_identical("bitrot-resume", &out, &want);
    assert_eq!(vfs.total_injected(), 1, "{:?}", vfs.injected());

    let report = telemetry.report();
    assert!(
        report.recovery.iter().any(|e| {
            e.kind == RecoveryKind::Checkpoint
                && e.detail
                    .contains(&format!("skipped damaged checkpoint generation {newest}"))
        }),
        "{:?}",
        report.recovery
    );
    assert!(report.recovery.iter().any(|e| {
        e.detail.contains(&format!(
            "resuming from checkpoint generation {}",
            newest - 1
        ))
    }));
    let _ = std::fs::remove_dir_all(&dir);
}
