//! Reload under storage faults: a degraded disk (short reads, bit rot,
//! EIO) at the model path must be *rejected like garbage* — the old
//! generation keeps serving, every rejection lands in the telemetry
//! audit trail, a failure storm opens the reload breaker, and the first
//! clean read after the faults clear installs the new model and fully
//! resets the breaker.

use std::path::PathBuf;
use std::sync::Arc;

use plssvm_data::vfs::{FaultKind, FaultPlan, FaultVfs, OpClass};
use plssvm_data::write_atomic;
use plssvm_serve::{
    attempt_reload_with, BreakerConfig, Engine, EngineConfig, ManualClock, ReloadAttempt,
    ReloadBreaker, ServeModel,
};

/// Model A: f(x) = x1 − x2, so `1 1:1` answers `1`.
const MODEL_A: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";
/// Model B: f(x) = x2 − x1, so `1 1:1` answers `-1`.
const MODEL_B: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 2:1\n-1 1:1\n";

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "plssvm-serve-reload-faults-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_on(clock: Arc<ManualClock>) -> Engine {
    Engine::new(
        ServeModel::from_text(MODEL_A).unwrap(),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
        clock,
    )
}

/// A persistently torn read (short read / bit rot) at the model path is
/// rejected on every attempt: the generation never moves and the old
/// model keeps answering.
#[test]
fn torn_reads_never_install_and_the_old_model_keeps_serving() {
    let dir = scratch_dir("torn");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_B.as_bytes()).unwrap();

    let engine = engine_on(Arc::new(ManualClock::new()));

    for kind in [FaultKind::ShortRead, FaultKind::BitRot, FaultKind::Eio] {
        let vfs =
            FaultVfs::new(FaultPlan::new().fault(kind, OpClass::Read, 0, Some("model"), true));
        let attempt = attempt_reload_with(&engine, &vfs, &path);
        assert!(
            attempt.is_err(),
            "{kind:?}: damaged read must be rejected, got {attempt:?}"
        );
        assert!(vfs.total_injected() >= 1, "{kind:?}: fault must have fired");
    }
    assert_eq!(engine.generation(), 1, "no damaged model may install");
    assert_eq!(
        engine.respond_line("1 1:1").as_deref(),
        Some("1"),
        "the old generation must keep serving"
    );

    // every rejection is in the audit trail, none accepted
    let stats = engine.stats();
    let rejected = stats.reloads.iter().filter(|r| !r.accepted).count();
    assert_eq!(rejected, 3, "{:?}", stats.reloads);
    assert!(stats.reloads.iter().all(|r| !r.accepted));

    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A read-fault storm drives the breaker exactly like a garbage-file
/// storm: threshold rejections open it (backoff telemetry), attempts
/// inside the window are suppressed without touching the disk, and the
/// first clean read after the clock passes the window installs the new
/// model and resets the breaker.
#[test]
fn read_fault_storm_opens_the_breaker_and_a_clean_read_resets_it() {
    let dir = scratch_dir("storm");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_B.as_bytes()).unwrap();

    let clock = Arc::new(ManualClock::new());
    let engine = engine_on(Arc::clone(&clock));

    // exactly three transient read faults on the model path, then clean
    let plan = FaultPlan::new()
        .fault(FaultKind::ShortRead, OpClass::Read, 0, Some("model"), false)
        .fault(FaultKind::BitRot, OpClass::Read, 1, Some("model"), false)
        .fault(FaultKind::Eio, OpClass::Read, 2, Some("model"), false);
    let vfs = FaultVfs::new(plan);

    let config = BreakerConfig {
        threshold: 3,
        base_backoff_us: 1_000_000,
        max_backoff_us: 60_000_000,
    };
    let mut breaker = ReloadBreaker::new(config);

    for i in 0..3 {
        let attempt = breaker.attempt_with(&engine, &vfs, &path);
        assert!(
            matches!(attempt, ReloadAttempt::Rejected(_)),
            "attempt {i}: expected rejection, got {attempt:?}"
        );
    }
    assert_eq!(breaker.consecutive_failures(), 3);

    // breaker open: suppressed without consuming a read operation
    let reads_before = vfs.ops(OpClass::Read);
    match breaker.attempt_with(&engine, &vfs, &path) {
        ReloadAttempt::Suppressed { until_us } => assert_eq!(until_us, 1_000_000),
        other => panic!("expected suppression inside the window, got {other:?}"),
    }
    assert_eq!(
        vfs.ops(OpClass::Read),
        reads_before,
        "a suppressed attempt must not touch the disk"
    );
    assert_eq!(engine.generation(), 1);

    // past the backoff window the faults are exhausted: clean install
    clock.advance(1_000_000);
    match breaker.attempt_with(&engine, &vfs, &path) {
        ReloadAttempt::Installed(generation) => assert_eq!(generation, 2),
        other => panic!("expected install after faults cleared, got {other:?}"),
    }
    assert_eq!(breaker.consecutive_failures(), 0, "success resets fully");
    assert_eq!(
        engine.respond_line("1 1:1").as_deref(),
        Some("-1"),
        "the new generation must serve"
    );

    let stats = engine.stats();
    assert_eq!(stats.reloads.iter().filter(|r| !r.accepted).count(), 3);
    assert_eq!(stats.reloads.iter().filter(|r| r.accepted).count(), 1);
    assert_eq!(
        stats.reload_backoffs.len(),
        1,
        "{:?}",
        stats.reload_backoffs
    );
    assert_eq!(stats.reload_backoffs[0].consecutive_failures, 3);
    assert_eq!(vfs.total_injected(), 3);

    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded chaos at the serve loader: whatever a random plan injects,
/// an attempt either installs the genuine new model or rejects with a
/// structured error — the serving generation is never corrupt.
#[test]
fn seeded_read_chaos_never_installs_a_corrupt_model() {
    let dir = scratch_dir("seeded");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_B.as_bytes()).unwrap();

    for seed in 0..16u64 {
        let engine = engine_on(Arc::new(ManualClock::new()));
        let vfs = FaultVfs::new(FaultPlan::seeded(seed, 16));
        for _ in 0..8 {
            match attempt_reload_with(&engine, &vfs, &path) {
                Ok(_) => {
                    // an accepted reload must be the genuine article
                    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("-1"));
                }
                Err(e) => {
                    assert!(!e.is_empty(), "rejections carry a structured reason");
                    // old or previously installed generation still serves
                    let r = engine.respond_line("1 1:1").unwrap();
                    assert!(r == "1" || r == "-1", "unexpected response: {r}");
                }
            }
        }
        engine.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
