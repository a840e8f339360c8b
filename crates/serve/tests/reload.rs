//! Hot-reload tests: swapping models mid-stream must never drop a
//! request, never answer from a half-loaded model, and must reject torn
//! or garbage model files while the old model keeps serving. The
//! kill-during-swap cases re-exec this test binary as a child that
//! aborts at an injected stage of the model rewrite (the PR 5
//! crash-injection pattern), then assert the surviving model file is
//! always a complete, servable generation.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use plssvm_data::write_atomic;
use plssvm_serve::{
    attempt_reload, BreakerConfig, Engine, EngineConfig, ManualClock, ManualTrigger, ReloadAttempt,
    ReloadBreaker, ServeModel, SystemClock,
};

/// Model A: f(x) = x1 − x2, so `1 1:1` answers `1`.
const MODEL_A: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";
/// Model B: f(x) = x2 − x1, so `1 1:1` answers `-1`.
const MODEL_B: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 2:1\n-1 1:1\n";

/// Marks a spawned process as the kill-during-swap child.
const STAGE_ENV: &str = "PLSSVM_SERVE_CRASH_STAGE";
/// Scratch directory handed to the child.
const DIR_ENV: &str = "PLSSVM_SERVE_CRASH_DIR";

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "plssvm-serve-reload-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_from(model: &str) -> Engine {
    Engine::new(
        ServeModel::from_text(model).unwrap(),
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
        Arc::new(SystemClock::new()),
    )
}

/// Swap models while four client threads hammer the engine: every
/// request gets exactly one answer, every answer comes from a complete
/// model (A's or B's — a half-loaded model would error or crash), and
/// per client the answers flip from A to B at most once (a batch formed
/// after the install can never be served by the old generation).
#[test]
fn hot_swap_mid_stream_drops_and_mixes_nothing() {
    let dir = scratch_dir("midstream");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_A.as_bytes()).unwrap();

    let engine = Arc::new(engine_from(MODEL_A));
    let done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut answers = Vec::with_capacity(100);
                for _ in 0..100 {
                    let r = engine.respond_line("1 1:1").unwrap();
                    assert!(r == "1" || r == "-1", "unexpected response: {r}");
                    answers.push(r);
                    done.fetch_add(1, Ordering::SeqCst);
                }
                assert_eq!(answers.len(), 100, "a request was dropped");
                // monotone flip: once a client sees the new model, it
                // never sees the old one again
                let first_b = answers.iter().position(|a| a == "-1");
                if let Some(i) = first_b {
                    assert!(
                        answers[i..].iter().all(|a| a == "-1"),
                        "old generation answered after the new one: {answers:?}"
                    );
                }
            });
        }
        // let the stream run, then swap mid-flight
        while done.load(Ordering::SeqCst) < 50 {
            std::thread::yield_now();
        }
        write_atomic(&path, MODEL_B.as_bytes()).unwrap();
        attempt_reload(&engine, &path).unwrap();
    });

    // after the install, the new model serves — always
    assert_eq!(engine.generation(), 2);
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("-1"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage and truncated model files are rejected by validation; the old
/// model keeps serving and a later good file still swaps in.
#[test]
fn torn_and_garbage_files_are_rejected_while_old_model_serves() {
    let dir = scratch_dir("torn");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_A.as_bytes()).unwrap();
    let engine = Arc::new(engine_from(MODEL_A));

    let (trigger, handle) = ManualTrigger::new();
    let watcher = plssvm_serve::spawn_watcher(Arc::clone(&engine), path.clone(), Box::new(trigger));

    // torn file: the first half of a valid model (header survives, the
    // SV block is cut mid-row)
    std::fs::write(&path, &MODEL_B.as_bytes()[..MODEL_B.len() / 2]).unwrap();
    handle.fire();
    // garbage file
    std::fs::write(&path, b"\x00\xff not a model \xfe").unwrap();
    handle.fire();
    drop(handle);
    watcher.join().unwrap();

    assert_eq!(
        engine.generation(),
        1,
        "rejected reloads must not bump the generation"
    );
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("1"));

    // recovery: a complete file swaps in fine afterwards
    write_atomic(&path, MODEL_B.as_bytes()).unwrap();
    attempt_reload(&engine, &path).unwrap();
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("-1"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Reload-failure storms: the circuit breaker on a ManualClock.
// ---------------------------------------------------------------------------

/// A reload-failure storm must engage the breaker at the threshold, back
/// off exponentially (emitting telemetry), keep the old generation
/// serving bit-identically throughout, and recover fully — counters
/// reset — the moment a good file lands after the window.
#[test]
fn reload_failure_storm_engages_breaker_and_recovers() {
    let dir = scratch_dir("storm");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_A.as_bytes()).unwrap();

    let clock = Arc::new(ManualClock::new());
    let engine = Engine::new(
        ServeModel::from_text(MODEL_A).unwrap(),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
        clock.clone(),
    );
    let probe = engine.respond_line("1 1:1").unwrap();
    assert_eq!(probe, "1");

    let mut breaker = ReloadBreaker::new(BreakerConfig {
        threshold: 3,
        base_backoff_us: 1_000_000,
        max_backoff_us: 4_000_000,
    });
    std::fs::write(&path, b"\x00garbage, not a model\xff").unwrap();

    // failures below the threshold: plain rejections, no backoff yet
    for expected_failures in 1..3u64 {
        assert!(matches!(
            breaker.attempt(&engine, &path),
            ReloadAttempt::Rejected(_)
        ));
        assert_eq!(breaker.consecutive_failures(), expected_failures);
        assert_eq!(
            engine.respond_line("1 1:1").unwrap(),
            probe,
            "old model must keep serving bit-identically"
        );
    }
    assert!(engine.stats().reload_backoffs.is_empty());

    // the threshold-th failure opens the breaker: 1s window at t=0
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Rejected(_)
    ));
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Suppressed {
            until_us: 1_000_000
        }
    ));
    // suppressed attempts never touch the file: even a vanished file
    // cannot produce an error inside the window
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Suppressed { .. }
    ));
    std::fs::write(&path, b"\x00garbage, not a model\xff").unwrap();

    // the window elapses: next failure doubles the backoff (2s)…
    clock.advance(1_000_000);
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Rejected(_)
    ));
    clock.advance(1_999_999);
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Suppressed {
            until_us: 3_000_000
        }
    ));
    // …and the one after caps at max_backoff (4s, not 8s)
    clock.advance(1);
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Rejected(_)
    ));
    assert_eq!(breaker.consecutive_failures(), 5);
    assert_eq!(
        engine.generation(),
        1,
        "no failed reload may bump the generation"
    );
    assert_eq!(engine.respond_line("1 1:1").unwrap(), probe);

    // a good file after the window recovers and fully resets the breaker
    clock.advance(4_000_000);
    write_atomic(&path, MODEL_B.as_bytes()).unwrap();
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Installed(2)
    ));
    assert_eq!(breaker.consecutive_failures(), 0);
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("-1"));

    // the reset is total: a fresh failure starts the count from one
    std::fs::write(&path, b"\x00garbage again\xff").unwrap();
    assert!(matches!(
        breaker.attempt(&engine, &path),
        ReloadAttempt::Rejected(_)
    ));
    assert_eq!(breaker.consecutive_failures(), 1);

    // the backoff audit trail: exactly the three windows, doubling to the cap
    let samples = engine.stats().reload_backoffs;
    let trail: Vec<(u64, u64)> = samples
        .iter()
        .map(|s| (s.consecutive_failures, s.backoff_us))
        .collect();
    assert_eq!(trail, vec![(3, 1_000_000), (4, 2_000_000), (5, 4_000_000)]);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Kill-during-swap: re-exec this binary, abort mid-rewrite.
// ---------------------------------------------------------------------------

fn run_child(stage: &str, dir: &Path) {
    let path = dir.join("model.txt");
    match stage {
        // crash while the temp file is being written: the model path must
        // be untouched (write_atomic never opens it directly)
        "temp" => {
            let tmp = dir.join(format!(".model.txt.tmp.{}.0", std::process::id()));
            std::fs::write(&tmp, &MODEL_B.as_bytes()[..MODEL_B.len() / 3]).unwrap();
            std::process::abort();
        }
        // crash right after the atomic write completed: the rename is
        // durable, the new model is fully in place
        "rename" => {
            write_atomic(&path, MODEL_B.as_bytes()).unwrap();
            std::process::abort();
        }
        other => panic!("unknown stage '{other}'"),
    }
}

/// Child dispatcher: an immediate pass in normal runs; with the marker
/// environment set it performs the staged rewrite and dies by abort.
#[test]
fn child_entry() {
    if let (Ok(stage), Ok(dir)) = (std::env::var(STAGE_ENV), std::env::var(DIR_ENV)) {
        run_child(&stage, Path::new(&dir));
        panic!("kill-during-swap child completed without crashing");
    }
}

/// The child's output is captured, not inherited: its harness prints an
/// unterminated `test child_entry ... ` line before aborting, which would
/// otherwise splice into whatever line the parent harness prints next.
fn spawn_crashing_child(stage: &str, dir: &Path) {
    let exe = std::env::current_exe().unwrap();
    let out = Command::new(exe)
        .args(["child_entry", "--exact", "--test-threads=1"])
        .env(STAGE_ENV, stage)
        .env(DIR_ENV, dir)
        .output()
        .unwrap();
    assert!(
        out.status.code().is_none(),
        "child at stage '{stage}' should die by signal (abort), got {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A writer killed mid-temp-write leaves the model path untouched: the
/// old model keeps serving, and a reload attempt re-installs the same
/// complete old model (never a torn one).
#[test]
fn killed_during_temp_write_leaves_old_model_serving() {
    let dir = scratch_dir("kill-temp");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_A.as_bytes()).unwrap();

    spawn_crashing_child("temp", &dir);

    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        MODEL_A,
        "model path must be untouched"
    );
    let engine = engine_from(MODEL_A);
    // a reload triggered by the (leftover) directory activity still
    // loads a complete model — the old one
    attempt_reload(&engine, &path).unwrap();
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("1"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer killed right after the atomic rename leaves the complete new
/// model in place: the reload installs it.
#[test]
fn killed_after_rename_serves_complete_new_model() {
    let dir = scratch_dir("kill-rename");
    let path = dir.join("model.txt");
    write_atomic(&path, MODEL_A.as_bytes()).unwrap();

    spawn_crashing_child("rename", &dir);

    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        MODEL_B,
        "rename must be complete"
    );
    let engine = engine_from(MODEL_A);
    attempt_reload(&engine, &path).unwrap();
    assert_eq!(engine.respond_line("1 1:1").as_deref(), Some("-1"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
