//! Hot model reload.
//!
//! The watcher rides the repo's atomic model writes (`write_atomic`:
//! temp file + fsync + rename): the model path always holds either the
//! old complete model or the new complete one, never a torn file. The
//! reload sequence is **load off the serving thread → validate → swap
//! the generation `Arc`**, so requests keep being answered by the old
//! model until the new one is fully ready, and a reload that fails to
//! parse or validate is *rejected* (recorded in the telemetry audit
//! trail) while the old model keeps serving.
//!
//! Change detection is abstracted behind [`ReloadTrigger`] so tests
//! drive reloads deterministically ([`ManualTrigger`]) while production
//! polls the file signature ([`PollTrigger`]).
//!
//! A *reload failure storm* — a deploy loop repeatedly writing garbage,
//! or a file that flaps — is contained by [`ReloadBreaker`]: after
//! `threshold` consecutive rejections the breaker suppresses further
//! load attempts for an exponentially growing backoff window (emitting
//! `serve_reload_backoff` telemetry), so the server is not stuck
//! re-parsing a broken multi-megabyte model file at every poll tick
//! while the old generation keeps serving. One successful reload fully
//! resets the breaker.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use crate::engine::Engine;
use crate::model::ServeModel;
use crate::stats::{ServeReloadBackoffSample, ServeReloadSample};

/// Blocks until the watched model may have changed.
pub trait ReloadTrigger: Send {
    /// Returns `true` when a reload should be attempted, `false` to stop
    /// watching.
    fn wait(&mut self) -> bool;
}

/// `(mtime, len)` — cheap change signature of the model file.
type Signature = Option<(SystemTime, u64)>;

fn signature(path: &Path) -> Signature {
    std::fs::metadata(path)
        .ok()
        .and_then(|m| m.modified().ok().map(|t| (t, m.len())))
}

/// Production trigger: polls the model file's `(mtime, len)` signature.
pub struct PollTrigger {
    path: PathBuf,
    interval: Duration,
    last: Signature,
}

impl PollTrigger {
    /// Watches `path`, checking every `interval`. The signature at
    /// construction time counts as "already seen" (the server just
    /// loaded that model).
    pub fn new(path: impl Into<PathBuf>, interval: Duration) -> Self {
        let path = path.into();
        let last = signature(&path);
        Self {
            path,
            interval,
            last,
        }
    }
}

impl ReloadTrigger for PollTrigger {
    fn wait(&mut self) -> bool {
        loop {
            std::thread::sleep(self.interval);
            let sig = signature(&self.path);
            if sig != self.last {
                self.last = sig;
                // a vanished file still triggers: attempt_reload records
                // the rejection in the audit trail
                return true;
            }
        }
    }
}

/// Test trigger: fires exactly when the test says so; dropping the
/// handle stops the watcher.
pub struct ManualTrigger {
    rx: mpsc::Receiver<()>,
}

/// Fires the paired [`ManualTrigger`].
pub struct ManualTriggerHandle {
    tx: mpsc::Sender<()>,
}

impl ManualTrigger {
    /// A trigger plus the handle that fires it.
    pub fn new() -> (Self, ManualTriggerHandle) {
        let (tx, rx) = mpsc::channel();
        (Self { rx }, ManualTriggerHandle { tx })
    }
}

impl ManualTriggerHandle {
    /// Makes the watcher attempt one reload.
    pub fn fire(&self) {
        let _ = self.tx.send(());
    }
}

impl ReloadTrigger for ManualTrigger {
    fn wait(&mut self) -> bool {
        self.rx.recv().is_ok()
    }
}

/// Attempts one reload: load + validate the model file, then atomically
/// install it. On any failure the old model keeps serving and the
/// rejection is recorded. Returns the new generation id on success.
pub fn attempt_reload(engine: &Engine, path: &Path) -> Result<u64, String> {
    attempt_reload_with(engine, &plssvm_data::RealVfs, path)
}

/// [`attempt_reload`] through an explicit [`Vfs`](plssvm_data::vfs::Vfs):
/// fault harnesses inject short reads / bit rot at the loader and the
/// damage is rejected like any other invalid model, never installed.
pub fn attempt_reload_with(
    engine: &Engine,
    vfs: &dyn plssvm_data::vfs::Vfs,
    path: &Path,
) -> Result<u64, String> {
    match ServeModel::load_with(vfs, path) {
        Ok(model) => {
            let detail = format!(
                "installed {} model, {} features, {} SVs",
                model.kind(),
                model.features(),
                model.total_sv()
            );
            let generation = engine.install(model);
            record(engine, generation, true, detail);
            Ok(generation)
        }
        Err(e) => {
            record(engine, engine.generation(), false, e.clone());
            Err(e)
        }
    }
}

fn record(engine: &Engine, generation: u64, accepted: bool, detail: String) {
    engine.record(|s| {
        s.record_reload(ServeReloadSample {
            generation,
            accepted,
            detail,
        })
    });
}

/// Circuit-breaker knobs for reload failure storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures at which the breaker engages.
    pub threshold: u64,
    /// Backoff window after the `threshold`-th consecutive failure
    /// (clock µs); doubles with each further failure.
    pub base_backoff_us: u64,
    /// Upper bound on the backoff window (clock µs).
    pub max_backoff_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            base_backoff_us: 1_000_000,
            max_backoff_us: 60_000_000,
        }
    }
}

/// What one [`ReloadBreaker::attempt`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadAttempt {
    /// The new model installed; contains the new generation id.
    Installed(u64),
    /// The file failed to load/validate; the old generation serves.
    Rejected(String),
    /// The breaker is open: no load was attempted. Contains the clock
    /// instant (µs) at which attempts resume.
    Suppressed {
        /// Clock µs until which further attempts are suppressed.
        until_us: u64,
    },
}

/// Reload circuit breaker: wraps [`attempt_reload`] with
/// consecutive-failure counting and exponential backoff against the
/// engine's [`Clock`](crate::clock::Clock) — deterministic on a
/// [`ManualClock`](crate::clock::ManualClock).
#[derive(Debug)]
pub struct ReloadBreaker {
    config: BreakerConfig,
    consecutive_failures: u64,
    blocked_until_us: u64,
}

impl ReloadBreaker {
    /// A closed (pass-through) breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            consecutive_failures: 0,
            blocked_until_us: 0,
        }
    }

    /// Consecutive failed reloads since the last success.
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive_failures
    }

    /// One trigger firing: attempts a reload unless the breaker is in a
    /// backoff window. Failures past the threshold open the breaker
    /// exponentially and emit [`ServeReloadBackoffSample`] telemetry;
    /// one success closes it fully.
    pub fn attempt(&mut self, engine: &Engine, path: &Path) -> ReloadAttempt {
        self.attempt_with(engine, &plssvm_data::RealVfs, path)
    }

    /// [`ReloadBreaker::attempt`] through an explicit
    /// [`Vfs`](plssvm_data::vfs::Vfs), so a scheduled fault plan drives
    /// the breaker's open/backoff/reset states deterministically.
    pub fn attempt_with(
        &mut self,
        engine: &Engine,
        vfs: &dyn plssvm_data::vfs::Vfs,
        path: &Path,
    ) -> ReloadAttempt {
        let now = engine.clock().now_us();
        if now < self.blocked_until_us {
            return ReloadAttempt::Suppressed {
                until_us: self.blocked_until_us,
            };
        }
        match attempt_reload_with(engine, vfs, path) {
            Ok(generation) => {
                self.consecutive_failures = 0;
                self.blocked_until_us = 0;
                ReloadAttempt::Installed(generation)
            }
            Err(e) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.threshold {
                    let doublings = (self.consecutive_failures - self.config.threshold).min(63);
                    let backoff_us = self
                        .config
                        .base_backoff_us
                        .saturating_mul(1u64 << doublings)
                        .min(self.config.max_backoff_us);
                    self.blocked_until_us = now.saturating_add(backoff_us);
                    engine.record(|s| {
                        s.record_reload_backoff(ServeReloadBackoffSample {
                            consecutive_failures: self.consecutive_failures,
                            backoff_us,
                        })
                    });
                }
                ReloadAttempt::Rejected(e)
            }
        }
    }
}

/// Spawns the watcher thread: every trigger firing attempts one reload,
/// gated by a [`ReloadBreaker`] with the given config. The thread exits
/// when the trigger reports `false` (handle dropped).
pub fn spawn_watcher_with_breaker(
    engine: Arc<Engine>,
    path: PathBuf,
    mut trigger: Box<dyn ReloadTrigger>,
    config: BreakerConfig,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("plssvm-reload".into())
        .spawn(move || {
            let mut breaker = ReloadBreaker::new(config);
            while trigger.wait() {
                // rejection already recorded; the old model keeps serving
                let _ = breaker.attempt(&engine, &path);
            }
        })
        .expect("spawn reload watcher")
}

/// [`spawn_watcher_with_breaker`] with the default breaker config.
pub fn spawn_watcher(
    engine: Arc<Engine>,
    path: PathBuf,
    trigger: Box<dyn ReloadTrigger>,
) -> std::thread::JoinHandle<()> {
    spawn_watcher_with_breaker(engine, path, trigger, BreakerConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::engine::EngineConfig;

    const BINARY: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plssvm_serve_reload_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine() -> Engine {
        Engine::new(
            ServeModel::from_text(BINARY).unwrap(),
            EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
            Arc::new(SystemClock::new()),
        )
    }

    #[test]
    fn attempt_reload_accepts_valid_and_rejects_garbage() {
        let dir = tmpdir("attempt");
        let path = dir.join("model.txt");
        let e = engine();

        std::fs::write(&path, BINARY.replace("1 1:1\n-1 2:1\n", "1 2:1\n-1 1:1\n")).unwrap();
        assert_eq!(attempt_reload(&e, &path), Ok(2));
        assert_eq!(e.respond_line("1 1:3").as_deref(), Some("-1"));

        // garbage file: rejected, generation unchanged, old model serves
        std::fs::write(&path, "definitely not a model\n").unwrap();
        assert!(attempt_reload(&e, &path).is_err());
        assert_eq!(e.generation(), 2);
        assert_eq!(e.respond_line("1 1:3").as_deref(), Some("-1"));

        // missing file: also a structured rejection
        std::fs::remove_file(&path).unwrap();
        assert!(attempt_reload(&e, &path).is_err());
        assert_eq!(e.generation(), 2);

        e.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_trigger_drives_watcher_and_stops_on_drop() {
        let dir = tmpdir("watcher");
        let path = dir.join("model.txt");
        std::fs::write(&path, BINARY.replace("1 1:1\n-1 2:1\n", "1 2:1\n-1 1:1\n")).unwrap();

        let e = Arc::new(engine());
        let (trigger, handle) = ManualTrigger::new();
        let watcher = spawn_watcher(Arc::clone(&e), path.clone(), Box::new(trigger));

        handle.fire();
        // the trigger is async; wait for the generation to move
        while e.generation() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(e.respond_line("1 1:3").as_deref(), Some("-1"));

        drop(handle);
        watcher.join().unwrap();
        e.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poll_trigger_sees_signature_changes() {
        let dir = tmpdir("poll");
        let path = dir.join("model.txt");
        std::fs::write(&path, BINARY).unwrap();
        let mut trigger = PollTrigger::new(&path, Duration::from_millis(1));
        // grow the file so the length component flips even when the
        // filesystem's mtime granularity is coarse
        std::fs::write(&path, format!("{BINARY}\n")).unwrap();
        assert!(trigger.wait());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
