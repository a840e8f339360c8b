//! Crash-safe training: the bridge between the solver's in-memory
//! checkpoint hooks and the durable on-disk journal of `plssvm-data`.
//!
//! The solver side ([`crate::cg`] / [`crate::guard`]) produces periodic
//! [`CgState`] snapshots tagged with the active escalation rung; the data
//! side ([`plssvm_data::checkpoint`]) persists versioned, checksummed
//! generation files atomically. This module supplies the two adapters
//! between them:
//!
//! * [`JournalSink`] — a [`RungCheckpointSink`] that appends every
//!   snapshot to a [`CheckpointJournal`]. Persistence failures are
//!   recorded as `recovery` telemetry and never abort the solve: a full
//!   disk degrades crash-safety, not training.
//! * [`load_resume_point`] — recovers the newest *valid* generation from
//!   a journal, validates it against the current invocation's
//!   [`ContextFingerprint`] and problem dimension, and reassembles the
//!   [`ResumePoint`] the escalation ladder continues from. Damaged
//!   generations are skipped (and reported), never fatal; an empty
//!   journal simply means "start fresh".

use std::sync::Arc;

use plssvm_data::checkpoint::{fnv1a64, fnv1a64_extend, CheckpointJournal, Snapshot};
use plssvm_data::model::KernelSpec;
use plssvm_data::{CheckpointError, Real};

use crate::cg::CgState;
use crate::error::SvmError;
use crate::guard::{ResumePoint, RungCheckpointSink};
use crate::trace::{MetricsSink, RecoveryKind, RecoverySample};

/// Incrementally fingerprints everything that must match between the run
/// that wrote a checkpoint and the run trying to resume from it: the
/// training data, the kernel and its parameters, the cost, the working
/// precision and the problem shape. Two invocations with the same
/// fingerprint produce bit-identical solver trajectories, so resuming
/// across them is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextFingerprint(u64);

impl ContextFingerprint {
    /// Starts a fresh fingerprint (domain-separated from plain FNV).
    pub fn new() -> Self {
        Self(fnv1a64(b"plssvm-checkpoint-context-v1"))
    }

    /// Absorbs raw bytes.
    fn push_bytes(mut self, bytes: &[u8]) -> Self {
        self.0 = fnv1a64_extend(self.0, bytes);
        self
    }

    /// Absorbs a string (length-prefixed so field boundaries can't alias).
    pub fn push_str(self, s: &str) -> Self {
        self.push_u64(s.len() as u64).push_bytes(s.as_bytes())
    }

    /// Absorbs an integer (little-endian).
    pub fn push_u64(self, v: u64) -> Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Absorbs a float by its exact bit pattern (`-0.0` ≠ `0.0`, and any
    /// parameter change — however small — invalidates the checkpoint).
    pub fn push_f64(self, v: f64) -> Self {
        self.push_u64(v.to_bits())
    }

    /// Absorbs a kernel specification: the kernel name plus every
    /// parameter's exact bit pattern.
    pub fn push_kernel<T: Real>(self, kernel: &KernelSpec<T>) -> Self {
        let fp = self.push_str(kernel.name());
        match kernel {
            KernelSpec::Linear => fp,
            KernelSpec::Polynomial {
                degree,
                gamma,
                coef0,
            } => fp
                .push_u64(*degree as u64)
                .push_f64(gamma.to_f64())
                .push_f64(coef0.to_f64()),
            KernelSpec::Rbf { gamma } => fp.push_f64(gamma.to_f64()),
            KernelSpec::Sigmoid { gamma, coef0 } => {
                fp.push_f64(gamma.to_f64()).push_f64(coef0.to_f64())
            }
        }
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for ContextFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Streams every rung-tagged solver snapshot into a durable
/// [`CheckpointJournal`].
///
/// Append failures are first retried under an
/// [`IoRetryPolicy`](crate::resilience::IoRetryPolicy) (each retry an
/// `io_retry` telemetry event). A failure that survives the whole retry
/// budget is treated as persistent: the sink *degrades* — checkpointing
/// is disabled for the rest of the solve, one `io_degraded` event is
/// recorded, and the solve continues (it just stops being crash-safe
/// from that point on). Snapshots containing non-finite values are
/// skipped outright — the on-disk format rejects them at load time, so
/// writing one would only waste a generation.
pub struct JournalSink {
    journal: CheckpointJournal,
    context_hash: u64,
    metrics: Option<Arc<dyn MetricsSink>>,
    retry: crate::resilience::IoRetryPolicy,
    degraded: std::sync::atomic::AtomicBool,
}

impl JournalSink {
    /// Wraps `journal`, stamping every snapshot with `context_hash`.
    pub fn new(
        journal: CheckpointJournal,
        context_hash: u64,
        metrics: Option<Arc<dyn MetricsSink>>,
    ) -> Self {
        Self {
            journal,
            context_hash,
            metrics,
            retry: crate::resilience::IoRetryPolicy::default(),
            degraded: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// True once persistent append failures disabled checkpointing for
    /// the rest of the solve.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn emit_kind(&self, kind: RecoveryKind, iteration: usize, detail: String) {
        if let Some(m) = &self.metrics {
            m.record_recovery(RecoverySample::solver(kind, iteration, detail));
        }
    }

    fn emit(&self, iteration: usize, detail: String) {
        self.emit_kind(RecoveryKind::Checkpoint, iteration, detail);
    }
}

impl<T: Real> RungCheckpointSink<T> for JournalSink {
    fn persist(&self, rung: u8, state: &CgState<T>) {
        if self.is_degraded() {
            // Persistent storage failure already disabled checkpointing;
            // skip silently so a dying disk doesn't spam the telemetry.
            return;
        }
        let finite = state.solution().iter().all(|v| v.is_finite())
            && state.residual().iter().all(|v| v.is_finite())
            && state.direction().iter().all(|v| v.is_finite())
            && state.rho().is_finite()
            && state.delta().is_finite()
            && state.delta0().is_finite();
        if !finite {
            self.emit(
                state.iterations(),
                "skipped non-finite snapshot (not persistable)".to_owned(),
            );
            return;
        }
        let snapshot = Snapshot {
            rung,
            context_hash: self.context_hash,
            iterations: state.iterations() as u64,
            x: state.solution().to_vec(),
            r: state.residual().to_vec(),
            d: state.direction().to_vec(),
            rho: state.rho(),
            delta: state.delta(),
            delta0: state.delta0(),
        };
        let metrics = self.metrics.as_deref();
        let attempt =
            crate::resilience::with_io_retry(&self.retry, metrics, "checkpoint append", || {
                self.journal.append(&snapshot)
            });
        match attempt {
            Ok(generation) => self.emit(
                state.iterations(),
                format!("durable checkpoint generation {generation} (rung {rung})"),
            ),
            Err(e) => {
                // Persistent failure: degrade rather than abort — a live
                // solve is worth more than its crash insurance.
                self.degraded
                    .store(true, std::sync::atomic::Ordering::Relaxed);
                self.emit_kind(
                    RecoveryKind::IoDegraded,
                    state.iterations(),
                    format!(
                        "checkpointing disabled after {} failed attempt(s) ({}): {e}",
                        self.retry.max_attempts.max(1),
                        e.kind()
                    ),
                );
            }
        }
    }
}

/// Recovers the resume point from a journal, or `None` if the journal is
/// empty (a kill before the first checkpoint resumes as a fresh start).
///
/// Damaged generations (torn writes, bit flips, foreign files) are
/// skipped with a recorded `recovery` event each — the newest generation
/// that verifies wins. The surviving snapshot must then match the current
/// invocation: a [`CheckpointError::ContextMismatch`] or
/// [`CheckpointError::DimensionMismatch`] means the journal belongs to a
/// *different* training run and resuming would silently corrupt the
/// model, so that is a hard error rather than a fallback.
pub fn load_resume_point<T: Real>(
    journal: &CheckpointJournal,
    context_hash: u64,
    dim: usize,
    metrics: Option<&dyn MetricsSink>,
) -> Result<Option<ResumePoint<T>>, SvmError> {
    let (loaded, skipped) = journal.load_latest::<T>()?;
    if let Some(m) = metrics {
        for s in &skipped {
            m.record_recovery(RecoverySample::solver(
                RecoveryKind::Checkpoint,
                0,
                format!(
                    "skipped damaged checkpoint generation {} ({})",
                    s.generation,
                    s.reason.kind()
                ),
            ));
        }
    }
    let Some(loaded) = loaded else {
        if skipped.is_empty() {
            return Ok(None);
        }
        return Err(SvmError::Solver(format!(
            "checkpoint journal at '{}' holds {} generation(s) but none are loadable; \
             remove the directory to restart from scratch",
            journal.dir().display(),
            skipped.len()
        )));
    };
    let snapshot = loaded.snapshot;
    if snapshot.context_hash != context_hash {
        return Err(SvmError::Checkpoint(CheckpointError::ContextMismatch {
            stored: snapshot.context_hash,
            expected: context_hash,
        }));
    }
    if snapshot.x.len() != dim {
        return Err(SvmError::Checkpoint(CheckpointError::DimensionMismatch {
            stored: snapshot.x.len() as u64,
            expected: dim as u64,
        }));
    }
    if let Some(m) = metrics {
        m.record_recovery(RecoverySample::solver(
            RecoveryKind::Checkpoint,
            snapshot.iterations as usize,
            format!(
                "resuming from checkpoint generation {} (rung {})",
                loaded.generation, snapshot.rung
            ),
        ));
    }
    let rung = snapshot.rung;
    let state = CgState::from_raw_parts(
        snapshot.x,
        snapshot.r,
        snapshot.d,
        snapshot.rho,
        snapshot.delta,
        snapshot.delta0,
        snapshot.iterations as usize,
    );
    Ok(Some(ResumePoint { rung, state }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Telemetry;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plssvm_core_ckpt_{}_{}", tag, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn state(n: usize, seed: f64) -> CgState<f64> {
        CgState::from_raw_parts(
            (0..n).map(|i| seed + i as f64).collect(),
            (0..n).map(|i| 0.1 * (seed + i as f64)).collect(),
            (0..n).map(|i| 0.2 * (seed + i as f64)).collect(),
            1.5,
            2.5,
            3.5,
            7,
        )
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let a = ContextFingerprint::new().push_str("ab").push_str("c");
        let b = ContextFingerprint::new().push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix must break aliasing");
        let c = ContextFingerprint::new().push_f64(0.0);
        let d = ContextFingerprint::new().push_f64(-0.0);
        assert_ne!(c.finish(), d.finish(), "bit-pattern hashing: -0.0 ≠ 0.0");
        assert_eq!(
            ContextFingerprint::new().push_u64(9).finish(),
            ContextFingerprint::new().push_u64(9).finish()
        );
    }

    #[test]
    fn sink_roundtrips_through_load_resume_point() {
        let dir = tempdir("roundtrip");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let ctx = ContextFingerprint::new().push_str("test").finish();
        let t = Telemetry::shared();
        let sink = JournalSink::new(journal.clone(), ctx, Some(t.clone()));
        let original = state(5, 1.0);
        RungCheckpointSink::persist(&sink, 2, &original);

        let resumed = load_resume_point::<f64>(&journal, ctx, 5, Some(&*t))
            .unwrap()
            .expect("snapshot present");
        assert_eq!(resumed.rung, 2);
        assert_eq!(resumed.state, original);
        // both the append and the resume left an audit trail
        let report = t.report();
        assert!(report
            .recovery
            .iter()
            .any(|s| s.detail.contains("durable checkpoint generation 1")));
        assert!(report
            .recovery
            .iter()
            .any(|s| s.detail.contains("resuming from checkpoint generation 1")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_journal_resumes_as_fresh_start() {
        let dir = tempdir("empty");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let got = load_resume_point::<f64>(&journal, 1, 5, None).unwrap();
        assert!(got.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn context_and_dimension_mismatches_are_hard_errors() {
        let dir = tempdir("mismatch");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let sink = JournalSink::new(journal.clone(), 42, None);
        RungCheckpointSink::persist(&sink, 0, &state(5, 1.0));

        match load_resume_point::<f64>(&journal, 43, 5, None) {
            Err(SvmError::Checkpoint(CheckpointError::ContextMismatch { stored, expected })) => {
                assert_eq!((stored, expected), (42, 43));
            }
            other => panic!("expected context mismatch, got {other:?}"),
        }
        match load_resume_point::<f64>(&journal, 42, 6, None) {
            Err(SvmError::Checkpoint(CheckpointError::DimensionMismatch { stored, expected })) => {
                assert_eq!((stored, expected), (5, 6));
            }
            other => panic!("expected dimension mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_snapshot_is_skipped_not_written() {
        let dir = tempdir("nonfinite");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let t = Telemetry::shared();
        let sink = JournalSink::new(journal.clone(), 1, Some(t.clone()));
        let mut bad = state(4, 1.0);
        bad = CgState::from_raw_parts(
            bad.solution().to_vec(),
            bad.residual().to_vec(),
            bad.direction().to_vec(),
            f64::NAN,
            bad.delta(),
            bad.delta0(),
            bad.iterations(),
        );
        RungCheckpointSink::persist(&sink, 0, &bad);
        assert!(journal.is_empty().unwrap());
        assert!(t
            .report()
            .recovery
            .iter()
            .any(|s| s.detail.contains("non-finite")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_damaged_is_a_structured_error() {
        let dir = tempdir("alldamaged");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let sink = JournalSink::new(journal.clone(), 7, None);
        RungCheckpointSink::persist(&sink, 0, &state(4, 1.0));
        // corrupt the only generation
        let file = journal.generations().unwrap()[0];
        let path = dir.join(format!("gen-{file:08}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, bytes).unwrap();

        match load_resume_point::<f64>(&journal, 7, 4, None) {
            Err(SvmError::Solver(msg)) => assert!(msg.contains("none are loadable")),
            other => panic!("expected structured error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
