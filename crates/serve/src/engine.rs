//! The serving engine: wire lines in, response lines out.
//!
//! [`Engine`] owns the model slot, the micro-batcher and the serving
//! telemetry ([`ServeStats`]). Requests flow `handle_line` →
//! (micro-batch queue) → the panelized prediction path → `resolve`. The
//! batcher is work-conserving: a request reaching an idle engine is
//! predicted at once, and requests that arrive while a batch runs form
//! the next batch. A connection reader with more lines buffered defers
//! the wake and calls [`Engine::wake`] before it could block, so a
//! pipelined burst wakes the engine once.
//!
//! The model lives behind a generation-counted `Arc` swap:
//! [`Engine::install`] replaces the slot only after the new model fully
//! loaded and validated, and an in-flight batch keeps its own `Arc` clone
//! — so a hot reload never drops a request and never exposes a
//! half-loaded model.
//!
//! Requests stay *sparse* until their batch is formed, then densify
//! against whatever model generation is current at that moment. A reload
//! that changes the feature count therefore turns stale-shaped requests
//! into structured per-request errors instead of panics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use plssvm_data::dense::DenseMatrix;

use crate::batcher::{Batcher, BatcherConfig, Shed, Ticket};
use crate::clock::Clock;
use crate::model::{Prediction, ServeModel};
use crate::protocol::{
    format_response, parse_line, ParsedLine, Query, QueryFormat, ERR_DEADLINE, ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
};
use crate::stats::{ServeShedKind, ServeStats};

/// Micro-batching and admission knobs: the engine's are exactly its
/// batcher's.
pub type EngineConfig = BatcherConfig;

/// A model generation: the loaded model plus its install counter.
#[derive(Debug)]
pub struct Generation {
    /// Monotone install counter (1 = the model the engine started with).
    pub id: u64,
    /// The loaded, validated model.
    pub model: ServeModel,
}

type Job = Vec<(usize, f64)>;
type Outcome = Result<Prediction, String>;

/// A submitted request waiting for its response.
#[derive(Debug)]
pub enum Pending {
    /// The line failed to parse: answer immediately, nothing was queued.
    Immediate {
        /// Wire format the line was recognized as.
        format: QueryFormat,
        /// Request id, if one was parseable.
        id: Option<String>,
        /// The parse error.
        message: String,
    },
    /// The request is queued in the micro-batcher.
    Queued {
        /// Wire format to answer in.
        format: QueryFormat,
        /// Request id to echo.
        id: Option<String>,
        /// The response slot its batch will fill.
        ticket: Ticket<Outcome>,
        /// Submission timestamp (clock µs) for latency accounting.
        submitted_us: u64,
    },
    /// The request was shed at admission (queue watermark hit, or the
    /// server is draining): answer immediately with the structured
    /// overload error. Already counted as a shed, not a served request.
    Shed {
        /// Wire format to answer in.
        format: QueryFormat,
        /// Request id to echo.
        id: Option<String>,
        /// Why it was shed (selects the error message).
        kind: ServeShedKind,
    },
}

/// The batched inference engine.
pub struct Engine {
    batcher: Batcher<Job, Outcome>,
    slot: Arc<Mutex<Arc<Generation>>>,
    clock: Arc<dyn Clock>,
    draining: AtomicBool,
}

impl Engine {
    /// Builds an engine serving `model` with the given batching knobs.
    pub fn new(model: ServeModel, config: EngineConfig, clock: Arc<dyn Clock>) -> Self {
        let slot = Arc::new(Mutex::new(Arc::new(Generation { id: 1, model })));
        let process_slot = Arc::clone(&slot);
        let batcher = Batcher::with_config(
            config,
            Arc::clone(&clock),
            Some(Box::new(|_job: Job| Err(ERR_DEADLINE.to_string()))),
            move |jobs: Vec<Job>| {
                // snapshot the generation ONCE per batch: every request in
                // the batch is answered by the same fully-loaded model
                let generation = Arc::clone(&lock_slot(&process_slot));
                process_batch(&generation.model, jobs)
            },
        );
        Self {
            batcher,
            slot,
            clock,
            draining: AtomicBool::new(false),
        }
    }

    /// Parses one wire line. `None` means the line needs no response
    /// (blank/comment); otherwise resolve the returned [`Pending`] —
    /// in submission order — to get the response line. With
    /// `defer_wake`, the caller must call [`Engine::wake`] before it
    /// could block (see [`Batcher::try_submit`]).
    pub fn handle_line(&self, line: &str, defer_wake: bool) -> Option<Pending> {
        match parse_line(line) {
            ParsedLine::Ignored => None,
            ParsedLine::Error {
                format,
                id,
                message,
            } => Some(Pending::Immediate {
                format,
                id,
                message,
            }),
            ParsedLine::Query(q) => Some(self.submit(q, defer_wake)),
        }
    }

    /// Queues a parsed request into the micro-batcher, or sheds it when
    /// the server is draining or the queue is at its watermark. Sheds
    /// are counted here (at the decision point), exactly once.
    /// `defer_wake` as in [`Engine::handle_line`].
    pub fn submit(&self, query: Query, defer_wake: bool) -> Pending {
        let Query {
            id,
            entries,
            format,
        } = query;
        if self.draining.load(Ordering::SeqCst) {
            return self.shed(format, id, ServeShedKind::ShuttingDown);
        }
        let submitted_us = self.clock.now_us();
        match self.batcher.try_submit(entries, defer_wake) {
            Ok(ticket) => Pending::Queued {
                format,
                id,
                ticket,
                submitted_us,
            },
            Err(Shed::Overloaded { .. }) => self.shed(format, id, ServeShedKind::Overloaded),
            Err(Shed::ShuttingDown) => self.shed(format, id, ServeShedKind::ShuttingDown),
        }
    }

    fn shed(&self, format: QueryFormat, id: Option<String>, kind: ServeShedKind) -> Pending {
        self.record(|s| s.record_shed(kind));
        Pending::Shed { format, id, kind }
    }

    /// Blocks until the request's batch completes and formats its
    /// response line (no trailing newline). Records request telemetry.
    pub fn resolve(&self, pending: Pending) -> String {
        match pending {
            Pending::Immediate {
                format,
                id,
                message,
            } => {
                self.record_request(0, false);
                format_response(format, id.as_deref(), &Err(message))
            }
            Pending::Queued {
                format,
                id,
                ticket,
                submitted_us,
            } => {
                let outcome = ticket
                    .wait()
                    .unwrap_or_else(|| Err("internal error: request dropped by server".into()));
                let latency = self.clock.now_us().saturating_sub(submitted_us);
                self.record_request(latency, outcome.is_ok());
                format_response(format, id.as_deref(), &outcome)
            }
            Pending::Shed { format, id, kind } => {
                let message = match kind {
                    // connection refusals never reach here (they are
                    // handled before a request exists), but a capacity
                    // refusal is still "overloaded" if one ever did
                    ServeShedKind::Overloaded | ServeShedKind::RefusedConnection => ERR_OVERLOADED,
                    ServeShedKind::DeadlineExceeded => ERR_DEADLINE,
                    ServeShedKind::ShuttingDown => ERR_SHUTTING_DOWN,
                };
                format_response(format, id.as_deref(), &Err(message.to_string()))
            }
        }
    }

    /// Convenience: `handle_line` + `resolve` in one call (used by tests
    /// and the stdin serving mode's degenerate single-thread path).
    pub fn respond_line(&self, line: &str) -> Option<String> {
        self.handle_line(line, false).map(|p| self.resolve(p))
    }

    /// Wakes the batch worker to take whatever is queued: the reader's
    /// half of a deferred [`Engine::handle_line`].
    pub fn wake(&self) {
        self.batcher.wake();
    }

    /// Atomically installs a new model generation and returns its id.
    /// In-flight batches finish on the generation they snapshotted.
    pub fn install(&self, model: ServeModel) -> u64 {
        let mut slot = lock_slot(&self.slot);
        let id = slot.id + 1;
        *slot = Arc::new(Generation { id, model });
        id
    }

    /// The currently-installed generation id.
    pub fn generation(&self) -> u64 {
        lock_slot(&self.slot).id
    }

    /// `(kind, features, total_sv)` of the current model, for status
    /// messages.
    pub fn model_info(&self) -> (&'static str, usize, usize) {
        let g = Arc::clone(&lock_slot(&self.slot));
        (g.model.kind(), g.model.features(), g.model.total_sv())
    }

    /// The engine's clock (shared with the batcher).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// A snapshot of the serving telemetry recorded so far.
    pub fn stats(&self) -> ServeStats {
        self.batcher.stats()
    }

    /// Records one event into the engine's [`ServeStats`] (one lock).
    pub(crate) fn record(&self, f: impl FnOnce(&mut ServeStats)) {
        self.batcher.record(f);
    }

    /// Requests currently waiting in the micro-batch queue.
    pub fn queue_depth(&self) -> usize {
        self.batcher.queue_depth()
    }

    /// Flips the engine to draining: every request submitted from now
    /// on is shed with `shutting_down`, while requests already queued
    /// finish on their generation. Idempotent; the batcher keeps running
    /// until [`Engine::shutdown`] so in-flight tickets still resolve.
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Engine::set_draining`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops the batcher, draining all queued requests first.
    pub fn shutdown(&self) {
        self.batcher.shutdown();
    }

    fn record_request(&self, latency_us: u64, ok: bool) {
        self.record(|s| s.record_request(latency_us, ok));
    }
}

fn lock_slot(slot: &Mutex<Arc<Generation>>) -> std::sync::MutexGuard<'_, Arc<Generation>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Densifies the sparse jobs against `model` and predicts the valid ones
/// in one panel call; out-of-range jobs get per-request errors.
fn process_batch(model: &ServeModel, jobs: Vec<Job>) -> Vec<Outcome> {
    let features = model.features();
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(jobs.len());
    let mut valid: Vec<usize> = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        match job.iter().map(|(i, _)| *i).max() {
            Some(max) if max >= features => outcomes.push(Some(Err(format!(
                "query uses feature index {} but the model expects {features} features",
                max + 1
            )))),
            _ => {
                valid.push(j);
                outcomes.push(None);
            }
        }
    }
    if !valid.is_empty() {
        let mut x = DenseMatrix::<f64>::zeros(valid.len(), features);
        for (row, &j) in valid.iter().enumerate() {
            for &(i, v) in &jobs[j] {
                x.set(row, i, v);
            }
        }
        match model.predict_batch(&x) {
            Ok(preds) => {
                for (&j, p) in valid.iter().zip(preds) {
                    outcomes[j] = Some(Ok(p));
                }
            }
            Err(e) => {
                for &j in &valid {
                    outcomes[j] = Some(Err(e.clone()));
                }
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Err("internal error: unprocessed job".into())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;

    const BINARY: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

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
    fn serves_libsvm_and_json_lines() {
        let e = engine();
        // f(x) = x1 - x2
        assert_eq!(e.respond_line("1 1:3 2:1").as_deref(), Some("1"));
        assert_eq!(e.respond_line("1:0 2:5").as_deref(), Some("-1"));
        assert_eq!(
            e.respond_line(r#"{"id":7,"features":[3,1]}"#).as_deref(),
            Some(r#"{"id":7,"label":1,"decision":2.0}"#)
        );
        assert_eq!(e.respond_line("# comment"), None);
        assert_eq!(e.respond_line(""), None);
        e.shutdown();
    }

    #[test]
    fn malformed_and_out_of_range_requests_get_structured_errors() {
        let e = engine();
        let r = e.respond_line("garbage line ::").unwrap();
        assert!(r.starts_with(r#"{"error":"#), "{r}");
        // feature index past the model's width: caught at densify time
        let r = e.respond_line("1 5:1").unwrap();
        assert!(r.contains("expects 2 features"), "{r}");
        // the engine still serves fine afterwards
        assert_eq!(e.respond_line("1 1:1").as_deref(), Some("1"));
        e.shutdown();
    }

    #[test]
    fn install_swaps_generation_and_flips_answers() {
        let e = engine();
        assert_eq!(e.generation(), 1);
        assert_eq!(e.respond_line("1 1:3").as_deref(), Some("1"));
        // a model with swapped support vectors: f(x) = x2 - x1
        let flipped = BINARY.replace("1 1:1\n-1 2:1\n", "1 2:1\n-1 1:1\n");
        let gen = e.install(ServeModel::from_text(&flipped).unwrap());
        assert_eq!(gen, 2);
        assert_eq!(e.generation(), 2);
        assert_eq!(e.respond_line("1 1:3").as_deref(), Some("-1"));
        let (kind, features, total_sv) = e.model_info();
        assert_eq!((kind, features, total_sv), ("binary", 2, 2));
        e.shutdown();
    }

    #[test]
    fn shutdown_sheds_later_submissions_without_hanging() {
        let e = engine();
        e.shutdown();
        let r = e.respond_line("1 1:1").unwrap();
        assert_eq!(r, r#"{"error":"shutting_down"}"#);
    }

    #[test]
    fn draining_engine_sheds_new_requests_but_parse_errors_stay_parse_errors() {
        let e = engine();
        e.set_draining();
        assert!(e.is_draining());
        // new well-formed requests: structured shutting_down, id echoed
        assert_eq!(
            e.respond_line(r#"{"id":3,"features":[1,0]}"#).as_deref(),
            Some(r#"{"id":3,"error":"shutting_down"}"#)
        );
        assert_eq!(
            e.respond_line("1 1:1").as_deref(),
            Some(r#"{"error":"shutting_down"}"#)
        );
        // malformed lines still answer with their parse error
        let r = e.respond_line("garbage ::").unwrap();
        assert!(r.contains("error") && !r.contains("shutting_down"), "{r}");
        // comments still need no reply
        assert_eq!(e.respond_line("# c"), None);
        e.shutdown();
    }
}
