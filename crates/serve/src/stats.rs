//! Serving telemetry: bounded counters for batches, requests, overload
//! sheds and the hot-reload audit trail.
//!
//! The [`Engine`](crate::engine::Engine) keeps one [`ServeStats`] behind
//! one lock; the batcher, the connection layer and the reload watcher
//! record into it, and [`Engine::stats`](crate::engine::Engine::stats)
//! returns a snapshot. Timings are measured on the engine's injected
//! clock, so they are deterministic exactly when the clock is (manual
//! clocks in tests, wall time in production).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use plssvm_core::trace::{json_f64, json_str};

/// One model hot-reload attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReloadSample {
    /// The model generation serving *after* the attempt (bumped on an
    /// accepted swap, unchanged on a rejected one).
    pub generation: u64,
    /// Whether the new model file was validated and swapped in.
    pub accepted: bool,
    /// Human-readable context (model kind/features, or the load error).
    pub detail: String,
}

/// Why the server refused to do work — the overload-control events of
/// the admission/deadline/drain layer. Every shed request or refused
/// connection still receives a structured reply; these are the
/// server-side count of those replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeShedKind {
    /// A request was shed at admission: the batch queue was at its
    /// watermark, so the request was answered `overloaded` immediately
    /// instead of queuing unboundedly.
    Overloaded,
    /// An admitted request waited past its deadline and was answered
    /// `deadline_exceeded` at dequeue time without taking a batch slot.
    DeadlineExceeded,
    /// A request arrived while the server was draining and was answered
    /// `shutting_down`.
    ShuttingDown,
    /// A connection was refused at the `--max-connections` cap (answered
    /// with a one-line structured error before close).
    RefusedConnection,
}

/// One engagement of the hot-reload circuit breaker: after a run of
/// consecutive failed reloads the watcher backs off exponentially while
/// the old generation keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReloadBackoffSample {
    /// Consecutive failed reload attempts when the backoff engaged.
    pub consecutive_failures: u64,
    /// How long reload attempts are suppressed, in clock µs.
    pub backoff_us: u64,
}

/// Bounded-memory aggregation of the serving telemetry: batch-size
/// histogram, queue/latency counters and the reload audit trail. A
/// long-lived server records unbounded request streams, so per-request
/// events are folded into counters instead of stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Micro-batches flushed.
    pub batches: u64,
    /// Batch-size histogram: `size → batches of exactly that size`.
    pub batch_size_hist: BTreeMap<usize, u64>,
    /// Largest queue depth observed at a batch flush.
    pub max_queue_depth: usize,
    /// Sum over batches of the oldest request's queue wait (clock µs).
    pub queued_us_sum: u64,
    /// Sum of batched prediction times (clock µs).
    pub process_us_sum: u64,
    /// Requests answered (predictions and structured errors).
    pub requests: u64,
    /// Requests answered with a structured per-request error.
    pub request_errors: u64,
    /// Sum of request latencies (clock µs).
    pub latency_us_sum: u64,
    /// Largest single request latency (clock µs).
    pub latency_us_max: u64,
    /// Every hot-reload attempt, in order (reloads are rare events, so
    /// the full audit trail is kept).
    pub reloads: Vec<ServeReloadSample>,
    /// Requests shed at admission with an `overloaded` reply.
    pub shed_overloaded: u64,
    /// Admitted requests answered `deadline_exceeded` at dequeue time.
    pub shed_deadline: u64,
    /// Requests answered `shutting_down` while the server drained.
    pub shed_draining: u64,
    /// Connections refused at the connection cap (each got a one-line
    /// structured error before close).
    pub refused_connections: u64,
    /// Every engagement of the reload circuit breaker, in order.
    pub reload_backoffs: Vec<ServeReloadBackoffSample>,
}

impl ServeStats {
    /// Records one processed micro-batch: its size, the requests still
    /// queued after it was taken, the oldest request's queue wait and
    /// the batched prediction time (clock µs).
    pub fn record_batch(
        &mut self,
        size: usize,
        queue_depth: usize,
        queued_us: u64,
        process_us: u64,
    ) {
        self.batches += 1;
        *self.batch_size_hist.entry(size).or_default() += 1;
        self.max_queue_depth = self.max_queue_depth.max(queue_depth);
        self.queued_us_sum += queued_us;
        self.process_us_sum += process_us;
    }

    /// Records one answered request: its submit-to-response latency and
    /// whether it got a prediction (vs a structured per-request error).
    pub fn record_request(&mut self, latency_us: u64, ok: bool) {
        self.requests += 1;
        if !ok {
            self.request_errors += 1;
        }
        self.latency_us_sum += latency_us;
        self.latency_us_max = self.latency_us_max.max(latency_us);
    }

    /// Records one hot-reload attempt.
    pub fn record_reload(&mut self, sample: ServeReloadSample) {
        self.reloads.push(sample);
    }

    /// Records one overload-control event.
    pub fn record_shed(&mut self, kind: ServeShedKind) {
        match kind {
            ServeShedKind::Overloaded => self.shed_overloaded += 1,
            ServeShedKind::DeadlineExceeded => self.shed_deadline += 1,
            ServeShedKind::ShuttingDown => self.shed_draining += 1,
            ServeShedKind::RefusedConnection => self.refused_connections += 1,
        }
    }

    /// Records one engagement of the reload circuit breaker.
    pub fn record_reload_backoff(&mut self, sample: ServeReloadBackoffSample) {
        self.reload_backoffs.push(sample);
    }

    /// Whether any overload-control event (shed, deadline, drain
    /// rejection, refused connection, reload backoff) was recorded.
    pub fn overloaded(&self) -> bool {
        self.shed_overloaded > 0
            || self.shed_deadline > 0
            || self.shed_draining > 0
            || self.refused_connections > 0
            || !self.reload_backoffs.is_empty()
    }

    /// Mean batch size (0 when no batch flushed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: u64 = self
            .batch_size_hist
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        total as f64 / self.batches as f64
    }

    /// Mean request latency in clock µs (0 when no request completed).
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.latency_us_sum as f64 / self.requests as f64
    }

    /// Serializes the stats as line-oriented JSON (one object per line),
    /// the format of `svm-serve --metrics-out`. Line types and keys:
    /// * `{"type":"serve_batches","count":n,"max_queue_depth":n,`
    ///   `"queued_us_sum":n,"process_us_sum":n,"mean_batch_size":x}` —
    ///   present when a batch ran
    /// * `{"type":"serve_batch_size","size":n,"count":n}` — one line per
    ///   batch-size histogram bucket
    /// * `{"type":"serve_requests","count":n,"errors":n,`
    ///   `"latency_us_sum":n,"latency_us_max":n,"mean_latency_us":x}` —
    ///   present when a request was answered
    /// * `{"type":"serve_reload","generation":n,"accepted":true|false,`
    ///   `"detail":"..."}` — one line per hot-reload attempt
    /// * `{"type":"serve_overload","shed":n,"deadline_exceeded":n,`
    ///   `"rejected_draining":n,"refused_connections":n}` — present when
    ///   the admission/deadline/drain layer shed any work
    /// * `{"type":"serve_reload_backoff","consecutive_failures":n,`
    ///   `"backoff_us":n}` — one line per reload circuit-breaker
    ///   engagement
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        if self.batches > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_batches\",\"count\":{},\"max_queue_depth\":{},\
                 \"queued_us_sum\":{},\"process_us_sum\":{},\"mean_batch_size\":{}}}",
                self.batches,
                self.max_queue_depth,
                self.queued_us_sum,
                self.process_us_sum,
                json_f64(self.mean_batch_size())
            );
            for (size, count) in &self.batch_size_hist {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"serve_batch_size\",\"size\":{size},\"count\":{count}}}"
                );
            }
        }
        if self.requests > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_requests\",\"count\":{},\"errors\":{},\
                 \"latency_us_sum\":{},\"latency_us_max\":{},\"mean_latency_us\":{}}}",
                self.requests,
                self.request_errors,
                self.latency_us_sum,
                self.latency_us_max,
                json_f64(self.mean_latency_us())
            );
        }
        for r in &self.reloads {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_reload\",\"generation\":{},\"accepted\":{},\"detail\":{}}}",
                r.generation,
                r.accepted,
                json_str(&r.detail)
            );
        }
        if self.overloaded() {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_overload\",\"shed\":{},\"deadline_exceeded\":{},\
                 \"rejected_draining\":{},\"refused_connections\":{}}}",
                self.shed_overloaded,
                self.shed_deadline,
                self.shed_draining,
                self.refused_connections
            );
        }
        for b in &self.reload_backoffs {
            let _ = writeln!(
                out,
                "{{\"type\":\"serve_reload_backoff\",\"consecutive_failures\":{},\
                 \"backoff_us\":{}}}",
                b.consecutive_failures, b.backoff_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches_requests_reloads() -> ServeStats {
        let mut s = ServeStats::default();
        s.record_batch(3, 5, 100, 40);
        s.record_batch(3, 1, 50, 60);
        s.record_batch(1, 0, 0, 10);
        s.record_request(200, true);
        s.record_request(400, false);
        s.record_reload(ServeReloadSample {
            generation: 2,
            accepted: true,
            detail: "binary model, 8 features".into(),
        });
        s.record_reload(ServeReloadSample {
            generation: 2,
            accepted: false,
            detail: "torn file".into(),
        });
        s
    }

    fn record_overload(s: &mut ServeStats) {
        s.record_shed(ServeShedKind::Overloaded);
        s.record_shed(ServeShedKind::Overloaded);
        s.record_shed(ServeShedKind::DeadlineExceeded);
        s.record_shed(ServeShedKind::ShuttingDown);
        s.record_shed(ServeShedKind::RefusedConnection);
        s.record_reload_backoff(ServeReloadBackoffSample {
            consecutive_failures: 3,
            backoff_us: 1_000_000,
        });
    }

    #[test]
    fn serve_stats_aggregate_boundedly_and_serialize() {
        let s = batches_requests_reloads();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batch_size_hist[&3], 2);
        assert_eq!(s.batch_size_hist[&1], 1);
        assert_eq!(s.max_queue_depth, 5);
        assert_eq!(s.requests, 2);
        assert_eq!(s.request_errors, 1);
        assert_eq!(s.latency_us_max, 400);
        assert!((s.mean_batch_size() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_latency_us(), 300.0);
        let json = s.to_json_lines();
        assert!(json.contains("\"type\":\"serve_batches\",\"count\":3"));
        assert!(json.contains("{\"type\":\"serve_batch_size\",\"size\":3,\"count\":2}"));
        assert!(json.contains("\"type\":\"serve_requests\",\"count\":2,\"errors\":1"));
        assert!(json.contains("\"type\":\"serve_reload\",\"generation\":2,\"accepted\":false"));
        // stats nothing recorded into emit no lines
        let empty = ServeStats::default();
        assert!(empty.to_json_lines().is_empty());
        assert!(!s.overloaded() && !empty.overloaded());
    }

    #[test]
    fn serve_overload_counters_reach_deterministic_summary_and_json() {
        let mut s = ServeStats::default();
        record_overload(&mut s);
        assert_eq!(s.shed_overloaded, 2);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.shed_draining, 1);
        assert_eq!(s.refused_connections, 1);
        assert_eq!(s.reload_backoffs.len(), 1);
        assert!(s.overloaded());
        let json = s.to_json_lines();
        assert!(json.contains(
            "{\"type\":\"serve_overload\",\"shed\":2,\"deadline_exceeded\":1,\
             \"rejected_draining\":1,\"refused_connections\":1}"
        ));
        assert!(json.contains(
            "{\"type\":\"serve_reload_backoff\",\"consecutive_failures\":3,\
             \"backoff_us\":1000000}"
        ));
        // an overload-free run emits no overload line
        assert!(!batches_requests_reloads()
            .to_json_lines()
            .contains("serve_overload"));
    }

    #[test]
    fn json_lines_match_the_metrics_out_format_byte_for_byte() {
        let mut s = batches_requests_reloads();
        record_overload(&mut s);
        assert_eq!(
            s.to_json_lines(),
            r#"{"type":"serve_batches","count":3,"max_queue_depth":5,"queued_us_sum":150,"process_us_sum":110,"mean_batch_size":2.3333333333333335}
{"type":"serve_batch_size","size":1,"count":1}
{"type":"serve_batch_size","size":3,"count":2}
{"type":"serve_requests","count":2,"errors":1,"latency_us_sum":600,"latency_us_max":400,"mean_latency_us":300.0}
{"type":"serve_reload","generation":2,"accepted":true,"detail":"binary model, 8 features"}
{"type":"serve_reload","generation":2,"accepted":false,"detail":"torn file"}
{"type":"serve_overload","shed":2,"deadline_exceeded":1,"rejected_draining":1,"refused_connections":1}
{"type":"serve_reload_backoff","consecutive_failures":3,"backoff_us":1000000}
"#
        );
    }
}
