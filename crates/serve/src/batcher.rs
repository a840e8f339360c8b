//! The bounded, work-conserving micro-batching queue: its single worker
//! takes whatever is queued, up to `max_batch`, the moment it is free.
//! Requests that arrive while a batch runs form the next batch, so batch
//! size follows load without a flush timer.
//!
//! The design is testable-first, split in two layers:
//!
//! * [`BatchQueue`] — a *pure* state machine. `push` and `take` take the
//!   current time as an explicit argument and never block, so every
//!   batch-size and deadline interleaving is pinned by a plain unit test
//!   with hand-picked timestamps.
//! * [`Batcher`] — the threaded wrapper: one worker thread drives the
//!   queue against an injected [`Clock`], submitters get a [`Ticket`]
//!   (one-shot slot) their response is routed back through. The worker
//!   waits on the clock only while the queue is empty.
//!
//! Ordering guarantee: batches preserve FIFO submission order, both
//! within a batch (queue order) and across batches (an earlier request is
//! never flushed later than a later one).
//!
//! Wakes: a submitter in the middle of a burst (a connection reader with
//! another line already buffered) passes `defer_wake` and wakes the
//! worker itself via [`Batcher::wake`] before it could block, so a
//! pipelined burst costs one wake, not one per line. The push that
//! brings the queue to `min(max_batch, queue_watermark)` wakes the worker
//! regardless, so a full batch never waits and a burst is never shed as
//! `overloaded` while the worker sleeps.
//!
//! Overload policy (both knobs default off in [`Batcher::new`], on via
//! [`BatcherConfig`]):
//!
//! * **Watermark shed** — [`Batcher::try_submit`] refuses once the queue
//!   holds `queue_watermark` requests, so the backlog (and therefore
//!   worst-case queueing latency) is bounded instead of growing without
//!   limit under sustained overload.
//! * **Dequeue-time deadlines** — a request that already waited longer
//!   than `deadline_us` when its batch is taken is split into
//!   [`Flush::expired`] and answered through the `expire` hook without
//!   ever occupying a batch slot, so overload never wastes compute on
//!   answers nobody is waiting for. A request can only wait while a batch
//!   runs or its reader is still parsing a burst, so the next take always
//!   sees it: no expiry timer is needed.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::clock::Clock;
use crate::stats::{ServeShedKind, ServeStats};

/// Batching and admission knobs for a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Largest batch one take hands the processor (clamped to ≥ 1).
    pub max_batch: usize,
    /// Shed new submissions once the queue already holds this many
    /// requests; `0` disables the watermark (unbounded queue).
    pub queue_watermark: usize,
    /// Per-request queueing deadline in clock µs, enforced at dequeue
    /// time: a request that waited *strictly longer* than this is
    /// expired instead of batched. `0` disables deadlines.
    pub deadline_us: u64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_watermark: 1_024,
            deadline_us: 0,
        }
    }
}

/// Why [`Batcher::try_submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The queue is at or above its watermark; `depth` is the observed
    /// backlog at refusal time.
    Overloaded {
        /// Queue depth observed when the request was shed.
        depth: usize,
    },
    /// The batcher is shutting down (draining); no new work is admitted.
    ShuttingDown,
}

/// One taken batch plus its queue bookkeeping.
#[derive(Debug, PartialEq, Eq)]
pub struct Flush<R> {
    /// The coalesced requests, in FIFO submission order. Empty when
    /// every queued request had expired.
    pub items: Vec<R>,
    /// Requests that waited past their deadline, in FIFO order; they are
    /// answered `deadline_exceeded` and never occupy a batch slot.
    pub expired: Vec<R>,
    /// How long the oldest request in the batch queued, in clock µs.
    pub oldest_wait_us: u64,
    /// Requests still queued after this batch was taken.
    pub remaining: usize,
}

/// The pure micro-batching state machine (no threads, no clock — time is
/// an argument).
#[derive(Debug)]
pub struct BatchQueue<R> {
    items: VecDeque<(R, u64)>,
    max_batch: usize,
    deadline_us: u64,
}

impl<R> BatchQueue<R> {
    /// A queue handing out at most `max_batch` requests per take (clamped
    /// to ≥ 1); a request that queued strictly longer than `deadline_us`
    /// is expired at dequeue time (`0` disables deadlines).
    pub fn new(max_batch: usize, deadline_us: u64) -> Self {
        Self {
            items: VecDeque::new(),
            max_batch: max_batch.max(1),
            deadline_us,
        }
    }

    /// Enqueues a request observed at `now_us`.
    pub fn push(&mut self, item: R, now_us: u64) {
        self.items.push_back((item, now_us));
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Takes the next batch at `now_us`: the prefix of requests strictly
    /// past their deadline expires, and up to `max_batch` of the rest
    /// form the batch. `None` when nothing is queued.
    pub fn take(&mut self, now_us: u64) -> Option<Flush<R>> {
        if self.items.is_empty() {
            return None;
        }
        // enqueue timestamps are non-decreasing (one monotonic clock), so
        // everything expired sits in a prefix of the FIFO
        let mut expired = Vec::new();
        if self.deadline_us > 0 {
            while let Some((_, enq)) = self.items.front() {
                if now_us.saturating_sub(*enq) > self.deadline_us {
                    expired.push(self.items.pop_front().expect("front exists").0);
                } else {
                    break;
                }
            }
        }
        let oldest_wait_us = self
            .items
            .front()
            .map_or(0, |(_, enq)| now_us.saturating_sub(*enq));
        let n = self.items.len().min(self.max_batch);
        let items = self.items.drain(..n).map(|(item, _)| item).collect();
        Some(Flush {
            items,
            expired,
            oldest_wait_us,
            remaining: self.items.len(),
        })
    }
}

#[derive(Debug)]
enum TicketSlot<S> {
    Pending,
    Done(S),
    /// The batcher dropped the request without an answer (processor
    /// panic, or shutdown before submission) — the submitter sees `None`.
    Closed,
}

#[derive(Debug)]
struct TicketState<S> {
    slot: Mutex<TicketSlot<S>>,
    cv: Condvar,
}

/// A one-shot response slot: the submitter blocks on [`Ticket::wait`],
/// the batcher worker fills it when the request's batch completes.
#[derive(Debug)]
pub struct Ticket<S> {
    state: Arc<TicketState<S>>,
}

impl<S> Clone for Ticket<S> {
    fn clone(&self) -> Self {
        Self {
            state: Arc::clone(&self.state),
        }
    }
}

impl<S> Default for Ticket<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Ticket<S> {
    /// A fresh, unfilled ticket.
    pub fn new() -> Self {
        Self {
            state: Arc::new(TicketState {
                slot: Mutex::new(TicketSlot::Pending),
                cv: Condvar::new(),
            }),
        }
    }

    /// A ticket that is already closed (used when submitting after
    /// shutdown).
    pub fn closed() -> Self {
        let t = Self::new();
        t.close();
        t
    }

    /// Blocks until the response arrives; `None` means the request was
    /// dropped without an answer (processor panic or shutdown race) —
    /// callers turn that into a structured internal error, never a hang.
    pub fn wait(&self) -> Option<S> {
        let mut slot = lock(&self.state.slot);
        loop {
            match std::mem::replace(&mut *slot, TicketSlot::Pending) {
                TicketSlot::Done(v) => return Some(v),
                TicketSlot::Closed => {
                    *slot = TicketSlot::Closed;
                    return None;
                }
                TicketSlot::Pending => {
                    slot = self.state.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Non-blocking probe: `true` while neither filled nor closed (lets
    /// deterministic tests assert "no flush has happened yet").
    pub fn is_pending(&self) -> bool {
        matches!(*lock(&self.state.slot), TicketSlot::Pending)
    }

    fn fill(&self, v: S) {
        let mut slot = lock(&self.state.slot);
        *slot = TicketSlot::Done(v);
        self.state.cv.notify_all();
    }

    fn close(&self) {
        let mut slot = lock(&self.state.slot);
        if matches!(*slot, TicketSlot::Pending) {
            *slot = TicketSlot::Closed;
        }
        self.state.cv.notify_all();
    }
}

type Process<R, S> = dyn Fn(Vec<R>) -> Vec<S> + Send + Sync;
type Expire<R, S> = dyn Fn(R) -> S + Send + Sync;

struct BatcherShared<R, S> {
    queue: Mutex<BatchQueue<(R, Ticket<S>)>>,
    watermark: usize,
    /// Queue length at which even a deferred push wakes the worker:
    /// `min(max_batch, queue_watermark)` (watermark 0 = no limit).
    wake_at: usize,
    clock: Arc<dyn Clock>,
    process: Box<Process<R, S>>,
    /// Maps an expired request to its `deadline_exceeded` response;
    /// absent (deadline off), expired tickets would be closed instead.
    expire: Option<Box<Expire<R, S>>>,
    /// What the worker, and through [`Batcher::record`] its owner,
    /// recorded; one lock per event.
    stats: Mutex<ServeStats>,
    shutdown: AtomicBool,
}

/// The threaded micro-batcher: submit requests from any thread, a single
/// worker coalesces them through a [`BatchQueue`] and routes each
/// response back through the submitter's [`Ticket`].
pub struct Batcher<R, S> {
    shared: Arc<BatcherShared<R, S>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl<R: Send + 'static, S: Send + 'static> Batcher<R, S> {
    /// Spawns the worker. `process` maps a batch of requests to exactly
    /// one response per request, in order; if it panics or returns the
    /// wrong arity, the affected tickets are *closed* (submitters see
    /// `None`) instead of hanging.
    pub fn new(
        max_batch: usize,
        clock: Arc<dyn Clock>,
        process: impl Fn(Vec<R>) -> Vec<S> + Send + Sync + 'static,
    ) -> Self {
        let config = BatcherConfig {
            max_batch,
            queue_watermark: 0,
            deadline_us: 0,
        };
        Self::with_config(config, clock, None, process)
    }

    /// Like [`Batcher::new`], but with the full admission policy: a
    /// queue watermark for [`Batcher::try_submit`] and a per-request
    /// deadline. `expire` maps a request that waited past its deadline
    /// to the response its submitter receives (e.g. a structured
    /// `deadline_exceeded` error); pass `None` only with deadlines off.
    pub fn with_config(
        config: BatcherConfig,
        clock: Arc<dyn Clock>,
        expire: Option<Box<Expire<R, S>>>,
        process: impl Fn(Vec<R>) -> Vec<S> + Send + Sync + 'static,
    ) -> Self {
        let max_batch = config.max_batch.max(1);
        let wake_at = match config.queue_watermark {
            0 => max_batch,
            watermark => max_batch.min(watermark),
        };
        let shared = Arc::new(BatcherShared {
            queue: Mutex::new(BatchQueue::new(max_batch, config.deadline_us)),
            watermark: config.queue_watermark,
            wake_at,
            clock,
            process: Box::new(process),
            expire,
            stats: Mutex::default(),
            shutdown: AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("plssvm-batcher".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batcher worker");
        Self {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Enqueues a request and wakes the worker; the returned ticket
    /// resolves when its batch is processed. A request
    /// [`Batcher::try_submit`] would shed gets an already-closed ticket.
    pub fn submit(&self, req: R) -> Ticket<S> {
        self.try_submit(req, false)
            .unwrap_or_else(|_| Ticket::closed())
    }

    /// Admission-controlled submit: refuses instead of queueing when the
    /// batcher is draining ([`Shed::ShuttingDown`]) or the queue is at
    /// its watermark ([`Shed::Overloaded`]). The refusal is immediate —
    /// a shed request never holds a queue slot or a batch slot, which is
    /// what keeps admitted-request latency bounded under overload.
    ///
    /// `defer_wake` is the caller's promise that it will call
    /// [`Batcher::wake`] before it could block (e.g. a reader with more
    /// request lines buffered). The worker is then woken only if this
    /// push brings the queue to `min(max_batch, queue_watermark)`.
    pub fn try_submit(&self, req: R, defer_wake: bool) -> Result<Ticket<S>, Shed> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(Shed::ShuttingDown);
        }
        let ticket = Ticket::new();
        let depth = {
            let mut queue = lock(&self.shared.queue);
            let depth = queue.len();
            if self.shared.watermark > 0 && depth >= self.shared.watermark {
                return Err(Shed::Overloaded { depth });
            }
            queue.push((req, ticket.clone()), self.shared.clock.now_us());
            depth + 1
        };
        if !defer_wake || depth >= self.shared.wake_at {
            self.wake();
        }
        Ok(ticket)
    }
}

impl<R, S> Batcher<R, S> {
    /// Wakes the worker so it takes whatever is queued (the other half of
    /// a deferred [`Batcher::try_submit`]).
    pub fn wake(&self) {
        self.shared.clock.wake();
    }

    /// Requests currently queued (not yet taken into a batch).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Stops accepting new requests, drains everything already queued
    /// (no request is dropped), and joins the worker. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.clock.wake();
        let handle = lock(&self.worker).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Records into the batcher's [`ServeStats`] under its one lock.
    pub(crate) fn record(&self, f: impl FnOnce(&mut ServeStats)) {
        record(&self.shared.stats, f);
    }

    /// A snapshot of the recorded [`ServeStats`].
    pub(crate) fn stats(&self) -> ServeStats {
        lock(&self.shared.stats).clone()
    }
}

impl<R, S> Drop for Batcher<R, S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<R, S>(shared: &BatcherShared<R, S>) {
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // sample the wake counter BEFORE taking: a submit landing after
        // the take bumps it, so the wait below returns immediately
        let seen = shared.clock.wake_count();
        let now = shared.clock.now_us();
        let flush = lock(&shared.queue).take(now);
        match flush {
            Some(flush) => run_batch(shared, flush),
            // the shutdown drain is the ordinary take: stop once empty
            None if shutting_down => return,
            None => shared.clock.wait(seen),
        }
    }
}

fn run_batch<R, S>(shared: &BatcherShared<R, S>, flush: Flush<(R, Ticket<S>)>) {
    let Flush {
        items,
        expired,
        oldest_wait_us,
        remaining,
    } = flush;
    for (req, ticket) in expired {
        match &shared.expire {
            Some(expire) => ticket.fill(expire(req)),
            // deadline configured but no expiry mapper: close (→
            // structured internal error) rather than hang the submitter
            None => ticket.close(),
        }
        record(&shared.stats, |s| {
            s.record_shed(ServeShedKind::DeadlineExceeded)
        });
    }
    if items.is_empty() {
        // every queued request had expired — no batch ran, so no batch
        // sample: batch metrics only ever describe real processor calls
        return;
    }
    let batch_size = items.len();
    let (requests, tickets): (Vec<R>, Vec<Ticket<S>>) = items.into_iter().unzip();
    let started = shared.clock.now_us();
    let result = catch_unwind(AssertUnwindSafe(|| (shared.process)(requests)));
    let process_us = shared.clock.now_us().saturating_sub(started);
    match result {
        Ok(responses) => {
            let mut responses = responses.into_iter();
            for ticket in &tickets {
                match responses.next() {
                    Some(r) => ticket.fill(r),
                    // arity bug in the processor: close instead of hanging
                    None => ticket.close(),
                }
            }
        }
        Err(_) => {
            // the processor panicked: every submitter gets a closed
            // ticket (→ structured internal error), the worker survives
            for ticket in &tickets {
                ticket.close();
            }
        }
    }
    record(&shared.stats, |s| {
        s.record_batch(batch_size, remaining, oldest_wait_us, process_us)
    });
}

fn record(stats: &Mutex<ServeStats>, f: impl FnOnce(&mut ServeStats)) {
    f(&mut lock(stats));
}

/// Locks `m`, recovering the data of a poisoned lock: a panicking
/// processor must not wedge the queue, the tickets or the stats.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_flushes_on_max_batch_regardless_of_time() {
        let mut q = BatchQueue::new(3, 0);
        for item in ["a", "b", "c", "d"] {
            q.push(item, 0);
        }
        let f = q.take(0).unwrap();
        assert_eq!(f.items, vec!["a", "b", "c"]);
        assert_eq!(f.remaining, 1);
        assert_eq!(f.oldest_wait_us, 0);
        let f = q.take(0).unwrap();
        assert_eq!(f.items, vec!["d"]);
        assert_eq!(f.remaining, 0);
        assert_eq!(q.take(0), None);
    }

    #[test]
    fn queue_flushes_on_deadline_exactly() {
        // a request that waited EXACTLY its deadline is still batched,
        // not expired, and reports the full wait
        let mut q = BatchQueue::new(10, 500);
        q.push(1, 100);
        let f = q.take(600).unwrap();
        assert_eq!(f.items, vec![1]);
        assert!(f.expired.is_empty());
        assert_eq!(f.oldest_wait_us, 500);
    }

    #[test]
    fn oversized_backlog_drains_in_fifo_chunks() {
        let mut q = BatchQueue::new(2, 0);
        for i in 0..5 {
            q.push(i, 0);
        }
        let mut batches = Vec::new();
        while let Some(f) = q.take(1_000) {
            batches.push(f.items);
        }
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn deadline_follows_oldest_pending_request() {
        let mut q = BatchQueue::new(10, 0);
        q.push("old", 50);
        q.push("new", 240);
        // the reported wait is the OLDEST request's, not the newest's
        let f = q.take(250).unwrap();
        assert_eq!(f.items, vec!["old", "new"]);
        assert_eq!(f.oldest_wait_us, 200);
    }

    #[test]
    fn deadline_expires_strictly_after_wait_exceeds_budget() {
        let mut q = BatchQueue::new(10, 200);
        q.push("late", 100);
        q.push("on_time", 101);
        // at 301: "late" waited 201 µs (strictly past 200) and expires;
        // "on_time" waited exactly 200 µs and is still batched
        let f = q.take(301).unwrap();
        assert_eq!(f.expired, vec!["late"]);
        assert_eq!(f.items, vec!["on_time"]);
        assert_eq!(f.oldest_wait_us, 200);
        assert_eq!(f.remaining, 0);
        assert_eq!(q.take(302), None);
        // a queue holding only expired requests still yields a take, with
        // no batch items
        q.push("dead", 0);
        let f = q.take(1_000).unwrap();
        assert_eq!(f.expired, vec!["dead"]);
        assert!(f.items.is_empty());
    }

    #[test]
    fn expired_prefix_splits_from_live_batch() {
        let mut q = BatchQueue::new(10, 200);
        q.push("dead1", 0);
        q.push("dead2", 10);
        q.push("live", 250);
        // at 300: both old requests are strictly past 200 µs of waiting;
        // "live" (waited 50) is taken in the same step, not left behind
        let f = q.take(300).unwrap();
        assert_eq!(f.expired, vec!["dead1", "dead2"]);
        assert_eq!(f.items, vec!["live"]);
        assert_eq!(f.oldest_wait_us, 50);
        assert_eq!(f.remaining, 0);
    }

    #[test]
    fn ticket_roundtrip_and_close() {
        let t = Ticket::new();
        t.fill(42);
        assert_eq!(t.wait(), Some(42));
        let t: Ticket<i32> = Ticket::new();
        t.close();
        assert_eq!(t.wait(), None);
        // close after fill does not destroy the response
        let t = Ticket::new();
        t.fill(7);
        t.close();
        assert_eq!(t.wait(), Some(7));
    }
}
