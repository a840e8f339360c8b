//! Deterministic micro-batcher tests: time is driven by the injected
//! [`ManualClock`] — it only moves when the test says so — and the worker
//! is held inside a batch by a gated processor that blocks until the test
//! releases it. [`ManualClock::wait_for_parked`] gives a rendezvous with an
//! idle worker. No sleeps, no flaky timing margins; a regression that
//! would hang instead fails after [`LIMIT`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use plssvm_serve::{Batcher, BatcherConfig, Clock, ManualClock, SystemClock, Ticket};

/// Upper bound on any single wait in these tests.
const LIMIT: Duration = Duration::from_secs(30);

/// Shared log of every batch the worker processed.
type BatchLog = Arc<Mutex<Vec<Vec<u64>>>>;

/// Records every processed batch while echoing requests back.
fn echo_batcher(config: BatcherConfig, clock: Arc<ManualClock>) -> (Batcher<u64, u64>, BatchLog) {
    let batches: BatchLog = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&batches);
    let batcher = Batcher::with_config(config, clock, None, move |reqs: Vec<u64>| {
        seen.lock().unwrap().push(reqs.clone());
        reqs
    });
    (batcher, batches)
}

/// The test's handle on a gated processor: every batch announces itself
/// on `started`, then blocks until the test sends a permit on `release`.
struct Gate {
    started: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

impl Gate {
    /// Blocks until the worker is inside the processor with a batch.
    fn wait_started(&self) {
        self.started
            .recv_timeout(LIMIT)
            .expect("the worker never started a batch");
    }

    /// Lets the batch the worker is holding complete.
    fn release(&self) {
        self.release.send(()).unwrap();
    }
}

/// An echo batcher whose processor is held by a [`Gate`]. Expired
/// requests answer `req + EXPIRED` so tests can tell them apart.
fn gated_batcher(
    config: BatcherConfig,
    clock: Arc<dyn Clock>,
) -> (Batcher<u64, u64>, BatchLog, Gate) {
    let batches: BatchLog = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&batches);
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let gate_side = Mutex::new((started_tx, release_rx));
    let batcher = Batcher::with_config(
        config,
        clock,
        Some(Box::new(|req: u64| req + EXPIRED)),
        move |reqs: Vec<u64>| {
            seen.lock().unwrap().push(reqs.clone());
            let gate = gate_side.lock().unwrap();
            gate.0.send(()).unwrap();
            gate.1.recv().expect("the test dropped the gate");
            reqs
        },
    );
    (batcher, batches, Gate { started, release })
}

/// What an expired request answers in [`gated_batcher`].
const EXPIRED: u64 = 1_000_000;

fn config(max_batch: usize, deadline_us: u64) -> BatcherConfig {
    BatcherConfig {
        max_batch,
        queue_watermark: 0,
        deadline_us,
    }
}

/// `ticket.wait()`, failing the test instead of hanging past [`LIMIT`].
fn wait_within(ticket: &Ticket<u64>) -> Option<u64> {
    let (tx, rx) = mpsc::channel();
    let ticket = ticket.clone();
    let waiter = std::thread::spawn(move || tx.send(ticket.wait()).unwrap());
    let answer = rx.recv_timeout(LIMIT).expect("ticket never resolved");
    waiter.join().unwrap();
    answer
}

#[test]
fn lone_request_to_an_idle_batcher_resolves_without_time_moving() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches) = echo_batcher(config(100, 0), Arc::clone(&clock));
    clock.wait_for_parked(1);
    // an idle worker dispatches at once: no flush timer to wait out
    assert_eq!(wait_within(&batcher.submit(5)), Some(5));
    assert_eq!(clock.now_us(), 0);
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![5]]);
    batcher.shutdown();
}

/// With `batcher`'s worker parked idle: two deferred pushes leave it
/// asleep, and the third, which reaches the wake threshold, wakes it.
fn third_deferred_push_wakes(batcher: &Batcher<u64, u64>, clock: &ManualClock) {
    clock.wait_for_parked(1);
    let woken = clock.wake_count();
    let mut tickets: Vec<Ticket<u64>> = (0..2)
        .map(|i| batcher.try_submit(i, true).unwrap())
        .collect();
    assert_eq!(clock.wake_count(), woken, "woke below the threshold");
    tickets.push(batcher.try_submit(2, true).unwrap());
    assert_eq!(
        clock.wake_count(),
        woken + 1,
        "the push reaching the threshold must wake the worker"
    );
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(wait_within(t), Some(i as u64));
    }
    assert_eq!(clock.now_us(), 0);
}

#[test]
fn flushes_immediately_on_max_batch_without_time_moving() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches) = echo_batcher(config(3, 0), Arc::clone(&clock));
    third_deferred_push_wakes(&batcher, &clock);
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![0, 1, 2]]);
    batcher.shutdown();
}

#[test]
fn deferred_pushes_wake_the_worker_at_the_queue_watermark() {
    // with the watermark below max_batch, waiting for a full batch would
    // shed the burst as overloaded while the worker sleeps
    let clock = Arc::new(ManualClock::new());
    let watermark_3 = BatcherConfig {
        queue_watermark: 3,
        ..config(10, 0)
    };
    let (batcher, batches) = echo_batcher(watermark_3, Arc::clone(&clock));
    third_deferred_push_wakes(&batcher, &clock);
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![0, 1, 2]]);
    batcher.shutdown();
}

#[test]
fn holds_partial_batch_while_a_batch_runs_then_flushes() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches, gate) = gated_batcher(config(100, 0), clock.clone());
    let first = batcher.submit(1);
    gate.wait_started();
    let ticket = batcher.submit(7);
    // a partial batch waits only for the running one, however long
    clock.advance(1_000_000);
    assert!(ticket.is_pending(), "flushed while the worker was busy");
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![1]]);

    gate.release();
    assert_eq!(wait_within(&first), Some(1));
    gate.wait_started();
    gate.release();
    assert_eq!(wait_within(&ticket), Some(7));
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![1], vec![7]]);
    batcher.shutdown();
}

#[test]
fn oversized_backlog_flushes_fifo_within_and_across_batches() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches, gate) = gated_batcher(config(2, 0), clock);
    let mut tickets = vec![batcher.submit(0)];
    gate.wait_started();
    // the worker is busy: these queue up behind the running batch
    tickets.extend((1..5).map(|i| batcher.submit(i)));
    assert!(tickets[1..].iter().all(Ticket::is_pending));
    for _ in 0..2 {
        gate.release();
        gate.wait_started();
    }
    gate.release();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(
            wait_within(t),
            Some(i as u64),
            "response routed to wrong ticket"
        );
    }
    // what queued during a batch forms the next ones: FIFO within and
    // across batches, none larger than max_batch
    assert_eq!(
        batches.lock().unwrap().as_slice(),
        &[vec![0], vec![1, 2], vec![3, 4]]
    );
    batcher.shutdown();
}

#[test]
fn deadline_tracks_oldest_request_not_newest() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches, gate) = gated_batcher(config(100, 1_000), clock.clone());
    let blocker = batcher.submit(0);
    gate.wait_started();
    let old = batcher.submit(1);
    clock.advance(900);
    // a late arrival must NOT extend the oldest request's deadline
    let young = batcher.submit(2);
    clock.advance(200);
    gate.release();
    assert_eq!(wait_within(&blocker), Some(0));
    // at 1100 µs the next take expires "old" (waited 1100 > 1000) and
    // batches "young" (waited 200)
    assert_eq!(wait_within(&old), Some(1 + EXPIRED));
    gate.wait_started();
    gate.release();
    assert_eq!(wait_within(&young), Some(2));
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![0], vec![2]]);
    batcher.shutdown();
}

#[test]
fn shutdown_drains_queued_requests_without_deadline() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches, gate) = gated_batcher(config(100, 0), clock.clone());
    let mut tickets = vec![batcher.submit(0)];
    gate.wait_started();
    tickets.extend((1..4).map(|i| batcher.submit(i)));
    let woken = clock.wake_count();
    std::thread::scope(|s| {
        s.spawn(move || {
            // shutdown raises its flag, then wakes: only once it has may
            // the held batch finish, so the queued requests are taken by
            // the shutdown drain
            while clock.wake_count() == woken {
                std::thread::yield_now();
            }
            gate.release();
            gate.wait_started();
            gate.release();
        });
        batcher.shutdown();
    });
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(
            wait_within(t),
            Some(i as u64),
            "request dropped on shutdown"
        );
    }
    assert_eq!(
        batches.lock().unwrap().as_slice(),
        &[vec![0], vec![1, 2, 3]]
    );
    // post-shutdown submissions are refused with a closed ticket
    assert_eq!(batcher.submit(99).wait(), None);
}

#[test]
fn processor_panic_closes_its_batch_and_worker_survives() {
    let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
    let batcher = Batcher::new(
        1,
        clock as Arc<dyn plssvm_serve::Clock>,
        |reqs: Vec<u64>| {
            if reqs.contains(&13) {
                panic!("poison request");
            }
            reqs
        },
    );
    assert_eq!(batcher.submit(1).wait(), Some(1));
    // the poisoned batch is closed (None), not hung
    assert_eq!(batcher.submit(13).wait(), None);
    // and the worker thread survived to serve the next request
    assert_eq!(batcher.submit(2).wait(), Some(2));
    batcher.shutdown();
}

#[test]
fn panic_inside_a_parallel_kernel_expansion_closes_its_batch() {
    use plssvm_core::par::PAR_GRAIN;
    use plssvm_core::simd::Isa;
    use plssvm_core::svm::kernel_expansion;
    use plssvm_data::dense::DenseMatrix;
    use plssvm_data::model::KernelSpec;

    const FEATURES: usize = 64;
    let sv = DenseMatrix::from_vec(512, FEATURES, vec![0.5; 512 * FEATURES]);
    let coef = vec![1.0; 512];
    // a request of 128 rows forks the expansion, and a poisoned one runs it
    // with too few coefficients: every share then panics on its own thread
    assert!((128 * 512 * FEATURES) as u128 >= PAR_GRAIN);
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    let batcher = Batcher::new(1, clock, move |reqs: Vec<u64>| {
        let poisoned = reqs.contains(&13);
        let x = DenseMatrix::from_vec(128, FEATURES, vec![0.25; 128 * FEATURES]);
        let coef = if poisoned { &coef[..300] } else { &coef[..] };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let out = pool.install(|| {
            kernel_expansion(
                &KernelSpec::Rbf { gamma: 0.1 },
                Isa::select(),
                &sv,
                coef,
                0.0,
                &x,
            )
        });
        reqs.iter().map(|&r| r + out.len() as u64).collect()
    });
    assert_eq!(batcher.submit(1).wait(), Some(129));
    assert_eq!(batcher.submit(13).wait(), None);
    // the worker survived the re-raised panic
    assert_eq!(batcher.submit(2).wait(), Some(130));
    batcher.shutdown();
}

#[test]
fn arity_mismatch_closes_unanswered_tickets() {
    let clock = Arc::new(ManualClock::new());
    // a buggy processor returning one response for a two-request batch
    let batcher = Batcher::new(2, clock.clone(), |reqs: Vec<u64>| vec![reqs[0]]);
    clock.wait_for_parked(1);
    // deferred pushes reach the idle worker as one two-request batch
    let a = batcher.try_submit(10, true).unwrap();
    let b = batcher.try_submit(20, true).unwrap();
    assert_eq!(wait_within(&a), Some(10));
    assert_eq!(
        wait_within(&b),
        None,
        "unanswered ticket must close, not hang"
    );
    batcher.shutdown();
}

/// Seeded interleaved-submitter stress: several client threads pipeline
/// requests concurrently; every response must route back to exactly the
/// ticket that submitted it, in per-thread FIFO order.
#[test]
fn concurrent_submitters_get_correctly_routed_responses() {
    // MMIX LCG, fixed seeds -> reproducible payload schedule
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let clock = Arc::new(SystemClock::new());
        let processed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&processed);
        // identity-with-bookkeeping processor
        let batcher = Arc::new(Batcher::new(8, clock, move |reqs: Vec<u64>| {
            counter.fetch_add(reqs.len(), Ordering::SeqCst);
            reqs
        }));

        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let batcher = Arc::clone(&batcher);
                let mut rng = seed ^ (t + 1);
                s.spawn(move || {
                    // pipeline: submit a window of requests, then wait in
                    // submission order
                    let mut window: Vec<(u64, Ticket<u64>)> = Vec::new();
                    for i in 0..PER_THREAD {
                        let payload = (t << 32) | (i << 16) | (lcg(&mut rng) & 0xFFFF);
                        window.push((payload, batcher.submit(payload)));
                        if window.len() >= 6 {
                            let (expect, ticket) = window.remove(0);
                            assert_eq!(ticket.wait(), Some(expect), "cross-routed response");
                        }
                    }
                    for (expect, ticket) in window {
                        assert_eq!(ticket.wait(), Some(expect), "cross-routed response");
                    }
                });
            }
        });
        assert_eq!(
            processed.load(Ordering::SeqCst),
            (THREADS * PER_THREAD) as usize
        );
        batcher.shutdown();
    }
}
