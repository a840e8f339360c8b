//! Deterministic micro-batcher tests: every timing behavior is driven by
//! the injected [`ManualClock`] — time only moves when the test says so,
//! and [`ManualClock::wait_for_parked`] gives a rendezvous with the
//! worker thread. No sleeps, no flaky timing margins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use plssvm_serve::{Batcher, Clock, ManualClock, SystemClock, Ticket};

/// Shared log of every batch the worker processed.
type BatchLog = Arc<Mutex<Vec<Vec<u64>>>>;

/// Records every processed batch while echoing requests back.
fn echo_batcher(
    max_batch: usize,
    max_wait_us: u64,
    clock: Arc<ManualClock>,
) -> (Batcher<u64, u64>, BatchLog) {
    let batches: BatchLog = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&batches);
    let batcher = Batcher::new(
        max_batch,
        max_wait_us,
        clock,
        None,
        move |reqs: Vec<u64>| {
            seen.lock().unwrap().push(reqs.clone());
            reqs
        },
    );
    (batcher, batches)
}

#[test]
fn flushes_immediately_on_max_batch_without_time_moving() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches) = echo_batcher(3, 1_000_000, Arc::clone(&clock));

    let tickets: Vec<Ticket<u64>> = (0..3).map(|i| batcher.submit(i)).collect();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.wait(), Some(i as u64));
    }
    // the deadline is far in the future and time never advanced: the
    // flush can only have been size-triggered
    assert_eq!(clock.now_us(), 0);
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![0, 1, 2]]);
    batcher.shutdown();
}

#[test]
fn holds_partial_batch_until_deadline_then_flushes() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches) = echo_batcher(100, 1_000, Arc::clone(&clock));

    let ticket = batcher.submit(7);
    // 999 µs: one tick before the deadline — the batch must NOT flush.
    // now < deadline holds no matter how threads interleave, so this
    // assertion is race-free.
    clock.advance(999);
    clock.wait_for_parked(1);
    assert!(ticket.is_pending(), "flushed before its deadline");
    assert!(batches.lock().unwrap().is_empty());

    // the 1000th µs crosses the deadline: flush happens
    clock.advance(1);
    assert_eq!(ticket.wait(), Some(7));
    assert_eq!(batches.lock().unwrap().as_slice(), &[vec![7]]);
    batcher.shutdown();
}

#[test]
fn oversized_backlog_flushes_fifo_within_and_across_batches() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, batches) = echo_batcher(2, 500, Arc::clone(&clock));

    let tickets: Vec<Ticket<u64>> = (0..5).map(|i| batcher.submit(i)).collect();
    // the lone 5th request needs its deadline to pass
    clock.advance(500);
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.wait(), Some(i as u64), "response routed to wrong ticket");
    }
    // FIFO across batches: concatenating the batches reproduces the
    // submission order exactly, and no batch exceeds max_batch
    let batches = batches.lock().unwrap();
    let flat: Vec<u64> = batches.iter().flatten().copied().collect();
    assert_eq!(flat, vec![0, 1, 2, 3, 4]);
    assert!(batches.iter().all(|b| b.len() <= 2));
    batcher.shutdown();
}

#[test]
fn deadline_tracks_oldest_request_not_newest() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, _batches) = echo_batcher(100, 1_000, Arc::clone(&clock));

    let old = batcher.submit(1);
    clock.wait_for_parked(1);
    clock.advance(900);
    // a late arrival must NOT extend the oldest request's deadline
    let young = batcher.submit(2);
    clock.advance(100);
    assert_eq!(old.wait(), Some(1));
    assert_eq!(young.wait(), Some(2));
    batcher.shutdown();
}

#[test]
fn shutdown_drains_queued_requests_without_deadline() {
    let clock = Arc::new(ManualClock::new());
    let (batcher, _) = echo_batcher(100, u64::MAX / 2, Arc::clone(&clock));

    let tickets: Vec<Ticket<u64>> = (0..4).map(|i| batcher.submit(i)).collect();
    // time never reaches the (enormous) deadline: only the shutdown
    // drain can flush these
    batcher.shutdown();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.wait(), Some(i as u64), "request dropped on shutdown");
    }
    // post-shutdown submissions are refused with a closed ticket
    assert_eq!(batcher.submit(99).wait(), None);
}

#[test]
fn processor_panic_closes_its_batch_and_worker_survives() {
    let clock: Arc<ManualClock> = Arc::new(ManualClock::new());
    let batcher = Batcher::new(
        1,
        0,
        clock as Arc<dyn plssvm_serve::Clock>,
        None,
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
    let batcher = Batcher::new(1, 0, clock, None, move |reqs: Vec<u64>| {
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
    let clock: Arc<dyn plssvm_serve::Clock> = Arc::new(ManualClock::new());
    // a buggy processor returning one response for a two-request batch
    let batcher = Batcher::new(2, u64::MAX / 2, clock, None, |reqs: Vec<u64>| vec![reqs[0]]);
    let a = batcher.submit(10);
    let b = batcher.submit(20);
    assert_eq!(a.wait(), Some(10));
    assert_eq!(b.wait(), None, "unanswered ticket must close, not hang");
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
        let batcher = Arc::new(Batcher::new(8, 200, clock, None, move |reqs: Vec<u64>| {
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
