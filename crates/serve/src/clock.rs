//! Injectable time source for the serving layer.
//!
//! Every timing-dependent behavior in this crate — queueing deadlines,
//! queue waits, request latencies — runs against the [`Clock`] trait, so
//! tests drive time deterministically with a [`ManualClock`] (no sleeps)
//! while production uses the wall-clock [`SystemClock`].
//!
//! The trait couples a microsecond clock with a wakeable wait primitive.
//! The lost-wakeup race is closed by a *wake generation counter*: a waiter
//! samples [`Clock::wake_count`] **before** inspecting the state it is
//! about to wait on, then passes the sampled value to
//! [`Clock::wait`]. Any [`Clock::wake`] that lands between the
//! sample and the wait bumps the counter, so the wait returns immediately
//! instead of sleeping through the notification.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A monotonic microsecond clock plus a wakeable wait.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's origin.
    fn now_us(&self) -> u64;

    /// The current wake generation counter.
    fn wake_count(&self) -> u64;

    /// Bumps the wake counter and wakes every waiter (new work arrived,
    /// or shutdown was requested).
    fn wake(&self);

    /// Blocks until the wake counter moves past `seen`. Spurious returns
    /// are allowed; callers re-inspect their state in a loop.
    fn wait(&self, seen: u64);
}

/// The production clock: wall time from [`Instant`], waits on a condvar.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
    wakes: Mutex<u64>,
    cv: Condvar,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            wakes: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {
        self.wakes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn wake_count(&self) -> u64 {
        *self.lock()
    }

    fn wake(&self) {
        *self.lock() += 1;
        self.cv.notify_all();
    }

    fn wait(&self, seen: u64) {
        let mut wakes = self.lock();
        while *wakes == seen {
            wakes = self.cv.wait(wakes).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[derive(Debug, Default)]
struct ManualState {
    now_us: u64,
    wakes: u64,
    parked: usize,
}

/// The test clock: time only moves when the test calls
/// [`ManualClock::advance`], and [`ManualClock::wait_for_parked`] gives
/// tests a rendezvous ("the worker is now blocked waiting") so every
/// deadline interleaving can be pinned without a single sleep.
#[derive(Debug, Default)]
pub struct ManualClock {
    state: Mutex<ManualState>,
    /// Wakes threads blocked in [`Clock::wait`].
    waiters: Condvar,
    /// Wakes tests blocked in [`ManualClock::wait_for_parked`].
    observers: Condvar,
}

impl ManualClock {
    /// A clock starting at t = 0 µs.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ManualState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves time forward. Waiters stay parked: only [`Clock::wake`]
    /// releases them.
    pub fn advance(&self, us: u64) {
        self.lock().now_us += us;
    }

    /// Blocks (in real time) until at least `n` threads are parked inside
    /// [`Clock::wait`] — the rendezvous deterministic tests use
    /// before advancing time or asserting "nothing happened yet".
    pub fn wait_for_parked(&self, n: usize) {
        let mut s = self.lock();
        while s.parked < n {
            s = self.observers.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.lock().now_us
    }

    fn wake_count(&self) -> u64 {
        self.lock().wakes
    }

    fn wake(&self) {
        let mut s = self.lock();
        s.wakes += 1;
        self.waiters.notify_all();
    }

    fn wait(&self, seen: u64) {
        let mut s = self.lock();
        while s.wakes == seen {
            s.parked += 1;
            self.observers.notify_all();
            s = self.waiters.wait(s).unwrap_or_else(|e| e.into_inner());
            s.parked -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn manual_clock_only_moves_on_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance(250);
        assert_eq!(c.now_us(), 250);
        c.advance(0);
        assert_eq!(c.now_us(), 250);
    }

    #[test]
    fn wait_returns_immediately_when_wake_already_happened() {
        // the lost-wakeup guard: wake() lands after the caller sampled the
        // counter but before it waits — the wait must not block
        let c = ManualClock::new();
        let seen = c.wake_count();
        c.wake();
        c.wait(seen); // would hang forever on a lost wakeup
    }

    #[test]
    fn wake_releases_indefinite_waiters() {
        let c = Arc::new(ManualClock::new());
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let seen = c2.wake_count();
            c2.wait(seen);
        });
        c.wait_for_parked(1);
        c.wake();
        t.join().unwrap();
    }

    #[test]
    fn system_clock_wake_interrupts_wait() {
        let c = Arc::new(SystemClock::new());
        let c2 = Arc::clone(&c);
        let seen = c.wake_count();
        let t = std::thread::spawn(move || c2.wait(seen));
        c.wake();
        t.join().unwrap();
    }
}
