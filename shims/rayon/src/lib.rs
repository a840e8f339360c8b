//! Vendored, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the API subset it uses, implemented on
//! [`std::thread::scope`]. A parallel loop runs its items on
//! [`current_num_threads`] threads, the calling thread being one of them:
//!
//! * **One shared cursor.** Every thread claims the next item, in
//!   ascending index order, from one `Mutex`-guarded iterator. There is no
//!   work stealing, so the first (often the largest) items start first.
//! * **Results in index order.** `map(..).collect()` hands every item its
//!   own result slot, so the collection is the sequential one.
//! * **Determinism is the caller's contract.** Items run concurrently and
//!   finish in any order. A loop whose items each write only their own
//!   output and share no mutable state computes the same bits at any
//!   thread count; order-dependent work belongs in a plain `for` loop.
//! * **Inline runs.** A loop with one item, or with a count of 1, runs on
//!   the calling thread and spawns nothing. So does every loop nested
//!   inside a loop's item, on the thread running that item.
//! * **Panics.** An item's panic re-raises on the calling thread, with its
//!   original payload, once every thread of the loop has joined.
//!
//! The global thread count is `std::thread::available_parallelism()`, read
//! once per process (on Linux the read parses cgroup files, tens of µs).
//! [`ThreadPool::install`] overrides it for the closure it runs, on the
//! calling thread only.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::panic;
use std::sync::{Mutex, OnceLock};
use std::thread;

thread_local! {
    /// Thread count set by the innermost [`ThreadPool::install`] running on
    /// this thread.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs items of a parallel loop: nested loops
    /// then run inline.
    static IN_LOOP: Cell<bool> = const { Cell::new(false) };
}

/// `available_parallelism()`, resolved once per process.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Number of threads a parallel loop started here would use: 1 inside a
/// loop's item, the installed pool's count inside [`ThreadPool::install`],
/// otherwise the host's available parallelism.
pub fn current_num_threads() -> usize {
    if IN_LOOP.get() {
        1
    } else {
        INSTALLED.get().unwrap_or_else(default_num_threads)
    }
}

/// Restores a thread-local cell to its previous value when dropped, also
/// while unwinding.
struct Restore<T: Copy + 'static> {
    key: &'static thread::LocalKey<Cell<T>>,
    previous: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(key: &'static thread::LocalKey<Cell<T>>, value: T) -> Self {
        Self {
            key,
            previous: key.replace(value),
        }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.key.set(self.previous);
    }
}

/// Runs `f` on every item on up to [`current_num_threads`] threads, which
/// claim items in ascending order from one shared cursor.
fn drive<I, F>(items: I, f: F)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        let _in_loop = Restore::set(&IN_LOOP, true);
        items.for_each(f);
        return;
    }
    let cursor = Mutex::new(items);
    let work = || {
        let _in_loop = Restore::set(&IN_LOOP, true);
        loop {
            // the guard drops at the end of this statement, so the item
            // runs unlocked; std iterators never panic inside `next`
            let next = cursor
                .lock()
                .expect("cursor lock is never held across an item")
                .next();
            match next {
                Some(item) => f(item),
                None => break,
            }
        }
    };
    thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        work();
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// A parallel iterator over the items of a sequential one.
#[derive(Debug)]
pub struct Par<I> {
    items: I,
}

impl<I> Par<I>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    /// Pairs every item with its index.
    pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
        Par {
            items: self.items.enumerate(),
        }
    }

    /// Maps every item through `f`; finish with [`Map::collect`].
    pub fn map<F, R>(self, f: F) -> Map<I, F>
    where
        F: Fn(I::Item) -> R + Sync,
        R: Send,
    {
        Map {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I::Item) + Sync,
    {
        drive(self.items, f);
    }
}

/// A parallel map, produced by [`Par::map`].
#[derive(Debug)]
pub struct Map<I, F> {
    items: I,
    f: F,
}

impl<I, F, R> Map<I, F>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    /// Collects the results in item order, as the sequential iterator
    /// would (including `Result<Vec<_>, _>`, which keeps the first error in
    /// item order).
    pub fn collect<C: FromIterator<R>>(self) -> C {
        // every item carries its own result slot
        let mut slots: Vec<Option<R>> = (0..self.items.len()).map(|_| None).collect();
        let f = &self.f;
        drive(self.items.zip(slots.iter_mut()), |(item, slot)| {
            *slot = Some(f(item));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every item ran"))
            .collect()
    }
}

/// Mirrors `rayon::iter::IntoParallelIterator` (ranges only).
pub trait IntoParallelIterator {
    /// The sequential iterator the parallel one hands out.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Par<Self::Iter>;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = Range<usize>;
    fn into_par_iter(self) -> Par<Range<usize>> {
        Par { items: self }
    }
}

/// Mirrors `rayon::slice::ParallelSliceMut` (`.par_chunks_mut()`).
pub trait ParallelSliceMut<T> {
    /// Exclusive chunks of `chunk_size` elements (the last may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<std::slice::ChunksMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
        Par {
            items: self.chunks_mut(chunk_size),
        }
    }
}

/// Error from [`ThreadPoolBuilder::build`] (never produced here; the type
/// exists so caller error plumbing compiles unchanged).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl Error for ThreadPoolBuildError {}

/// A thread count for the parallel loops run under
/// [`ThreadPool::install`]. No threads live between loops: each loop
/// spawns scoped threads and joins them before it returns.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's thread count. Inside
    /// a parallel loop's item the count stays 1, so a nested install runs
    /// its loops inline.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _installed = Restore::set(&INSTALLED, Some(self.num_threads));
        op()
    }

    /// The configured number of threads.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Mirrors `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `num_threads` threads (0 = the host's available
    /// parallelism).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails in this stand-in.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                default_num_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// Glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    fn pool(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    const POOLS: [usize; 4] = [1, 2, 3, 4];

    #[test]
    fn map_collect_is_in_index_order_at_every_thread_count() {
        let v: Vec<u64> = (0..1000).collect();
        for t in POOLS {
            pool(t).install(|| {
                let squares: Vec<u64> = (0..v.len()).into_par_iter().map(|i| v[i] * v[i]).collect();
                assert_eq!(squares, v.iter().map(|x| x * x).collect::<Vec<_>>(), "{t}");
                let pairs: Vec<(usize, u64)> = (0..v.len())
                    .into_par_iter()
                    .enumerate()
                    .map(|(i, k)| (i, v[k]))
                    .collect();
                assert!(pairs.iter().all(|&(i, x)| i as u64 == x), "{t}");
            });
        }
    }

    #[test]
    fn fallible_collect_keeps_the_first_error_in_index_order() {
        for t in POOLS {
            pool(t).install(|| {
                let ok: Result<Vec<usize>, usize> = (1..3usize).into_par_iter().map(Ok).collect();
                assert_eq!(ok.unwrap(), vec![1, 2]);
                let err: Result<Vec<usize>, usize> = (0..64usize)
                    .into_par_iter()
                    .map(|i| if i % 10 == 7 { Err(i) } else { Ok(i) })
                    .collect();
                assert_eq!(err, Err(7), "{t}");
            });
        }
    }

    #[test]
    fn for_each_visits_every_item_once() {
        for t in POOLS {
            let seen = Mutex::new(Vec::new());
            pool(t).install(|| {
                (0..500usize)
                    .into_par_iter()
                    .for_each(|i| seen.lock().unwrap().push(i))
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..500).collect::<Vec<_>>(), "{t}");
        }
    }

    #[test]
    fn chunks_mut_give_identical_results_at_every_thread_count() {
        let fill = |t: usize| {
            let mut out = vec![0usize; 1001];
            pool(t).install(|| {
                out.par_chunks_mut(7)
                    .enumerate()
                    .for_each(|(block, chunk)| {
                        for (k, slot) in chunk.iter_mut().enumerate() {
                            *slot = block * 1000 + k;
                        }
                    })
            });
            out
        };
        let reference = fill(1);
        assert_eq!(reference[..8], [0, 1, 2, 3, 4, 5, 6, 1000]);
        assert_eq!(reference[1000], 142_006);
        for t in POOLS {
            assert_eq!(fill(t), reference, "{t}");
        }
    }

    #[test]
    fn each_thread_claims_in_ascending_order() {
        for t in POOLS {
            let claimed = Mutex::new(Vec::new());
            pool(t).install(|| {
                (0..200usize)
                    .into_par_iter()
                    .for_each(|i| claimed.lock().unwrap().push((thread::current().id(), i)))
            });
            let claimed = claimed.into_inner().unwrap();
            assert_eq!(claimed.len(), 200);
            for &(id, _) in &claimed {
                let mine: Vec<usize> = claimed.iter().filter(|c| c.0 == id).map(|c| c.1).collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "{t} threads: {mine:?}"
                );
            }
        }
    }

    fn thread_ids(items: usize) -> Vec<ThreadId> {
        let ids = Mutex::new(Vec::new());
        (0..items)
            .into_par_iter()
            .for_each(|_| ids.lock().unwrap().push(thread::current().id()));
        ids.into_inner().unwrap()
    }

    #[test]
    fn single_items_and_one_thread_pools_run_on_the_caller() {
        let me = thread::current().id();
        for t in POOLS {
            pool(t).install(|| assert_eq!(thread_ids(1), vec![me], "{t}"));
        }
        // a one-thread install is how callers run work under their grain
        pool(1).install(|| assert!(thread_ids(64).iter().all(|&id| id == me)));
        pool(2).install(|| pool(1).install(|| assert!(thread_ids(64).iter().all(|&id| id == me))));
    }

    #[test]
    fn several_threads_take_part() {
        // a barrier forces both threads to hold an item at once
        let barrier = std::sync::Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        pool(2).install(|| {
            (0..2usize).into_par_iter().for_each(|_| {
                barrier.wait();
                ids.lock().unwrap().push(thread::current().id());
            })
        });
        let ids = ids.into_inner().unwrap();
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&thread::current().id()));
    }

    #[test]
    fn panics_reraise_on_the_caller_with_their_payload() {
        for t in POOLS {
            for poisoned in [0usize, 5, 99] {
                let result = std::panic::catch_unwind(|| {
                    pool(t).install(|| {
                        (0..100usize).into_par_iter().for_each(|i| {
                            if i == poisoned {
                                std::panic::panic_any(format!("item {i}"));
                            }
                        })
                    })
                });
                let payload = result.expect_err("the panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().unwrap(),
                    &format!("item {poisoned}")
                );
                // the caller's state is restored after unwinding
                assert_eq!(crate::current_num_threads(), super::default_num_threads());
            }
        }
    }

    #[test]
    fn nested_loops_and_installs_run_inline_on_the_worker() {
        for t in POOLS {
            let inner = Mutex::new(Vec::new());
            pool(t).install(|| {
                (0..8usize).into_par_iter().for_each(|_| {
                    let me = thread::current().id();
                    assert_eq!(crate::current_num_threads(), 1);
                    let nested = pool(4).install(|| thread_ids(16));
                    assert!(nested.iter().all(|&id| id == me));
                    inner.lock().unwrap().push(nested.len());
                });
            });
            assert_eq!(inner.into_inner().unwrap(), vec![16; 8], "{t}");
        }
    }

    #[test]
    fn install_sets_the_count_for_its_closure_only() {
        let outside = crate::current_num_threads();
        assert_eq!(outside, super::default_num_threads());
        let p = pool(3);
        assert_eq!(p.current_num_threads(), 3);
        assert_eq!(p.install(crate::current_num_threads), 3);
        assert_eq!(p.install(|| pool(2).install(crate::current_num_threads)), 2);
        assert_eq!(crate::current_num_threads(), outside);
        let auto = crate::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(auto.current_num_threads(), super::default_num_threads());
    }
}
