//! Vendored, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the API subset it uses. The "parallel" iterators here
//! are the corresponding **sequential** standard-library iterators, by
//! choice: the reference host has 2 vCPUs, but sequential execution makes
//! every reduction order (including simulated-GPU `atomicAdd`
//! accumulation) bitwise deterministic, which the telemetry determinism
//! tests rely on. Training and batch prediction therefore run on one
//! core.
//!
//! Because the adaptors *are* `std` iterators, every chained combinator
//! (`map`, `zip`, `enumerate`, `for_each`, `collect::<Result<_, _>>`, …)
//! keeps its standard semantics, including item order.

use std::error::Error;
use std::fmt;

/// Mirrors `rayon::iter::IntoParallelIterator` (sequential here).
pub trait IntoParallelIterator {
    /// The element type.
    type Item;
    /// The (sequential) iterator produced.
    type Iter: Iterator<Item = Self::Item>;
    /// Converts `self` into a "parallel" iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: IntoIterator> IntoParallelIterator for I {
    type Item = I::Item;
    type Iter = I::IntoIter;
    fn into_par_iter(self) -> Self::Iter {
        self.into_iter()
    }
}

/// Mirrors `rayon::iter::IntoParallelRefIterator` (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// The element type (a shared reference).
    type Item: 'data;
    /// The (sequential) iterator produced.
    type Iter: Iterator<Item = Self::Item>;
    /// Iterates `self` by reference.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoIterator,
{
    type Item = <&'data C as IntoIterator>::Item;
    type Iter = <&'data C as IntoIterator>::IntoIter;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_iter()
    }
}

/// Mirrors `rayon::iter::IntoParallelRefMutIterator` (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'data> {
    /// The element type (an exclusive reference).
    type Item: 'data;
    /// The (sequential) iterator produced.
    type Iter: Iterator<Item = Self::Item>;
    /// Iterates `self` by mutable reference.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoIterator,
{
    type Item = <&'data mut C as IntoIterator>::Item;
    type Iter = <&'data mut C as IntoIterator>::IntoIter;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_iter()
    }
}

/// Mirrors `rayon::slice::ParallelSlice` (`.par_chunks()`).
pub trait ParallelSlice<T> {
    /// Chunked shared iteration.
    fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
        self.chunks(chunk_size)
    }
}

/// Mirrors `rayon::slice::ParallelSliceMut` (`.par_chunks_mut()`).
pub trait ParallelSliceMut<T> {
    /// Chunked exclusive iteration.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk_size)
    }
}

/// Number of threads of the global pool (always 1 in this stand-in).
pub fn current_num_threads() -> usize {
    1
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

/// A scoped "pool". [`ThreadPool::install`] runs the closure on the calling
/// thread; the configured thread count is reported back unchanged so
/// backend telemetry can still label runs with the requested parallelism.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` within the pool (directly, on this thread).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
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

    /// Requests `num_threads` threads (0 = automatic).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails in this stand-in.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                current_num_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// Glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chains_match_std_semantics() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);

        let zipped: Vec<i32> = v.par_iter().zip(&doubled).map(|(a, b)| a + b).collect();
        assert_eq!(zipped, vec![3, 6, 9, 12]);

        let range: Vec<usize> = (0..4usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(range, vec![0, 1, 4, 9]);
    }

    #[test]
    fn fallible_collect() {
        let ok: Result<Vec<i32>, &str> = [1, 2].par_iter().map(|&x| Ok(x)).collect();
        assert_eq!(ok.unwrap(), vec![1, 2]);
        let err: Result<Vec<i32>, &str> = [1, 2].par_iter().map(|_| Err("boom")).collect();
        assert!(err.is_err());
    }

    #[test]
    fn chunks_mut_order_preserved() {
        let mut out = [0usize; 7];
        out.par_chunks_mut(3)
            .enumerate()
            .for_each(|(block, chunk)| {
                for slot in chunk.iter_mut() {
                    *slot = block;
                }
            });
        assert_eq!(out, [0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn pool_reports_configured_threads() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(pool.install(|| 21 * 2), 42);
        let auto = crate::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(auto.current_num_threads(), crate::current_num_threads());
    }
}
