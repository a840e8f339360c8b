//! The work grain of the parallel loops.
//!
//! Every parallel loop in the workspace runs on the vendored `rayon`
//! stand-in (`shims/rayon`): scoped threads that claim items in ascending
//! order from one shared cursor. Each loop item writes only its own output
//! slot and every reduction keeps a fixed order, so results are bit for bit
//! the same at any thread count. Spawning and joining the threads of one
//! loop costs 33–45 µs on a 2-vCPU AVX-512 host, so a loop too small to pay
//! for that runs on the calling thread instead.

/// Estimated multiply-adds below which a parallel loop runs on the calling
/// thread. A 1–3-row serve batch against a 2048-SV, 64-feature model
/// (≤ 3.9·10⁵) and a 64-row batch against a 256-SV, 16-feature model
/// (2.6·10⁵) run inline, where the fork would cost as much as it saves; a
/// 64-row batch against the 2048-SV model (8.4·10⁶) and every training
/// matvec on thousands of points fork.
pub const PAR_GRAIN: u128 = 1 << 21;

/// Runs `op` as is when `work` (the caller's estimate of the multiply-adds
/// its loops do) reaches [`PAR_GRAIN`]; below it, every parallel loop in
/// `op` runs on the calling thread.
pub fn with_grain<R>(work: u128, op: impl FnOnce() -> R) -> R {
    if work >= PAR_GRAIN {
        op()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("building a thread count never fails")
            .install(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;
    use std::sync::Mutex;
    use std::thread;

    fn thread_ids() -> Vec<thread::ThreadId> {
        let ids = Mutex::new(Vec::new());
        (0..64usize)
            .into_par_iter()
            .for_each(|_| ids.lock().unwrap().push(thread::current().id()));
        ids.into_inner().unwrap()
    }

    #[test]
    fn work_under_the_grain_runs_on_the_caller() {
        let me = thread::current().id();
        for t in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            pool.install(|| {
                let ids = with_grain(PAR_GRAIN - 1, thread_ids);
                assert!(ids.iter().all(|&id| id == me), "{t} threads");
                // at the grain the installed count applies again
                assert_eq!(with_grain(PAR_GRAIN, rayon::current_num_threads), t);
            });
        }
    }
}
