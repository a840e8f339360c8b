//! The multi-threaded "OpenMP" CPU backend.
//!
//! Parallelizes the blocked implicit kernel matvec of
//! [`crate::backend::cpu_blocked`] over tile-row groups on a rayon thread
//! pool with a configurable thread count (the paper's Fig. 4a
//! strong-scaling study sweeps 1…256 OpenMP threads). Works on the
//! untransformed row-major layout like the paper's CPU path — the SoA
//! transform is a GPU-backend concern (§IV-E).
//!
//! Unlike the original scalar row sweep (which evaluated the full `n²`
//! matrix because triangular mirroring would have required synchronization
//! on `out`), this backend exploits symmetry in parallel: each task owns a
//! strided set of upper-triangle tile rows and accumulates both the direct
//! and the mirrored contribution into a **private partial output buffer**;
//! the buffers are then reduced in a fixed order. Kernel evaluations drop
//! from `n²` to `n(n+1)/2` — the same count as the serial reference — and
//! because the task decomposition depends only on `n` and the
//! [`CpuTilingConfig`] (never on the thread count), results are bitwise
//! independent of the number of worker threads.
//!
//! The caller allocates all partial buffers as one `groups × n` block.
//! Worker threads claim groups in ascending order from one shared cursor,
//! so the heavy first groups start first and a thread that drew light ones
//! keeps claiming: at n = 4096 the 64 groups shrink from 64 tiles to 1,
//! which a static contiguous split would divide 1 552 : 528 between two
//! threads. Below [`crate::par::PAR_GRAIN`] the matvec runs on the calling
//! thread.
//!
//! The cache/register tiling itself (panel micro-kernel, cache blocks,
//! boundary clamping) is shared with the serial backend; see
//! [`crate::backend::cpu_blocked`] for the schedule and its boundary
//! guarantees.

use rayon::prelude::*;

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::Real;

use crate::backend::cpu_blocked::{full_rows_matvec, symmetric_group_matvec, CpuTilingConfig};
use crate::error::SvmError;
use crate::matrix_free::QTildeParams;
use crate::par::with_grain;
use crate::simd::Isa;

/// The multi-threaded CPU backend.
pub struct ParallelBackend<T> {
    data: DenseMatrix<T>,
    kernel: KernelSpec<T>,
    params: QTildeParams<T>,
    pool: Option<rayon::ThreadPool>,
    tiling: CpuTilingConfig,
}

impl<T: Real> ParallelBackend<T> {
    /// Prepares the backend. `threads = None` shares the global rayon
    /// pool; `Some(t)` builds a dedicated pool with exactly `t` workers
    /// (the "number of OpenMP threads"). `tiling` selects the cache-tile
    /// sizes and the symmetric schedule of the blocked matvec engine.
    pub fn new(
        data: DenseMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        threads: Option<usize>,
        mut tiling: CpuTilingConfig,
    ) -> Result<Self, SvmError> {
        tiling.validate()?;
        // pin the micro-kernel ISA tier once — detection plus the
        // PLSSVM_FORCE_ISA override are resolved here, never per matvec
        if tiling.isa.is_none() {
            tiling.isa = Some(Isa::select());
        }
        let pool = match threads {
            None => None,
            Some(0) => return Err(SvmError::Solver("thread count must be at least 1".into())),
            Some(t) => Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .map_err(|e| SvmError::Solver(format!("thread pool: {e}")))?,
            ),
        };
        let params = QTildeParams::compute_dense(&data, &kernel, cost, tiling.resolved_isa());
        Ok(Self {
            data,
            kernel,
            params,
            pool,
            tiling,
        })
    }

    /// The shared `Q̃` parameters.
    pub fn params(&self) -> &QTildeParams<T> {
        &self.params
    }

    /// The training data.
    pub fn data(&self) -> &DenseMatrix<T> {
        &self.data
    }

    /// The active tiling configuration.
    pub fn tiling(&self) -> &CpuTilingConfig {
        &self.tiling
    }

    /// The ISA tier the panel micro-kernels dispatch to.
    pub fn isa(&self) -> Isa {
        self.tiling.resolved_isa()
    }

    /// Number of worker threads this backend computes with.
    pub fn threads(&self) -> usize {
        self.pool
            .as_ref()
            .map(|p| p.current_num_threads())
            .unwrap_or_else(rayon::current_num_threads)
    }

    /// `out = K·v` over the first `m−1` points, parallel over tile-row
    /// groups (symmetric schedule) or row chunks (full schedule). Runs on
    /// the calling thread below [`crate::par::PAR_GRAIN`].
    pub fn kernel_matvec(&self, v: &[T], out: &mut [T]) {
        let n = self.params.dim();
        debug_assert_eq!(v.len(), n);
        debug_assert_eq!(out.len(), n);
        let data = &self.data;
        let kernel = &self.kernel;
        // problem-size-aware tiles (bit-neutral, see CpuTilingConfig docs)
        let cfg = &self.tiling.effective_for(n);
        let isa = cfg.resolved_isa();
        let work = self.matvec_evals() * data.cols() as u128;

        let run = |out: &mut [T]| {
            with_grain(work, || {
                if cfg.symmetry {
                    // one partial output per group, handed out through the
                    // shared cursor: group g owns tile rows g, g + groups,
                    // …, so the first groups carry the most tiles and start
                    // first
                    let groups = cfg.partial_groups(n);
                    let mut partials = vec![T::ZERO; groups * n];
                    partials
                        .par_chunks_mut(n)
                        .enumerate()
                        .for_each(|(g, partial)| {
                            symmetric_group_matvec(
                                isa, data, kernel, cfg, n, v, g, groups, partial,
                            );
                        });
                    // fixed-order reduction: group count and order depend
                    // only on n and the tiling, so the sum is thread-count
                    // independent
                    out.fill(T::ZERO);
                    for partial in partials.chunks_exact(n) {
                        for (o, p) in out.iter_mut().zip(partial) {
                            *o += *p;
                        }
                    }
                } else {
                    // full sweep: each task owns complete output rows, no
                    // partial buffers needed. The chunking clamps the final
                    // chunk, so n off a row_tile multiple (or n = 1) is
                    // handled explicitly.
                    out.par_chunks_mut(cfg.row_tile)
                        .enumerate()
                        .for_each(|(block, chunk)| {
                            full_rows_matvec(
                                isa,
                                data,
                                kernel,
                                cfg,
                                n,
                                v,
                                block * cfg.row_tile,
                                chunk,
                            );
                        });
                }
            })
        };
        match &self.pool {
            Some(pool) => pool.install(|| run(out)),
            None => run(out),
        }
    }

    /// Kernel evaluations one [`ParallelBackend::kernel_matvec`] performs
    /// under the active schedule.
    pub fn matvec_evals(&self) -> u128 {
        self.tiling.matvec_evals(self.params.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::serial::SerialBackend;
    use crate::kernel::kernel_row;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn sample(points: usize) -> DenseMatrix<f64> {
        generate_planes(&PlanesConfig::new(points, 6, 77))
            .unwrap()
            .x
    }

    fn default_backend(data: &DenseMatrix<f64>, kernel: KernelSpec<f64>) -> ParallelBackend<f64> {
        ParallelBackend::new(
            data.clone(),
            kernel,
            1.0,
            Some(4),
            CpuTilingConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn matches_serial_backend() {
        let data = sample(70); // spans multiple cache tiles
        for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 0.4 }] {
            let serial = SerialBackend::new(data.clone(), kernel, 1.0);
            let par = default_backend(&data, kernel);
            let n = serial.params().dim();
            let v: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.05).sin()).collect();
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            serial.kernel_matvec(&v, &mut a);
            par.kernel_matvec(&v, &mut b);
            for i in 0..n {
                assert!((a[i] - b[i]).abs() < 1e-9, "{kernel:?} row {i}");
            }
        }
    }

    /// Boundary audit (issue satellite): the blocked engine must clamp the
    /// final partial tile correctly for every awkward `n` — a single row,
    /// one off the tile size in both directions, and a prime that divides
    /// nothing. Checked against a naive full sweep for both schedules.
    #[test]
    fn boundary_sizes_match_naive_reference() {
        let tile = 8usize;
        let cfg = CpuTilingConfig::new(tile, tile);
        for n in [1usize, tile - 1, tile + 1, 37] {
            let data = sample(n + 1); // backend dimension is rows − 1
            let v: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.23).cos()).collect();
            let kernel = KernelSpec::Rbf { gamma: 0.35 };
            let mut naive = vec![0.0; n];
            for (i, slot) in naive.iter_mut().enumerate() {
                for (j, &vj) in v.iter().enumerate() {
                    *slot += kernel_row(&kernel, data.row(i), data.row(j)) * vj;
                }
            }
            for cfg in [cfg, cfg.with_symmetry(false)] {
                let b = ParallelBackend::new(data.clone(), kernel, 1.0, Some(2), cfg).unwrap();
                let mut out = vec![0.0; n];
                b.kernel_matvec(&v, &mut out);
                for i in 0..n {
                    assert!(
                        (out[i] - naive[i]).abs() < 1e-9,
                        "n={n} {cfg:?} row {i}: {} vs {}",
                        out[i],
                        naive[i]
                    );
                }
            }
        }
    }

    #[test]
    fn symmetric_and_full_schedules_agree() {
        let data = sample(55);
        let n = data.rows() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let kernel = KernelSpec::Polynomial {
            degree: 3,
            gamma: 0.2,
            coef0: 1.0,
        };
        let sym = default_backend(&data, kernel);
        let full = ParallelBackend::new(
            data.clone(),
            kernel,
            1.0,
            Some(2),
            CpuTilingConfig::default().with_symmetry(false),
        )
        .unwrap();
        assert!(sym.matvec_evals() < full.matvec_evals());
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        sym.kernel_matvec(&v, &mut a);
        full.kernel_matvec(&v, &mut b);
        for i in 0..n {
            assert!((a[i] - b[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn thread_count_reported() {
        let data = sample(10);
        let b = default_backend(&data, KernelSpec::Linear);
        assert_eq!(b.threads(), 4);
        let b = ParallelBackend::new(
            data,
            KernelSpec::Linear,
            1.0,
            None,
            CpuTilingConfig::default(),
        )
        .unwrap();
        assert!(b.threads() >= 1);
    }

    #[test]
    fn zero_threads_and_zero_tiles_rejected() {
        let data = sample(10);
        assert!(ParallelBackend::new(
            data.clone(),
            KernelSpec::Linear,
            1.0,
            Some(0),
            CpuTilingConfig::default()
        )
        .is_err());
        assert!(ParallelBackend::new(
            data,
            KernelSpec::Linear,
            1.0,
            Some(1),
            CpuTilingConfig::new(0, 8)
        )
        .is_err());
    }
}
