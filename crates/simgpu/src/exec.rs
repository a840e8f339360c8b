//! The kernel launch engine.
//!
//! Kernels are written against the CUDA execution model (§III-C of the
//! paper): a launch spawns a 2D **grid** of thread blocks. In this
//! simulation one closure invocation corresponds to one *thread block*; the
//! `blocksize × blocksize` threads of a block (and their register-level
//! tiling) appear as loops inside the closure — which is also exactly how
//! the tiled algorithm is formulated in the paper. Blocks execute one after
//! another in index order on the launching thread, so kernels that mirror
//! `atomicAdd` accumulate in a fixed order and every launch is bitwise
//! reproducible.
//!
//! Kernels report the work they perform through [`KernelCtx`]; after all
//! blocks complete, the launch converts the tallies into simulated time via
//! the roofline model and files them under the kernel's name.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::SimDevice;
use crate::error::SimGpuError;
use crate::hw::Precision;
use crate::perf::kernel_time_s;

/// The block layout of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Blocks along x.
    pub x: usize,
    /// Blocks along y.
    pub y: usize,
}

impl Grid {
    /// A 1D grid of `n` blocks.
    pub fn one_d(n: usize) -> Self {
        Self { x: n, y: 1 }
    }

    /// A 2D grid.
    pub fn two_d(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Total number of blocks.
    pub fn blocks(&self) -> usize {
        self.x * self.y
    }
}

/// Identity of one thread block inside the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockId {
    /// Block index along x.
    pub x: usize,
    /// Block index along y.
    pub y: usize,
}

/// Launch parameters.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Kernel name for the per-kernel counters (profiling view).
    pub name: &'static str,
    /// The grid to spawn.
    pub grid: Grid,
    /// Arithmetic precision, selecting the peak in the roofline.
    pub precision: Precision,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(name: &'static str, grid: Grid, precision: Precision) -> Self {
        Self {
            name,
            grid,
            precision,
        }
    }
}

/// Work tally shared by all blocks of one launch.
///
/// Counts are batched per block (one atomic update per counter per block),
/// so the tally adds no meaningful contention.
#[derive(Debug, Default)]
pub struct KernelCtx {
    flops: AtomicU64,
    global_read_bytes: AtomicU64,
    global_write_bytes: AtomicU64,
}

impl KernelCtx {
    /// Records `n` floating point operations.
    #[inline]
    pub fn add_flops(&self, n: u64) {
        self.flops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes read from global memory.
    #[inline]
    pub fn add_global_read(&self, n: u64) {
        self.global_read_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes written to global memory.
    #[inline]
    pub fn add_global_write(&self, n: u64) {
        self.global_write_bytes.fetch_add(n, Ordering::Relaxed);
    }
}

/// Totals of one completed launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchStats {
    /// Floating point operations executed.
    pub flops: u64,
    /// Global memory traffic in bytes (reads + writes).
    pub global_bytes: u64,
    /// Simulated execution time in seconds.
    pub sim_time_s: f64,
}

impl SimDevice {
    /// Launches a kernel: runs `kernel` once per block (in index order),
    /// tallies the reported work and records simulated time.
    pub fn launch<F>(&self, cfg: &LaunchConfig, kernel: F) -> Result<LaunchStats, SimGpuError>
    where
        F: Fn(BlockId, &KernelCtx),
    {
        if cfg.grid.blocks() == 0 {
            return Err(SimGpuError::InvalidLaunch(format!(
                "kernel '{}' launched with an empty grid",
                cfg.name
            )));
        }
        // Injected-fault gate: fail-stop/transient faults abort the launch
        // before any work runs; slow-device faults stretch simulated time.
        let slowdown = self.state.fault_check(self.id())?;
        let ctx = KernelCtx::default();
        let grid = cfg.grid;
        // blocks run one after another in index order: kernels mirror
        // `atomicAdd` into shared accumulators, so their floating-point sums
        // depend on block order, and a fixed order keeps them reproducible
        for i in 0..grid.blocks() {
            let id = BlockId {
                x: i % grid.x,
                y: i / grid.x,
            };
            kernel(id, &ctx);
        }

        let flops = ctx.flops.load(Ordering::Relaxed);
        let global_bytes = ctx.global_read_bytes.load(Ordering::Relaxed)
            + ctx.global_write_bytes.load(Ordering::Relaxed);
        let sim_time_s = kernel_time_s(
            &self.state.spec,
            &self.state.profile,
            cfg.precision,
            flops,
            global_bytes,
        ) * slowdown;
        self.state
            .perf
            .lock()
            .record_launch(cfg.name, flops, global_bytes, sim_time_s);
        Ok(LaunchStats {
            flops,
            global_bytes,
            sim_time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{Backend, A100};

    fn device() -> SimDevice {
        SimDevice::new(A100, Backend::Cuda)
    }

    #[test]
    fn grid_helpers() {
        assert_eq!(Grid::one_d(5), Grid { x: 5, y: 1 });
        assert_eq!(Grid::two_d(3, 4).blocks(), 12);
    }

    #[test]
    fn empty_grid_rejected() {
        let dev = device();
        let cfg = LaunchConfig::new("noop", Grid::two_d(0, 3), Precision::F64);
        assert!(matches!(
            dev.launch(&cfg, |_, _| {}),
            Err(SimGpuError::InvalidLaunch(_))
        ));
    }

    #[test]
    fn every_block_runs_exactly_once() {
        let dev = device();
        let grid = Grid::two_d(7, 5);
        let seen = dev.alloc_atomic::<f64>(grid.blocks()).unwrap();
        let cfg = LaunchConfig::new("count", grid, Precision::F64);
        dev.launch(&cfg, |blk, _| {
            assert!(blk.x < 7 && blk.y < 5);
            seen.add(blk.y * 7 + blk.x, 1.0);
        })
        .unwrap();
        assert!(seen.read_to_host().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn tallies_sum_over_blocks() {
        let dev = device();
        let cfg = LaunchConfig::new("tally", Grid::one_d(10), Precision::F64);
        let stats = dev
            .launch(&cfg, |_, ctx| {
                ctx.add_flops(100);
                ctx.add_global_read(8);
                ctx.add_global_write(4);
            })
            .unwrap();
        assert_eq!(stats.flops, 1000);
        assert_eq!(stats.global_bytes, 120);
        assert!(stats.sim_time_s > 0.0);
    }

    #[test]
    fn launches_recorded_per_kernel() {
        let dev = device();
        let cfg_a = LaunchConfig::new("a", Grid::one_d(1), Precision::F64);
        let cfg_b = LaunchConfig::new("b", Grid::one_d(1), Precision::F64);
        dev.launch(&cfg_a, |_, ctx| ctx.add_flops(5)).unwrap();
        dev.launch(&cfg_a, |_, ctx| ctx.add_flops(5)).unwrap();
        dev.launch(&cfg_b, |_, _| {}).unwrap();
        let r = dev.perf_report();
        assert_eq!(r.kernel_launches, 3);
        assert_eq!(r.per_kernel["a"].launches, 2);
        assert_eq!(r.per_kernel["a"].flops, 10);
        assert_eq!(r.per_kernel["b"].launches, 1);
        assert_eq!(r.total_flops, 10);
    }

    #[test]
    fn sim_time_uses_roofline() {
        let dev = device();
        // Compute-bound: 9.7e12 flops at 32 % of 9.7 TFLOP/s → 3.125 s
        let cfg = LaunchConfig::new("compute", Grid::one_d(1), Precision::F64);
        let stats = dev
            .launch(&cfg, |_, ctx| ctx.add_flops(9_700_000_000_000))
            .unwrap();
        assert!((stats.sim_time_s - 1.0 / 0.32).abs() < 1e-3);
    }

    #[test]
    fn injected_faults_gate_launches() {
        use crate::fault::FaultPlan;
        let dev = device();
        dev.install_fault_plan(&FaultPlan::new().transient(0, 1, 1).slow(0, 2, 3.0));
        let cfg = LaunchConfig::new("faulty", Grid::one_d(1), Precision::F64);
        // attempt 0: nominal
        let base = dev.launch(&cfg, |_, c| c.add_flops(1_000_000_000)).unwrap();
        // attempt 1: transient timeout, no work recorded
        assert!(matches!(
            dev.launch(&cfg, |_, _| {}),
            Err(SimGpuError::TransientTimeout {
                device: 0,
                launch: 1
            })
        ));
        // attempt 2: succeeds again, but 3x slower
        let slowed = dev.launch(&cfg, |_, c| c.add_flops(1_000_000_000)).unwrap();
        assert!((slowed.sim_time_s - 3.0 * base.sim_time_s).abs() < 1e-12 * base.sim_time_s);
        assert_eq!(dev.fault_attempts(), 3);
        assert_eq!(dev.perf_report().kernel_launches, 2);
        dev.clear_faults();
        assert_eq!(dev.fault_attempts(), 0);
    }

    #[test]
    fn fail_stop_is_permanent_at_launch_level() {
        use crate::fault::FaultPlan;
        let dev = device();
        dev.install_fault_plan(&FaultPlan::new().fail_stop(0, 0));
        let cfg = LaunchConfig::new("dead", Grid::one_d(1), Precision::F64);
        for _ in 0..3 {
            assert!(matches!(
                dev.launch(&cfg, |_, _| {}),
                Err(SimGpuError::DeviceFailed { device: 0, .. })
            ));
        }
        assert!(dev.has_failed());
        assert_eq!(dev.perf_report().kernel_launches, 0);
    }

    #[test]
    fn kernel_can_use_device_buffers() {
        let dev = device();
        let input = dev
            .copy_to_device(&(0..64).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        let output = dev.alloc_atomic::<f64>(1).unwrap();
        let cfg = LaunchConfig::new("reduce", Grid::one_d(8), Precision::F64);
        // each block sums its 8-element tile
        dev.launch(&cfg, |blk, ctx| {
            let tile = &input.as_slice()[blk.x * 8..(blk.x + 1) * 8];
            let s: f64 = tile.iter().sum();
            output.add(0, s);
            ctx.add_flops(8);
            ctx.add_global_read(8 * 8);
        })
        .unwrap();
        assert_eq!(output.get(0), (0..64).sum::<i64>() as f64);
    }
}
