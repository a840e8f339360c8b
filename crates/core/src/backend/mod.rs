//! Interchangeable execution backends (§III).
//!
//! The paper implements the expensive implicit matrix–vector product with
//! four frameworks — OpenMP, CUDA, OpenCL, SYCL — selectable at runtime.
//! This reproduction mirrors that architecture:
//!
//! * [`serial`] — a single-threaded reference implementation (ground truth
//!   for tests),
//! * [`parallel`] — the "OpenMP" CPU backend: multi-threaded via a rayon
//!   pool with a configurable thread count (used for the paper's many-core
//!   scaling study, Fig. 4a). Runs on the blocked, register-tiled matvec
//!   engine of [`cpu_blocked`] with symmetry exploitation, so it performs
//!   the same `n(n+1)/2` kernel evaluations as the serial reference,
//! * [`simgpu`] — the device backend: the paper's tiled GPU kernels
//!   (blocking, `q⃗` caching, block-level/thread-level tiling, triangular
//!   scheduling with atomic mirroring, §III-C) executed on the simulated
//!   GPGPU devices of `plssvm-simgpu`, standing in for CUDA, OpenCL and
//!   SYCL. Supports multi-device execution for the linear kernel via the
//!   feature-wise split of §III-C-5.
//!
//! All backends produce the *same numbers* (up to floating point
//! reassociation); they differ in how the work is executed and what gets
//! counted.

pub mod cpu_blocked;
pub mod parallel;
pub mod serial;
pub mod simgpu;
pub mod sparse;

pub use cpu_blocked::CpuTilingConfig;

use std::sync::Arc;

use plssvm_data::dense::{DenseMatrix, SoAMatrix};
use plssvm_data::model::KernelSpec;
use plssvm_simgpu::device::AtomicScalar;
use plssvm_simgpu::{Backend as DeviceApi, FaultPlan, GpuSpec, PerfReport};

use crate::cg::LinOp;
use crate::error::SvmError;
use crate::kernel::kernel_flops;
use crate::matrix_free::QTildeParams;
use crate::trace::{MetricsSink, RecoveryKind, RecoverySample};

/// Runtime backend selection (the paper's `--backend` switch).
#[derive(Debug, Clone)]
pub enum BackendSelection {
    /// Single-threaded reference CPU implementation.
    Serial,
    /// Multi-threaded CPU backend ("OpenMP"). `threads = None` uses all
    /// available cores.
    OpenMp {
        /// Number of worker threads; `None` = all logical cores.
        threads: Option<usize>,
        /// Cache-tile sizes and schedule of the blocked matvec engine.
        tiling: CpuTilingConfig,
    },
    /// Sparse (CSR) CPU backend — the §V "sparse data structures for the
    /// CG solver" extension. `threads = None` uses all available cores.
    SparseCpu {
        /// Number of worker threads; `None` = all logical cores.
        threads: Option<usize>,
    },
    /// Simulated device backend (stands in for CUDA/OpenCL/SYCL).
    SimGpu {
        /// Hardware model from the `plssvm_simgpu::hw` catalog.
        hardware: GpuSpec,
        /// Which device API's efficiency profile to simulate.
        api: DeviceApi,
        /// Number of devices (multi-GPU only for the linear kernel).
        devices: usize,
        /// Tiling configuration of the device kernels.
        tiling: simgpu::TilingConfig,
    },
    /// Simulated multi-device backend with the **row-split** extension:
    /// data replicated per device, output rows partitioned — works for
    /// *every* kernel function, lifting the paper's linear-only multi-GPU
    /// restriction at the cost of full per-device memory.
    SimGpuRows {
        /// Hardware model from the `plssvm_simgpu::hw` catalog.
        hardware: GpuSpec,
        /// Which device API's efficiency profile to simulate.
        api: DeviceApi,
        /// Number of devices.
        devices: usize,
        /// Tiling configuration of the device kernels.
        tiling: simgpu::TilingConfig,
    },
    /// Simulated **multi-node** cluster of (possibly heterogeneous)
    /// devices — the paper's §V long-term goal. Linear kernel only.
    SimCluster {
        /// The nodes with their devices.
        nodes: Vec<plssvm_simgpu::NodeConfig>,
        /// The inter-node network model.
        interconnect: plssvm_simgpu::Interconnect,
        /// Tiling configuration of the device kernels.
        tiling: simgpu::TilingConfig,
        /// Weight the feature split by device throughput (heterogeneous
        /// load balancing) instead of splitting evenly.
        balance: bool,
    },
}

impl Default for BackendSelection {
    fn default() -> Self {
        BackendSelection::openmp(None)
    }
}

impl BackendSelection {
    /// The "OpenMP" CPU backend with default tiling.
    pub fn openmp(threads: Option<usize>) -> Self {
        BackendSelection::OpenMp {
            threads,
            tiling: CpuTilingConfig::default(),
        }
    }

    /// A single simulated device with default tiling — the configuration
    /// of the paper's single-GPU experiments (A100 + CUDA).
    pub fn sim_gpu(hardware: GpuSpec, api: DeviceApi) -> Self {
        BackendSelection::SimGpu {
            hardware,
            api,
            devices: 1,
            tiling: simgpu::TilingConfig::default(),
        }
    }

    /// `n` simulated devices with default tiling (linear kernel only).
    pub fn sim_multi_gpu(hardware: GpuSpec, api: DeviceApi, devices: usize) -> Self {
        BackendSelection::SimGpu {
            hardware,
            api,
            devices,
            tiling: simgpu::TilingConfig::default(),
        }
    }

    /// `n` simulated devices in **row-split** mode (any kernel; data
    /// replicated per device).
    pub fn sim_multi_gpu_rows(hardware: GpuSpec, api: DeviceApi, devices: usize) -> Self {
        BackendSelection::SimGpuRows {
            hardware,
            api,
            devices,
            tiling: simgpu::TilingConfig::default(),
        }
    }

    /// Human-readable backend name for reports.
    pub fn name(&self) -> String {
        match self {
            BackendSelection::Serial => "serial".to_owned(),
            BackendSelection::OpenMp { threads: None, .. } => "openmp".to_owned(),
            BackendSelection::OpenMp {
                threads: Some(t), ..
            } => format!("openmp[{t}]"),
            BackendSelection::SparseCpu { threads: None } => "sparse".to_owned(),
            BackendSelection::SparseCpu { threads: Some(t) } => format!("sparse[{t}]"),
            BackendSelection::SimGpu {
                hardware,
                api,
                devices,
                ..
            } => format!("{} on {}x {}", api.name(), devices, hardware.name),
            BackendSelection::SimGpuRows {
                hardware,
                api,
                devices,
                ..
            } => format!(
                "{} on {}x {} (row split)",
                api.name(),
                devices,
                hardware.name
            ),
            BackendSelection::SimCluster { nodes, .. } => {
                let total: usize = nodes.iter().map(|n| n.devices.len()).sum();
                format!("cluster of {} nodes / {} devices", nodes.len(), total)
            }
        }
    }
}

/// Counters collected by a device backend during one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Per-device performance snapshots.
    pub per_device: Vec<PerfReport>,
    /// Simulated wall-clock assuming devices run concurrently (max over
    /// devices of kernels + transfers), in seconds.
    pub sim_parallel_time_s: f64,
    /// Largest per-device peak memory in bytes.
    pub peak_memory_per_device_bytes: usize,
    /// Number of cluster nodes the devices are spread over (1 =
    /// single-node, the paper's configuration).
    pub nodes: usize,
    /// Simulated seconds spent in inter-node allreduces (0 single-node).
    pub network_time_s: f64,
    /// Number of inter-node collectives performed.
    pub network_collectives: usize,
}

impl DeviceReport {
    /// Device time plus network time — the simulated wall-clock of a
    /// multi-node run.
    pub fn total_sim_time_s(&self) -> f64 {
        self.sim_parallel_time_s + self.network_time_s
    }

    /// Folds the per-device kernel counters into the unified metrics
    /// schema of [`crate::trace`]: launches, FLOPs, bytes and simulated
    /// time are summed across devices under each kernel's name. This is
    /// how the device backend's private bookkeeping joins the
    /// [`MetricsSink`] counters the CPU backends record directly.
    pub fn fold_into(&self, sink: &dyn MetricsSink) {
        for dev in &self.per_device {
            for (name, k) in &dev.per_kernel {
                sink.record_launch(name, k.launches, k.flops, k.global_bytes, k.sim_time_s);
            }
        }
    }
}

/// A backend that has been set up for a specific training set: data is
/// uploaded (device backends) and the `q⃗` cache is computed.
///
/// Implements [`LinOp`] as the full `Q̃` operator: the backend computes the
/// heavy kernel-matrix part, [`QTildeParams`] folds in the diagonal and
/// rank-one corrections.
pub struct Prepared<T: AtomicScalar> {
    imp: PreparedImpl<T>,
    params: QTildeParams<T>,
    kernel: KernelSpec<T>,
    points: usize,
    features: usize,
    metrics: Option<Arc<dyn MetricsSink>>,
    /// First-occurrence latch for the matvec finiteness guard: one
    /// `numeric_fault` recovery event per solve, not one per poisoned
    /// iteration.
    numeric_fault_reported: std::sync::atomic::AtomicBool,
}

enum PreparedImpl<T: AtomicScalar> {
    Serial(serial::SerialBackend<T>),
    Parallel(parallel::ParallelBackend<T>),
    Sparse(sparse::SparseBackend<T>),
    SimGpu(simgpu::SimGpuBackend<T>),
}

impl<T: AtomicScalar> std::fmt::Debug for Prepared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let variant = match &self.imp {
            PreparedImpl::Serial(_) => "serial",
            PreparedImpl::Parallel(_) => "openmp",
            PreparedImpl::Sparse(_) => "sparse",
            PreparedImpl::SimGpu(_) => "simgpu",
        };
        f.debug_struct("Prepared")
            .field("backend", &variant)
            .field("dim", &self.params.dim())
            .finish()
    }
}

impl<T: AtomicScalar> Prepared<T> {
    /// Sets up the selected backend for the training data.
    ///
    /// The CPU backends consume the row-major `dense` matrix directly (the
    /// paper's SoA transform is applied only for the device backends,
    /// §IV-E). For the device backend, pass the padded SoA transform in
    /// `soa` (so its cost can be attributed to the `transform` component);
    /// when `None`, the transform runs here. `cost` is the LS-SVM
    /// weighting constant `C`.
    pub fn new(
        selection: &BackendSelection,
        dense: &DenseMatrix<T>,
        soa: Option<&SoAMatrix<T>>,
        kernel: &KernelSpec<T>,
        cost: T,
    ) -> Result<Self, SvmError> {
        kernel.validate()?;
        if dense.rows() < 2 {
            return Err(SvmError::Solver(
                "training needs at least two data points".into(),
            ));
        }
        // Reject zero-feature data here rather than letting `default_gamma`
        // silently clamp `num_features = 0` to 1 downstream.
        if dense.cols() == 0 {
            return Err(SvmError::Solver(
                "training data has zero features; every point needs at \
                 least one feature"
                    .into(),
            ));
        }
        // the negated comparison deliberately rejects NaN as well
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(cost.to_f64() > 0.0) {
            return Err(SvmError::Solver(format!(
                "the cost parameter C must be positive, got {cost}"
            )));
        }
        let (imp, params) = match selection {
            BackendSelection::Serial => {
                let b = serial::SerialBackend::new(dense.clone(), *kernel, cost);
                let params = b.params().clone();
                (PreparedImpl::Serial(b), params)
            }
            BackendSelection::OpenMp { threads, tiling } => {
                let b = parallel::ParallelBackend::new(
                    dense.clone(),
                    *kernel,
                    cost,
                    *threads,
                    *tiling,
                )?;
                let params = b.params().clone();
                (PreparedImpl::Parallel(b), params)
            }
            BackendSelection::SparseCpu { threads } => {
                let b = sparse::SparseBackend::new(dense, *kernel, cost, *threads)?;
                let params = b.params().clone();
                (PreparedImpl::Sparse(b), params)
            }
            BackendSelection::SimGpu {
                hardware,
                api,
                devices,
                tiling,
            } => {
                let owned;
                let soa = match soa {
                    Some(s) => s,
                    None => {
                        owned = SoAMatrix::from_dense(dense, tiling.tile());
                        &owned
                    }
                };
                let b = simgpu::SimGpuBackend::new(
                    soa,
                    *kernel,
                    cost,
                    hardware.clone(),
                    *api,
                    *devices,
                    *tiling,
                )?;
                let params = b.params().clone();
                (PreparedImpl::SimGpu(b), params)
            }
            BackendSelection::SimGpuRows {
                hardware,
                api,
                devices,
                tiling,
            } => {
                let owned;
                let soa = match soa {
                    Some(s) => s,
                    None => {
                        owned = SoAMatrix::from_dense(dense, tiling.tile());
                        &owned
                    }
                };
                let b = simgpu::SimGpuBackend::new_row_split(
                    soa,
                    *kernel,
                    cost,
                    hardware.clone(),
                    *api,
                    *devices,
                    *tiling,
                )?;
                let params = b.params().clone();
                (PreparedImpl::SimGpu(b), params)
            }
            BackendSelection::SimCluster {
                nodes,
                interconnect,
                tiling,
                balance,
            } => {
                let owned;
                let soa = match soa {
                    Some(s) => s,
                    None => {
                        owned = SoAMatrix::from_dense(dense, tiling.tile());
                        &owned
                    }
                };
                let b = simgpu::SimGpuBackend::new_cluster(
                    soa,
                    *kernel,
                    cost,
                    nodes,
                    *interconnect,
                    *tiling,
                    *balance,
                )?;
                let params = b.params().clone();
                (PreparedImpl::SimGpu(b), params)
            }
        };
        Ok(Self {
            imp,
            params,
            kernel: *kernel,
            points: dense.rows(),
            features: dense.cols(),
            metrics: None,
            numeric_fault_reported: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The shared `Q̃` parameters (cached `q⃗`, `k_mm`, `1/C`).
    pub fn params(&self) -> &QTildeParams<T> {
        &self.params
    }

    /// Attaches a [`MetricsSink`]: from now on every implicit matvec
    /// reports one `svm_kernel` launch and [`Prepared::compute_linear_w`]
    /// one `w_kernel` launch.
    ///
    /// The CPU backends record the *logical* cost of each launch (every
    /// `K·v` entry evaluated once — see [`crate::trace`] for the counting
    /// convention), so this call also retroactively records the one
    /// `q_kernel` setup launch they performed in [`Prepared::new`]. On top
    /// of the logical counters they report the *physical* kernel
    /// evaluations each matvec actually performs (which the symmetric
    /// schedules halve) through
    /// [`MetricsSink::record_kernel_evals`]. The device backend counts its
    /// real tiled launches on-device instead; fold them in at the end of a
    /// run with [`DeviceReport::fold_into`].
    pub fn set_metrics(&mut self, sink: Arc<dyn MetricsSink>) {
        if self.is_cpu() {
            let (flops, bytes) = self.q_kernel_cost();
            sink.record_launch("q_kernel", 1, flops, bytes, 0.0);
        }
        if let Some(isa) = self.isa() {
            // "forced" only when the env override is what produced this
            // tier — a tier pinned programmatically (with_isa) is not
            let forced = matches!(
                crate::simd::Isa::forced(),
                Ok(Some(f)) if f.clamp_supported() == isa
            );
            sink.record_dispatch(crate::trace::DispatchSample {
                isa: isa.name(),
                forced,
                panel_mr: crate::kernel::PANEL_MR,
                panel_nr: crate::kernel::PANEL_NR,
                lanes_f32: isa.lanes_f32(),
                lanes_f64: isa.lanes_f64(),
            });
        }
        self.metrics = Some(sink);
    }

    fn is_cpu(&self) -> bool {
        !matches!(self.imp, PreparedImpl::SimGpu(_))
    }

    /// The SIMD ISA tier the blocked panel engine dispatches to, resolved
    /// once at construction and cached for the backend's lifetime. `None`
    /// for backends that do not run the panel micro-kernels (the sparse
    /// row sweep and the simulated devices).
    pub fn isa(&self) -> Option<crate::simd::Isa> {
        match &self.imp {
            PreparedImpl::Serial(b) => Some(b.isa()),
            PreparedImpl::Parallel(b) => Some(b.isa()),
            PreparedImpl::Sparse(_) | PreparedImpl::SimGpu(_) => None,
        }
    }

    /// *Physical* kernel evaluations one matvec performs on this backend:
    /// `n(n+1)/2` for the symmetric CPU schedules, `n²` for the full row
    /// sweep of the sparse backend. Device backends count their own tiled
    /// launches instead (see [`DeviceReport`]).
    fn matvec_evals(&self) -> Option<u128> {
        let n = self.params.dim() as u128;
        match &self.imp {
            PreparedImpl::Serial(_) => Some(n * (n + 1) / 2),
            PreparedImpl::Parallel(b) => Some(b.matvec_evals()),
            PreparedImpl::Sparse(_) => Some(n * n),
            PreparedImpl::SimGpu(_) => None,
        }
    }

    /// Logical cost of the `q⃗` setup pass: `m` kernel evaluations
    /// `q_i = k(x_i, x_m)` over all `m` rows (`k_mm` is row `m` itself) —
    /// the same accounting the device's `q_kernel` reports.
    fn q_kernel_cost(&self) -> (u128, u128) {
        let m = self.points as u128;
        let d = self.features as u128;
        let scalar = std::mem::size_of::<T>() as u128;
        let flops = m * u128::from(kernel_flops(&self.kernel, self.features));
        let bytes = (m + 1) * d * scalar + m * scalar;
        (flops, bytes)
    }

    /// Logical cost of one implicit `K·v` matvec: `n²` kernel evaluations
    /// plus one fused multiply–add per entry, reading the data and `v`
    /// once and writing `out` once.
    fn matvec_cost(&self) -> (u128, u128) {
        let n = self.params.dim() as u128;
        let d = self.features as u128;
        let scalar = std::mem::size_of::<T>() as u128;
        let flops = n * n * (u128::from(kernel_flops(&self.kernel, self.features)) + 2);
        let bytes = (n * d + 2 * n) * scalar;
        (flops, bytes)
    }

    /// Logical cost of `w = Σᵢ αᵢ·xᵢ`: one fused multiply–add per matrix
    /// entry, reading the data and `α` once and writing `w` once.
    fn w_kernel_cost(&self) -> (u128, u128) {
        let m = self.points as u128;
        let d = self.features as u128;
        let scalar = std::mem::size_of::<T>() as u128;
        (2 * m * d, (m * d + m + d) * scalar)
    }

    /// Installs per-sample weights (weighted LS-SVM, Suykens et al. \[25\]):
    /// only the host-side diagonal corrections change, so every backend —
    /// including the device ones — supports weighting without re-uploading
    /// anything.
    pub fn set_sample_weights(&mut self, weights: &[T], cost: T) -> Result<(), SvmError> {
        self.params
            .set_sample_weights(weights, cost)
            .map_err(SvmError::Solver)
    }

    /// Computes the explicit normal vector `w = Σᵢ αᵢ·xᵢ` (Eq. 15) for the
    /// **linear kernel** on every backend. On the device backend this
    /// launches the paper's third compute kernel (`w_kernel`); the CPU
    /// backends accumulate on the host (the sparse backend over its CSR
    /// rows). `alpha` must hold all `m` support values. Not meaningful for
    /// nonlinear kernels (their `w` lives in feature space) — the caller
    /// gates on the kernel kind.
    pub fn compute_linear_w(&self, alpha: &[T]) -> Result<Option<Vec<T>>, SvmError> {
        let w = match &self.imp {
            PreparedImpl::SimGpu(b) => b.compute_w(alpha).map(Some),
            PreparedImpl::Serial(b) => Ok(Some(host_linear_w(b.data(), alpha))),
            PreparedImpl::Parallel(b) => Ok(Some(host_linear_w(b.data(), alpha))),
            PreparedImpl::Sparse(b) => Ok(Some(b.linear_w(alpha))),
        };
        if w.is_ok() && self.is_cpu() {
            if let Some(sink) = &self.metrics {
                let (flops, bytes) = self.w_kernel_cost();
                sink.record_launch("w_kernel", 1, flops, bytes, 0.0);
            }
        }
        self.drain_recovery();
        w
    }

    /// Device counters, if this is a device backend. Also drains any
    /// pending recovery events into the attached metrics sink.
    pub fn device_report(&self) -> Option<DeviceReport> {
        self.drain_recovery();
        match &self.imp {
            PreparedImpl::SimGpu(b) => Some(b.report()),
            _ => None,
        }
    }

    /// Installs a deterministic [`FaultPlan`] on the simulated devices:
    /// subsequent launches are gated by the plan and the recovery policy
    /// (retry-with-backoff, fail-stop shard redistribution, straggler
    /// rebalancing) engages. Errors on CPU backends — fault injection is a
    /// device-backend concept.
    pub fn install_fault_plan(&self, plan: &FaultPlan) -> Result<(), SvmError> {
        match &self.imp {
            PreparedImpl::SimGpu(b) => b.install_fault_plan(plan),
            _ => Err(SvmError::Solver(
                "fault injection requires a simulated device backend \
                 (simgpu, simgpu-rows or cluster)"
                    .into(),
            )),
        }
    }

    /// Number of devices that have not fail-stopped (CPU backends report
    /// their single host "device").
    pub fn live_devices(&self) -> usize {
        match &self.imp {
            PreparedImpl::SimGpu(b) => b.live_devices(),
            _ => 1,
        }
    }

    /// Moves recovery events accumulated by the device backend into the
    /// attached metrics sink (no-op without a sink or on CPU backends;
    /// events stay queued on the backend until a sink is available).
    fn drain_recovery(&self) {
        if let (PreparedImpl::SimGpu(b), Some(sink)) = (&self.imp, &self.metrics) {
            for sample in b.drain_recovery_events() {
                sink.record_recovery(sample);
            }
        }
    }
}

/// Host-side `w = Σᵢ αᵢ·xᵢ` over row-major data.
fn host_linear_w<T: plssvm_data::Real>(data: &DenseMatrix<T>, alpha: &[T]) -> Vec<T> {
    let mut w = vec![T::ZERO; data.cols()];
    for (p, &a) in alpha.iter().enumerate() {
        for (f, &x) in data.row(p).iter().enumerate() {
            w[f] = a.mul_add(x, w[f]);
        }
    }
    w
}

impl<T: AtomicScalar> LinOp<T> for Prepared<T> {
    fn dim(&self) -> usize {
        self.params.dim()
    }

    fn apply(&self, v: &[T], out: &mut [T]) {
        match &self.imp {
            PreparedImpl::Serial(b) => b.kernel_matvec(v, out),
            PreparedImpl::Parallel(b) => b.kernel_matvec(v, out),
            PreparedImpl::Sparse(b) => b.kernel_matvec(v, out),
            // `LinOp::apply` is infallible by contract; the device matvec
            // recovers from injected faults internally and only errors
            // when no device survives (or on a real device error such as
            // out-of-memory mid-solve)
            PreparedImpl::SimGpu(b) => {
                if let Err(e) = b.kernel_matvec(v, out) {
                    panic!("device matvec failed beyond recovery: {e}");
                }
                self.drain_recovery();
            }
        }
        self.params.apply_corrections(v, out);
        // finiteness guard: a single NaN/Inf produced here poisons every
        // CG recurrence downstream. The solver classifies the breakdown;
        // this records *where* the poison entered (first occurrence only —
        // subsequent poisoned matvecs of the same solve stay quiet).
        if let Some(bad) = out.iter().position(|y| !y.is_finite()) {
            use std::sync::atomic::Ordering;
            if let Some(sink) = &self.metrics {
                if !self.numeric_fault_reported.swap(true, Ordering::Relaxed) {
                    sink.record_recovery(RecoverySample::solver(
                        RecoveryKind::NumericFault,
                        0,
                        format!(
                            "non-finite matvec output first observed at component {bad} \
                             (input finite: {})",
                            v.iter().all(|x| x.is_finite())
                        ),
                    ));
                }
            }
        }
        if self.is_cpu() {
            if let Some(sink) = &self.metrics {
                let (flops, bytes) = self.matvec_cost();
                sink.record_launch("svm_kernel", 1, flops, bytes, 0.0);
                if let Some(evals) = self.matvec_evals() {
                    sink.record_kernel_evals("svm_kernel", evals);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{PANEL_MR, PANEL_NR};
    use plssvm_data::dense::DenseMatrix;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};
    use plssvm_simgpu::hw;

    fn sample_dense(points: usize, features: usize) -> (DenseMatrix<f64>, Vec<f64>) {
        let d = generate_planes(&PlanesConfig::new(points, features, 31)).unwrap();
        (d.x, d.y)
    }

    fn all_selections() -> Vec<BackendSelection> {
        vec![
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::openmp(None),
            BackendSelection::OpenMp {
                threads: Some(2),
                tiling: CpuTilingConfig::new(8, 8).with_symmetry(false),
            },
            BackendSelection::SparseCpu { threads: Some(2) },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 3),
        ]
    }

    #[test]
    fn backends_agree_on_q_tilde_matvec_linear() {
        let (data, _) = sample_dense(33, 9);
        let kernel = KernelSpec::Linear;
        let n = data.rows() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();

        let reference = {
            let p = Prepared::new(&BackendSelection::Serial, &data, None, &kernel, 1.5).unwrap();
            let mut out = vec![0.0; n];
            p.apply(&v, &mut out);
            out
        };
        for sel in all_selections() {
            let p = Prepared::new(&sel, &data, None, &kernel, 1.5).unwrap();
            assert_eq!(p.dim(), n);
            let mut out = vec![0.0; n];
            p.apply(&v, &mut out);
            for i in 0..n {
                assert!(
                    (out[i] - reference[i]).abs() < 1e-8,
                    "{} row {i}: {} vs {}",
                    sel.name(),
                    out[i],
                    reference[i]
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_nonlinear_kernels_single_device() {
        let (data, _) = sample_dense(21, 5);
        for kernel in [
            KernelSpec::Polynomial {
                degree: 3,
                gamma: 0.3,
                coef0: 1.0,
            },
            KernelSpec::Rbf { gamma: 0.6 },
        ] {
            let n = data.rows() - 1;
            let v: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
            let reference = {
                let p =
                    Prepared::new(&BackendSelection::Serial, &data, None, &kernel, 2.0).unwrap();
                let mut out = vec![0.0; n];
                p.apply(&v, &mut out);
                out
            };
            for sel in [
                BackendSelection::openmp(Some(3)),
                BackendSelection::sim_gpu(hw::V100, DeviceApi::OpenCl),
            ] {
                let p = Prepared::new(&sel, &data, None, &kernel, 2.0).unwrap();
                let mut out = vec![0.0; n];
                p.apply(&v, &mut out);
                for i in 0..n {
                    assert!(
                        (out[i] - reference[i]).abs() < 1e-8,
                        "{:?} {} row {i}",
                        kernel,
                        sel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn multi_device_nonlinear_rejected() {
        let (data, _) = sample_dense(12, 4);
        let sel = BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 2);
        let err =
            Prepared::new(&sel, &data, None, &KernelSpec::Rbf { gamma: 0.5 }, 1.0).unwrap_err();
        assert!(err.to_string().contains("linear"), "{err}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (data, _) = sample_dense(8, 3);
        // C <= 0
        assert!(Prepared::new(
            &BackendSelection::Serial,
            &data,
            None,
            &KernelSpec::Linear,
            0.0
        )
        .is_err());
        assert!(Prepared::new(
            &BackendSelection::Serial,
            &data,
            None,
            &KernelSpec::Linear,
            -1.0
        )
        .is_err());
        // invalid kernel hyperparameters
        assert!(Prepared::new(
            &BackendSelection::Serial,
            &data,
            None,
            &KernelSpec::Rbf { gamma: -0.5 },
            1.0
        )
        .is_err());
        // one data point
        let tiny = DenseMatrix::from_rows(vec![vec![1.0f64, 2.0]]).unwrap();
        assert!(Prepared::new(
            &BackendSelection::Serial,
            &tiny,
            None,
            &KernelSpec::Linear,
            1.0
        )
        .is_err());
    }

    #[test]
    fn zero_feature_data_rejected_by_every_backend() {
        // each point exists but carries no features; `default_gamma` would
        // silently clamp 1/num_features — construction must refuse instead
        let empty = DenseMatrix::<f64>::zeros(3, 0);
        for sel in all_selections() {
            let err = Prepared::new(&sel, &empty, None, &KernelSpec::Linear, 1.0).unwrap_err();
            assert!(
                err.to_string().contains("zero features"),
                "{}: {err}",
                sel.name()
            );
        }
    }

    #[test]
    fn cpu_backends_report_physical_kernel_evals() {
        use crate::trace::Telemetry;
        let (data, _) = sample_dense(20, 6);
        let n = (data.rows() - 1) as u128;
        let v: Vec<f64> = (0..data.rows() - 1)
            .map(|i| (i as f64 * 0.2).sin())
            .collect();
        let expect = |sel: &BackendSelection| match sel {
            BackendSelection::SparseCpu { .. } => n * n,
            BackendSelection::OpenMp { tiling, .. } if !tiling.symmetry => n * n,
            _ => n * (n + 1) / 2,
        };
        for sel in [
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::OpenMp {
                threads: Some(2),
                tiling: CpuTilingConfig::default().with_symmetry(false),
            },
            BackendSelection::SparseCpu { threads: Some(2) },
        ] {
            let mut p = Prepared::new(&sel, &data, None, &KernelSpec::Linear, 1.0).unwrap();
            let t = Telemetry::shared();
            p.set_metrics(t.clone());
            let mut out = vec![0.0; data.rows() - 1];
            p.apply(&v, &mut out);
            p.apply(&v, &mut out);
            let r = t.report();
            assert_eq!(
                r.kernel_evals["svm_kernel"],
                2 * expect(&sel),
                "{}",
                sel.name()
            );
        }
    }

    #[test]
    fn blocked_cpu_backends_report_simd_dispatch() {
        use crate::trace::Telemetry;
        let (data, _) = sample_dense(16, 4);
        // the panel-engine backends cache an ISA tier and emit one
        // dispatch sample when a sink is attached; the sparse row sweep
        // and the simulated devices run no panel micro-kernels
        for sel in [BackendSelection::Serial, BackendSelection::openmp(Some(2))] {
            let mut p = Prepared::new(&sel, &data, None, &KernelSpec::Linear, 1.0).unwrap();
            let isa = p.isa().expect("panel backend has a cached tier");
            let t = Telemetry::shared();
            p.set_metrics(t.clone());
            let d = t.report().dispatch.expect("dispatch sample recorded");
            assert_eq!(d.isa, isa.name(), "{}", sel.name());
            assert_eq!((d.panel_mr, d.panel_nr), (PANEL_MR, PANEL_NR));
            assert_eq!(d.lanes_f64, isa.lanes_f64());
        }
        for sel in [
            BackendSelection::SparseCpu { threads: Some(2) },
            BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
        ] {
            let mut p = Prepared::new(&sel, &data, None, &KernelSpec::Linear, 1.0).unwrap();
            assert!(p.isa().is_none(), "{}", sel.name());
            let t = Telemetry::shared();
            p.set_metrics(t.clone());
            assert!(t.report().dispatch.is_none(), "{}", sel.name());
        }
    }

    #[test]
    fn device_report_only_for_device_backends() {
        let (data, _) = sample_dense(10, 3);
        let p = Prepared::new(
            &BackendSelection::Serial,
            &data,
            None,
            &KernelSpec::Linear,
            1.0,
        )
        .unwrap();
        assert!(p.device_report().is_none());
        let p = Prepared::new(
            &BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            &data,
            None,
            &KernelSpec::Linear,
            1.0,
        )
        .unwrap();
        assert!(p.device_report().is_some());
    }

    #[test]
    fn cpu_backends_record_identical_unified_counters() {
        use crate::trace::Telemetry;
        let (data, _) = sample_dense(20, 6);
        let n = data.rows() - 1;
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut reports = Vec::new();
        for sel in [
            BackendSelection::Serial,
            BackendSelection::openmp(Some(2)),
            BackendSelection::SparseCpu { threads: Some(2) },
        ] {
            let mut p = Prepared::new(&sel, &data, None, &KernelSpec::Linear, 1.5).unwrap();
            let t = Telemetry::shared();
            p.set_metrics(t.clone());
            let mut out = vec![0.0; n];
            p.apply(&v, &mut out);
            p.apply(&v, &mut out);
            p.compute_linear_w(&vec![1.0; data.rows()]).unwrap();
            reports.push((sel.name(), t.report()));
        }
        let (ref_name, reference) = &reports[0];
        assert_eq!(reference.kernels["q_kernel"].launches, 1);
        assert_eq!(reference.kernels["svm_kernel"].launches, 2);
        assert_eq!(reference.kernels["w_kernel"].launches, 1);
        assert!(reference.kernels["svm_kernel"].flops > 0);
        // the logical counting convention makes every CPU backend report
        // the exact same counters, traversal strategy notwithstanding
        for (name, r) in &reports[1..] {
            assert_eq!(r.kernels, reference.kernels, "{name} vs {ref_name}");
        }
    }

    #[test]
    fn device_report_folds_into_unified_schema() {
        use crate::trace::Telemetry;
        let (data, _) = sample_dense(20, 6);
        let p = Prepared::new(
            &BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
            &data,
            None,
            &KernelSpec::Linear,
            1.5,
        )
        .unwrap();
        let n = data.rows() - 1;
        let v = vec![0.5; n];
        let mut out = vec![0.0; n];
        p.apply(&v, &mut out);
        let t = Telemetry::new();
        p.device_report().unwrap().fold_into(&t);
        let r = t.report();
        assert_eq!(r.kernels["q_kernel"].launches, 1);
        assert_eq!(r.kernels["svm_kernel"].launches, 1);
        assert!(r.kernels["svm_kernel"].flops > 0);
        assert!(r.kernels["svm_kernel"].sim_time_s > 0.0);
    }

    #[test]
    fn selection_names() {
        assert_eq!(BackendSelection::Serial.name(), "serial");
        assert_eq!(BackendSelection::openmp(Some(8)).name(), "openmp[8]");
        assert_eq!(BackendSelection::openmp(None).name(), "openmp");
        let n = BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 4).name();
        assert!(n.contains("4x") && n.contains("A100"), "{n}");
    }
}
