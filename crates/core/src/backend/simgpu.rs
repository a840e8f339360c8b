//! The device backend: the paper's tiled GPU kernels on simulated devices.
//!
//! This backend reproduces the structure of PLSSVM's CUDA/OpenCL/SYCL
//! kernels (§III-C) on the simulated GPGPU devices of `plssvm-simgpu`:
//!
//! * **Blocking (§III-C-1)** — the `(m−1)²` implicit matrix is covered by a
//!   2D grid of tiles; the data is padded to tile granularity so no bounds
//!   checks are needed. Only the blocks on or below the diagonal perform
//!   work (`i ≥ j`); the rest return immediately ("thread creation on GPUs
//!   is rather lightweight"). Off-diagonal results are **mirrored** into
//!   the transposed position with device `atomicAdd`s.
//! * **`q⃗` caching (§III-C-2)** — a dedicated `q_kernel` precomputes
//!   `qᵢ = k(xᵢ, x_m)` once, reducing the scalar products per matrix entry
//!   from three to one.
//! * **Block-level caching (§III-C-3)** — inside a tile the feature
//!   dimension is processed in chunks: the chunk of both point sets is
//!   loaded once (the simulated "shared memory" load is what the traffic
//!   counters measure), then reused for every entry of the tile.
//! * **Thread-level caching (§III-C-4)** — each tile entry accumulates in a
//!   register-resident accumulator across chunks.
//! * **Multi-device (§III-C-5)** — for the linear kernel the data is split
//!   *feature-wise* across devices; each device computes a partial kernel
//!   matvec with its feature chunk and the host sums the partial result
//!   vectors. Polynomial and radial kernels are single-device, as in the
//!   paper.

use std::sync::{Mutex, RwLock};

use plssvm_data::dense::SoAMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_simgpu::cluster::{Interconnect, NodeConfig};
use plssvm_simgpu::device::AtomicScalar;
use plssvm_simgpu::{
    Backend as DeviceApi, DeviceBuffer, FaultPlan, GpuSpec, Grid, LaunchConfig, Precision,
    SimDevice, SimGpuError,
};

use crate::backend::DeviceReport;
use crate::error::SvmError;
use crate::kernel::kernel_flops;
use crate::matrix_free::QTildeParams;
use crate::trace::{RecoveryKind, RecoverySample};

/// Transient launch timeouts are retried this many times (with simulated
/// exponential backoff) before the device is declared fail-stopped.
const MAX_TRANSIENT_RETRIES: u32 = 8;

/// A device whose per-matvec kernel time exceeds this multiple of the
/// live-device median is flagged a straggler and the work is rebalanced.
const STRAGGLER_FACTOR: f64 = 2.5;

/// Tiling parameters of the device kernels (the paper's two compile-time
/// blocking sizes plus the feature chunk of the shared-memory stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingConfig {
    /// Threads per block edge (CUDA `blockDim`, paper default 16).
    pub thread_block: usize,
    /// Entries each thread computes per dimension (register blocking,
    /// paper default 4–6).
    pub internal_block: usize,
    /// Features staged through "shared memory" per pass.
    pub feature_chunk: usize,
}

impl Default for TilingConfig {
    fn default() -> Self {
        Self {
            thread_block: 16,
            internal_block: 4,
            feature_chunk: 64,
        }
    }
}

impl TilingConfig {
    /// Edge length of one tile: `thread_block · internal_block` output
    /// entries per dimension.
    pub fn tile(&self) -> usize {
        self.thread_block * self.internal_block
    }

    fn validate(&self) -> Result<(), SvmError> {
        if self.thread_block == 0 || self.internal_block == 0 || self.feature_chunk == 0 {
            return Err(SvmError::Solver(
                "tiling sizes must all be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// How tile accumulators combine feature contributions.
#[derive(Clone, Copy, PartialEq)]
enum AccMode {
    /// Accumulate `Σ_f a_f·b_f` (linear, polynomial).
    Dot,
    /// Accumulate `Σ_f (a_f − b_f)²` (radial).
    DistSq,
}

/// How the work is distributed over multiple devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitMode {
    /// The paper's §III-C-5 scheme: each device holds a feature chunk of
    /// every point; partial kernel sums are additive (linear kernel only).
    Features,
    /// Extension for the nonlinear kernels: the data is replicated and
    /// each device computes a contiguous block of output rows (no
    /// triangular mirroring across devices — each row is evaluated in
    /// full). Costs ~2x the kernel evaluations of the triangular scheme
    /// and the full data memory per device, but parallelizes every
    /// kernel, lifting the paper's "polynomial and radial kernels do not
    /// currently support multi-GPU execution" restriction.
    Rows,
}

/// One device's share of the training data.
struct DevicePart<T> {
    data: DeviceBuffer<T>,
    features: usize,
    /// Output rows `[row_begin, row_end)` this device owns (`Rows` mode;
    /// the full range in `Features` mode).
    row_begin: usize,
    row_end: usize,
}

/// Accumulated inter-node communication accounting.
#[derive(Debug, Default, Clone, Copy)]
struct NetworkStats {
    time_s: f64,
    collectives: usize,
    bytes: u64,
}

/// The simulated-GPU backend.
///
/// Covers both the paper's single-node multi-GPU configuration and the §V
/// long-term "multi-node multi-GPU with load balancing on heterogeneous
/// hardware": devices may live on different nodes (inter-node partial-sum
/// reductions are priced as ring allreduces over the configured
/// [`Interconnect`]) and may be of different hardware types (the feature
/// split is weighted by achievable throughput).
pub struct SimGpuBackend<T: AtomicScalar> {
    devices: Vec<SimDevice>,
    /// `node_of[i]` = node of device `i` (all zero for single-node).
    node_of: Vec<usize>,
    nodes: usize,
    interconnect: Option<Interconnect>,
    network: Mutex<NetworkStats>,
    /// Per-device data shards. Interior-mutable so fail-stop recovery can
    /// redistribute shards across the surviving devices mid-solve.
    parts: RwLock<Vec<DevicePart<T>>>,
    /// Host-resident copy of the padded SoA training data, kept so shards
    /// can be re-cut and re-uploaded after a device failure.
    host_data: SoAMatrix<T>,
    /// `alive[i]` = device `i` has not fail-stopped.
    alive: RwLock<Vec<bool>>,
    /// Recovery events not yet drained into a metrics sink.
    recovery: Mutex<Vec<RecoverySample>>,
    kernel: KernelSpec<T>,
    params: QTildeParams<T>,
    /// Dimension of the reduced system (`m − 1`).
    n: usize,
    padded_points: usize,
    tiling: TilingConfig,
    precision: Precision,
    split: SplitMode,
}

impl<T: AtomicScalar> std::fmt::Debug for SimGpuBackend<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimGpuBackend")
            .field("devices", &self.devices.len())
            .field("nodes", &self.nodes)
            .field("n", &self.n)
            .field("tiling", &self.tiling)
            .finish()
    }
}

impl<T: AtomicScalar> SimGpuBackend<T> {
    /// Sets up `devices` simulated devices: splits and uploads the data,
    /// and runs the `q_kernel`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: &SoAMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        hardware: GpuSpec,
        api: DeviceApi,
        devices: usize,
        tiling: TilingConfig,
    ) -> Result<Self, SvmError> {
        tiling.validate()?;
        if devices == 0 {
            return Err(SvmError::Solver("need at least one device".into()));
        }
        if devices > 1 && !matches!(kernel, KernelSpec::Linear) {
            return Err(SvmError::Solver(
                "multi-device execution is only supported for the linear kernel \
                 (the polynomial and radial kernels are single-device, as in the paper)"
                    .into(),
            ));
        }
        if !api.supports(&hardware) {
            return Err(SvmError::Solver(format!(
                "{} cannot drive {}",
                api.name(),
                hardware.name
            )));
        }
        let devices = devices.min(data.features());
        let device_list: Vec<SimDevice> = (0..devices)
            .map(|id| SimDevice::with_id(hardware.clone(), api, id))
            .collect();
        let feature_parts = data.split_features(devices);
        Self::finish_setup(
            data,
            kernel,
            cost,
            tiling,
            device_list,
            vec![0; devices],
            1,
            None,
            feature_parts,
        )
    }

    /// Sets up a **multi-node, possibly heterogeneous** cluster backend
    /// (the paper's §V long-term goal). The feature split is weighted by
    /// each device's achievable FP64 throughput when `balance` is true
    /// (load balancing on heterogeneous hardware), or uniform otherwise.
    /// Per CG iteration the inter-node partial-sum combination is priced
    /// as a ring allreduce over `interconnect`. Linear kernel only (the
    /// split needs additivity), like the paper's multi-GPU path.
    pub fn new_cluster(
        data: &SoAMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        nodes: &[NodeConfig],
        interconnect: Interconnect,
        tiling: TilingConfig,
        balance: bool,
    ) -> Result<Self, SvmError> {
        tiling.validate()?;
        if nodes.is_empty() || nodes.iter().any(|n| n.devices.is_empty()) {
            return Err(SvmError::Solver(
                "every cluster node needs at least one device".into(),
            ));
        }
        let total_devices: usize = nodes.iter().map(|n| n.devices.len()).sum();
        if total_devices > 1 && !matches!(kernel, KernelSpec::Linear) {
            return Err(SvmError::Solver(
                "multi-device execution is only supported for the linear kernel \
                 (the polynomial and radial kernels are single-device, as in the paper)"
                    .into(),
            ));
        }
        let mut device_list = Vec::new();
        let mut node_of = Vec::new();
        for (ni, node) in nodes.iter().enumerate() {
            for (spec, api) in &node.devices {
                if !api.supports(spec) {
                    return Err(SvmError::Solver(format!(
                        "{} cannot drive {}",
                        api.name(),
                        spec.name
                    )));
                }
                node_of.push(ni);
                device_list.push(SimDevice::with_id(spec.clone(), *api, device_list.len()));
            }
        }
        if device_list.len() > data.features() {
            return Err(SvmError::Solver(format!(
                "{} devices for only {} features",
                device_list.len(),
                data.features()
            )));
        }
        let feature_parts = if balance {
            let weights: Vec<f64> = device_list
                .iter()
                .map(|d| {
                    let profile = plssvm_simgpu::backend_profile(d.backend(), d.spec());
                    d.spec().peak_flops(Precision::F64) * profile.compute_efficiency
                })
                .collect();
            data.split_features_weighted(&weights)
        } else {
            data.split_features(device_list.len())
        };
        let node_count = nodes.len();
        Self::finish_setup(
            data,
            kernel,
            cost,
            tiling,
            device_list,
            node_of,
            node_count,
            Some(interconnect),
            feature_parts,
        )
    }

    /// Sets up **row-split** multi-device execution (extension): the data
    /// is replicated on every device and each device computes a block of
    /// output rows. Works for *all* kernel functions — this lifts the
    /// paper's restriction of multi-GPU to the linear kernel, at the cost
    /// of full per-device data replication and ~2x kernel evaluations
    /// (no cross-device triangular mirroring).
    #[allow(clippy::too_many_arguments)]
    pub fn new_row_split(
        data: &SoAMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        hardware: GpuSpec,
        api: DeviceApi,
        devices: usize,
        tiling: TilingConfig,
    ) -> Result<Self, SvmError> {
        tiling.validate()?;
        if devices == 0 {
            return Err(SvmError::Solver("need at least one device".into()));
        }
        if !api.supports(&hardware) {
            return Err(SvmError::Solver(format!(
                "{} cannot drive {}",
                api.name(),
                hardware.name
            )));
        }
        let n = data.points() - 1;
        let devices = devices.min(n.max(1));
        let device_list: Vec<SimDevice> = (0..devices)
            .map(|id| SimDevice::with_id(hardware.clone(), api, id))
            .collect();
        // replicate the full data on every device
        let feature_parts = vec![data.clone(); devices];
        Self::finish_setup_mode(
            data,
            kernel,
            cost,
            tiling,
            device_list,
            vec![0; devices],
            1,
            None,
            feature_parts,
            SplitMode::Rows,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_setup(
        data: &SoAMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        tiling: TilingConfig,
        device_list: Vec<SimDevice>,
        node_of: Vec<usize>,
        nodes: usize,
        interconnect: Option<Interconnect>,
        feature_parts: Vec<SoAMatrix<T>>,
    ) -> Result<Self, SvmError> {
        Self::finish_setup_mode(
            data,
            kernel,
            cost,
            tiling,
            device_list,
            node_of,
            nodes,
            interconnect,
            feature_parts,
            SplitMode::Features,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_setup_mode(
        data: &SoAMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        tiling: TilingConfig,
        device_list: Vec<SimDevice>,
        node_of: Vec<usize>,
        nodes: usize,
        interconnect: Option<Interconnect>,
        feature_parts: Vec<SoAMatrix<T>>,
        split: SplitMode,
    ) -> Result<Self, SvmError> {
        let precision = if T::BYTES == 8 {
            Precision::F64
        } else {
            Precision::F32
        };
        let n = data.points() - 1;
        let count = device_list.len();
        let mut parts = Vec::with_capacity(count);
        for (k, (dev, part)) in device_list.iter().zip(&feature_parts).enumerate() {
            // Rows mode: contiguous slices of the n+1 q-rows / n matvec
            // rows; Features mode: every device covers the full range.
            let (row_begin, row_end) = match split {
                SplitMode::Features => (0, n + 1),
                SplitMode::Rows => {
                    let per = (n + 1).div_ceil(count);
                    ((k * per).min(n + 1), ((k + 1) * per).min(n + 1))
                }
            };
            parts.push(DevicePart {
                data: dev.copy_to_device(part.as_slice())?,
                features: part.features(),
                row_begin,
                row_end,
            });
        }
        let count = device_list.len();
        let mut backend = Self {
            devices: device_list,
            node_of,
            nodes,
            interconnect,
            network: Mutex::new(NetworkStats::default()),
            parts: RwLock::new(parts),
            host_data: data.clone(),
            alive: RwLock::new(vec![true; count]),
            recovery: Mutex::new(Vec::new()),
            kernel,
            params: QTildeParams {
                q: Vec::new(),
                k_mm: T::ZERO,
                inv_c: T::ONE / cost,
                ridge_diag: None,
            },
            n,
            padded_points: data.padded_points(),
            tiling,
            precision,
            split,
        };
        let (q, k_mm) = backend.run_q_kernel()?;
        backend.params.q = q;
        backend.params.k_mm = k_mm;
        // the q vector combination is also one inter-node collective
        backend.record_allreduce((backend.n as u64 + 1) * T::BYTES as u64);
        Ok(backend)
    }

    /// Records one inter-node allreduce of `bytes` (no-op on one node).
    fn record_allreduce(&self, bytes: u64) {
        if let Some(net) = self.interconnect {
            if self.nodes > 1 {
                let mut stats = self.network.lock().expect("network stats lock");
                stats.time_s += net.allreduce_time_s(bytes, self.nodes);
                stats.collectives += 1;
                stats.bytes += bytes;
            }
        }
    }

    /// Installs a deterministic [`FaultPlan`] on the devices. Subsequent
    /// kernel launches are gated by the plan: transient timeouts are
    /// retried with simulated backoff, fail-stopped devices are dropped
    /// and their data shard is redistributed across the survivors, and
    /// slow devices are detected as stragglers and rebalanced away from.
    /// Fails without installing anything if the plan addresses a device
    /// this backend does not have.
    pub fn install_fault_plan(&self, plan: &FaultPlan) -> Result<(), SvmError> {
        if let Some(max) = plan.max_device() {
            if max >= self.devices.len() {
                return Err(SvmError::Device(SimGpuError::DeviceIndexOutOfRange {
                    index: max,
                    count: self.devices.len(),
                }));
            }
        }
        for d in &self.devices {
            d.install_fault_plan(plan);
        }
        Ok(())
    }

    /// Takes every recovery event recorded since the last drain, in
    /// deterministic order.
    pub fn drain_recovery_events(&self) -> Vec<RecoverySample> {
        std::mem::take(&mut *self.recovery.lock().expect("recovery lock"))
    }

    /// Number of devices that have not fail-stopped.
    pub fn live_devices(&self) -> usize {
        self.alive
            .read()
            .expect("alive lock")
            .iter()
            .filter(|&&a| a)
            .count()
    }

    fn record_recovery(&self, sample: RecoverySample) {
        self.recovery.lock().expect("recovery lock").push(sample);
    }

    /// Indices of the devices still alive, ascending.
    fn live_indices(&self) -> Vec<usize> {
        self.alive
            .read()
            .expect("alive lock")
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }

    /// Achievable-throughput weight of one device (the same measure the
    /// heterogeneous cluster setup balances by).
    fn throughput_weight(&self, device: usize) -> f64 {
        let d = &self.devices[device];
        let profile = plssvm_simgpu::backend_profile(d.backend(), d.spec());
        d.spec().peak_flops(self.precision) * profile.compute_efficiency
    }

    /// Re-cuts the data distribution over the `live` devices. `weights`
    /// biases the cut (straggler rebalancing); `None` uses throughput
    /// weights (feature split) or an even partition (row split).
    ///
    /// Feature split: the shards are re-cut from the retained host copy
    /// and re-uploaded. The cached `q⃗`/`k_mm` need no recomputation — they
    /// are host-resident and mathematically independent of the split. Row
    /// split: every device already holds the full data, so only the row
    /// ranges are reassigned (no transfer at all).
    fn redistribute(&self, live: &[usize], weights: Option<&[f64]>) -> Result<(), SvmError> {
        let mut parts = self.parts.write().expect("parts lock");
        match self.split {
            SplitMode::Features => {
                let weights: Vec<f64> = match weights {
                    Some(w) => w.to_vec(),
                    None => live.iter().map(|&i| self.throughput_weight(i)).collect(),
                };
                let chunks = self.host_data.split_features_weighted(&weights);
                for (&i, chunk) in live.iter().zip(&chunks) {
                    parts[i] = DevicePart {
                        data: self.devices[i].copy_to_device(chunk.as_slice())?,
                        features: chunk.features(),
                        row_begin: 0,
                        row_end: self.n + 1,
                    };
                }
            }
            SplitMode::Rows => {
                let rows = self.n + 1;
                let mut begin = 0usize;
                for (k, &i) in live.iter().enumerate() {
                    let end = if k + 1 == live.len() {
                        rows
                    } else {
                        match weights {
                            Some(w) => {
                                let total: f64 = w.iter().sum();
                                let share = (rows as f64 * w[k] / total).round() as usize;
                                (begin + share).min(rows)
                            }
                            None => (begin + rows.div_ceil(live.len())).min(rows),
                        }
                    };
                    parts[i].row_begin = begin;
                    parts[i].row_end = end;
                    begin = end;
                }
            }
        }
        Ok(())
    }

    /// Marks `failures` as fail-stopped, redistributes their work across
    /// the survivors and records one failover event per lost device.
    fn fail_over(&self, failures: &[(usize, u64)]) -> Result<(), SvmError> {
        {
            let mut alive = self.alive.write().expect("alive lock");
            for &(d, _) in failures {
                alive[d] = false;
            }
        }
        let live = self.live_indices();
        if live.is_empty() {
            return Err(SvmError::Solver(
                "every simulated device has fail-stopped; no survivor to redistribute to".into(),
            ));
        }
        self.redistribute(&live, None)?;
        for &(d, l) in failures {
            self.record_recovery(RecoverySample::device_event(
                RecoveryKind::Failover,
                d,
                l,
                format!(
                    "fail-stop; shard redistributed over {} surviving device(s)",
                    live.len()
                ),
            ));
        }
        Ok(())
    }

    /// Runs `job` once per live device, in ascending device order (fault
    /// plans, retries and telemetry are ordered), with the recovery
    /// policy applied: transient timeouts retry in place with simulated
    /// exponential backoff; a fail-stop (or an exhausted retry budget)
    /// drops the device, redistributes its shard and re-runs the whole
    /// pass on the survivors. Returns the per-device outputs in ascending
    /// device order; errors only when no device survives (or on a
    /// non-fault device error such as out-of-memory).
    fn run_recovered<R, F>(&self, job: F) -> Result<Vec<R>, SvmError>
    where
        F: Fn(&SimDevice, &DevicePart<T>) -> Result<R, SvmError>,
    {
        loop {
            let live = self.live_indices();
            if live.is_empty() {
                return Err(SvmError::Solver(
                    "every simulated device has fail-stopped; no survivor to redistribute to"
                        .into(),
                ));
            }
            let attempts: Vec<(usize, Result<R, SvmError>, Vec<RecoverySample>)> = {
                let parts = self.parts.read().expect("parts lock");
                live.iter()
                    .map(|&i| {
                        let dev = &self.devices[i];
                        let part = &parts[i];
                        let mut events = Vec::new();
                        let mut retries = 0u32;
                        loop {
                            match job(dev, part) {
                                Err(SvmError::Device(SimGpuError::TransientTimeout {
                                    device,
                                    launch,
                                })) if retries < MAX_TRANSIENT_RETRIES => {
                                    retries += 1;
                                    events.push(RecoverySample::device_event(
                                        RecoveryKind::Retry,
                                        device,
                                        launch,
                                        format!(
                                            "transient timeout; retry {retries} after {} µs \
                                             simulated backoff",
                                            100u64 << retries
                                        ),
                                    ));
                                }
                                other => return (i, other, events),
                            }
                        }
                    })
                    .collect()
            };
            let mut outputs = Vec::with_capacity(attempts.len());
            let mut failures = Vec::new();
            for (_device, result, events) in attempts {
                for e in events {
                    self.record_recovery(e);
                }
                match result {
                    Ok(v) => outputs.push(v),
                    Err(SvmError::Device(SimGpuError::DeviceFailed { device, launch })) => {
                        failures.push((device, launch));
                    }
                    Err(SvmError::Device(SimGpuError::TransientTimeout { device, launch })) => {
                        self.record_recovery(RecoverySample::device_event(
                            RecoveryKind::Retry,
                            device,
                            launch,
                            format!(
                                "transient retry budget ({MAX_TRANSIENT_RETRIES}) exhausted; \
                                 treating device as fail-stopped"
                            ),
                        ));
                        failures.push((device, launch));
                    }
                    Err(e) => return Err(e),
                }
            }
            if failures.is_empty() {
                return Ok(outputs);
            }
            self.fail_over(&failures)?;
        }
    }

    /// Sum of a device's per-kernel simulated time (transfers excluded),
    /// used for straggler detection.
    fn device_kernel_time_s(&self, device: usize) -> f64 {
        self.devices[device]
            .perf_report()
            .per_kernel
            .values()
            .map(|k| k.sim_time_s)
            .sum()
    }

    /// Compares each live device's kernel time for the pass that just ran
    /// (`before` = snapshot of [`Self::device_kernel_time_s`] per device)
    /// against the live median; a device beyond [`STRAGGLER_FACTOR`]× the
    /// median is flagged and the work is rebalanced proportionally to the
    /// inverse observed time. Self-stabilizing: after one rebalance the
    /// per-device times even out and no further events fire.
    fn detect_stragglers(&self, before: &[f64]) -> Result<(), SvmError> {
        let live = self.live_indices();
        if live.len() < 2 {
            return Ok(());
        }
        let deltas: Vec<f64> = live
            .iter()
            .map(|&i| self.device_kernel_time_s(i) - before[i])
            .collect();
        let mut sorted = deltas.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite kernel times"));
        // lower median, so with two devices the baseline is the faster one
        let median = sorted[(sorted.len() - 1) / 2];
        let (worst, &max) = deltas
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite kernel times"))
            .expect("at least two live devices");
        if median <= 0.0 || max <= STRAGGLER_FACTOR * median {
            return Ok(());
        }
        let weights: Vec<f64> = deltas
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        self.redistribute(&live, Some(&weights))?;
        let device = live[worst];
        let launch = self.devices[device].fault_attempts().saturating_sub(1);
        self.record_recovery(RecoverySample::device_event(
            RecoveryKind::Straggler,
            device,
            launch,
            format!(
                "kernel time {:.3e}s vs live median {:.3e}s; rebalanced by inverse observed time",
                max, median
            ),
        ));
        Ok(())
    }

    /// The node a device belongs to (always 0 for single-node setups).
    pub fn node_of(&self, device: usize) -> usize {
        self.node_of[device]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Per-device feature counts of the (possibly weighted) split.
    pub fn feature_split(&self) -> Vec<usize> {
        self.parts
            .read()
            .expect("parts lock")
            .iter()
            .map(|p| p.features)
            .collect()
    }

    /// The shared `Q̃` parameters (with the device-computed `q⃗`).
    pub fn params(&self) -> &QTildeParams<T> {
        &self.params
    }

    /// Number of devices in use.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// Aggregated device counters.
    pub fn report(&self) -> DeviceReport {
        let per_device: Vec<_> = self.devices.iter().map(|d| d.perf_report()).collect();
        let sim_parallel_time_s = per_device
            .iter()
            .map(|r| r.sim_total_time_s())
            .fold(0.0, f64::max);
        let peak_memory_per_device_bytes = per_device
            .iter()
            .map(|r| r.peak_allocated_bytes)
            .max()
            .unwrap_or(0);
        let net = *self.network.lock().expect("network stats lock");
        DeviceReport {
            per_device,
            sim_parallel_time_s,
            peak_memory_per_device_bytes,
            nodes: self.nodes,
            network_time_s: net.time_s,
            network_collectives: net.collectives,
        }
    }

    fn acc_mode(&self) -> AccMode {
        match self.kernel {
            KernelSpec::Linear | KernelSpec::Polynomial { .. } | KernelSpec::Sigmoid { .. } => {
                AccMode::Dot
            }
            KernelSpec::Rbf { .. } => AccMode::DistSq,
        }
    }

    /// Converts a fully-accumulated raw value into a kernel value.
    fn finish(&self, acc: T) -> T {
        match self.kernel {
            KernelSpec::Linear => acc,
            KernelSpec::Polynomial {
                degree,
                gamma,
                coef0,
            } => gamma.mul_add(acc, coef0).powi(degree),
            KernelSpec::Rbf { gamma } => (-gamma * acc).exp(),
            KernelSpec::Sigmoid { gamma, coef0 } => gamma.mul_add(acc, coef0).tanh(),
        }
    }

    /// True if per-device partial kernel values may simply be summed (the
    /// linearity property behind the multi-device split).
    fn partials_are_additive(&self) -> bool {
        matches!(self.kernel, KernelSpec::Linear)
    }

    /// Runs the `q_kernel` on every device: raw accumulations
    /// `acc(xᵢ, x_m)` for `i = 0..=n` (entry `n` yields `k_mm`). Partials
    /// are summed over devices, then the kernel postprocessing is applied
    /// once on the host — this is valid for *all* kernels because both
    /// `Σ_f a·b` and `Σ_f (a−b)²` are additive over feature chunks.
    fn run_q_kernel(&self) -> Result<(Vec<T>, T), SvmError> {
        let n = self.n;
        let padded = self.padded_points;
        let tile = self.tiling.tile();
        let chunk = self.tiling.feature_chunk;
        let mode = self.acc_mode();
        let last = n; // index of x_m in the SoA buffer

        let partials: Vec<Vec<T>> =
            self.run_recovered(|dev, part| -> Result<Vec<T>, SvmError> {
                let out = dev.alloc_atomic::<T>(n + 1)?;
                // Features mode: every device covers all rows (partial
                // feature sums). Rows mode: each device covers its own
                // row slice with the full feature set.
                let (r0, r1) = (part.row_begin, part.row_end);
                let blocks = (r1 - r0).div_ceil(tile).max(1);
                let cfg = LaunchConfig::new("q_kernel", Grid::one_d(blocks), self.precision);
                let d = part.features;
                let buf = part.data.as_slice();
                dev.launch(&cfg, |blk, ctx| {
                    let i0 = r0 + blk.x * tile;
                    let i1 = (i0 + tile).min(r1);
                    if i0 >= i1 {
                        return;
                    }
                    let rows = i1 - i0;
                    let mut acc = vec![T::ZERO; rows];
                    let mut f0 = 0;
                    while f0 < d {
                        let f1 = (f0 + chunk).min(d);
                        for f in f0..f1 {
                            let col = &buf[f * padded..(f + 1) * padded];
                            let xm = col[last];
                            for (r, a) in acc.iter_mut().enumerate() {
                                let xi = col[i0 + r];
                                match mode {
                                    AccMode::Dot => *a = xi.mul_add(xm, *a),
                                    AccMode::DistSq => {
                                        let diff = xi - xm;
                                        *a = diff.mul_add(diff, *a);
                                    }
                                }
                            }
                        }
                        f0 = f1;
                    }
                    for (r, &a) in acc.iter().enumerate() {
                        out.add(i0 + r, a);
                    }
                    // work: one full kernel evaluation per row (the
                    // accumulation over d features plus the finish);
                    // reads: the row tile + the broadcast x_m
                    ctx.add_flops(rows as u64 * kernel_flops(&self.kernel, d));
                    ctx.add_global_read(((rows + 1) * d * T::BYTES) as u64);
                    ctx.add_global_write((rows * T::BYTES) as u64);
                })?;
                Ok(out.read_to_host())
            })?;

        // Host: sum device partials, then apply the kernel postprocessing.
        let mut raw = vec![T::ZERO; n + 1];
        for partial in &partials {
            for (r, p) in raw.iter_mut().zip(partial) {
                *r += *p;
            }
        }
        let k_mm = self.finish(raw[n]);
        let q = raw[..n].iter().map(|&a| self.finish(a)).collect();
        Ok((q, k_mm))
    }

    /// Computes the explicit normal vector `w = Σᵢ αᵢ·xᵢ` on the devices —
    /// the paper's third compute kernel (`w_kernel`), used to accelerate
    /// prediction with the linear kernel (Eq. 15). In the feature split
    /// each device produces the `w` components of its own feature chunk
    /// (the host simply concatenates); in the row split each device
    /// accumulates a full-length partial over its own point range (the
    /// host sums).
    ///
    /// `alpha` must hold all `m` support values. Only meaningful for the
    /// linear kernel (for other kernels `w` lives in feature space).
    pub fn compute_w(&self, alpha: &[T]) -> Result<Vec<T>, SvmError> {
        assert_eq!(alpha.len(), self.n + 1, "alpha must cover all m points");
        let padded = self.padded_points;
        let m = self.n + 1;
        let tile = self.tiling.tile();
        let split = self.split;
        let parts_w: Vec<Vec<T>> = self.run_recovered(|dev, part| -> Result<Vec<T>, SvmError> {
            let d = part.features;
            if d == 0 {
                return Ok(Vec::new());
            }
            // point range to accumulate over: all m points in the
            // feature split, the device's own row slice in the row
            // split (where the features are replicated instead)
            let (p0, p1) = match split {
                SplitMode::Features => (0, m),
                SplitMode::Rows => (part.row_begin.min(m), part.row_end.min(m)),
            };
            if p0 >= p1 {
                return Ok(vec![T::ZERO; d]);
            }
            let points = p1 - p0;
            let alpha_dev = dev.copy_to_device(&alpha[p0..p1])?;
            let w_dev = dev.alloc_atomic::<T>(d)?;
            let cfg = LaunchConfig::new("w_kernel", Grid::one_d(d.div_ceil(tile)), self.precision);
            dev.launch(&cfg, |blk, ctx| {
                let f0 = blk.x * tile;
                let f1 = (f0 + tile).min(d);
                if f0 >= f1 {
                    return;
                }
                let a = alpha_dev.as_slice();
                for f in f0..f1 {
                    let col = &part.data.as_slice()[f * padded + p0..f * padded + p1];
                    let mut acc = T::ZERO;
                    for (p, &x) in col.iter().enumerate() {
                        acc = a[p].mul_add(x, acc);
                    }
                    w_dev.add(f, acc);
                }
                let rows = (f1 - f0) as u64;
                ctx.add_flops(rows * 2 * points as u64);
                ctx.add_global_read((rows as usize * points + points) as u64 * T::BYTES as u64);
                ctx.add_global_write(rows * T::BYTES as u64);
            })?;
            Ok(w_dev.read_to_host())
        })?;
        match split {
            SplitMode::Features => Ok(parts_w.into_iter().flatten().collect()),
            SplitMode::Rows => {
                // every partial is full-length; sum over the point slices
                let d = self.host_data.features();
                let mut w = vec![T::ZERO; d];
                for partial in &parts_w {
                    for (acc, p) in w.iter_mut().zip(partial) {
                        *acc += *p;
                    }
                }
                Ok(w)
            }
        }
    }

    /// `out = K·v` over the first `m−1` points — the paper's `svm_kernel`.
    ///
    /// Fault recovery is applied per launch: transient timeouts retry in
    /// place, fail-stopped devices are dropped with their shard
    /// redistributed across the survivors, and persistent stragglers are
    /// rebalanced away from. Errors only when *no* device survives (or on
    /// a non-fault device error such as out-of-memory mid-solve).
    pub fn kernel_matvec(&self, v: &[T], out: &mut [T]) -> Result<(), SvmError> {
        let n = self.n;
        debug_assert_eq!(v.len(), n);
        debug_assert_eq!(out.len(), n);
        let padded = self.padded_points;
        let tile = self.tiling.tile();
        let chunk = self.tiling.feature_chunk;
        let mode = self.acc_mode();
        let additive = self.partials_are_additive() && self.split == SplitMode::Features;
        let split = self.split;

        let kernel_time_before: Vec<f64> = (0..self.devices.len())
            .map(|i| self.device_kernel_time_s(i))
            .collect();
        let alive_before = self.live_devices();
        let partials: Vec<Vec<T>> =
            self.run_recovered(|dev, part| -> Result<Vec<T>, SvmError> {
                let d = part.features;
                let buf = part.data.as_slice();
                let v_dev = dev.copy_to_device(v)?;
                let out_dev = dev.alloc_atomic::<T>(n)?;
                match split {
                    SplitMode::Features => {
                        let blocks = n.div_ceil(tile);
                        let cfg = LaunchConfig::new(
                            "svm_kernel",
                            Grid::two_d(blocks, blocks),
                            self.precision,
                        );
                        dev.launch(&cfg, |blk, ctx| {
                            // Only blocks on or below the diagonal compute
                            // (threads with i ≥ j, §III-C-1); the rest return
                            // immediately.
                            if blk.x < blk.y {
                                return;
                            }
                            let i0 = blk.x * tile;
                            let i1 = (i0 + tile).min(n);
                            let j0 = blk.y * tile;
                            let j1 = (j0 + tile).min(n);
                            if i0 >= i1 || j0 >= j1 {
                                return;
                            }
                            let rows = i1 - i0;
                            let cols = j1 - j0;
                            let mut acc = vec![T::ZERO; rows * cols];
                            accumulate_tile(buf, padded, d, chunk, mode, i0, i1, j0, j1, &mut acc);
                            // finish entries and scatter with atomicAdd mirroring
                            let diagonal_block = blk.x == blk.y;
                            let mut entries = 0u64;
                            for r in 0..rows {
                                let i = i0 + r;
                                for c in 0..cols {
                                    let j = j0 + c;
                                    if diagonal_block && i < j {
                                        continue; // mirror covers the strict upper triangle
                                    }
                                    let k = if additive {
                                        acc[r * cols + c]
                                    } else {
                                        self.finish(acc[r * cols + c])
                                    };
                                    out_dev.add(i, k * v_dev.as_slice()[j]);
                                    if i != j {
                                        out_dev.add(j, k * v_dev.as_slice()[i]);
                                    }
                                    entries += 1;
                                }
                            }
                            ctx.add_flops(entries * (kernel_flops(&self.kernel, d) + 4));
                            ctx.add_global_read(
                                (((rows + cols) * d + rows + cols) * T::BYTES) as u64,
                            );
                            ctx.add_global_write((2 * entries as usize * T::BYTES) as u64);
                        })?;
                    }
                    SplitMode::Rows => {
                        // each device evaluates its own full output rows
                        // (no cross-device mirroring)
                        let r0 = part.row_begin.min(n);
                        let r1 = part.row_end.min(n);
                        if r0 >= r1 {
                            return Ok(out_dev.read_to_host());
                        }
                        let row_blocks = (r1 - r0).div_ceil(tile);
                        let col_blocks = n.div_ceil(tile);
                        let cfg = LaunchConfig::new(
                            "svm_kernel",
                            Grid::two_d(row_blocks, col_blocks),
                            self.precision,
                        );
                        dev.launch(&cfg, |blk, ctx| {
                            let i0 = r0 + blk.x * tile;
                            let i1 = (i0 + tile).min(r1);
                            let j0 = blk.y * tile;
                            let j1 = (j0 + tile).min(n);
                            if i0 >= i1 || j0 >= j1 {
                                return;
                            }
                            let rows = i1 - i0;
                            let cols = j1 - j0;
                            let mut acc = vec![T::ZERO; rows * cols];
                            accumulate_tile(buf, padded, d, chunk, mode, i0, i1, j0, j1, &mut acc);
                            for r in 0..rows {
                                let i = i0 + r;
                                for c in 0..cols {
                                    let j = j0 + c;
                                    let k = self.finish(acc[r * cols + c]);
                                    out_dev.add(i, k * v_dev.as_slice()[j]);
                                }
                            }
                            let entries = (rows * cols) as u64;
                            ctx.add_flops(entries * (kernel_flops(&self.kernel, d) + 2));
                            ctx.add_global_read(
                                (((rows + cols) * d + rows + cols) * T::BYTES) as u64,
                            );
                            ctx.add_global_write((entries as usize * T::BYTES) as u64);
                        })?;
                    }
                }
                Ok(out_dev.read_to_host())
            })?;

        out.fill(T::ZERO);
        for partial in &partials {
            for (o, p) in out.iter_mut().zip(partial) {
                *o += *p;
            }
        }
        // combining partials across nodes is one allreduce per iteration
        self.record_allreduce(n as u64 * T::BYTES as u64);
        // straggler detection only on clean passes: a failover re-runs the
        // pass and would distort the per-device time deltas
        if self.live_devices() == alive_before {
            self.detect_stragglers(&kernel_time_before)?;
        }
        Ok(())
    }
}

/// Streams the feature dimension of one `(i0..i1) × (j0..j1)` tile through
/// the simulated shared memory in `chunk`-sized passes, accumulating raw
/// inner products (`Dot`) or squared distances (`DistSq`) into `acc`
/// (row-major `rows × cols`). Shared by both multi-device split modes.
#[allow(clippy::too_many_arguments)]
fn accumulate_tile<T: AtomicScalar>(
    buf: &[T],
    padded: usize,
    d: usize,
    chunk: usize,
    mode: AccMode,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    acc: &mut [T],
) {
    let cols = j1 - j0;
    let mut f0 = 0;
    while f0 < d {
        let f1 = (f0 + chunk).min(d);
        for f in f0..f1 {
            let col = &buf[f * padded..(f + 1) * padded];
            let xi = &col[i0..i1];
            let xj = &col[j0..j1];
            match mode {
                AccMode::Dot => {
                    for (r, &a) in xi.iter().enumerate() {
                        let row = &mut acc[r * cols..(r + 1) * cols];
                        for (c, &b) in xj.iter().enumerate() {
                            row[c] = a.mul_add(b, row[c]);
                        }
                    }
                }
                AccMode::DistSq => {
                    for (r, &a) in xi.iter().enumerate() {
                        let row = &mut acc[r * cols..(r + 1) * cols];
                        for (c, &b) in xj.iter().enumerate() {
                            let diff = a - b;
                            row[c] = diff.mul_add(diff, row[c]);
                        }
                    }
                }
            }
        }
        f0 = f1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::serial::SerialBackend;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};
    use plssvm_simgpu::hw;

    fn sample(points: usize, features: usize) -> SoAMatrix<f64> {
        let d = generate_planes(&PlanesConfig::new(points, features, 13)).unwrap();
        SoAMatrix::from_dense(&d.x, TilingConfig::default().tile())
    }

    fn gpu(data: &SoAMatrix<f64>, kernel: KernelSpec<f64>, devices: usize) -> SimGpuBackend<f64> {
        SimGpuBackend::new(
            data,
            kernel,
            1.0,
            hw::A100,
            DeviceApi::Cuda,
            devices,
            TilingConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn q_vector_matches_host_computation() {
        for kernel in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 2,
                gamma: 0.4,
                coef0: 1.0,
            },
            KernelSpec::Rbf { gamma: 0.5 },
        ] {
            let data = sample(20, 6);
            let b = gpu(&data, kernel, 1);
            let host = QTildeParams::compute(&data, &kernel, 1.0);
            assert_eq!(b.params().dim(), host.dim());
            for i in 0..host.dim() {
                assert!(
                    (b.params().q[i] - host.q[i]).abs() < 1e-10,
                    "{kernel:?} q[{i}]"
                );
            }
            assert!((b.params().k_mm - host.k_mm).abs() < 1e-10);
        }
    }

    #[test]
    fn q_vector_multi_device_linear() {
        let data = sample(18, 7);
        let b = gpu(&data, KernelSpec::Linear, 3);
        assert_eq!(b.devices(), 3);
        let host = QTildeParams::compute(&data, &KernelSpec::Linear, 1.0);
        for i in 0..host.dim() {
            assert!((b.params().q[i] - host.q[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn matvec_matches_serial_all_kernels() {
        for kernel in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 3,
                gamma: 0.25,
                coef0: 0.5,
            },
            KernelSpec::Rbf { gamma: 0.35 },
        ] {
            // 70 points spans multiple tiles with a partial last tile
            let data = sample(70, 5);
            let serial = SerialBackend::new(data.to_dense(), kernel, 1.0);
            let device = gpu(&data, kernel, 1);
            let n = serial.params().dim();
            let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.21).cos()).collect();
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            serial.kernel_matvec(&v, &mut a);
            device.kernel_matvec(&v, &mut b).unwrap();
            for i in 0..n {
                assert!(
                    (a[i] - b[i]).abs() < 1e-8,
                    "{kernel:?} row {i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn matvec_multi_device_equals_single_device() {
        let data = sample(40, 10);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).recip()).collect();
        let mut single = vec![0.0; n];
        gpu(&data, KernelSpec::Linear, 1)
            .kernel_matvec(&v, &mut single)
            .unwrap();
        for devices in [2, 3, 4] {
            let mut multi = vec![0.0; n];
            gpu(&data, KernelSpec::Linear, devices)
                .kernel_matvec(&v, &mut multi)
                .unwrap();
            for i in 0..n {
                assert!(
                    (single[i] - multi[i]).abs() < 1e-9,
                    "{devices} devices, row {i}"
                );
            }
        }
    }

    #[test]
    fn multi_device_rejects_nonlinear() {
        let data = sample(10, 4);
        let err = SimGpuBackend::new(
            &data,
            KernelSpec::Rbf { gamma: 0.5 },
            1.0,
            hw::A100,
            DeviceApi::Cuda,
            2,
            TilingConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("linear"));
    }

    #[test]
    fn devices_clamped_to_feature_count() {
        let data = sample(10, 2);
        let b = gpu(&data, KernelSpec::Linear, 8);
        assert_eq!(b.devices(), 2);
    }

    #[test]
    fn kernel_launch_counts() {
        let data = sample(20, 4);
        let b = gpu(&data, KernelSpec::Linear, 1);
        let r0 = b.report();
        // setup runs exactly one q_kernel launch per device
        assert_eq!(r0.per_device[0].per_kernel["q_kernel"].launches, 1);
        let n = data.points() - 1;
        let v = vec![1.0; n];
        let mut out = vec![0.0; n];
        b.kernel_matvec(&v, &mut out).unwrap();
        b.kernel_matvec(&v, &mut out).unwrap();
        let r = b.report();
        assert_eq!(r.per_device[0].per_kernel["svm_kernel"].launches, 2);
        // distinct compute kernels stay small (the paper contrasts its 3
        // kernels against ThunderSVM's >1600 launches)
        assert_eq!(r.per_device[0].per_kernel.len(), 2);
        assert!(r.sim_parallel_time_s > 0.0);
    }

    #[test]
    fn memory_split_reduces_per_device_footprint() {
        let data = sample(64, 16);
        let single = gpu(&data, KernelSpec::Linear, 1);
        let quad = gpu(&data, KernelSpec::Linear, 4);
        let m1 = single.report().peak_memory_per_device_bytes;
        let m4 = quad.report().peak_memory_per_device_bytes;
        // the data dominates; a quarter of the features ≈ a quarter of the
        // footprint plus the shared vectors
        assert!(m4 < m1 / 2, "single {m1} vs quad {m4}");
    }

    #[test]
    fn tiling_variants_agree() {
        let data = sample(50, 6);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((3 * i + 1) as f64 * 0.11).sin()).collect();
        let mut reference = vec![0.0; n];
        gpu(&data, KernelSpec::Rbf { gamma: 0.2 }, 1)
            .kernel_matvec(&v, &mut reference)
            .unwrap();
        for tiling in [
            TilingConfig {
                thread_block: 4,
                internal_block: 2,
                feature_chunk: 3,
            },
            TilingConfig {
                thread_block: 1,
                internal_block: 1,
                feature_chunk: 1,
            },
            TilingConfig {
                thread_block: 128,
                internal_block: 2,
                feature_chunk: 1024,
            },
        ] {
            let b = SimGpuBackend::new(
                &data,
                KernelSpec::Rbf { gamma: 0.2 },
                1.0,
                hw::A100,
                DeviceApi::Cuda,
                1,
                tiling,
            )
            .unwrap();
            let mut out = vec![0.0; n];
            b.kernel_matvec(&v, &mut out).unwrap();
            for i in 0..n {
                assert!((out[i] - reference[i]).abs() < 1e-9, "{tiling:?} row {i}");
            }
        }
    }

    #[test]
    fn invalid_tiling_rejected() {
        let data = sample(10, 4);
        let err = SimGpuBackend::new(
            &data,
            KernelSpec::Linear,
            1.0,
            hw::A100,
            DeviceApi::Cuda,
            1,
            TilingConfig {
                thread_block: 0,
                internal_block: 4,
                feature_chunk: 64,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("tiling"));
    }

    #[test]
    fn cluster_matches_single_device_results() {
        use plssvm_simgpu::{Interconnect, NodeConfig};
        let data = sample(48, 12);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.19).sin()).collect();
        let mut single = vec![0.0; n];
        gpu(&data, KernelSpec::Linear, 1)
            .kernel_matvec(&v, &mut single)
            .unwrap();

        let cluster = SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[
                NodeConfig::homogeneous(hw::A100, DeviceApi::Cuda, 2),
                NodeConfig::homogeneous(hw::V100, DeviceApi::Cuda, 2),
            ],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            true,
        )
        .unwrap();
        assert_eq!(cluster.devices(), 4);
        assert_eq!(cluster.nodes(), 2);
        assert_eq!(cluster.node_of(0), 0);
        assert_eq!(cluster.node_of(3), 1);
        let mut multi = vec![0.0; n];
        cluster.kernel_matvec(&v, &mut multi).unwrap();
        for i in 0..n {
            assert!((single[i] - multi[i]).abs() < 1e-9, "row {i}");
        }
        // q vector also agrees with the host computation
        let host = QTildeParams::compute(&data, &KernelSpec::Linear, 1.0);
        for i in 0..n {
            assert!((cluster.params().q[i] - host.q[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn cluster_balanced_split_favours_fast_devices() {
        use plssvm_simgpu::{Interconnect, NodeConfig};
        let data = sample(20, 16);
        let cluster = SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[NodeConfig {
                devices: vec![(hw::A100, DeviceApi::Cuda), (hw::P100, DeviceApi::Cuda)],
            }],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            true,
        )
        .unwrap();
        let split = cluster.feature_split();
        // A100 at 32% of 9.7 TF vs P100 at 32% of 4.7 TF → ~2:1 feature share
        assert!(split[0] > split[1], "{split:?}");
        assert_eq!(split[0] + split[1], 16);

        // unbalanced split is even
        let even = SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[NodeConfig {
                devices: vec![(hw::A100, DeviceApi::Cuda), (hw::P100, DeviceApi::Cuda)],
            }],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            false,
        )
        .unwrap();
        assert_eq!(even.feature_split(), vec![8, 8]);
    }

    #[test]
    fn cluster_network_time_accounted() {
        use plssvm_simgpu::{Interconnect, NodeConfig};
        let data = sample(32, 8);
        let cluster = SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[
                NodeConfig::homogeneous(hw::A100, DeviceApi::Cuda, 1),
                NodeConfig::homogeneous(hw::A100, DeviceApi::Cuda, 1),
            ],
            Interconnect::TEN_GBE,
            TilingConfig::default(),
            false,
        )
        .unwrap();
        let n = data.points() - 1;
        let v = vec![1.0; n];
        let mut out = vec![0.0; n];
        cluster.kernel_matvec(&v, &mut out).unwrap();
        cluster.kernel_matvec(&v, &mut out).unwrap();
        let report = cluster.report();
        assert_eq!(report.nodes, 2);
        // q combine + 2 matvec combines = 3 collectives
        assert_eq!(report.network_collectives, 3);
        assert!(report.network_time_s > 0.0);
        assert!(report.total_sim_time_s() > report.sim_parallel_time_s);

        // single-node multi-GPU has no network term
        let single_node = gpu(&data, KernelSpec::Linear, 2);
        let mut out2 = vec![0.0; n];
        single_node.kernel_matvec(&v, &mut out2).unwrap();
        let r = single_node.report();
        assert_eq!(r.nodes, 1);
        assert_eq!(r.network_collectives, 0);
        assert_eq!(r.network_time_s, 0.0);
    }

    #[test]
    fn cluster_rejects_nonlinear_and_empty() {
        use plssvm_simgpu::{Interconnect, NodeConfig};
        let data = sample(10, 4);
        assert!(SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Rbf { gamma: 0.5 },
            1.0,
            &[NodeConfig::homogeneous(hw::A100, DeviceApi::Cuda, 2)],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            true,
        )
        .is_err());
        assert!(SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            true,
        )
        .is_err());
        // more devices than features
        assert!(SimGpuBackend::new_cluster(
            &data,
            KernelSpec::Linear,
            1.0,
            &[NodeConfig::homogeneous(hw::A100, DeviceApi::Cuda, 8)],
            Interconnect::HDR_INFINIBAND,
            TilingConfig::default(),
            true,
        )
        .is_err());
    }

    #[test]
    fn row_split_matches_single_device_for_all_kernels() {
        // the extension past the paper: multi-GPU for every kernel via
        // output-row partitioning (data replicated)
        for kernel in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 2,
                gamma: 0.4,
                coef0: 0.5,
            },
            KernelSpec::Rbf { gamma: 0.3 },
            KernelSpec::Sigmoid {
                gamma: 0.05,
                coef0: 0.0,
            },
        ] {
            let data = sample(70, 6);
            let n = data.points() - 1;
            let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.27).sin()).collect();
            let mut single = vec![0.0; n];
            gpu(&data, kernel, 1)
                .kernel_matvec(&v, &mut single)
                .unwrap();
            for devices in [2usize, 3] {
                let b = SimGpuBackend::new_row_split(
                    &data,
                    kernel,
                    1.0,
                    hw::A100,
                    DeviceApi::Cuda,
                    devices,
                    TilingConfig::default(),
                )
                .unwrap();
                assert_eq!(b.devices(), devices);
                // q vector matches the host computation
                let host = QTildeParams::compute(&data, &kernel, 1.0);
                for i in 0..n {
                    assert!(
                        (b.params().q[i] - host.q[i]).abs() < 1e-10,
                        "{kernel:?} q[{i}]"
                    );
                }
                let mut multi = vec![0.0; n];
                b.kernel_matvec(&v, &mut multi).unwrap();
                for i in 0..n {
                    assert!(
                        (single[i] - multi[i]).abs() < 1e-9,
                        "{kernel:?} {devices} devices row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_split_replicates_memory_but_splits_rows() {
        let data = sample(64, 16);
        let feature_split = gpu(&data, KernelSpec::Linear, 4);
        let row_split = SimGpuBackend::new_row_split(
            &data,
            KernelSpec::Rbf { gamma: 0.2 },
            1.0,
            hw::A100,
            DeviceApi::Cuda,
            4,
            TilingConfig::default(),
        )
        .unwrap();
        // feature split shrinks the per-device data; row split replicates
        let fm = feature_split.report().peak_memory_per_device_bytes;
        let rm = row_split.report().peak_memory_per_device_bytes;
        assert!(rm > 2 * fm, "row-split {rm} vs feature-split {fm}");
        // every device did real work (launch counters)
        let n = data.points() - 1;
        let v = vec![1.0; n];
        let mut out = vec![0.0; n];
        row_split.kernel_matvec(&v, &mut out).unwrap();
        for dev in &row_split.report().per_device {
            assert!(dev.per_kernel["svm_kernel"].flops > 0);
        }
    }

    #[test]
    fn transient_fault_is_retried_transparently() {
        let data = sample(40, 8);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
        let mut clean = vec![0.0; n];
        gpu(&data, KernelSpec::Linear, 2)
            .kernel_matvec(&v, &mut clean)
            .unwrap();

        let b = gpu(&data, KernelSpec::Linear, 2);
        // two consecutive timeouts on device 1's second matvec launch
        b.install_fault_plan(&FaultPlan::new().transient(1, 1, 2))
            .unwrap();
        let mut out = vec![0.0; n];
        b.kernel_matvec(&v, &mut out).unwrap();
        b.kernel_matvec(&v, &mut out).unwrap();
        // bit-identical: the retried launch reruns the exact computation
        assert_eq!(out, clean);
        assert_eq!(b.live_devices(), 2);
        let events = b.drain_recovery_events();
        let retries: Vec<_> = events
            .iter()
            .filter(|e| e.kind == RecoveryKind::Retry)
            .collect();
        assert_eq!(retries.len(), 2, "{events:?}");
        assert!(retries.iter().all(|e| e.device == Some(1)));
        assert!(b.drain_recovery_events().is_empty(), "drain empties queue");
    }

    #[test]
    fn fail_stop_redistributes_shard_over_survivors() {
        let data = sample(48, 12);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.23).cos()).collect();
        let mut clean = vec![0.0; n];
        gpu(&data, KernelSpec::Linear, 4)
            .kernel_matvec(&v, &mut clean)
            .unwrap();

        let b = gpu(&data, KernelSpec::Linear, 4);
        b.install_fault_plan(&FaultPlan::new().fail_stop(1, 2))
            .unwrap();
        let mut out = vec![0.0; n];
        for _ in 0..4 {
            b.kernel_matvec(&v, &mut out).unwrap();
            for i in 0..n {
                assert!((out[i] - clean[i]).abs() < 1e-9, "row {i}");
            }
        }
        assert_eq!(b.live_devices(), 3);
        let events = b.drain_recovery_events();
        let failovers: Vec<_> = events
            .iter()
            .filter(|e| e.kind == RecoveryKind::Failover)
            .collect();
        assert_eq!(failovers.len(), 1, "{events:?}");
        assert_eq!(failovers[0].device, Some(1));
        assert_eq!(failovers[0].at_launch, Some(2));
        // the w kernel also runs on the reduced device set
        let alpha = vec![1.0; n + 1];
        let w = b.compute_w(&alpha).unwrap();
        let w_clean = gpu(&data, KernelSpec::Linear, 1).compute_w(&alpha).unwrap();
        assert_eq!(w.len(), w_clean.len());
        for f in 0..w.len() {
            assert!((w[f] - w_clean[f]).abs() < 1e-9, "w[{f}]");
        }
    }

    #[test]
    fn row_split_fail_stop_reassigns_rows_without_transfer() {
        let data = sample(60, 6);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).sin()).collect();
        let kernel = KernelSpec::Rbf { gamma: 0.3 };
        let mut clean = vec![0.0; n];
        gpu(&data, kernel, 1).kernel_matvec(&v, &mut clean).unwrap();

        let b = SimGpuBackend::new_row_split(
            &data,
            kernel,
            1.0,
            hw::A100,
            DeviceApi::Cuda,
            3,
            TilingConfig::default(),
        )
        .unwrap();
        b.install_fault_plan(&FaultPlan::new().fail_stop(2, 1))
            .unwrap();
        let mut out = vec![0.0; n];
        for _ in 0..3 {
            b.kernel_matvec(&v, &mut out).unwrap();
            for i in 0..n {
                assert!((out[i] - clean[i]).abs() < 1e-9, "row {i}");
            }
        }
        assert_eq!(b.live_devices(), 2);
        assert!(b
            .drain_recovery_events()
            .iter()
            .any(|e| e.kind == RecoveryKind::Failover && e.device == Some(2)));
    }

    #[test]
    fn losing_every_device_is_an_error_not_a_hang() {
        let data = sample(16, 4);
        let n = data.points() - 1;
        let b = gpu(&data, KernelSpec::Linear, 2);
        b.install_fault_plan(&FaultPlan::new().fail_stop(0, 0).fail_stop(1, 0))
            .unwrap();
        let v = vec![1.0; n];
        let mut out = vec![0.0; n];
        let err = b.kernel_matvec(&v, &mut out).unwrap_err();
        assert!(err.to_string().contains("no survivor"), "{err}");
        assert_eq!(b.live_devices(), 0);
    }

    #[test]
    fn exhausted_transient_retries_escalate_to_failover() {
        let data = sample(20, 6);
        let n = data.points() - 1;
        let b = gpu(&data, KernelSpec::Linear, 2);
        // more consecutive timeouts than the retry budget allows
        b.install_fault_plan(&FaultPlan::new().transient(1, 0, 100))
            .unwrap();
        let v = vec![1.0; n];
        let mut out = vec![0.0; n];
        b.kernel_matvec(&v, &mut out).unwrap();
        assert_eq!(b.live_devices(), 1);
        let events = b.drain_recovery_events();
        assert!(events.iter().any(|e| e.kind == RecoveryKind::Failover));
        assert!(
            events
                .iter()
                .filter(|e| e.kind == RecoveryKind::Retry)
                .count()
                >= MAX_TRANSIENT_RETRIES as usize
        );
    }

    #[test]
    fn slow_device_is_detected_and_rebalanced_as_straggler() {
        let data = sample(40, 32);
        let n = data.points() - 1;
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.41).cos()).collect();
        let mut clean = vec![0.0; n];
        gpu(&data, KernelSpec::Linear, 2)
            .kernel_matvec(&v, &mut clean)
            .unwrap();

        let b = gpu(&data, KernelSpec::Linear, 2);
        b.install_fault_plan(&FaultPlan::new().slow(1, 0, 8.0))
            .unwrap();
        let before = b.feature_split();
        assert_eq!(before, vec![16, 16]);
        let mut out = vec![0.0; n];
        b.kernel_matvec(&v, &mut out).unwrap();
        let events = b.drain_recovery_events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == RecoveryKind::Straggler && e.device == Some(1)),
            "{events:?}"
        );
        let after = b.feature_split();
        assert!(after[1] < after[0], "straggler kept {after:?}");
        assert_eq!(after[0] + after[1], 32);
        // the rebalanced split still computes the same matvec
        b.kernel_matvec(&v, &mut out).unwrap();
        for i in 0..n {
            assert!((out[i] - clean[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn fault_plan_addressing_missing_device_is_rejected() {
        let data = sample(10, 4);
        let b = gpu(&data, KernelSpec::Linear, 2);
        let err = b
            .install_fault_plan(&FaultPlan::new().fail_stop(5, 0))
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn unsupported_api_hardware_combination() {
        let data = sample(10, 4);
        let err = SimGpuBackend::new(
            &data,
            KernelSpec::Linear,
            1.0,
            hw::RADEON_VII,
            DeviceApi::Cuda,
            1,
            TilingConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("cannot drive"));
    }
}
