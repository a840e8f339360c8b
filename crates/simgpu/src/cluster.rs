//! Multi-node cluster modeling — the paper's §V long-term goal:
//! "extend all PLSSVM kernels to support multi-node multi-GPU execution
//! including load balancing on heterogeneous hardware".
//!
//! A [`ClusterContext`] groups simulated devices into **nodes**. Devices
//! within a node communicate through the host (as in the single-node
//! multi-GPU path); partial results across nodes are combined with a
//! ring **allreduce** over a modeled [`Interconnect`]. Nothing about the
//! functional computation changes — only the time accounting gains a
//! network term.

use crate::device::SimDevice;
use crate::error::SimGpuError;
use crate::fault::FaultPlan;
use crate::hw::{Backend, GpuSpec};
use crate::perf::PerfReport;

/// A network between nodes (InfiniBand-class defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-link bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Per-message latency in microseconds.
    pub latency_us: f64,
}

impl Interconnect {
    /// 200 Gb/s HDR InfiniBand: 25 GB/s, ~2 µs.
    pub const HDR_INFINIBAND: Interconnect = Interconnect {
        bandwidth_gbs: 25.0,
        latency_us: 2.0,
    };

    /// 10 GbE commodity Ethernet: 1.25 GB/s, ~30 µs.
    pub const TEN_GBE: Interconnect = Interconnect {
        bandwidth_gbs: 1.25,
        latency_us: 30.0,
    };

    /// Time of a ring allreduce of `bytes` across `nodes` participants:
    /// `2·(N−1)/N · bytes / bw + 2·(N−1)·latency` (the standard
    /// bandwidth-optimal ring cost). Zero for a single node.
    pub fn allreduce_time_s(&self, bytes: u64, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let n = nodes as f64;
        2.0 * (n - 1.0) / n * bytes as f64 / (self.bandwidth_gbs * 1e9)
            + 2.0 * (n - 1.0) * self.latency_us * 1e-6
    }
}

/// One node's hardware: a set of (possibly mixed) devices.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The devices installed in this node.
    pub devices: Vec<(GpuSpec, Backend)>,
}

impl NodeConfig {
    /// A homogeneous node with `count` devices of one kind.
    pub fn homogeneous(spec: GpuSpec, api: Backend, count: usize) -> Self {
        Self {
            devices: vec![(spec, api); count],
        }
    }
}

/// A group of simulated devices organized into nodes with a modeled
/// interconnect.
pub struct ClusterContext {
    devices: Vec<SimDevice>,
    /// `node_of[i]` = node index of device `i`.
    node_of: Vec<usize>,
    nodes: usize,
    interconnect: Interconnect,
}

impl ClusterContext {
    /// Builds the cluster. Panics if any node is empty, no nodes are
    /// given, or a backend cannot drive its device.
    pub fn new(nodes: &[NodeConfig], interconnect: Interconnect) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let mut devices = Vec::new();
        let mut node_of = Vec::new();
        for (n, node) in nodes.iter().enumerate() {
            assert!(!node.devices.is_empty(), "node {n} has no devices");
            for (spec, api) in &node.devices {
                node_of.push(n);
                devices.push(SimDevice::with_id(spec.clone(), *api, devices.len()));
            }
        }
        Self {
            devices,
            node_of,
            nodes: nodes.len(),
            interconnect,
        }
    }

    /// Total device count across all nodes.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the cluster has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The devices, cluster-wide.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// The node a device belongs to.
    pub fn node_of(&self, device: usize) -> usize {
        self.node_of[device]
    }

    /// Device `i`, or [`SimGpuError::DeviceIndexOutOfRange`] if the cluster
    /// has no such device (no panicking index path).
    pub fn device(&self, i: usize) -> Result<&SimDevice, SimGpuError> {
        self.devices
            .get(i)
            .ok_or(SimGpuError::DeviceIndexOutOfRange {
                index: i,
                count: self.devices.len(),
            })
    }

    /// Installs `plan` cluster-wide (device ordinals are cluster-wide too).
    /// Fails without installing anything if the plan addresses a device the
    /// cluster does not have.
    pub fn install_fault_plan(&self, plan: &FaultPlan) -> Result<(), SimGpuError> {
        if let Some(max) = plan.max_device() {
            if max >= self.devices.len() {
                return Err(SimGpuError::DeviceIndexOutOfRange {
                    index: max,
                    count: self.devices.len(),
                });
            }
        }
        for d in &self.devices {
            d.install_fault_plan(plan);
        }
        Ok(())
    }

    /// Removes fault plans from every device.
    pub fn clear_faults(&self) {
        for d in &self.devices {
            d.clear_faults();
        }
    }

    /// The modeled interconnect.
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// Per-device performance snapshots.
    pub fn reports(&self) -> Vec<PerfReport> {
        self.devices.iter().map(|d| d.perf_report()).collect()
    }

    /// Simulated wall-clock of the device work assuming all devices ran
    /// concurrently (network time is tracked separately by the caller,
    /// per collective).
    pub fn sim_parallel_time_s(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.perf_report().sim_total_time_s())
            .fold(0.0, f64::max)
    }

    /// Largest per-device peak memory in bytes.
    pub fn peak_memory_per_device_bytes(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.peak_allocated_bytes())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{A100, V100};

    #[test]
    fn allreduce_cost_shape() {
        let net = Interconnect::HDR_INFINIBAND;
        assert_eq!(net.allreduce_time_s(1 << 20, 1), 0.0);
        let t2 = net.allreduce_time_s(1 << 20, 2);
        let t4 = net.allreduce_time_s(1 << 20, 4);
        assert!(t2 > 0.0);
        // ring allreduce bandwidth term grows like (N-1)/N → sublinear
        assert!(t4 < 2.0 * t2);
        // slower network costs more
        let slow = Interconnect::TEN_GBE.allreduce_time_s(1 << 20, 4);
        assert!(slow > t4);
    }

    #[test]
    fn cluster_construction_and_topology() {
        let cluster = ClusterContext::new(
            &[
                NodeConfig::homogeneous(A100, Backend::Cuda, 2),
                NodeConfig::homogeneous(V100, Backend::Cuda, 2),
            ],
            Interconnect::HDR_INFINIBAND,
        );
        assert_eq!(cluster.len(), 4);
        assert_eq!(cluster.nodes(), 2);
        assert_eq!(cluster.node_of(0), 0);
        assert_eq!(cluster.node_of(3), 1);
        assert_eq!(cluster.devices()[3].spec().name, "NVIDIA V100");
    }

    #[test]
    fn cluster_device_selection_and_faults() {
        let cluster = ClusterContext::new(
            &[NodeConfig::homogeneous(A100, Backend::Cuda, 2)],
            Interconnect::HDR_INFINIBAND,
        );
        assert!(cluster.device(1).is_ok());
        assert_eq!(
            cluster.device(9).unwrap_err(),
            SimGpuError::DeviceIndexOutOfRange { index: 9, count: 2 }
        );
        assert!(cluster
            .install_fault_plan(&FaultPlan::new().fail_stop(7, 0))
            .is_err());
        cluster
            .install_fault_plan(&FaultPlan::new().slow(0, 0, 2.0))
            .unwrap();
        cluster.clear_faults();
        assert_eq!(cluster.device(0).unwrap().fault_attempts(), 0);
    }

    #[test]
    #[should_panic(expected = "no devices")]
    fn empty_node_panics() {
        let _ = ClusterContext::new(
            &[NodeConfig { devices: vec![] }],
            Interconnect::HDR_INFINIBAND,
        );
    }
}
