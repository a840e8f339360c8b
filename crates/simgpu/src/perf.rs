//! Performance counters and the roofline timing model.
//!
//! Every kernel launch and transfer on a [`crate::SimDevice`] is accounted
//! here. The counters are exact (derived from the executed code), the
//! *simulated time* is a roofline estimate:
//!
//! ```text
//! t_kernel   = launch_overhead + max(flops / (peak_flops · eff_c),
//!                                    bytes / (bandwidth · eff_b))
//! t_transfer = link_latency + bytes / link_bandwidth
//! ```
//!
//! This is what lets the repository regenerate the *shape* of the paper's
//! GPU results (Table I, Fig. 1c/1d, Fig. 4b) without GPU silicon: the
//! counted work is identical to what the real kernels would do, and the
//! peaks come from the hardware catalog in [`crate::hw`].

use std::collections::BTreeMap;

use crate::hw::{BackendProfile, GpuSpec, Precision};

/// Counters aggregated for one kernel name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches of this kernel.
    pub launches: u64,
    /// Floating point operations across all launches.
    pub flops: u128,
    /// Global memory traffic (read + write) in bytes across all launches.
    pub global_bytes: u128,
    /// Accumulated simulated execution time in seconds.
    pub sim_time_s: f64,
}

impl KernelStats {
    /// Achieved arithmetic throughput in FLOP/s (0 if no time elapsed).
    pub fn achieved_flops(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            self.flops as f64 / self.sim_time_s
        } else {
            0.0
        }
    }
}

/// Mutable counter state owned by a device (behind a lock).
#[derive(Debug, Default)]
pub(crate) struct PerfCounters {
    pub kernel_launches: u64,
    pub total_flops: u128,
    pub global_bytes: u128,
    pub h2d_bytes: u128,
    pub d2h_bytes: u128,
    pub sim_compute_time_s: f64,
    pub sim_transfer_time_s: f64,
    pub per_kernel: BTreeMap<String, KernelStats>,
}

impl PerfCounters {
    pub(crate) fn record_launch(
        &mut self,
        name: &str,
        flops: u64,
        global_bytes: u64,
        sim_time_s: f64,
    ) {
        self.kernel_launches += 1;
        self.total_flops += u128::from(flops);
        self.global_bytes += u128::from(global_bytes);
        self.sim_compute_time_s += sim_time_s;
        let entry = self.per_kernel.entry(name.to_owned()).or_default();
        entry.launches += 1;
        entry.flops += u128::from(flops);
        entry.global_bytes += u128::from(global_bytes);
        entry.sim_time_s += sim_time_s;
    }

    pub(crate) fn record_transfer(&mut self, to_device: bool, bytes: u64, sim_time_s: f64) {
        if to_device {
            self.h2d_bytes += u128::from(bytes);
        } else {
            self.d2h_bytes += u128::from(bytes);
        }
        self.sim_transfer_time_s += sim_time_s;
    }
}

/// Immutable snapshot of a device's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Total kernel launches on the device.
    pub kernel_launches: u64,
    /// Total FLOPs executed by kernels.
    pub total_flops: u128,
    /// Total global memory traffic of kernels in bytes.
    pub global_bytes: u128,
    /// Host→device transferred bytes.
    pub h2d_bytes: u128,
    /// Device→host transferred bytes.
    pub d2h_bytes: u128,
    /// Simulated seconds spent in kernels.
    pub sim_compute_time_s: f64,
    /// Simulated seconds spent in transfers.
    pub sim_transfer_time_s: f64,
    /// Currently allocated device memory in bytes.
    pub allocated_bytes: usize,
    /// High-water mark of allocated device memory in bytes.
    pub peak_allocated_bytes: usize,
    /// Per-kernel breakdown, keyed by kernel name.
    pub per_kernel: BTreeMap<String, KernelStats>,
}

impl PerfReport {
    /// Simulated seconds of device activity (kernels + transfers).
    pub fn sim_total_time_s(&self) -> f64 {
        self.sim_compute_time_s + self.sim_transfer_time_s
    }

    /// Fraction of the device's peak the named kernel achieved.
    pub fn peak_fraction(&self, kernel: &str, spec: &GpuSpec, precision: Precision) -> f64 {
        self.per_kernel
            .get(kernel)
            .map(|k| k.achieved_flops() / spec.peak_flops(precision))
            .unwrap_or(0.0)
    }
}

/// Roofline estimate for one kernel launch, in seconds. Public so that
/// analytic work models (the paper-scale experiment harness) can price
/// predicted work with exactly the same formula the executed kernels use.
pub fn kernel_time_s(
    spec: &GpuSpec,
    profile: &BackendProfile,
    precision: Precision,
    flops: u64,
    global_bytes: u64,
) -> f64 {
    let compute = flops as f64 / (spec.peak_flops(precision) * profile.compute_efficiency);
    let memory =
        global_bytes as f64 / (spec.mem_bandwidth_gbs * 1e9 * profile.bandwidth_efficiency);
    let overhead = spec.launch_overhead_us * profile.launch_overhead_factor * 1e-6;
    overhead + compute.max(memory)
}

/// Link latency for one host↔device transfer (fixed PCIe round trip cost).
pub const TRANSFER_LATENCY_S: f64 = 10e-6;

/// Roofline estimate for one host↔device transfer, in seconds.
pub fn transfer_time_s(spec: &GpuSpec, bytes: u64) -> f64 {
    TRANSFER_LATENCY_S + bytes as f64 / (spec.link_bandwidth_gbs * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{backend_profile, Backend, A100};

    #[test]
    fn roofline_compute_bound() {
        let profile = backend_profile(Backend::Cuda, &A100);
        // 9.7e12 flops at 32 % efficiency → ~1/0.32 s, far above memory time
        let t = kernel_time_s(&A100, &profile, Precision::F64, 9_700_000_000_000, 8);
        assert!((t - 1.0 / 0.32).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn roofline_memory_bound() {
        let profile = backend_profile(Backend::Cuda, &A100);
        // 1555 GB at 80 % efficiency → 1/0.8 s
        let t = kernel_time_s(&A100, &profile, Precision::F64, 8, 1_555_000_000_000);
        assert!((t - 1.0 / 0.8).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn launch_overhead_floors_empty_kernels() {
        let profile = backend_profile(Backend::Cuda, &A100);
        let t = kernel_time_s(&A100, &profile, Precision::F64, 0, 0);
        assert!((t - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let t = transfer_time_s(&A100, 0);
        assert_eq!(t, TRANSFER_LATENCY_S);
        let t = transfer_time_s(&A100, 25_000_000_000);
        assert!((t - (1.0 + TRANSFER_LATENCY_S)).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate_per_kernel() {
        let mut c = PerfCounters::default();
        c.record_launch("matvec", 100, 10, 0.5);
        c.record_launch("matvec", 100, 10, 0.5);
        c.record_launch("q", 7, 3, 0.25);
        assert_eq!(c.kernel_launches, 3);
        assert_eq!(c.total_flops, 207);
        assert_eq!(c.global_bytes, 23);
        let k = &c.per_kernel["matvec"];
        assert_eq!(k.launches, 2);
        assert_eq!(k.flops, 200);
        assert_eq!(k.achieved_flops(), 200.0);
    }

    #[test]
    fn transfers_tracked_by_direction() {
        let mut c = PerfCounters::default();
        c.record_transfer(true, 100, 0.1);
        c.record_transfer(false, 50, 0.2);
        assert_eq!(c.h2d_bytes, 100);
        assert_eq!(c.d2h_bytes, 50);
        assert!((c.sim_transfer_time_s - 0.3).abs() < 1e-12);
    }

    #[test]
    fn report_helpers() {
        let mut per_kernel = BTreeMap::new();
        per_kernel.insert(
            "matvec".to_owned(),
            KernelStats {
                launches: 1,
                flops: (3.104e12) as u128,
                global_bytes: 0,
                sim_time_s: 1.0,
            },
        );
        let r = PerfReport {
            sim_compute_time_s: 1.0,
            sim_transfer_time_s: 0.5,
            peak_allocated_bytes: 1 << 30,
            per_kernel,
            ..Default::default()
        };
        assert_eq!(r.sim_total_time_s(), 1.5);
        // 3.104 TFLOP/s on a 9.7 TFLOP/s device = 32 % of peak (the paper's
        // reported kernel efficiency)
        let frac = r.peak_fraction("matvec", &A100, Precision::F64);
        assert!((frac - 0.32).abs() < 1e-6, "frac = {frac}");
        assert_eq!(r.peak_fraction("nope", &A100, Precision::F64), 0.0);
    }
}
