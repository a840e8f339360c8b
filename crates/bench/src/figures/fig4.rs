//! Figure 4 — strong scaling on a many-core CPU (4a) and on multiple
//! GPUs (4b).
//!
//! 4a measures the `openmp` backend for real at every power-of-two thread
//! count up to the host's available parallelism (1 and 2 threads on a
//! 2-vCPU host), then extends the curve with a documented scaling model:
//! the `cg` component follows Amdahl's law with a serial fraction fitted to
//! the paper's observed 74.7× speedup on 256 threads; `read`/`write` scale
//! to ~16 cores and *degrade* past one socket (64 cores), as the paper
//! reports. At `--scale small` (128 × 32) one matvec is below the work
//! grain (`plssvm_core::par::PAR_GRAIN`) and runs on one thread at every
//! count; the medium scale (512 × 128) forks.
//!
//! 4b evaluates the validated multi-device work model at the paper's size
//! (2¹⁶ points × 2¹⁴ features) for 1–4 simulated A100s — simulated time,
//! parallel speedup and the exact per-device memory accounting — and
//! cross-checks the speedup shape with a small functional run.

use plssvm_core::backend::BackendSelection;
use plssvm_data::model::KernelSpec;
use plssvm_simgpu::{hw, Backend as DeviceApi};

use crate::figures::common::{
    fmt_secs, planes_data, timed_lssvm_train, FigureReport, Scale, Table,
};
use crate::workmodel::LsSvmWorkModel;

/// Amdahl serial fraction of the `cg` component, fitted to the paper's
/// 74.7× parallel speedup on 256 threads: `f = (256/74.7 − 1)/255`.
pub const CG_SERIAL_FRACTION: f64 = (256.0 / 74.7 - 1.0) / 255.0;

/// Modeled `cg` speedup at `t` threads.
pub fn cg_speedup(t: usize) -> f64 {
    1.0 / (CG_SERIAL_FRACTION + (1.0 - CG_SERIAL_FRACTION) / t as f64)
}

/// Modeled `read`/`write` speedup: ideal to 16 threads, flat to one
/// socket (64), degrading beyond (the paper's two-socket effect).
pub fn io_speedup(t: usize) -> f64 {
    let base = (t.min(16)) as f64;
    if t <= 64 {
        base
    } else {
        base / ((t as f64 / 64.0).sqrt())
    }
}

/// Fig. 4a — CPU strong scaling of the components.
pub fn run_fig4a(scale: Scale) -> FigureReport {
    let (m, d) = match scale {
        Scale::Small => (128, 32),
        Scale::Medium => (512, 128),
    };
    let data = planes_data(m, d, 4001);

    // real measurements for every power-of-two thread count the host has;
    // the 1-thread run doubles as the baseline for the modeled curve
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut measured = Table::new(&["threads", "cg (measured)", "speedup"]);
    let mut base_cg = 0.0f64;
    let mut t = 1usize;
    while t <= host_threads {
        let (out, _) = timed_lssvm_train(
            &data,
            KernelSpec::Linear,
            1e-6,
            BackendSelection::openmp(Some(t)),
        );
        let ct = out.times.cg.as_secs_f64();
        if t == 1 {
            base_cg = ct;
        }
        measured.row(vec![
            t.to_string(),
            fmt_secs(ct),
            format!("{:.2}x", base_cg / ct),
        ]);
        t *= 2;
    }

    // modeled scaling to 256 threads
    let mut modeled = Table::new(&["threads", "cg", "cg speedup", "read/write speedup"]);
    for e in 0..=8u32 {
        let t = 1usize << e;
        modeled.row(vec![
            t.to_string(),
            fmt_secs(base_cg / cg_speedup(t)),
            format!("{:.1}x", cg_speedup(t)),
            format!("{:.1}x", io_speedup(t)),
        ]);
    }
    let csv = modeled.write_csv("fig4a.csv");
    FigureReport {
        id: "fig4a".into(),
        title: format!("CPU strong scaling ({m} points x {d} features)"),
        body: format!(
            "Measured on this host ({host_threads} core(s)):\n{}\n\
             Modeled to 256 threads (Amdahl fraction {CG_SERIAL_FRACTION:.4} fitted to the \
             paper's 74.7x at 256 threads; read/write saturate at 16 and degrade \
             past one socket):\n{}",
            measured.to_aligned(),
            modeled.to_aligned()
        ),
        csv_files: vec![csv],
    }
}

/// Fig. 4b — multi-GPU scaling and memory (paper: 2¹⁶ × 2¹⁴ on 4×A100).
pub fn run_fig4b(scale: Scale) -> FigureReport {
    let iters = match scale {
        Scale::Small => crate::figures::common::measured_iterations(128, 32, 9),
        Scale::Medium => crate::figures::common::measured_iterations(512, 128, 9),
    };
    let calls = LsSvmWorkModel::matvec_calls(iters);
    let (m, d) = (1usize << 16, 1usize << 14);
    let gib = |b: u64| b as f64 / (1u64 << 30) as f64;

    let t1 =
        LsSvmWorkModel::new(m, d, KernelSpec::Linear).sim_time_s(&hw::A100, DeviceApi::Cuda, calls);
    let mut table = Table::new(&["GPUs", "sim time", "speedup", "memory/GPU"]);
    for devices in 1..=4usize {
        let model = LsSvmWorkModel::new(m, d, KernelSpec::Linear).with_devices(devices);
        let t = model.sim_time_s(&hw::A100, DeviceApi::Cuda, calls);
        table.row(vec![
            devices.to_string(),
            fmt_secs(t),
            format!("{:.2}x", t1 / t),
            format!("{:.2} GiB", gib(model.peak_memory_per_device())),
        ]);
    }

    // functional cross-check at a small size (executed, not modeled)
    let data = planes_data(256, 64, 4002);
    let (single, _) = timed_lssvm_train(
        &data,
        KernelSpec::Linear,
        1e-6,
        BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda),
    );
    let (quad, _) = timed_lssvm_train(
        &data,
        KernelSpec::Linear,
        1e-6,
        BackendSelection::sim_multi_gpu(hw::A100, DeviceApi::Cuda, 4),
    );
    let s1 = single.device.unwrap();
    let s4 = quad.device.unwrap();
    let functional = format!(
        "Functional cross-check (256x64, executed; at this toy size the fixed \
         per-iteration transfers dominate, so the speedup is transfer-bound — \
         the memory split is exact at any size): \
         1 GPU {} / 4 GPUs {} simulated => speedup {:.2}x; memory/GPU {:.1} KiB -> {:.1} KiB\n",
        fmt_secs(s1.sim_parallel_time_s),
        fmt_secs(s4.sim_parallel_time_s),
        s1.sim_parallel_time_s / s4.sim_parallel_time_s,
        s1.peak_memory_per_device_bytes as f64 / 1024.0,
        s4.peak_memory_per_device_bytes as f64 / 1024.0,
    );
    let csv = table.write_csv("fig4b.csv");
    FigureReport {
        id: "fig4b".into(),
        title: "multi-GPU scaling, 2^16 points x 2^14 features (modeled, validated model)".into(),
        body: format!(
            "{}\n{functional}\
             Paper: 3.71x on four A100s; 8.15 GiB -> 2.14 GiB per GPU (factor 3.6, \
             not the optimal 4, because the CG vectors are replicated).\n",
            table.to_aligned()
        ),
        csv_files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_fit_hits_paper_speedup() {
        assert!((cg_speedup(256) - 74.7).abs() < 0.5);
        assert!((cg_speedup(1) - 1.0).abs() < 1e-12);
        assert!(cg_speedup(16) > 14.0);
    }

    #[test]
    fn io_speedup_degrades_past_socket() {
        assert_eq!(io_speedup(1), 1.0);
        assert_eq!(io_speedup(16), 16.0);
        assert_eq!(io_speedup(64), 16.0);
        assert!(io_speedup(256) < io_speedup(64));
    }

    #[test]
    fn fig4b_small_runs() {
        let r = run_fig4b(Scale::Small);
        assert!(r.body.contains("GPUs"));
        assert!(r.body.contains("Functional cross-check"));
        // 4 modeled rows
        assert!(r.body.contains("3."), "{}", r.body);
    }
}
