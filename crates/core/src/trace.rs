//! Unified solver observability: CG telemetry, kernel-launch metrics and
//! hierarchical timing spans.
//!
//! The paper argues its performance case with three kinds of evidence:
//! per-ε CG iteration counts (Fig. 3), kernel launch counts / achieved
//! FLOP rates from Nsight profiles (§IV-C), and a per-component runtime
//! breakdown (Fig. 2). This module gives the repository one schema for all
//! three so every backend — serial, "OpenMP", sparse and the simulated
//! devices — reports into the same place:
//!
//! * [`MetricsSink`] — the recording interface. Backends call
//!   [`MetricsSink::record_launch`] once per (logical) kernel launch, the
//!   CG solver calls [`MetricsSink::record_cg_iteration`] once per
//!   iteration, and the training drivers record wall-clock
//!   [`MetricsSink::record_span`]s.
//! * [`Telemetry`] — the standard sink: a lock-protected collector that
//!   can be snapshotted into a [`TelemetryReport`] at any time.
//! * [`TelemetryReport`] — the immutable result attached to
//!   [`crate::svm::TrainOutput::telemetry`], with a deterministic subset
//!   ([`TelemetryReport::deterministic_summary`]) and a line-oriented JSON
//!   serialization ([`TelemetryReport::to_json_lines`]) for the CLI's
//!   `--metrics-out`.
//!
//! **Counting convention.** The CPU backends record the *logical* work of
//! the implicit operator (every entry of `K·v` evaluated once), so the
//! serial, "OpenMP" and sparse counters are identical by construction —
//! symmetry tricks and sparse storage are implementation details that do
//! not change what is mathematically computed. Alongside the logical
//! counters they report the *physical* kernel evaluations each matvec
//! performs through [`MetricsSink::record_kernel_evals`]: `n(n+1)/2` for
//! the symmetric schedules of the serial and blocked "OpenMP" backends,
//! `n²` for the full row sweep — so the effect of symmetry exploitation is
//! observable without perturbing the logical accounting. The device
//! backend records what its tiled kernels *actually* execute (triangular
//! blocking with atomic mirroring, §III-C), folded out of the per-device
//! `plssvm_simgpu::PerfReport`s into the same schema. Counters and
//! simulated times are deterministic; wall-clock spans and per-matvec wall
//! times are not, and are therefore excluded from the deterministic
//! subset.
//!
//! Telemetry is strictly opt-in: a disabled sink costs one `Option` branch
//! per CG iteration and per matvec — nothing is timed or allocated.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Canonical span paths used by the training drivers (the hierarchical
/// replacement of the ad-hoc `ComponentTimes` plumbing).
pub mod spans {
    /// The complete training run.
    pub const TRAIN: &str = "train";
    /// Reading and parsing the input file.
    pub const READ: &str = "train/read";
    /// 2D row-major → padded SoA transform.
    pub const TRANSFORM: &str = "train/transform";
    /// The `cg` component: backend setup, transfers and the CG solve.
    pub const CG: &str = "train/cg";
    /// Backend setup and data upload (child of [`CG`]).
    pub const CG_SETUP: &str = "train/cg/setup";
    /// The CG iterations themselves (child of [`CG`]).
    pub const CG_SOLVE: &str = "train/cg/solve";
    /// Model assembly and (optional) model file write.
    pub const WRITE: &str = "train/write";
}

/// One CG iteration's telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgIterationSample {
    /// 1-based iteration number.
    pub iteration: usize,
    /// `‖rₖ‖` after this iteration (recurrence value, deterministic).
    pub residual_norm: f64,
    /// Step length α of this iteration (deterministic).
    pub alpha: f64,
    /// Direction update β of this iteration (deterministic).
    pub beta: f64,
    /// Wall-clock time of this iteration's `A·d` matvec (not
    /// deterministic; excluded from the deterministic subset).
    pub matvec_wall: Duration,
}

/// What happened in one fault-tolerance event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A transient launch failure was retried (with simulated backoff).
    Retry,
    /// A fail-stopped device's shard was redistributed to the survivors.
    Failover,
    /// A device was detected running far slower than its peers.
    Straggler,
    /// The CG solver snapshotted its state ([`crate::cg::CgState`]).
    Checkpoint,
    /// The solver restarted from its current iterate with the exactly
    /// recomputed residual (drift restart, or escalation-ladder rung 1).
    Restart,
    /// The escalation ladder enabled the Jacobi preconditioner (rung 2).
    Precondition,
    /// The escalation ladder switched an f32 solve to an f64
    /// iterative-refinement outer loop (rung 3).
    PrecisionEscalation,
    /// A numeric fault was detected (non-finite matvec output, breakdown);
    /// emitted at the detection point, before any recovery rung engages.
    NumericFault,
    /// An approximate solver (the randomized low-rank path) handed the
    /// problem to the exact escalation ladder after failing to reach the
    /// requested tolerance.
    SolverFallback,
    /// A storage operation failed transiently and was retried (with
    /// capped backoff); the retry succeeded or the attempt budget ran out.
    IoRetry,
    /// Storage kept failing past the retry budget and a durability
    /// feature degraded gracefully (e.g. checkpointing disabled while
    /// training continues).
    IoDegraded,
}

impl RecoveryKind {
    /// The stable lower-case name used in the JSON schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Retry => "retry",
            RecoveryKind::Failover => "failover",
            RecoveryKind::Straggler => "straggler",
            RecoveryKind::Checkpoint => "checkpoint",
            RecoveryKind::Restart => "restart",
            RecoveryKind::Precondition => "precondition",
            RecoveryKind::PrecisionEscalation => "precision_escalation",
            RecoveryKind::NumericFault => "numeric_fault",
            RecoveryKind::SolverFallback => "solver_fallback",
            RecoveryKind::IoRetry => "io_retry",
            RecoveryKind::IoDegraded => "io_degraded",
        }
    }
}

/// One fault-tolerance event: a retry, failover, straggler detection or
/// solver checkpoint. All fields are deterministic (fault injection is
/// keyed on launch counts, never on wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySample {
    /// What happened.
    pub kind: RecoveryKind,
    /// The device involved, if the event concerns one.
    pub device: Option<usize>,
    /// The device's launch-attempt index at the event, if applicable.
    pub at_launch: Option<u64>,
    /// The CG iteration at the event, if applicable (checkpoints).
    pub iteration: Option<usize>,
    /// Human-readable context (deterministic wording).
    pub detail: String,
}

impl RecoverySample {
    /// A solver checkpoint at the given CG iteration.
    pub fn checkpoint(iteration: usize) -> Self {
        Self {
            kind: RecoveryKind::Checkpoint,
            device: None,
            at_launch: None,
            iteration: Some(iteration),
            detail: "cg state snapshot".to_owned(),
        }
    }

    /// A device-scoped event (retry, failover or straggler).
    pub fn device_event(
        kind: RecoveryKind,
        device: usize,
        at_launch: u64,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            kind,
            device: Some(device),
            at_launch: Some(at_launch),
            iteration: None,
            detail: detail.into(),
        }
    }

    /// A solver-scoped event (drift restart, escalation rung, numeric
    /// fault) at the given CG iteration.
    pub fn solver(kind: RecoveryKind, iteration: usize, detail: impl Into<String>) -> Self {
        Self {
            kind,
            device: None,
            at_launch: None,
            iteration: Some(iteration),
            detail: detail.into(),
        }
    }
}

/// The final classification of a CG solve (or of a whole escalation
/// ladder), recorded once at the end: what happened, how many iterations
/// ran, and the final (relative) residual. This is what makes "silently
/// hit `max_iterations`" observable — the outcome and final residual are
/// part of every telemetry summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOutcomeSample {
    /// Stable lowercase outcome name (see `plssvm_core::cg::SolveOutcome`):
    /// `converged`, `stalled`, `diverged`, `breakdown_indefinite`,
    /// `breakdown_nonfinite` or `iteration_budget`.
    pub outcome: &'static str,
    /// Matvec-bearing iterations performed (across all ladder rungs when
    /// recorded by the guard layer).
    pub iterations: usize,
    /// Final residual norm `‖r‖` (deterministic).
    pub final_residual_norm: f64,
    /// `‖r‖ / ‖r₀‖` against the *original* right-hand side (deterministic).
    pub relative_residual: f64,
}

/// One randomized low-rank (Nyström) solve's telemetry: the chosen rank,
/// landmark strategy, factorization cost and achieved accuracy. Recorded
/// once per low-rank solve through [`MetricsSink::record_lowrank`]; wall
/// times are *not* deterministic and are excluded from
/// [`TelemetryReport::deterministic_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankSample {
    /// Effective rank `k` after clamping to the reduced dimension.
    pub rank: usize,
    /// Landmark strategy name (`uniform` or `leverage`).
    pub strategy: &'static str,
    /// Jitter steps taken before the capacitance Cholesky succeeded
    /// (0 = clean factorization).
    pub jitter_steps: usize,
    /// Relative residual `‖b − Q̃x‖/‖b‖` of the *direct* Nyström solve,
    /// measured against the exact operator (deterministic).
    pub direct_relative_residual: f64,
    /// Iterations spent in the Nyström-preconditioned CG polish (0 when
    /// the direct solve already met the tolerance).
    pub pcg_iterations: usize,
    /// Wall-clock spent assembling `C`, `W` and the factorizations (not
    /// deterministic).
    pub assembly_wall: Duration,
    /// Wall-clock of the direct solve + PCG polish (not deterministic).
    pub solve_wall: Duration,
}

/// The SIMD dispatch decision of a blocked CPU backend: which ISA tier
/// the panel micro-kernels resolved to, whether it was forced through
/// `PLSSVM_FORCE_ISA`, and the resulting panel/lane geometry. Recorded
/// once when a prepared backend is attached to a sink through
/// [`MetricsSink::record_dispatch`]; fully deterministic for a given host
/// and environment, but host-dependent — so it is serialized to the JSON
/// lines yet excluded from [`TelemetryReport::deterministic_summary`]
/// (which must stay byte-identical across hosts of different ISA tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchSample {
    /// Stable lowercase tier name (`scalar`, `neon`, `avx2`, `avx512`).
    pub isa: &'static str,
    /// Whether `PLSSVM_FORCE_ISA` selected the tier (vs auto-detection).
    pub forced: bool,
    /// Panel micro-kernel rows (`PANEL_MR`).
    pub panel_mr: usize,
    /// Panel micro-kernel columns (`PANEL_NR`).
    pub panel_nr: usize,
    /// `f32` SIMD lanes of the tier (1 for scalar).
    pub lanes_f32: usize,
    /// `f64` SIMD lanes of the tier (1 for scalar).
    pub lanes_f64: usize,
}

/// Aggregated counters for one kernel name — the unified schema the
/// per-backend bookkeeping folds into.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCounter {
    /// Number of launches (CPU backends: one per logical kernel
    /// invocation; device backends: one per device launch).
    pub launches: u64,
    /// Floating point operations across all launches.
    pub flops: u128,
    /// Global memory traffic in bytes across all launches (CPU backends:
    /// the logical minimum traffic; device backends: counted traffic).
    pub bytes: u128,
    /// Simulated seconds (roofline model; 0 for CPU backends).
    pub sim_time_s: f64,
}

impl KernelCounter {
    /// Achieved arithmetic throughput in FLOP/s against the *simulated*
    /// time (0 if no simulated time was recorded).
    pub fn achieved_flops(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            self.flops as f64 / self.sim_time_s
        } else {
            0.0
        }
    }
}

/// One recorded wall-clock span. Paths are `/`-separated for hierarchy
/// (`train/cg/solve` is a child of `train/cg`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Hierarchical span path (see [`spans`] for the canonical names).
    pub path: String,
    /// Wall-clock duration of the span.
    pub wall: Duration,
}

/// The recording interface of the observability layer.
///
/// Every backend reports into a `MetricsSink`; [`Telemetry`] is the
/// standard implementation. Implementations must be thread-safe — device
/// backends record from the (potentially parallel) launch path.
pub trait MetricsSink: Send + Sync {
    /// Records `launches` launches of kernel `name` with the given
    /// aggregate cost.
    fn record_launch(&self, name: &str, launches: u64, flops: u128, bytes: u128, sim_time_s: f64);

    /// Records the start of a CG solve (`dim` unknowns, `‖r₀‖`).
    fn record_cg_start(&self, dim: usize, initial_residual_norm: f64);

    /// Records one CG iteration.
    fn record_cg_iteration(&self, sample: CgIterationSample);

    /// Records one wall-clock span.
    fn record_span(&self, path: &str, wall: Duration);

    /// Records one fault-tolerance event (retry, failover, straggler,
    /// checkpoint).
    fn record_recovery(&self, sample: RecoverySample);

    /// Records `evals` *physical* kernel evaluations performed under
    /// kernel `name` — the complement to the logical
    /// [`MetricsSink::record_launch`] counters: symmetric CPU schedules
    /// report `n(n+1)/2` per matvec where the logical convention counts
    /// `n²` entries.
    fn record_kernel_evals(&self, name: &str, evals: u128);

    /// Records the final classification of a CG solve (or escalation
    /// ladder). Recorded last; when several solves share one sink the
    /// most recent outcome wins.
    fn record_cg_outcome(&self, sample: CgOutcomeSample);

    /// Records one randomized low-rank (Nyström) solve: rank, strategy,
    /// factorization cost and achieved accuracy. When several solves share
    /// one sink the most recent sample wins.
    fn record_lowrank(&self, sample: LowRankSample);

    /// Records the SIMD dispatch decision of a blocked CPU backend (ISA
    /// tier, forced/auto, panel and lane geometry). When several backends
    /// share one sink the most recent sample wins.
    fn record_dispatch(&self, sample: DispatchSample);
}

#[derive(Debug, Default)]
struct TelemetryState {
    kernels: BTreeMap<String, KernelCounter>,
    kernel_evals: BTreeMap<String, u128>,
    cg_dim: Option<usize>,
    cg_initial_residual_norm: Option<f64>,
    cg: Vec<CgIterationSample>,
    cg_outcome: Option<CgOutcomeSample>,
    lowrank: Option<LowRankSample>,
    dispatch: Option<DispatchSample>,
    spans: Vec<SpanRecord>,
    recovery: Vec<RecoverySample>,
}

/// The standard [`MetricsSink`]: collects everything behind a lock and
/// snapshots into a [`TelemetryReport`].
///
/// ```
/// use std::sync::Arc;
/// use plssvm_core::prelude::*;
/// use plssvm_core::trace::Telemetry;
/// use plssvm_data::synthetic::{generate_planes, PlanesConfig};
///
/// let data = generate_planes::<f64>(&PlanesConfig::new(64, 8, 42))?;
/// let telemetry = Telemetry::shared();
/// let out = LsSvm::new()
///     .with_epsilon(1e-6)
///     .with_metrics(Arc::clone(&telemetry))
///     .train(&data)?;
/// let report = out.telemetry.expect("telemetry was enabled");
/// assert_eq!(report.iterations(), out.iterations);
/// assert!(report.kernels.contains_key("svm_kernel"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Telemetry {
    state: Mutex<TelemetryState>,
}

impl Telemetry {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh collector already wrapped in the [`Arc`] the training APIs
    /// take.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshots the collected data.
    pub fn report(&self) -> TelemetryReport {
        let s = self.lock();
        TelemetryReport {
            kernels: s.kernels.clone(),
            kernel_evals: s.kernel_evals.clone(),
            cg_dim: s.cg_dim,
            cg_initial_residual_norm: s.cg_initial_residual_norm,
            cg: s.cg.clone(),
            cg_outcome: s.cg_outcome,
            lowrank: s.lowrank.clone(),
            dispatch: s.dispatch,
            spans: s.spans.clone(),
            recovery: s.recovery.clone(),
        }
    }

    /// Clears all collected data (for sink reuse across runs).
    pub fn reset(&self) {
        *self.lock() = TelemetryState::default();
    }
}

impl MetricsSink for Telemetry {
    fn record_launch(&self, name: &str, launches: u64, flops: u128, bytes: u128, sim_time_s: f64) {
        let mut s = self.lock();
        let entry = s.kernels.entry(name.to_owned()).or_default();
        entry.launches += launches;
        entry.flops += flops;
        entry.bytes += bytes;
        entry.sim_time_s += sim_time_s;
    }

    fn record_cg_start(&self, dim: usize, initial_residual_norm: f64) {
        let mut s = self.lock();
        s.cg_dim = Some(dim);
        s.cg_initial_residual_norm = Some(initial_residual_norm);
        s.cg.clear();
    }

    fn record_cg_iteration(&self, sample: CgIterationSample) {
        self.lock().cg.push(sample);
    }

    fn record_span(&self, path: &str, wall: Duration) {
        self.lock().spans.push(SpanRecord {
            path: path.to_owned(),
            wall,
        });
    }

    fn record_recovery(&self, sample: RecoverySample) {
        self.lock().recovery.push(sample);
    }

    fn record_kernel_evals(&self, name: &str, evals: u128) {
        let mut s = self.lock();
        *s.kernel_evals.entry(name.to_owned()).or_default() += evals;
    }

    fn record_cg_outcome(&self, sample: CgOutcomeSample) {
        self.lock().cg_outcome = Some(sample);
    }

    fn record_lowrank(&self, sample: LowRankSample) {
        self.lock().lowrank = Some(sample);
    }

    fn record_dispatch(&self, sample: DispatchSample) {
        self.lock().dispatch = Some(sample);
    }
}

/// Immutable snapshot of one training run's telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Unified kernel counters, keyed by kernel name (`q_kernel`,
    /// `svm_kernel`, `w_kernel`).
    pub kernels: BTreeMap<String, KernelCounter>,
    /// *Physical* kernel evaluations by kernel name — what the backend's
    /// schedule actually computed (symmetric CPU schedules: `n(n+1)/2` per
    /// matvec vs the logical `n²`). Empty when no backend reported them.
    pub kernel_evals: BTreeMap<String, u128>,
    /// Dimension of the reduced CG system (`m − 1`), when a solve ran.
    pub cg_dim: Option<usize>,
    /// `‖r₀‖` of the CG solve, when a solve ran.
    pub cg_initial_residual_norm: Option<f64>,
    /// Per-iteration CG samples, in iteration order.
    pub cg: Vec<CgIterationSample>,
    /// Final classification of the (most recent) CG solve: outcome,
    /// iteration count and final relative residual. `None` when no solve
    /// ran against this sink.
    pub cg_outcome: Option<CgOutcomeSample>,
    /// The (most recent) randomized low-rank solve's sample. `None` when
    /// no low-rank solve ran against this sink.
    pub lowrank: Option<LowRankSample>,
    /// The (most recent) blocked CPU backend's SIMD dispatch decision.
    /// `None` when no blocked CPU backend was attached to this sink.
    /// Host-dependent, so excluded from
    /// [`TelemetryReport::deterministic_summary`].
    pub dispatch: Option<DispatchSample>,
    /// Recorded wall-clock spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Fault-tolerance events (retries, failovers, straggler detections,
    /// solver checkpoints), in recording order.
    pub recovery: Vec<RecoverySample>,
}

impl TelemetryReport {
    /// Number of CG iterations recorded.
    pub fn iterations(&self) -> usize {
        self.cg.len()
    }

    /// The per-iteration residual norms, in iteration order.
    pub fn residual_history(&self) -> Vec<f64> {
        self.cg.iter().map(|s| s.residual_norm).collect()
    }

    /// Total kernel launches across all kernels.
    pub fn total_launches(&self) -> u64 {
        self.kernels.values().map(|k| k.launches).sum()
    }

    /// Total FLOPs across all kernels.
    pub fn total_flops(&self) -> u128 {
        self.kernels.values().map(|k| k.flops).sum()
    }

    /// Total global memory traffic across all kernels, in bytes.
    pub fn total_bytes(&self) -> u128 {
        self.kernels.values().map(|k| k.bytes).sum()
    }

    /// Sum of the wall-clock of all spans matching `path` (0 when absent).
    pub fn span(&self, path: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.path == path)
            .map(|s| s.wall)
            .sum()
    }

    /// The deterministic subset of the telemetry, serialized to a string
    /// that is byte-identical across repeated runs on identical inputs:
    /// the iteration count, per-kernel launch/FLOP/byte counters, and the
    /// bit-exact residual history. Wall-clock (and simulated) times are
    /// excluded.
    pub fn deterministic_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "iterations={}", self.cg.len());
        if let Some(dim) = self.cg_dim {
            let _ = writeln!(out, "cg_dim={dim}");
        }
        if let Some(r0) = self.cg_initial_residual_norm {
            let _ = writeln!(out, "initial_residual_bits={:016x}", r0.to_bits());
        }
        for (name, k) in &self.kernels {
            let _ = writeln!(
                out,
                "kernel={name} launches={} flops={} bytes={}",
                k.launches, k.flops, k.bytes
            );
        }
        for (name, evals) in &self.kernel_evals {
            let _ = writeln!(out, "kernel_evals={name} evals={evals}");
        }
        for s in &self.cg {
            let _ = writeln!(
                out,
                "iter={} residual_bits={:016x} alpha_bits={:016x} beta_bits={:016x}",
                s.iteration,
                s.residual_norm.to_bits(),
                s.alpha.to_bits(),
                s.beta.to_bits()
            );
        }
        if let Some(o) = &self.cg_outcome {
            let _ = writeln!(
                out,
                "outcome={} iterations={} final_residual_bits={:016x} relative_residual_bits={:016x}",
                o.outcome,
                o.iterations,
                o.final_residual_norm.to_bits(),
                o.relative_residual.to_bits()
            );
        }
        if let Some(l) = &self.lowrank {
            let _ = writeln!(
                out,
                "lowrank rank={} strategy={} jitter_steps={} \
                 direct_residual_bits={:016x} pcg_iterations={}",
                l.rank,
                l.strategy,
                l.jitter_steps,
                l.direct_relative_residual.to_bits(),
                l.pcg_iterations
            );
        }
        for s in &self.recovery {
            let _ = writeln!(
                out,
                "recovery={} device={} launch={} iter={} detail={}",
                s.kind.as_str(),
                s.device.map_or_else(|| "-".to_owned(), |d| d.to_string()),
                s.at_launch
                    .map_or_else(|| "-".to_owned(), |l| l.to_string()),
                s.iteration
                    .map_or_else(|| "-".to_owned(), |i| i.to_string()),
                s.detail
            );
        }
        out
    }

    /// Serializes the full report as line-oriented JSON (one object per
    /// line), the format of the CLI's `--metrics-out`.
    ///
    /// Documented line types and keys:
    /// * `{"type":"cg_start","dim":n,"initial_residual_norm":x}`
    /// * `{"type":"cg_iteration","iteration":k,"residual_norm":x,`
    ///   `"alpha":x,"beta":x,"matvec_wall_s":x}`
    /// * `{"type":"kernel","name":"svm_kernel","launches":n,"flops":n,`
    ///   `"bytes":n,"sim_time_s":x}`
    /// * `{"type":"kernel_evals","name":"svm_kernel","evals":n}` — only
    ///   present when a backend reported physical evaluation counts
    /// * `{"type":"cg_outcome","outcome":"converged|stalled|diverged|`
    ///   `breakdown_indefinite|breakdown_nonfinite|iteration_budget",`
    ///   `"iterations":n,"final_residual_norm":x,"relative_residual":x}` —
    ///   present when a solve ran against a guardrail-aware solver
    /// * `{"type":"lowrank","rank":n,"strategy":"uniform|leverage",`
    ///   `"jitter_steps":n,"direct_relative_residual":x,`
    ///   `"pcg_iterations":n,"assembly_wall_s":x,"solve_wall_s":x}` —
    ///   present when the randomized low-rank solver ran
    /// * `{"type":"simd_dispatch","isa":"scalar|neon|avx2|avx512",`
    ///   `"forced":true|false,"panel_mr":n,"panel_nr":n,"lanes_f32":n,`
    ///   `"lanes_f64":n}` — present when a blocked CPU backend reported
    ///   its micro-kernel dispatch decision
    /// * `{"type":"span","path":"train/cg","wall_s":x}`
    /// * `{"type":"recovery","kind":"retry|failover|straggler|checkpoint|`
    ///   `restart|precondition|precision_escalation|numeric_fault|`
    ///   `solver_fallback","device":n|null,"at_launch":n|null,`
    ///   `"iteration":n|null,"detail":"..."}`
    ///
    /// Non-finite floats serialize as `null`; all other values are plain
    /// JSON numbers or strings.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        if let (Some(dim), Some(r0)) = (self.cg_dim, self.cg_initial_residual_norm) {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_start\",\"dim\":{dim},\"initial_residual_norm\":{}}}",
                json_f64(r0)
            );
        }
        for s in &self.cg {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_iteration\",\"iteration\":{},\"residual_norm\":{},\
                 \"alpha\":{},\"beta\":{},\"matvec_wall_s\":{}}}",
                s.iteration,
                json_f64(s.residual_norm),
                json_f64(s.alpha),
                json_f64(s.beta),
                json_f64(s.matvec_wall.as_secs_f64())
            );
        }
        for (name, k) in &self.kernels {
            let _ = writeln!(
                out,
                "{{\"type\":\"kernel\",\"name\":{},\"launches\":{},\"flops\":{},\
                 \"bytes\":{},\"sim_time_s\":{}}}",
                json_str(name),
                k.launches,
                k.flops,
                k.bytes,
                json_f64(k.sim_time_s)
            );
        }
        for (name, evals) in &self.kernel_evals {
            let _ = writeln!(
                out,
                "{{\"type\":\"kernel_evals\",\"name\":{},\"evals\":{evals}}}",
                json_str(name)
            );
        }
        if let Some(o) = &self.cg_outcome {
            let _ = writeln!(
                out,
                "{{\"type\":\"cg_outcome\",\"outcome\":{},\"iterations\":{},\
                 \"final_residual_norm\":{},\"relative_residual\":{}}}",
                json_str(o.outcome),
                o.iterations,
                json_f64(o.final_residual_norm),
                json_f64(o.relative_residual)
            );
        }
        if let Some(l) = &self.lowrank {
            let _ = writeln!(
                out,
                "{{\"type\":\"lowrank\",\"rank\":{},\"strategy\":{},\
                 \"jitter_steps\":{},\"direct_relative_residual\":{},\
                 \"pcg_iterations\":{},\"assembly_wall_s\":{},\"solve_wall_s\":{}}}",
                l.rank,
                json_str(l.strategy),
                l.jitter_steps,
                json_f64(l.direct_relative_residual),
                l.pcg_iterations,
                json_f64(l.assembly_wall.as_secs_f64()),
                json_f64(l.solve_wall.as_secs_f64())
            );
        }
        if let Some(d) = &self.dispatch {
            let _ = writeln!(
                out,
                "{{\"type\":\"simd_dispatch\",\"isa\":{},\"forced\":{},\
                 \"panel_mr\":{},\"panel_nr\":{},\"lanes_f32\":{},\"lanes_f64\":{}}}",
                json_str(d.isa),
                d.forced,
                d.panel_mr,
                d.panel_nr,
                d.lanes_f32,
                d.lanes_f64
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":{},\"wall_s\":{}}}",
                json_str(&s.path),
                json_f64(s.wall.as_secs_f64())
            );
        }
        for s in &self.recovery {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |n| n.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"recovery\",\"kind\":{},\"device\":{},\"at_launch\":{},\
                 \"iteration\":{},\"detail\":{}}}",
                json_str(s.kind.as_str()),
                opt(s.device.map(|d| d as u64)),
                opt(s.at_launch),
                opt(s.iteration.map(|i| i as u64)),
                json_str(&s.detail)
            );
        }
        out
    }
}

/// Formats an `f64` as a JSON value (`null` for non-finite values) — the
/// convention of every JSON line this module (and the serving layer's
/// wire protocol) emits.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // Rust renders integral floats as "1.0" — already valid JSON.
        s
    } else {
        "null".to_owned()
    }
}

/// Formats a string as a JSON string literal with minimal escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A local, lock-free span collector used by the training drivers.
///
/// Spans are always collected (they are how [`crate::timing::ComponentTimes`]
/// is derived) and flushed into the optional [`MetricsSink`] at the end of
/// the run.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<SpanRecord>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pre-measured span.
    pub fn record(&mut self, path: impl Into<String>, wall: Duration) {
        self.spans.push(SpanRecord {
            path: path.into(),
            wall,
        });
    }

    /// Runs `f`, recording its wall-clock under `path`.
    pub fn time<R>(&mut self, path: &str, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let result = f();
        self.record(path, t0.elapsed());
        result
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Replays every recorded span into a sink.
    pub fn flush_into(&self, sink: &dyn MetricsSink) {
        for s in &self.spans {
            sink.record_span(&s.path, s.wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize) -> CgIterationSample {
        CgIterationSample {
            iteration: i,
            residual_norm: 1.0 / (i as f64 + 1.0),
            alpha: 0.5,
            beta: 0.25,
            matvec_wall: Duration::from_micros(10),
        }
    }

    #[test]
    fn kernel_counters_accumulate() {
        let t = Telemetry::new();
        t.record_launch("svm_kernel", 1, 100, 10, 0.5);
        t.record_launch("svm_kernel", 2, 100, 10, 0.5);
        t.record_launch("q_kernel", 1, 7, 3, 0.25);
        let r = t.report();
        assert_eq!(r.kernels["svm_kernel"].launches, 3);
        assert_eq!(r.kernels["svm_kernel"].flops, 200);
        assert_eq!(r.total_launches(), 4);
        assert_eq!(r.total_flops(), 207);
        assert_eq!(r.total_bytes(), 23);
        assert_eq!(r.kernels["svm_kernel"].achieved_flops(), 200.0);
    }

    #[test]
    fn cg_samples_in_order_and_start_resets() {
        let t = Telemetry::new();
        t.record_cg_start(8, 2.0);
        t.record_cg_iteration(sample(1));
        t.record_cg_iteration(sample(2));
        // a second solve on the same sink restarts the history
        t.record_cg_start(8, 2.0);
        t.record_cg_iteration(sample(1));
        let r = t.report();
        assert_eq!(r.iterations(), 1);
        assert_eq!(r.cg_dim, Some(8));
        assert_eq!(r.cg_initial_residual_norm, Some(2.0));
        assert_eq!(r.residual_history(), vec![0.5]);
    }

    #[test]
    fn deterministic_summary_is_stable_and_ignores_walltime() {
        let build = |wall_us: u64| {
            let t = Telemetry::new();
            t.record_cg_start(4, 1.5);
            t.record_launch("svm_kernel", 1, 123, 456, 0.75);
            t.record_cg_iteration(CgIterationSample {
                matvec_wall: Duration::from_micros(wall_us),
                ..sample(1)
            });
            t.record_span(spans::CG, Duration::from_micros(wall_us));
            t.report().deterministic_summary()
        };
        assert_eq!(build(10), build(99_999));
        assert!(build(1).contains("kernel=svm_kernel launches=1 flops=123 bytes=456"));
    }

    #[test]
    fn json_lines_have_documented_shape() {
        let t = Telemetry::new();
        t.record_cg_start(4, 1.5);
        t.record_cg_iteration(sample(1));
        t.record_launch("q_kernel", 1, 10, 20, 0.0);
        t.record_span(spans::TRAIN, Duration::from_millis(5));
        let json = t.report().to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"cg_start\""));
        assert!(lines[1].contains("\"type\":\"cg_iteration\""));
        assert!(lines[2].contains("\"name\":\"q_kernel\""));
        assert!(lines[3].contains("\"path\":\"train\""));
    }

    #[test]
    fn kernel_evals_accumulate_and_serialize() {
        let t = Telemetry::new();
        t.record_kernel_evals("svm_kernel", 55);
        t.record_kernel_evals("svm_kernel", 55);
        let r = t.report();
        assert_eq!(r.kernel_evals["svm_kernel"], 110);
        assert!(r
            .deterministic_summary()
            .contains("kernel_evals=svm_kernel evals=110"));
        let json = r.to_json_lines();
        assert!(json.contains("{\"type\":\"kernel_evals\",\"name\":\"svm_kernel\",\"evals\":110}"));
        // sinks that never see the channel emit no kernel_evals lines
        let empty = Telemetry::new().report();
        assert!(!empty.deterministic_summary().contains("kernel_evals"));
        assert!(!empty.to_json_lines().contains("kernel_evals"));
    }

    #[test]
    fn recovery_events_are_recorded_and_serialized() {
        let t = Telemetry::new();
        t.record_recovery(RecoverySample::device_event(
            RecoveryKind::Retry,
            1,
            5,
            "transient timeout, retry 1",
        ));
        t.record_recovery(RecoverySample::checkpoint(8));
        // cg_start must NOT clear recovery history: device-setup faults
        // legitimately predate the solve.
        t.record_cg_start(4, 1.0);
        let r = t.report();
        assert_eq!(r.recovery.len(), 2);
        assert_eq!(r.recovery[0].kind, RecoveryKind::Retry);
        assert_eq!(r.recovery[1].iteration, Some(8));
        let json = r.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.iter().any(|l| l.contains("\"type\":\"recovery\"")
            && l.contains("\"kind\":\"retry\"")
            && l.contains("\"device\":1")
            && l.contains("\"at_launch\":5")
            && l.contains("\"iteration\":null")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"checkpoint\"")
            && l.contains("\"device\":null")
            && l.contains("\"iteration\":8")));
        let summary = r.deterministic_summary();
        assert!(summary.contains("recovery=retry device=1 launch=5 iter=-"));
        assert!(summary.contains("recovery=checkpoint device=- launch=- iter=8"));
    }

    #[test]
    fn lowrank_sample_is_recorded_and_serialized() {
        let t = Telemetry::new();
        t.record_lowrank(LowRankSample {
            rank: 64,
            strategy: "uniform",
            jitter_steps: 2,
            direct_relative_residual: 1e-3,
            pcg_iterations: 7,
            assembly_wall: Duration::from_micros(123),
            solve_wall: Duration::from_micros(456),
        });
        let r = t.report();
        assert_eq!(r.lowrank.as_ref().unwrap().rank, 64);
        let json = r.to_json_lines();
        assert!(json.contains("\"type\":\"lowrank\""));
        assert!(json.contains("\"rank\":64"));
        assert!(json.contains("\"strategy\":\"uniform\""));
        assert!(json.contains("\"pcg_iterations\":7"));
        // deterministic summary includes the rank/residual but no wall time
        let wall_free = {
            let t2 = Telemetry::new();
            t2.record_lowrank(LowRankSample {
                assembly_wall: Duration::from_secs(9),
                solve_wall: Duration::from_secs(9),
                ..r.lowrank.clone().unwrap()
            });
            t2.report().deterministic_summary()
        };
        assert_eq!(r.deterministic_summary(), wall_free);
        assert!(r.deterministic_summary().contains("lowrank rank=64"));
    }

    #[test]
    fn dispatch_sample_serializes_but_stays_out_of_deterministic_summary() {
        let t = Telemetry::new();
        t.record_dispatch(DispatchSample {
            isa: "avx2",
            forced: true,
            panel_mr: 4,
            panel_nr: 4,
            lanes_f32: 8,
            lanes_f64: 4,
        });
        let r = t.report();
        assert_eq!(r.dispatch.as_ref().unwrap().isa, "avx2");
        let json = r.to_json_lines();
        assert!(json.contains(
            "{\"type\":\"simd_dispatch\",\"isa\":\"avx2\",\"forced\":true,\
             \"panel_mr\":4,\"panel_nr\":4,\"lanes_f32\":8,\"lanes_f64\":4}"
        ));
        // the deterministic subset must stay byte-identical across hosts
        // of different ISA tiers, so the dispatch line is JSON-only
        let empty = Telemetry::new().report();
        assert_eq!(r.deterministic_summary(), empty.deterministic_summary());
        assert!(!empty.to_json_lines().contains("simd_dispatch"));
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(1e-7), "1e-7");
    }

    #[test]
    fn span_recorder_times_and_flushes() {
        let mut rec = SpanRecorder::new();
        let v = rec.time(spans::CG, || 41 + 1);
        assert_eq!(v, 42);
        rec.record(spans::READ, Duration::from_millis(3));
        assert_eq!(rec.spans().len(), 2);
        let t = Telemetry::new();
        rec.flush_into(&t);
        let r = t.report();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.span(spans::READ), Duration::from_millis(3));
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::new();
        t.record_launch("k", 1, 1, 1, 0.0);
        t.record_cg_start(2, 1.0);
        t.record_cg_iteration(sample(1));
        t.reset();
        assert_eq!(t.report(), TelemetryReport::default());
    }
}
