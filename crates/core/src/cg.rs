//! The Conjugate Gradients solver (§III-B).
//!
//! Implements the variant of Shewchuk's *"An Introduction to the Conjugate
//! Gradient Method Without the Agonizing Pain"* used by PLSSVM: plain
//! (unpreconditioned) CG on an SPD operator, started at `x₀ = 0`, with the
//! **relative residual** termination criterion
//! `‖rₖ‖ ≤ ε·‖r₀‖` (the paper's `epsilon`, studied in Fig. 3), and the
//! usual periodic exact-residual recomputation to limit floating point
//! drift.
//!
//! The operator is abstract ([`LinOp`]) — in PLSSVM it is the implicit `Q̃`
//! provided by one of the [`crate::backend`]s, which is where all the
//! parallelism lives; the vector updates here are `O(m)` and negligible
//! (the paper measures the matvec at >92 % of total runtime).
//!
//! [`conjugate_gradients`] is the one entry point: Jacobi preconditioning,
//! telemetry, warm restart and a checkpoint hook are optional arguments to
//! the same recurrence.

use std::time::{Duration, Instant};

use plssvm_data::Real;

use crate::kernel::dot;
use crate::trace::{CgIterationSample, CgOutcomeSample, MetricsSink, RecoveryKind, RecoverySample};

/// An abstract symmetric positive definite linear operator.
pub trait LinOp<T: Real>: Sync {
    /// The dimension `n` of the square operator.
    fn dim(&self) -> usize;
    /// Computes `out = A·v`. `v` and `out` have length [`LinOp::dim`].
    fn apply(&self, v: &[T], out: &mut [T]);
}

/// CG solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig<T> {
    /// Relative residual tolerance ε: stop once `‖r‖ ≤ ε·‖r₀‖`.
    /// PLSSVM's command line default is `1e-3`.
    pub epsilon: T,
    /// Upper bound on iterations; `None` uses `max(2·n, 128)`. Exact
    /// arithmetic CG terminates in `n` steps, but rounding destroys finite
    /// termination on ill-conditioned systems, so the default budget
    /// leaves headroom (the paper's problems converge in ≪ n iterations
    /// either way).
    pub max_iterations: Option<usize>,
    /// Recompute the exact residual `r = b − A·x` every this many
    /// iterations to cancel accumulated rounding (Shewchuk §B.2).
    pub residual_refresh_interval: usize,
    /// Snapshot the solver state ([`CgState`]) every this many iterations
    /// (and at exit). `None` disables checkpointing entirely — the default,
    /// costing nothing on the hot path. Each periodic snapshot is also
    /// reported to the metrics sink as a `checkpoint` recovery event.
    pub checkpoint_interval: Option<usize>,
    /// Stagnation window: if the best squared residual seen so far fails to
    /// improve by [`CgConfig::stall_improvement`] for this many consecutive
    /// iterations, the solve is classified [`SolveOutcome::Stalled`] and
    /// stopped. Pure observation — a converging solve exits at the
    /// tolerance before the window can ever fill.
    pub stall_window: usize,
    /// Minimum relative improvement of the best squared residual (`δ = rᵀr`)
    /// that resets the stagnation window. At less than this improvement per
    /// window the solve could not reach any practical tolerance within the
    /// iteration budget anyway.
    pub stall_improvement: f64,
    /// Residual-norm growth factor over `‖r₀‖` that classifies the solve as
    /// [`SolveOutcome::Diverged`]. CG on an SPD operator never grows the
    /// residual like this; only indefinite or poisoned systems do.
    pub divergence_ratio: f64,
    /// Maximum tolerated relative gap between the recurrence residual and
    /// the true residual `b − A·x` at each refresh point. Beyond it the
    /// recurrence has drifted away from reality: the search direction is
    /// restarted from the true residual (a `restart` recovery event).
    /// Healthy solves agree to many digits, so the default never fires on
    /// them — the comparison is observation-only.
    pub drift_tolerance: f64,
}

impl<T: Real> Default for CgConfig<T> {
    fn default() -> Self {
        Self {
            epsilon: T::from_f64(1e-3),
            max_iterations: None,
            residual_refresh_interval: 50,
            checkpoint_interval: None,
            stall_window: 250,
            stall_improvement: 0.05,
            divergence_ratio: 1e4,
            drift_tolerance: 0.1,
        }
    }
}

impl<T: Real> CgConfig<T> {
    /// A configuration with the given tolerance and defaults otherwise.
    pub fn with_epsilon(epsilon: T) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// A complete CG solver snapshot: everything the recurrence needs to
/// continue exactly where it stopped.
///
/// Taken by the solver when [`CgConfig::checkpoint_interval`] is set and
/// resumed by passing it to [`conjugate_gradients`]. The state is tiny —
/// three `n`-vectors plus four scalars — which is what makes checkpointing
/// the solve essentially free compared to the matvec it protects.
///
/// Warm restart preserves the *exact* recurrence: the absolute iteration
/// counter is part of the state, so the periodic exact-residual refresh
/// (`residual_refresh_interval`) fires on the same schedule, and an
/// interrupted-then-resumed solve performs bit-identical arithmetic to an
/// uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct CgState<T> {
    x: Vec<T>,
    r: Vec<T>,
    d: Vec<T>,
    rho: T,
    delta: T,
    delta0: T,
    iterations: usize,
}

impl<T: Real> CgState<T> {
    /// The iterate `x` at the checkpoint.
    pub fn solution(&self) -> &[T] {
        &self.x
    }

    /// Absolute iteration count at the checkpoint.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Residual norm `‖r‖` at the checkpoint (recurrence value).
    pub fn residual_norm(&self) -> T {
        self.delta.max(T::ZERO).sqrt()
    }

    /// The residual `r` at the checkpoint.
    pub fn residual(&self) -> &[T] {
        &self.r
    }

    /// The search direction `d` at the checkpoint.
    pub fn direction(&self) -> &[T] {
        &self.d
    }

    /// The recurrence scalar `ρ = rᵀz` at the checkpoint.
    pub fn rho(&self) -> T {
        self.rho
    }

    /// The termination measure `δ = rᵀr` at the checkpoint.
    pub fn delta(&self) -> T {
        self.delta
    }

    /// The reference `δ₀ = ‖r₀‖²` the relative criterion compares against.
    pub fn delta0(&self) -> T {
        self.delta0
    }

    /// Reassembles a state from its raw components — the inverse of the
    /// accessors above, used when deserializing a persisted snapshot.
    /// The resulting state continues the recurrence exactly as if it had
    /// never left memory.
    ///
    /// # Panics
    /// Panics if `x`, `r` and `d` do not all have the same length.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        x: Vec<T>,
        r: Vec<T>,
        d: Vec<T>,
        rho: T,
        delta: T,
        delta0: T,
        iterations: usize,
    ) -> Self {
        assert_eq!(x.len(), r.len(), "residual length mismatch");
        assert_eq!(x.len(), d.len(), "direction length mismatch");
        Self {
            x,
            r,
            d,
            rho,
            delta,
            delta0,
            iterations,
        }
    }

    /// Builds a fresh-start state at the iterate `x0` with an exactly
    /// recomputed residual `r = b − A·x0` (one matvec) and the search
    /// direction reset to the (preconditioned) residual.
    ///
    /// This is the guardrail ladder's restart primitive: after a stall or
    /// breakdown the recurrence state is discarded but the progress in `x`
    /// is kept. Pass `reference_delta0` (the original `rᵀr` at `x = 0`,
    /// i.e. `‖b‖²`) so the relative-residual termination criterion keeps
    /// its original meaning across the restart; `None` measures relative
    /// to the restart point instead.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn restart_from(
        op: &dyn LinOp<T>,
        b: &[T],
        x0: &[T],
        diagonal: Option<&[T]>,
        reference_delta0: Option<T>,
    ) -> Self {
        let n = op.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x0.len(), n, "iterate length mismatch");
        if let Some(diag) = diagonal {
            assert_eq!(diag.len(), n, "diagonal length mismatch");
        }
        let mut r = vec![T::ZERO; n];
        op.apply(x0, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let d: Vec<T> = match diagonal {
            Some(diag) => r.iter().zip(diag).map(|(&ri, &di)| ri / di).collect(),
            None => r.clone(),
        };
        let rho = dot(&r, &d);
        let delta = dot(&r, &r);
        Self {
            x: x0.to_vec(),
            r,
            d,
            rho,
            delta,
            delta0: reference_delta0.unwrap_or(delta),
            iterations: 0,
        }
    }
}

/// What kind of numerical breakdown ended a CG solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownKind {
    /// `pᵀAp ≤ 0`: the operator is numerically not positive definite along
    /// the current search direction (e.g. a sigmoid kernel system, or an
    /// SPD system destroyed by rounding).
    Indefinite,
    /// NaN/Inf poisoning: a matvec output, curvature, or residual stopped
    /// being finite.
    NonFinite,
}

impl BreakdownKind {
    /// Stable lowercase name used in telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakdownKind::Indefinite => "indefinite",
            BreakdownKind::NonFinite => "nonfinite",
        }
    }
}

/// Structured classification of why a CG solve stopped.
///
/// Replaces the old silent `converged: bool`: every exit path of the
/// solver maps to exactly one variant, so callers can distinguish "met the
/// tolerance" from "ran out of budget" from "the system is numerically
/// broken" — and the escalation ladder ([`crate::guard`]) can pick the
/// right recovery rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The relative-residual criterion `‖r‖ ≤ ε·‖r₀‖` was met.
    Converged,
    /// The best residual stopped improving for a full stagnation window
    /// ([`CgConfig::stall_window`]).
    Stalled,
    /// The residual grew beyond [`CgConfig::divergence_ratio`]`·‖r₀‖`.
    Diverged,
    /// A numerical breakdown ended the recurrence.
    Breakdown(BreakdownKind),
    /// `max_iterations` was exhausted before any other classification.
    IterationBudget,
}

impl SolveOutcome {
    /// Stable lowercase name used in telemetry summaries and JSON lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveOutcome::Converged => "converged",
            SolveOutcome::Stalled => "stalled",
            SolveOutcome::Diverged => "diverged",
            SolveOutcome::Breakdown(BreakdownKind::Indefinite) => "breakdown_indefinite",
            SolveOutcome::Breakdown(BreakdownKind::NonFinite) => "breakdown_nonfinite",
            SolveOutcome::IterationBudget => "iteration_budget",
        }
    }

    /// `true` only for [`SolveOutcome::Converged`].
    pub fn is_converged(&self) -> bool {
        matches!(self, SolveOutcome::Converged)
    }
}

impl std::fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult<T> {
    /// The solution vector.
    pub x: Vec<T>,
    /// Iterations performed (matrix–vector products, excluding residual
    /// refreshes).
    pub iterations: usize,
    /// `‖r₀‖ = ‖b‖` (for `x₀ = 0`).
    pub initial_residual_norm: T,
    /// Final residual norm `‖rₖ‖` (recurrence value).
    pub residual_norm: T,
    /// Whether the relative-residual criterion was met within the
    /// iteration budget. Equivalent to `outcome.is_converged()`; kept as a
    /// plain flag for ergonomic call sites.
    pub converged: bool,
    /// Structured classification of why the solve stopped.
    pub outcome: SolveOutcome,
    /// Number of search-direction restarts triggered by recurrence-residual
    /// drift at refresh points (see [`CgConfig::drift_tolerance`]).
    pub drift_restarts: usize,
    /// The solver state at exit, present when
    /// [`CgConfig::checkpoint_interval`] is set. Resuming from it (the
    /// `resume` argument of [`conjugate_gradients`]) continues the run
    /// exactly where it stopped (e.g. after an early stop via
    /// `max_iterations`).
    pub checkpoint: Option<CgState<T>>,
}

impl<T: Real> CgResult<T> {
    /// `‖rₖ‖ / ‖r₀‖`, the quantity the paper's ε bounds.
    pub fn relative_residual(&self) -> T {
        if self.initial_residual_norm.to_f64() == 0.0 {
            T::ZERO
        } else {
            self.residual_norm / self.initial_residual_norm
        }
    }
}

/// Solves `A·x = b` with Conjugate Gradients — the one entry point for
/// every variant of the solve. Each optional part is independent:
///
/// * `diagonal` — **Jacobi preconditioning** with `M = diag(A)`.
///   Termination still checks the *unpreconditioned* relative residual
///   `‖r‖ ≤ ε·‖r₀‖`, so iteration counts stay comparable to plain CG. An
///   extension past the paper (which uses plain CG); on ill-conditioned
///   kernels the diagonal scaling cuts the iteration count — see the
///   `ablation` figure.
/// * `metrics` — per-iteration telemetry: each iteration's residual norm,
///   α, β and matvec wall time (see [`crate::trace`]). `None` costs a
///   single branch per iteration and performs no timing.
/// * `resume` — **warm restart** from a [`CgState`]: the search direction,
///   residual, ρ and the absolute iteration counter are restored, so an
///   interrupted solve resumed here performs the same arithmetic — and the
///   same number of total iterations — as one that was never interrupted.
///   `config.max_iterations` bounds the *absolute* iteration count. A
///   Jacobi solve must be resumed with the same `diagonal`. `None` starts
///   at `x₀ = 0`.
/// * `checkpoint` — receives every periodic snapshot (once per
///   [`CgConfig::checkpoint_interval`] iterations); the durable journal
///   plugs in here. It must handle its own failures: persistence problems
///   never abort a numerically healthy solve.
///
/// Neither `metrics` nor `checkpoint` ever changes the iterates.
///
/// ```
/// use plssvm_core::cg::{conjugate_gradients, CgConfig, LinOp};
///
/// struct Diag(Vec<f64>);
/// impl LinOp<f64> for Diag {
///     fn dim(&self) -> usize { self.0.len() }
///     fn apply(&self, v: &[f64], out: &mut [f64]) {
///         for i in 0..v.len() { out[i] = self.0[i] * v[i]; }
///     }
/// }
/// let op = Diag(vec![2.0, 4.0, 8.0]);
/// let cfg = CgConfig::with_epsilon(1e-12);
/// let r = conjugate_gradients(&op, &[2.0, 4.0, 8.0], &cfg, None, None, None, None);
/// assert!(r.converged);
/// for x in &r.x { assert!((x - 1.0).abs() < 1e-10); }
/// ```
///
/// # Panics
/// Panics if `b`, `diagonal` or `resume` do not match `op.dim()`, if ε is
/// not positive and finite, or if a diagonal entry is not strictly
/// positive (the SPD precondition).
#[allow(clippy::type_complexity)]
pub fn conjugate_gradients<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    diagonal: Option<&[T]>,
    metrics: Option<&dyn MetricsSink>,
    resume: Option<&CgState<T>>,
    checkpoint: Option<&dyn Fn(&CgState<T>)>,
) -> CgResult<T> {
    let n = op.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert!(
        config.epsilon.to_f64() > 0.0 && config.epsilon.is_finite(),
        "epsilon must be positive and finite"
    );
    if let Some(k) = config.checkpoint_interval {
        assert!(k >= 1, "checkpoint interval must be at least 1");
    }
    assert!(config.stall_window >= 1, "stall window must be at least 1");
    if let Some(diag) = diagonal {
        assert_eq!(diag.len(), n, "diagonal length mismatch");
        assert!(
            diag.iter().all(|d| d.to_f64() > 0.0),
            "Jacobi preconditioner needs a strictly positive diagonal"
        );
    }
    let max_iterations = config.max_iterations.unwrap_or_else(|| (2 * n).max(128));

    // z = M⁻¹·r (identity without a preconditioner)
    let precondition = |r: &[T], z: &mut Vec<T>| match diagonal {
        Some(diag) => {
            z.clear();
            z.extend(r.iter().zip(diag).map(|(&ri, &di)| ri / di));
        }
        None => {
            z.clear();
            z.extend_from_slice(r);
        }
    };
    let mut z = Vec::with_capacity(n);
    let (mut x, mut r, mut d, mut rho, mut delta, delta0, mut iterations);
    match resume {
        None => {
            x = vec![T::ZERO; n];
            // r = b − A·x₀ = b
            r = b.to_vec();
            precondition(&r, &mut z);
            d = z.clone();
            // rho = rᵀz drives the recurrences; delta = rᵀr drives
            // termination
            rho = dot(&r, &z);
            delta = dot(&r, &r);
            delta0 = delta;
            iterations = 0usize;
        }
        Some(state) => {
            assert_eq!(state.x.len(), n, "checkpoint dimension mismatch");
            x = state.x.clone();
            r = state.r.clone();
            d = state.d.clone();
            rho = state.rho;
            delta = state.delta;
            delta0 = state.delta0;
            iterations = state.iterations;
        }
    }
    let initial_norm = delta0.sqrt();
    let threshold = config.epsilon * config.epsilon * delta0;

    if let Some(sink) = metrics {
        sink.record_cg_start(n, initial_norm.to_f64());
    }

    let snapshot = |x: &[T], r: &[T], d: &[T], rho: T, delta: T, iterations: usize| CgState {
        x: x.to_vec(),
        r: r.to_vec(),
        d: d.to_vec(),
        rho,
        delta,
        delta0,
        iterations,
    };

    let mut q = vec![T::ZERO; n];
    let mut scratch: Vec<T> = Vec::new(); // recurrence residual at refresh points
    let mut converged = delta <= threshold || delta.to_f64() == 0.0;
    let mut classified: Option<SolveOutcome> = None;
    // ‖b‖² (or ε²·‖b‖²) overflowing the working type poisons every
    // comparison below — `inf ≤ inf` would otherwise report instant
    // convergence at x = 0. Classify instead of lying.
    if !(delta.is_finite() && threshold.is_finite()) {
        converged = false;
        classified = Some(SolveOutcome::Breakdown(BreakdownKind::NonFinite));
    }
    let mut drift_restarts = 0usize;
    // stagnation tracking: best squared residual so far and the number of
    // iterations since it last improved meaningfully
    let mut best_delta = delta.to_f64();
    let mut stalled_for = 0usize;
    let divergence_threshold = config.divergence_ratio * config.divergence_ratio * delta0.to_f64();

    while classified.is_none() && !converged && iterations < max_iterations {
        let matvec_start = metrics.map(|_| Instant::now());
        op.apply(&d, &mut q);
        let matvec_wall = matvec_start.map_or(Duration::ZERO, |t| t.elapsed());
        let dq = dot(&d, &q);
        if !dq.is_finite() {
            // NaN/Inf poisoning in the matvec output or search direction.
            classified = Some(SolveOutcome::Breakdown(BreakdownKind::NonFinite));
            break;
        }
        if dq.to_f64() <= 0.0 {
            // Operator is numerically not SPD along d — stop with the best
            // iterate so far rather than diverging.
            classified = Some(SolveOutcome::Breakdown(BreakdownKind::Indefinite));
            break;
        }
        let alpha = rho / dq;
        for i in 0..n {
            x[i] = alpha.mul_add(d[i], x[i]);
        }
        iterations += 1;
        let mut drift_restart = false;
        if iterations.is_multiple_of(config.residual_refresh_interval) {
            // finish the recurrence into a scratch buffer first so the drift
            // between it and the exact residual can be measured
            scratch.clear();
            scratch.extend(r.iter().zip(&q).map(|(&ri, &qi)| (-alpha).mul_add(qi, ri)));
            // exact residual to cancel drift
            op.apply(&x, &mut q);
            for i in 0..n {
                r[i] = b[i] - q[i];
            }
            let mut diff_sq = 0.0f64;
            let mut true_sq = 0.0f64;
            for i in 0..n {
                let diff = scratch[i].to_f64() - r[i].to_f64();
                diff_sq += diff * diff;
                true_sq += r[i].to_f64() * r[i].to_f64();
            }
            let drift = diff_sq.sqrt() / true_sq.sqrt().max(f64::MIN_POSITIVE);
            if drift > config.drift_tolerance {
                // the recurrence no longer describes reality: discard the
                // conjugate direction and restart steepest-descent-style
                // from the exact residual
                drift_restart = true;
                drift_restarts += 1;
                if let Some(sink) = metrics {
                    sink.record_recovery(RecoverySample::solver(
                        RecoveryKind::Restart,
                        iterations,
                        format!("recurrence-residual drift {drift:.3e} at refresh"),
                    ));
                }
            }
        } else {
            for i in 0..n {
                r[i] = (-alpha).mul_add(q[i], r[i]);
            }
        }
        precondition(&r, &mut z);
        let rho_new = dot(&r, &z);
        let beta = if drift_restart {
            T::ZERO
        } else {
            rho_new / rho
        };
        if drift_restart {
            d.clear();
            d.extend_from_slice(&z);
        } else {
            for i in 0..n {
                d[i] = beta.mul_add(d[i], z[i]);
            }
        }
        rho = rho_new;
        delta = dot(&r, &r);
        converged = delta <= threshold;
        if let Some(sink) = metrics {
            sink.record_cg_iteration(CgIterationSample {
                iteration: iterations,
                residual_norm: delta.max(T::ZERO).sqrt().to_f64(),
                alpha: alpha.to_f64(),
                beta: beta.to_f64(),
                matvec_wall,
            });
        }
        if let Some(k) = config.checkpoint_interval {
            if iterations.is_multiple_of(k) {
                // stream the snapshot to the durable journal (when one is
                // attached) and record the cadence in telemetry; without a
                // hook the snapshot only materializes at exit
                if let Some(persist) = checkpoint {
                    persist(&snapshot(&x, &r, &d, rho, delta, iterations));
                }
                if let Some(sink) = metrics {
                    sink.record_recovery(RecoverySample::checkpoint(iterations));
                }
            }
        }
        // guardrail classification — observation-only comparisons; on a
        // converging well-conditioned solve none of these ever fire
        if !converged {
            let df = delta.to_f64();
            if !df.is_finite() {
                classified = Some(SolveOutcome::Breakdown(BreakdownKind::NonFinite));
                break;
            }
            if df > divergence_threshold {
                classified = Some(SolveOutcome::Diverged);
                break;
            }
            if df < best_delta * (1.0 - config.stall_improvement) {
                best_delta = df;
                stalled_for = 0;
            } else {
                stalled_for += 1;
                if stalled_for >= config.stall_window {
                    classified = Some(SolveOutcome::Stalled);
                    break;
                }
            }
        }
    }

    let outcome = if converged {
        SolveOutcome::Converged
    } else {
        classified.unwrap_or(SolveOutcome::IterationBudget)
    };
    let residual_norm = delta.max(T::ZERO).sqrt();
    if let Some(sink) = metrics {
        sink.record_cg_outcome(CgOutcomeSample {
            outcome: outcome.as_str(),
            iterations,
            final_residual_norm: residual_norm.to_f64(),
            relative_residual: if initial_norm.to_f64() == 0.0 {
                0.0
            } else {
                residual_norm.to_f64() / initial_norm.to_f64()
            },
        });
    }
    let checkpoint = config
        .checkpoint_interval
        .map(|_| snapshot(&x, &r, &d, rho, delta, iterations));
    CgResult {
        x,
        iterations,
        initial_residual_norm: initial_norm,
        residual_norm,
        converged,
        outcome,
        drift_restarts,
        checkpoint,
    }
}

#[cfg(test)]
// index loops in these tests mirror the paper's subscript notation
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    /// A dense SPD matrix as a LinOp, for testing.
    pub(crate) struct DenseOp {
        pub n: usize,
        pub a: Vec<f64>, // row-major n×n
    }

    impl LinOp<f64> for DenseOp {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, v: &[f64], out: &mut [f64]) {
            for i in 0..self.n {
                out[i] = dot(&self.a[i * self.n..(i + 1) * self.n], v);
            }
        }
    }

    fn identity(n: usize) -> DenseOp {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        DenseOp { n, a }
    }

    /// Random SPD matrix M = Bᵀ·B + n·I.
    pub(crate) fn random_spd(n: usize, seed: u64) -> DenseOp {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[k * n + i] * b[k * n + j];
                }
                a[i * n + j] = s + if i == j { n as f64 } else { 0.0 };
            }
        }
        DenseOp { n, a }
    }

    /// Plain CG from `x₀ = 0`.
    fn solve(op: &DenseOp, b: &[f64], cfg: &CgConfig<f64>) -> CgResult<f64> {
        conjugate_gradients(op, b, cfg, None, None, None, None)
    }

    /// Jacobi-preconditioned CG from `x₀ = 0`.
    fn jacobi(op: &DenseOp, b: &[f64], diag: &[f64], cfg: &CgConfig<f64>) -> CgResult<f64> {
        conjugate_gradients(op, b, cfg, Some(diag), None, None, None)
    }

    /// Plain CG continued from `state`.
    fn resume(op: &DenseOp, b: &[f64], cfg: &CgConfig<f64>, state: &CgState<f64>) -> CgResult<f64> {
        conjugate_gradients(op, b, cfg, None, None, Some(state), None)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn identity_converges_instantly() {
        let op = identity(5);
        let b = vec![1.0, -2.0, 3.0, 0.5, 0.0];
        let r = solve(&op, &b, &CgConfig::with_epsilon(1e-10));
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        for (xi, bi) in r.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_rhs_needs_no_iterations() {
        let op = random_spd(8, 1);
        let r = solve(&op, &[0.0; 8], &CgConfig::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.x, vec![0.0; 8]);
        assert_eq!(r.relative_residual(), 0.0);
    }

    #[test]
    fn solves_random_spd_system() {
        let n = 40;
        let op = random_spd(n, 7);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64 - 8.0) / 4.0).collect();
        let mut b = vec![0.0; n];
        op.apply(&x_true, &mut b);
        let r = solve(&op, &b, &CgConfig::with_epsilon(1e-12));
        assert!(r.converged);
        for i in 0..n {
            assert!((r.x[i] - x_true[i]).abs() < 1e-7, "x[{i}]");
        }
    }

    #[test]
    fn residual_claim_is_accurate() {
        let n = 30;
        let op = random_spd(n, 3);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let r = solve(&op, &b, &CgConfig::with_epsilon(1e-8));
        // verify the reported residual against the true residual
        let mut ax = vec![0.0; n];
        op.apply(&r.x, &mut ax);
        let true_norm: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        assert!((true_norm - r.residual_norm).abs() < 1e-9);
        assert!(r.relative_residual() <= 1e-8);
    }

    #[test]
    fn tighter_epsilon_needs_more_iterations() {
        let n = 60;
        let op = random_spd(n, 11);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).sin()).collect();
        let loose = solve(&op, &b, &CgConfig::with_epsilon(1e-2));
        let tight = solve(&op, &b, &CgConfig::with_epsilon(1e-12));
        assert!(loose.converged && tight.converged);
        assert!(
            tight.iterations > loose.iterations,
            "{} vs {}",
            tight.iterations,
            loose.iterations
        );
    }

    #[test]
    fn iteration_budget_respected() {
        let n = 50;
        let op = random_spd(n, 5);
        let b = vec![1.0; n];
        let cfg = CgConfig {
            epsilon: 1e-14,
            max_iterations: Some(2),
            ..CgConfig::default()
        };
        let r = solve(&op, &b, &cfg);
        assert_eq!(r.iterations, 2);
        assert!(!r.converged);
    }

    #[test]
    fn residual_refresh_does_not_break_convergence() {
        let n = 64;
        let op = random_spd(n, 13);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let cfg = CgConfig {
            epsilon: 1e-10,
            residual_refresh_interval: 3, // refresh aggressively
            ..CgConfig::default()
        };
        let r = solve(&op, &b, &cfg);
        assert!(r.converged);
        let mut ax = vec![0.0; n];
        op.apply(&r.x, &mut ax);
        let rel: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
            / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rel <= 1e-9, "relative residual {rel}");
    }

    #[test]
    fn converges_in_at_most_n_iterations() {
        let n = 25;
        let op = random_spd(n, 21);
        let b = vec![1.0; n];
        let r = solve(&op, &b, &CgConfig::with_epsilon(1e-9));
        assert!(r.converged);
        assert!(r.iterations <= n);
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn rhs_length_checked() {
        let op = identity(3);
        let _ = solve(&op, &[1.0; 4], &CgConfig::default());
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn epsilon_checked() {
        let op = identity(3);
        let _ = solve(&op, &[1.0; 3], &CgConfig::with_epsilon(-1.0));
    }

    /// An SPD matrix with a badly scaled diagonal — the case Jacobi
    /// preconditioning is made for.
    fn ill_scaled_spd(n: usize) -> DenseOp {
        let mut op = random_spd(n, 99);
        // scale row/column i by s_i with s spanning 5 orders of magnitude
        let scales: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(5.0 * i as f64 / n as f64))
            .collect();
        for i in 0..n {
            for j in 0..n {
                op.a[i * n + j] *= scales[i] * scales[j];
            }
        }
        op
    }

    #[test]
    fn jacobi_pcg_solves_and_matches_plain_cg() {
        let n = 40;
        let op = random_spd(n, 8);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.4).sin()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let plain = solve(&op, &b, &CgConfig::with_epsilon(1e-10));
        let pcg = jacobi(&op, &b, &diag, &CgConfig::with_epsilon(1e-10));
        assert!(plain.converged && pcg.converged);
        for i in 0..n {
            assert!((plain.x[i] - pcg.x[i]).abs() < 1e-6, "x[{i}]");
        }
        // the reported residual is the true unpreconditioned residual
        let mut ax = vec![0.0; n];
        op.apply(&pcg.x, &mut ax);
        let true_norm: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        assert!((true_norm - pcg.residual_norm).abs() < 1e-8);
    }

    #[test]
    fn jacobi_pcg_cuts_iterations_on_ill_scaled_systems() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(10 * n),
            ..CgConfig::default()
        };
        let plain = solve(&op, &b, &cfg);
        let pcg = jacobi(&op, &b, &diag, &cfg);
        assert!(pcg.converged);
        assert!(
            pcg.iterations * 2 < plain.iterations.max(1) || !plain.converged,
            "pcg {} vs plain {} iterations",
            pcg.iterations,
            plain.iterations
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive diagonal")]
    fn jacobi_rejects_nonpositive_diagonal() {
        let op = identity(3);
        let _ = jacobi(&op, &[1.0; 3], &[1.0, 0.0, 1.0], &CgConfig::default());
    }

    #[test]
    #[should_panic(expected = "diagonal length mismatch")]
    fn jacobi_checks_diagonal_length() {
        let op = identity(3);
        let _ = jacobi(&op, &[1.0; 3], &[1.0; 4], &CgConfig::default());
    }

    #[test]
    fn metrics_sink_receives_per_iteration_samples() {
        use crate::trace::Telemetry;
        let n = 30;
        let op = random_spd(n, 3);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let t = Telemetry::new();
        let r = conjugate_gradients(
            &op,
            &b,
            &CgConfig::with_epsilon(1e-8),
            None,
            Some(&t),
            None,
            None,
        );
        let report = t.report();
        assert_eq!(report.iterations(), r.iterations);
        assert_eq!(report.cg_dim, Some(n));
        assert_eq!(
            report.cg_initial_residual_norm,
            Some(r.initial_residual_norm)
        );
        let hist = report.residual_history();
        assert!(hist.iter().all(|x| x.is_finite()));
        assert_eq!(*hist.last().unwrap(), r.residual_norm);
        // telemetry must not perturb the numerics
        let plain = solve(&op, &b, &CgConfig::with_epsilon(1e-8));
        assert_eq!(plain.x, r.x);
        assert_eq!(plain.iterations, r.iterations);
    }

    #[test]
    fn checkpoint_restart_is_bit_identical_to_uninterrupted_solve() {
        // every combination of {diagonal, metrics, resume, checkpoint hook}:
        // metrics and the hook never change a bit of `x`, and a solve
        // resumed from a mid-solve snapshot matches the uninterrupted one
        use crate::trace::Telemetry;
        use std::sync::Mutex;
        let n = 48;
        let op = random_spd(n, 17);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.23).sin() + 0.1).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-12,
            checkpoint_interval: Some(4),
            // refresh mid-run so the absolute-iteration schedule matters
            residual_refresh_interval: 7,
            ..CgConfig::default()
        };
        for combo in 0..16u32 {
            let [with_diag, with_metrics, with_resume, with_hook] =
                [0, 1, 2, 3].map(|k| combo & (1 << k) != 0);
            let diagonal = with_diag.then_some(&diag[..]);
            let full = conjugate_gradients(&op, &b, &cfg, diagonal, None, None, None);
            assert!(full.converged && full.iterations > 10);
            let stops: &[usize] = if with_resume { &[1, 3, 7, 11] } else { &[0] };
            for &stop_at in stops {
                let state = with_resume.then(|| {
                    let stop = CgConfig {
                        max_iterations: Some(stop_at),
                        ..cfg
                    };
                    let interrupted =
                        conjugate_gradients(&op, &b, &stop, diagonal, None, None, None);
                    let state = interrupted.checkpoint.expect("checkpoint requested");
                    assert_eq!(state.iterations(), stop_at);
                    assert_eq!(state.solution(), &interrupted.x[..]);
                    state
                });
                let t = Telemetry::new();
                let seen = Mutex::new(Vec::new());
                let hook = |s: &CgState<f64>| seen.lock().unwrap().push(s.iterations());
                let r = conjugate_gradients(
                    &op,
                    &b,
                    &cfg,
                    diagonal,
                    with_metrics.then_some(&t as &dyn MetricsSink),
                    state.as_ref(),
                    with_hook.then_some(&hook as &dyn Fn(&CgState<f64>)),
                );
                let case = format!("combo {combo:04b}, stop_at {stop_at}");
                assert_eq!(bits(&r.x), bits(&full.x), "{case}");
                assert_eq!(r.iterations, full.iterations, "{case}");
                assert_eq!(
                    r.residual_norm.to_bits(),
                    full.residual_norm.to_bits(),
                    "{case}"
                );
                assert!(r.converged, "{case}");
                let want: Vec<usize> = if with_hook {
                    (stop_at + 1..=r.iterations)
                        .filter(|i| i % 4 == 0)
                        .collect()
                } else {
                    Vec::new()
                };
                assert_eq!(seen.into_inner().unwrap(), want, "{case}");
                let sampled = t.report().iterations();
                assert_eq!(
                    sampled,
                    if with_metrics {
                        r.iterations - stop_at
                    } else {
                        0
                    },
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn jacobi_checkpoint_restart_is_bit_identical() {
        let n = 40;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(3),
            ..CgConfig::default()
        };
        let full = jacobi(&op, &b, &diag, &cfg);
        assert!(full.converged && full.iterations > 4);
        let stop = CgConfig {
            max_iterations: Some(3),
            ..cfg
        };
        let state = jacobi(&op, &b, &diag, &stop).checkpoint.unwrap();
        let resumed = conjugate_gradients(&op, &b, &cfg, Some(&diag), None, Some(&state), None);
        assert_eq!(resumed.x, full.x);
        assert_eq!(resumed.iterations, full.iterations);
    }

    #[test]
    fn resume_from_converged_state_is_a_no_op() {
        let n = 20;
        let op = random_spd(n, 9);
        let b = vec![1.0; n];
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(5),
            ..CgConfig::default()
        };
        let full = solve(&op, &b, &cfg);
        assert!(full.converged);
        let resumed = resume(&op, &b, &cfg, &full.checkpoint.unwrap());
        assert!(resumed.converged);
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.x, full.x);
    }

    #[test]
    fn no_checkpoint_interval_means_no_checkpoint() {
        let op = random_spd(10, 2);
        let r = solve(&op, &[1.0; 10], &CgConfig::with_epsilon(1e-8));
        assert!(r.checkpoint.is_none());
    }

    #[test]
    #[should_panic(expected = "checkpoint dimension mismatch")]
    fn resume_checks_dimension() {
        let op = random_spd(8, 4);
        let small = random_spd(4, 4);
        let cfg = CgConfig {
            checkpoint_interval: Some(1),
            ..CgConfig::with_epsilon(1e-8)
        };
        let r = solve(&small, &[1.0; 4], &cfg);
        let _ = resume(&op, &[1.0; 8], &CgConfig::default(), &r.checkpoint.unwrap());
    }

    #[test]
    fn periodic_checkpoints_emit_recovery_events() {
        use crate::trace::{RecoveryKind, Telemetry};
        let n = 30;
        let op = random_spd(n, 3);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let t = Telemetry::new();
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(2),
            ..CgConfig::default()
        };
        let r = conjugate_gradients(&op, &b, &cfg, None, Some(&t), None, None);
        let report = t.report();
        let checkpoints = report
            .recovery
            .iter()
            .filter(|s| s.kind == RecoveryKind::Checkpoint)
            .count();
        assert_eq!(checkpoints, r.iterations / 2);
        // checkpointing must not perturb the numerics
        let plain = solve(&op, &b, &CgConfig::with_epsilon(1e-10));
        assert_eq!(plain.x, r.x);
    }

    #[test]
    fn checkpoint_sink_receives_every_periodic_snapshot() {
        use std::sync::Mutex;
        let n = 30;
        let op = random_spd(n, 3);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(2),
            ..CgConfig::default()
        };
        let snaps = Mutex::new(Vec::new());
        let hook = |s: &CgState<f64>| snaps.lock().unwrap().push(s.clone());
        let r = conjugate_gradients(&op, &b, &cfg, None, None, None, Some(&hook));
        let snaps = snaps.into_inner().unwrap();
        assert_eq!(snaps.len(), r.iterations / 2);
        for (k, s) in snaps.iter().enumerate() {
            assert_eq!(s.iterations(), 2 * (k + 1));
        }
        // resuming from any streamed snapshot reproduces the full solve
        let resumed = resume(&op, &b, &cfg, &snaps[1]);
        assert_eq!(resumed.x, r.x);
        assert_eq!(resumed.iterations, r.iterations);
    }

    #[test]
    fn state_raw_parts_roundtrip() {
        let n = 16;
        let op = random_spd(n, 5);
        let b = vec![1.0; n];
        let cfg = CgConfig {
            epsilon: 1e-12,
            max_iterations: Some(4),
            checkpoint_interval: Some(1),
            ..CgConfig::default()
        };
        let state = solve(&op, &b, &cfg).checkpoint.unwrap();
        let rebuilt = CgState::from_raw_parts(
            state.solution().to_vec(),
            state.residual().to_vec(),
            state.direction().to_vec(),
            state.rho(),
            state.delta(),
            state.delta0(),
            state.iterations(),
        );
        assert_eq!(rebuilt, state);
        let full = CgConfig {
            epsilon: 1e-12,
            checkpoint_interval: Some(1),
            ..CgConfig::default()
        };
        let a = resume(&op, &b, &full, &state);
        let b2 = resume(&op, &b, &full, &rebuilt);
        assert_eq!(a.x, b2.x);
    }

    #[test]
    fn indefinite_operator_stops_gracefully() {
        // -I is not SPD; CG must bail out instead of diverging.
        let mut op = identity(4);
        for v in &mut op.a {
            *v = -*v;
        }
        let r = solve(&op, &[1.0; 4], &CgConfig::with_epsilon(1e-6));
        assert!(!r.converged);
        assert_eq!(r.iterations, 0);
    }
}
