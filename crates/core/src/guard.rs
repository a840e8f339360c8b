//! Solver guardrails: the automatic escalation ladder.
//!
//! [`crate::cg`] classifies *why* a solve stopped ([`SolveOutcome`]); this
//! module decides *what to do about it*. When a solve comes back
//! non-converged, [`solve_with_guardrails`] walks an escalation ladder
//! driven by a [`RecoveryPolicy`]:
//!
//! 1. **Restart** — re-derive the exact residual `b − A·x` at the current
//!    iterate and restart the recurrence from it (stalls are often caused
//!    by accumulated recurrence drift, which a restart cancels for free).
//! 2. **Precondition** — enable the Jacobi preconditioner (diagonal
//!    scaling), restarting from the current iterate.
//! 3. **Precision escalation** — for working precisions narrower than
//!    f64 (`T::BYTES < 8`), wrap the backend in an f64
//!    iterative-refinement outer loop: the iterate and the residual
//!    accumulation live in f64, while every heavy matvec still runs
//!    through the original working-precision backend (the paper's >92 %
//!    of runtime stays in the fast precision).
//!
//! The primary solve and rungs 1–2 are calls of the one CG entry,
//! [`crate::cg::conjugate_gradients`], made by a single rung runner; each
//! hands its checkpoint snapshots to a [`RungCheckpointSink`] tagged with
//! the rung (see [`rungs`]).
//!
//! Each rung fires a `recovery` telemetry event
//! ([`RecoveryKind::Restart`] / [`RecoveryKind::Precondition`] /
//! [`RecoveryKind::PrecisionEscalation`]), so a training run either
//! succeeds untouched, degrades with a recorded reason, or fails with a
//! classified outcome — never silently.
//!
//! The ladder only engages on non-convergence: a solve that converges on
//! the first attempt takes exactly the same code path (and performs
//! bit-identical arithmetic) as it did before guardrails existed.
//!
//! The randomized low-rank solver ([`crate::lowrank`]) sits *in front of*
//! this ladder as an optional pre-ladder: Nyström direct solve →
//! [`RecoveryKind::Precondition`] → Nyström-preconditioned CG →
//! [`RecoveryKind::SolverFallback`] → this exact ladder, started fresh.
//! Its transitions are prepended to [`GuardedSolve::escalations`], so the
//! full recovery history reads in chronological order regardless of which
//! solver the run started on.

use plssvm_data::Real;

use crate::cg::{
    conjugate_gradients, BreakdownKind, CgConfig, CgResult, CgState, LinOp, SolveOutcome,
};
use crate::kernel::dot;
use crate::trace::{CgOutcomeSample, MetricsSink, RecoveryKind, RecoverySample};

/// Stable rung identifiers persisted inside durable checkpoint snapshots,
/// so a resumed run re-enters the escalation ladder at the rung that was
/// active when the process died instead of redoing earlier rungs.
pub mod rungs {
    /// The first, unescalated solve.
    pub const PRIMARY: u8 = 0;
    /// Rung 1: restart from the exact residual.
    pub const RESTART: u8 = 1;
    /// Rung 2: Jacobi-preconditioned restart.
    pub const JACOBI: u8 = 2;
    /// Rung 3: f64 iterative refinement.
    pub const REFINEMENT: u8 = 3;
}

/// A checkpoint destination that records which escalation rung each
/// snapshot belongs to. The durable journal implements this; the ladder
/// hands each inner solve a checkpoint hook that tags its snapshots with
/// the active rung.
///
/// `persist` is called once per [`CgConfig::checkpoint_interval`]
/// iterations with the complete solver state. Implementations must handle
/// their own failures (log, count, emit telemetry): persistence problems
/// must never abort a numerically healthy solve, so `persist` does not
/// return a `Result`.
pub trait RungCheckpointSink<T: Real>: Sync {
    /// Persists one snapshot taken while `rung` was active.
    fn persist(&self, rung: u8, state: &CgState<T>);
}

/// A recovered checkpoint: the saved CG state plus the escalation rung it
/// was taken on.
#[derive(Debug, Clone)]
pub struct ResumePoint<T> {
    /// Which rung was active when the snapshot was written (see [`rungs`]).
    pub rung: u8,
    /// The saved solver state.
    pub state: CgState<T>,
}

/// Which rungs of the escalation ladder may engage, and how hard the
/// precision-escalation rung tries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Rung 1: restart from the current iterate with the exact residual.
    pub restart: bool,
    /// Rung 2: enable the Jacobi preconditioner (when a diagonal is
    /// available and strictly positive).
    pub jacobi: bool,
    /// Rung 3: escalate `T::BYTES < 8` solves to an f64
    /// iterative-refinement outer loop over the working-precision backend.
    pub precision_escalation: bool,
    /// Maximum outer refinement corrections before giving up with
    /// [`SolveOutcome::IterationBudget`].
    pub refinement_max_outer: usize,
    /// Relative tolerance of each inner working-precision correction
    /// solve. Loose on purpose: refinement converges as long as each
    /// correction gains ~`1/refinement_inner_epsilon` digits.
    pub refinement_inner_epsilon: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            restart: true,
            jacobi: true,
            precision_escalation: true,
            refinement_max_outer: 12,
            refinement_inner_epsilon: 1e-2,
        }
    }
}

impl RecoveryPolicy {
    /// No rung ever engages: the first attempt's classified outcome is
    /// returned as-is. (This is *not* the default — it exists for callers
    /// that want classification without recovery.)
    pub fn disabled() -> Self {
        Self {
            restart: false,
            jacobi: false,
            precision_escalation: false,
            ..Self::default()
        }
    }
}

/// How the escalation ladder can obtain a Jacobi diagonal.
pub enum JacobiDiagonal<'a, T> {
    /// The initial solve already uses this diagonal (the caller enabled
    /// Jacobi preconditioning up front) — rung 2 is a no-op.
    Immediate(&'a [T]),
    /// Computable on demand; only evaluated if rung 2 actually engages,
    /// so the happy path never pays for it.
    Lazy(&'a dyn Fn() -> Vec<T>),
    /// No diagonal available — rung 2 is skipped.
    Unavailable,
}

/// The outcome of a guarded solve: the final [`CgResult`] plus what the
/// ladder had to do to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedSolve<T> {
    /// The final solve result (of the last rung that ran).
    pub result: CgResult<T>,
    /// Matvec-bearing iterations summed across all rungs (the number the
    /// caller should report as "CG iterations").
    pub total_iterations: usize,
    /// The rungs that engaged, in order. Empty on the happy path.
    pub escalations: Vec<RecoveryKind>,
}

impl<T: Real> GuardedSolve<T> {
    /// The final classified outcome.
    pub fn outcome(&self) -> SolveOutcome {
        self.result.outcome
    }
}

fn emit(metrics: Option<&dyn MetricsSink>, kind: RecoveryKind, iteration: usize, detail: String) {
    if let Some(sink) = metrics {
        sink.record_recovery(RecoverySample::solver(kind, iteration, detail));
    }
}

/// The current iterate, or zeros if any component is non-finite (after a
/// NaN/Inf breakdown the iterate cannot seed a restart).
fn sanitized<T: Real>(x: &[T]) -> Vec<T> {
    if x.iter().all(|v| v.is_finite()) {
        x.to_vec()
    } else {
        vec![T::ZERO; x.len()]
    }
}

/// `‖b − A·x‖` with the matvec in working precision and the accumulation
/// in f64 (one extra matvec; only used on the failure path).
fn true_residual_norm<T: Real>(op: &dyn LinOp<T>, b: &[T], x: &[T]) -> f64 {
    let mut out = vec![T::ZERO; op.dim()];
    op.apply(x, &mut out);
    b.iter()
        .zip(&out)
        .map(|(&bv, &ov)| {
            let d = bv.to_f64() - ov.to_f64();
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Solves `A·x = b`, escalating through the recovery ladder on
/// non-convergence.
///
/// The first attempt is exactly [`crate::cg::conjugate_gradients`] (with
/// the diagonal when `jacobi` is [`JacobiDiagonal::Immediate`]) —
/// bit-identical to an unguarded solve. Only when that attempt comes back
/// non-converged do the policy's rungs engage, each restarting from the
/// best iterate so far with the relative-residual criterion still measured
/// against the **original** `‖b‖`.
///
/// The consolidated outcome (final classification, total iterations
/// across rungs, final relative residual) is recorded to `metrics` as the
/// run's [`CgOutcomeSample`].
///
/// This is [`solve_with_guardrails_checkpointed`] without a checkpoint
/// sink or resume point.
///
/// # Panics
/// The contract of [`crate::cg::conjugate_gradients`]; in particular a
/// [`JacobiDiagonal::Immediate`] diagonal must be strictly positive.
pub fn solve_with_guardrails<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    policy: &RecoveryPolicy,
    jacobi: JacobiDiagonal<'_, T>,
    metrics: Option<&dyn MetricsSink>,
) -> GuardedSolve<T> {
    solve_with_guardrails_checkpointed(op, b, config, policy, jacobi, metrics, None, None)
}

/// [`solve_with_guardrails`] with durable-checkpoint plumbing.
///
/// `sink`, when present, receives every periodic [`CgState`] snapshot the
/// inner solves produce, tagged with the escalation rung that was active
/// — so a crash-recovery journal can restore not just the iterate but the
/// ladder position. `resume`, when present, is a previously persisted
/// snapshot: rungs *below* `resume.rung` are skipped entirely (they
/// already ran before the crash) and the matching rung continues from the
/// saved state instead of restarting, which keeps an interrupted rung-0
/// solve bit-exact with an uninterrupted one.
#[allow(clippy::too_many_arguments)]
pub fn solve_with_guardrails_checkpointed<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    policy: &RecoveryPolicy,
    jacobi: JacobiDiagonal<'_, T>,
    metrics: Option<&dyn MetricsSink>,
    sink: Option<&dyn RungCheckpointSink<T>>,
    resume: Option<&ResumePoint<T>>,
) -> GuardedSolve<T> {
    let delta0 = dot(b, b);
    let initial_diag: Option<&[T]> = match &jacobi {
        JacobiDiagonal::Immediate(d) => Some(d),
        _ => None,
    };

    let resume_rung = resume.map(|r| r.rung);
    // A rung that was already *passed* when the snapshot was taken must
    // not run again on resume.
    let already_passed = |rung: u8| resume_rung.is_some_and(|r| r > rung);
    let resume_state_for = |rung: u8| resume.filter(|r| r.rung == rung).map(|r| r.state.clone());

    // A rung can move *backwards* (a restart from a drifted iterate may
    // end farther from the solution than it started), so on the failure
    // path the best iterate across all rungs is tracked by true residual
    // and restored at the end. The happy path never measures anything.
    let ladder_enabled =
        policy.restart || policy.jacobi || (policy.precision_escalation && T::BYTES < 8);
    let mut best: Option<(Vec<T>, f64)> = None;
    let consider = |result: &CgResult<T>, best: &mut Option<(Vec<T>, f64)>| {
        if result.converged || !ladder_enabled {
            return;
        }
        let x = sanitized(&result.x);
        let norm = true_residual_norm(op, b, &x);
        if norm.is_finite() && best.as_ref().is_none_or(|(_, bn)| norm < *bn) {
            *best = Some((x, norm));
        }
    };
    // The journal says a later rung was active when the process died: seed
    // the ladder with the saved iterate instead of redoing the primary
    // solve.
    let seed = resume
        .filter(|r| r.rung > rungs::PRIMARY)
        .map(|r| CgResult {
            x: r.state.solution().to_vec(),
            iterations: 0,
            initial_residual_norm: T::from_f64(delta0.to_f64().max(0.0).sqrt()),
            residual_norm: r.state.residual_norm(),
            converged: false,
            outcome: SolveOutcome::IterationBudget,
            drift_restarts: 0,
            checkpoint: None,
        });
    if let Some(seed) = &seed {
        consider(seed, &mut best);
    }
    let mut total_iterations = 0;
    let mut escalations = Vec::new();

    // One CG rung. An escalation (`from`: the previous rung's result, the
    // recovery kind and what the rung does) is announced first, then the
    // rung continues its saved state on resume or else restarts from the
    // previous iterate with the exact residual; the primary rung starts
    // from x = 0. Snapshots are persisted under the rung's tag.
    let mut run_rung =
        |rung: u8, diag: Option<&[T]>, from: Option<(&CgResult<T>, RecoveryKind, &str)>| {
            if let Some((prev, kind, action)) = from {
                let detail = format!("escalation after {}: {action}", prev.outcome);
                emit(metrics, kind, total_iterations, detail);
                escalations.push(kind);
            }
            let state = resume_state_for(rung).or_else(|| {
                let (prev, ..) = from?;
                let x0 = sanitized(&prev.x);
                Some(CgState::restart_from(op, b, &x0, diag, Some(delta0)))
            });
            let persist = |s: &CgState<T>| sink.map_or((), |sink| sink.persist(rung, s));
            let hook = sink.map(|_| &persist as &dyn Fn(&CgState<T>));
            let result = conjugate_gradients(op, b, config, diag, metrics, state.as_ref(), hook);
            total_iterations += result.iterations;
            consider(&result, &mut best);
            result
        };

    let mut result = match seed {
        Some(seed) => seed,
        None => run_rung(rungs::PRIMARY, initial_diag, None),
    };

    // Rung 1: restart from the current iterate with the exact residual.
    if !result.converged && policy.restart && !already_passed(rungs::RESTART) {
        let action = "restart from current iterate with exact residual";
        result = run_rung(
            rungs::RESTART,
            initial_diag,
            Some((&result, RecoveryKind::Restart, action)),
        );
    }

    // Rung 2: enable the Jacobi preconditioner.
    let mut owned_diag: Option<Vec<T>> = None;
    if !result.converged
        && policy.jacobi
        && initial_diag.is_none()
        && !already_passed(rungs::JACOBI)
    {
        if let JacobiDiagonal::Lazy(make) = &jacobi {
            let diag = make();
            // a non-positive or non-finite diagonal cannot precondition an
            // SPD solve — skip the rung rather than trip the assert
            let usable =
                diag.len() == op.dim() && diag.iter().all(|d| d.is_finite() && d.to_f64() > 0.0);
            if usable {
                let action = "enabling Jacobi preconditioner";
                let from = Some((&result, RecoveryKind::Precondition, action));
                result = run_rung(rungs::JACOBI, Some(&diag), from);
                owned_diag = Some(diag);
            }
        }
    }

    // Rung 3: f64 iterative refinement over the working-precision backend.
    if !result.converged && policy.precision_escalation && T::BYTES < 8 {
        emit(
            metrics,
            RecoveryKind::PrecisionEscalation,
            total_iterations,
            format!(
                "escalation after {}: f64 iterative refinement over the {}-byte backend",
                result.outcome,
                T::BYTES
            ),
        );
        escalations.push(RecoveryKind::PrecisionEscalation);
        let diag = initial_diag.or(owned_diag.as_deref());
        // On a rung-3 resume, refinement restarts its outer loop from the
        // persisted iterate (the outer loop has no recurrence to resume —
        // each correction starts from the measured residual, so restarting
        // from the saved x loses nothing but the in-flight correction).
        let resumed_x = resume_state_for(rungs::REFINEMENT).map(|s| s.solution().to_vec());
        let x_start: &[T] = resumed_x.as_deref().unwrap_or(&result.x);
        let (refined, inner_iterations) =
            iterative_refinement(op, b, config, policy, diag, x_start, sink);
        total_iterations += inner_iterations;
        result = refined;
        consider(&result, &mut best);
    }

    // Restore the best iterate measured across the ladder: never hand back
    // a final rung's result when an earlier rung got closer.
    if !result.converged && !escalations.is_empty() {
        if let Some((x, norm)) = best {
            result.x = x;
            result.residual_norm = T::from_f64(norm);
        }
    }

    if let Some(sink) = metrics {
        // measured in f64 so a ‖b‖² that overflows the working type still
        // yields an honest relative residual
        let initial = b
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt();
        let final_norm = result.residual_norm.to_f64();
        sink.record_cg_outcome(CgOutcomeSample {
            outcome: result.outcome.as_str(),
            iterations: total_iterations,
            final_residual_norm: final_norm,
            relative_residual: if initial == 0.0 {
                0.0
            } else {
                final_norm / initial
            },
        });
    }

    GuardedSolve {
        result,
        total_iterations,
        escalations,
    }
}

/// The f64 iterative-refinement outer loop (ladder rung 3).
///
/// The iterate and residual accumulation live in f64; the residual is
/// *measured through the working-precision backend* (`x` is rounded to
/// `T`, the matvec runs in `T`, the subtraction happens in f64), so the
/// heavy O(n²) work never leaves the fast precision. Each correction
/// solves `A·d = r/‖r‖` at a loose inner tolerance — the normalization
/// keeps the inner right-hand side at unit scale, out of the narrow
/// type's denormal range — and applies `x += ‖r‖·d`.
///
/// Returns the final [`CgResult`] (in working precision) and the number
/// of inner iterations consumed.
///
/// When `sink` is present, a synthesized working-precision snapshot of
/// the outer state (iterate + measured residual) is persisted under
/// [`rungs::REFINEMENT`] before each correction, so a crash
/// mid-refinement resumes from the last completed correction instead of
/// the ladder's entry iterate.
fn iterative_refinement<T: Real>(
    op: &dyn LinOp<T>,
    b: &[T],
    config: &CgConfig<T>,
    policy: &RecoveryPolicy,
    diagonal: Option<&[T]>,
    x_start: &[T],
    sink: Option<&dyn RungCheckpointSink<T>>,
) -> (CgResult<T>, usize) {
    let n = op.dim();
    let b64: Vec<f64> = b.iter().map(|&v| v.to_f64()).collect();
    let norm_b = dot(&b64, &b64).sqrt();
    let threshold = config.epsilon.to_f64() * norm_b;
    let mut x64: Vec<f64> = sanitized(x_start).iter().map(|&v| v.to_f64()).collect();
    let mut x_t: Vec<T> = vec![T::ZERO; n];
    let mut out_t: Vec<T> = vec![T::ZERO; n];
    let mut r64: Vec<f64> = vec![0.0; n];
    let inner_config = CgConfig {
        epsilon: T::from_f64(policy.refinement_inner_epsilon),
        ..*config
    };

    let mut inner_iterations = 0usize;
    let mut best_rnorm = f64::INFINITY;
    let mut best_x64 = x64.clone();
    let mut rnorm = 0.0f64;
    let mut outcome = SolveOutcome::IterationBudget;
    for outer in 0..=policy.refinement_max_outer {
        for (xt, &xv) in x_t.iter_mut().zip(&x64) {
            *xt = T::from_f64(xv);
        }
        op.apply(&x_t, &mut out_t);
        for ((r, &bv), &ov) in r64.iter_mut().zip(&b64).zip(&out_t) {
            *r = bv - ov.to_f64();
        }
        rnorm = dot(&r64, &r64).sqrt();
        if !rnorm.is_finite() {
            outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
            break;
        }
        if norm_b == 0.0 || rnorm <= threshold {
            outcome = SolveOutcome::Converged;
            break;
        }
        if outer == policy.refinement_max_outer {
            outcome = SolveOutcome::IterationBudget;
            break;
        }
        if rnorm > best_rnorm * 0.9 {
            // the last correction improved the best residual by less than
            // 10%: we are at the working-precision noise floor and further
            // refinement cannot reach the tolerance
            outcome = SolveOutcome::Stalled;
            break;
        }
        best_rnorm = rnorm;
        best_x64.copy_from_slice(&x64);
        if let Some(out) = sink {
            // Synthesize a CgState from the outer iterate: the refinement
            // loop has no CG recurrence of its own, so the residual also
            // serves as the direction. `iterations` counts completed
            // corrections.
            let r_t: Vec<T> = r64.iter().map(|&v| T::from_f64(v)).collect();
            let delta = T::from_f64(rnorm * rnorm);
            out.persist(
                rungs::REFINEMENT,
                &CgState::from_raw_parts(
                    x_t.clone(),
                    r_t.clone(),
                    r_t,
                    delta,
                    delta,
                    T::from_f64(norm_b * norm_b),
                    outer,
                ),
            );
        }
        let rhs: Vec<T> = r64.iter().map(|&v| T::from_f64(v / rnorm)).collect();
        let inner = conjugate_gradients(op, &rhs, &inner_config, diagonal, None, None, None);
        inner_iterations += inner.iterations;
        if inner.x.iter().any(|v| !v.is_finite()) {
            outcome = SolveOutcome::Breakdown(BreakdownKind::NonFinite);
            break;
        }
        for (xv, &dv) in x64.iter_mut().zip(&inner.x) {
            *xv += rnorm * dv.to_f64();
        }
    }

    // never hand back an iterate worse than the best one measured — a
    // correction built from a failed inner solve can move backwards
    if !outcome.is_converged() && best_rnorm < rnorm {
        x64 = best_x64;
        rnorm = best_rnorm;
    }

    let result = CgResult {
        x: x64.iter().map(|&v| T::from_f64(v)).collect(),
        iterations: inner_iterations,
        initial_residual_norm: T::from_f64(norm_b),
        residual_norm: T::from_f64(rnorm),
        converged: outcome.is_converged(),
        outcome,
        drift_restarts: 0,
        checkpoint: None,
    };
    (result, inner_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::conjugate_gradients;

    struct Dense64 {
        n: usize,
        a: Vec<f64>,
    }

    impl LinOp<f64> for Dense64 {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, v: &[f64], out: &mut [f64]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(&self.a[i * self.n..(i + 1) * self.n], v);
            }
        }
    }

    /// The same matrix evaluated entirely in f32 — models a
    /// working-precision backend.
    struct Dense32 {
        n: usize,
        a: Vec<f32>,
    }

    impl LinOp<f32> for Dense32 {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, v: &[f32], out: &mut [f32]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(&self.a[i * self.n..(i + 1) * self.n], v);
            }
        }
    }

    fn random_spd(n: usize, seed: u64) -> Dense64 {
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
        Dense64 { n, a }
    }

    /// SPD with rows/columns scaled over several orders of magnitude —
    /// plain CG crawls, Jacobi fixes it.
    fn ill_scaled_spd(n: usize) -> Dense64 {
        let mut op = random_spd(n, 99);
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

    /// An SPD matrix with near-dependent directions (condition number
    /// ~1/`ridge`) whose diagonal is nearly uniform, so Jacobi cannot
    /// rescue it — only precision escalation can.
    fn near_singular_spd(n: usize, perturb: f64, ridge: f64) -> Dense64 {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        // G has n columns that are small perturbations of a single vector:
        // GᵀG is rank-deficient up to the perturbation scale
        let base: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let g: Vec<f64> = (0..n * n)
            .map(|idx| base[idx % n] + perturb * rng.random_range(-1.0..1.0))
            .collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += g[k * n + i] * g[k * n + j];
                }
                a[i * n + j] = s / n as f64 + if i == j { ridge } else { 0.0 };
            }
        }
        Dense64 { n, a }
    }

    /// A well-conditioned f64 system whose right-hand side lives at a
    /// scale where ‖b‖² overflows f32.
    fn f32_overflow_system() -> (Dense64, Vec<f64>) {
        let n = 32;
        const SCALE: f64 = 1e25; // ‖b‖² ≈ 1e50 ≫ f32::MAX ≈ 3.4e38
        let b = (0..n)
            .map(|i| SCALE * (1.0 + ((i as f64) * 0.37).sin()))
            .collect();
        (random_spd(n, 5), b)
    }

    /// `op` and `b` evaluated in f32, with the configuration the f32 tests
    /// solve them under.
    fn narrowed(op: &Dense64, b: &[f64]) -> (Dense32, Vec<f32>, CgConfig<f32>) {
        let op32 = Dense32 {
            n: op.n,
            a: op.a.iter().map(|&v| v as f32).collect(),
        };
        let cfg = CgConfig {
            epsilon: 1e-4f32,
            max_iterations: Some(4 * op.n),
            ..CgConfig::default()
        };
        (op32, b.iter().map(|&v| v as f32).collect(), cfg)
    }

    #[test]
    fn happy_path_is_bit_identical_and_unescalated() {
        let n = 32;
        let op = random_spd(n, 5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let cfg = CgConfig::with_epsilon(1e-10);
        let guarded = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            &RecoveryPolicy::default(),
            JacobiDiagonal::Unavailable,
            None,
        );
        let plain = conjugate_gradients(&op, &b, &cfg, None, None, None, None);
        assert_eq!(guarded.result.x, plain.x);
        assert_eq!(guarded.total_iterations, plain.iterations);
        assert!(guarded.escalations.is_empty());
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
    }

    #[test]
    fn disabled_policy_returns_classified_outcome_untouched() {
        // −I is not SPD: immediate indefinite breakdown, no recovery.
        let n = 4;
        let a: Vec<f64> = (0..n * n)
            .map(|idx| if idx % (n + 1) == 0 { -1.0 } else { 0.0 })
            .collect();
        let op = Dense64 { n, a };
        let guarded = solve_with_guardrails(
            &op,
            &[1.0; 4],
            &CgConfig::with_epsilon(1e-6),
            &RecoveryPolicy::disabled(),
            JacobiDiagonal::Unavailable,
            None,
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Breakdown(BreakdownKind::Indefinite)
        );
        assert!(guarded.escalations.is_empty());
    }

    #[test]
    fn indefinite_system_exhausts_ladder_without_lying() {
        // Full policy on −I: restart re-breaks, Jacobi diagonal is
        // negative (skipped), refinement is f64-gated — the final outcome
        // must still be the honest breakdown.
        let n = 4;
        let a: Vec<f64> = (0..n * n)
            .map(|idx| if idx % (n + 1) == 0 { -1.0 } else { 0.0 })
            .collect();
        let op = Dense64 { n, a };
        let make_diag = || vec![-1.0; 4];
        let guarded = solve_with_guardrails(
            &op,
            &[1.0; 4],
            &CgConfig::with_epsilon(1e-6),
            &RecoveryPolicy::default(),
            JacobiDiagonal::Lazy(&make_diag),
            None,
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Breakdown(BreakdownKind::Indefinite)
        );
        assert_eq!(guarded.escalations, vec![RecoveryKind::Restart]);
    }

    #[test]
    fn jacobi_rung_rescues_ill_scaled_system() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        // budget small enough that plain CG (and its restart) cannot make
        // it, but preconditioned CG can
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            ..CgConfig::default()
        };
        let unguarded = conjugate_gradients(&op, &b, &cfg, None, None, None, None);
        assert!(!unguarded.converged, "fixture must defeat plain CG");

        let t = crate::trace::Telemetry::new();
        let make_diag = || diag.clone();
        let guarded = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            &RecoveryPolicy::default(),
            JacobiDiagonal::Lazy(&make_diag),
            Some(&t),
        );
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
        assert!(guarded.escalations.contains(&RecoveryKind::Precondition));
        // the rescue is recorded, and the consolidated outcome reflects
        // the whole ladder
        let report = t.report();
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::Precondition));
        let outcome = report.cg_outcome.expect("consolidated outcome recorded");
        assert_eq!(outcome.outcome, "converged");
        assert_eq!(outcome.iterations, guarded.total_iterations);
        // the claimed residual is real
        let mut ax = vec![0.0; n];
        op.apply(&guarded.result.x, &mut ax);
        let true_rel = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
            / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(true_rel <= 1e-6, "true relative residual {true_rel}");
    }

    #[test]
    fn f32_solve_converges_only_via_precision_escalation() {
        // A well-conditioned system whose right-hand side lives at a scale
        // where ‖b‖² overflows f32: every f32-native solve (plain,
        // restarted, preconditioned) sees `delta0 = inf` and is classified
        // breakdown_nonfinite, while the f64 refinement outer loop keeps
        // its norms in f64 and normalizes the inner right-hand sides to
        // unit scale — so only rung 3 can solve it, deterministically.
        let (op64, b64) = f32_overflow_system();
        let n = op64.n;
        let (op32, b32, cfg) = narrowed(&op64, &b64);
        let unguarded = conjugate_gradients(&op32, &b32, &cfg, None, None, None, None);
        assert_eq!(
            unguarded.outcome,
            SolveOutcome::Breakdown(BreakdownKind::NonFinite),
            "fixture must defeat plain f32 CG"
        );

        let t = crate::trace::Telemetry::new();
        let diag: Vec<f32> = (0..n).map(|i| op32.a[i * n + i]).collect();
        let make_diag = || diag.clone();
        let guarded = solve_with_guardrails(
            &op32,
            &b32,
            &cfg,
            &RecoveryPolicy::default(),
            JacobiDiagonal::Lazy(&make_diag),
            Some(&t),
        );
        assert_eq!(
            guarded.outcome(),
            SolveOutcome::Converged,
            "escalation ladder must rescue the f32 solve"
        );
        assert!(guarded
            .escalations
            .contains(&RecoveryKind::PrecisionEscalation));
        let report = t.report();
        assert!(report
            .recovery
            .iter()
            .any(|s| s.kind == RecoveryKind::PrecisionEscalation));
        // verify the claim against the f64 operator
        let x64: Vec<f64> = guarded.result.x.iter().map(|&v| v as f64).collect();
        let mut ax = vec![0.0; n];
        op64.apply(&x64, &mut ax);
        let true_rel = b64
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
            / b64.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(true_rel <= 1e-3, "true relative residual {true_rel}");
    }

    /// Collects every persisted snapshot together with its rung tag.
    struct Collect<T: Real>(std::sync::Mutex<Vec<(u8, CgState<T>)>>);

    impl<T: Real> Collect<T> {
        fn new() -> Self {
            Self(std::sync::Mutex::new(Vec::new()))
        }
    }

    impl<T: Real> RungCheckpointSink<T> for Collect<T> {
        fn persist(&self, rung: u8, state: &CgState<T>) {
            self.0.lock().unwrap().push((rung, state.clone()));
        }
    }

    #[test]
    fn sink_snapshots_are_tagged_with_the_active_rung() {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            checkpoint_interval: Some(5),
            ..CgConfig::default()
        };
        let make_diag = || diag.clone();
        let sink = Collect::new();
        let guarded = solve_with_guardrails_checkpointed(
            &op,
            &b,
            &cfg,
            &RecoveryPolicy::default(),
            JacobiDiagonal::Lazy(&make_diag),
            None,
            Some(&sink),
            None,
        );
        assert_eq!(guarded.outcome(), SolveOutcome::Converged);
        let seen = sink.0.lock().unwrap();
        let rungs_seen: Vec<u8> = seen.iter().map(|(r, _)| *r).collect();
        assert!(rungs_seen.contains(&rungs::PRIMARY));
        assert!(
            rungs_seen.contains(&rungs::JACOBI),
            "preconditioned rung must stream snapshots too: {rungs_seen:?}"
        );
        // rung tags never decrease: the ladder only climbs
        assert!(rungs_seen.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Runs the full ladder with a snapshot sink, then resumes it from
    /// the `pick`-th snapshot taken on `rung`.
    fn full_and_resumed<T: Real>(
        op: &dyn LinOp<T>,
        b: &[T],
        cfg: &CgConfig<T>,
        diag: Option<&[T]>,
        rung: u8,
        pick: usize,
    ) -> (GuardedSolve<T>, GuardedSolve<T>) {
        let make_diag = || diag.unwrap().to_vec();
        let jacobi = || match diag {
            Some(_) => JacobiDiagonal::Lazy(&make_diag),
            None => JacobiDiagonal::Unavailable,
        };
        let policy = RecoveryPolicy::default();
        let sink = Collect::new();
        let full = solve_with_guardrails_checkpointed(
            op,
            b,
            cfg,
            &policy,
            jacobi(),
            None,
            Some(&sink),
            None,
        );
        let snapshots = sink.0.into_inner().unwrap();
        let (_, state) = snapshots
            .into_iter()
            .filter(|(r, _)| *r == rung)
            .nth(pick)
            .unwrap_or_else(|| panic!("rung {rung} took no snapshot {pick}"));
        let resume = ResumePoint { rung, state };
        let resumed = solve_with_guardrails_checkpointed(
            op,
            b,
            cfg,
            &policy,
            jacobi(),
            None,
            None,
            Some(&resume),
        );
        (full, resumed)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// An ill-scaled system that defeats rungs 0 and 1 within a budget of
    /// n iterations and converges on rung 2, with its diagonal.
    fn ill_scaled_case() -> (Dense64, Vec<f64>, Vec<f64>, CgConfig<f64>) {
        let n = 60;
        let op = ill_scaled_spd(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        let diag: Vec<f64> = (0..n).map(|i| op.a[i * n + i]).collect();
        let cfg = CgConfig {
            epsilon: 1e-8,
            max_iterations: Some(n),
            checkpoint_interval: Some(5),
            ..CgConfig::default()
        };
        (op, b, diag, cfg)
    }

    #[test]
    fn resume_at_primary_rung_is_bit_exact() {
        let n = 32;
        let op = random_spd(n, 5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let cfg = CgConfig {
            epsilon: 1e-10,
            checkpoint_interval: Some(3),
            ..CgConfig::default()
        };
        let (full, resumed) = full_and_resumed(&op, &b, &cfg, None, rungs::PRIMARY, 2);
        assert_eq!(full.outcome(), SolveOutcome::Converged);
        assert_eq!(resumed.outcome(), SolveOutcome::Converged);
        assert!(resumed.escalations.is_empty());
        assert_eq!(bits(&resumed.result.x), bits(&full.result.x));
        // the iteration counter is absolute within a rung
        assert_eq!(resumed.total_iterations, full.total_iterations);
    }

    #[test]
    fn resume_at_jacobi_rung_skips_earlier_rungs_and_converges() {
        let (op, b, diag, cfg) = ill_scaled_case();
        let (full, resumed) = full_and_resumed(&op, &b, &cfg, Some(&diag), rungs::JACOBI, 0);
        assert_eq!(full.outcome(), SolveOutcome::Converged);
        assert_eq!(resumed.outcome(), SolveOutcome::Converged);
        assert_eq!(
            resumed.escalations,
            vec![RecoveryKind::Precondition],
            "only the resumed rung engages; earlier rungs are skipped"
        );
        assert!(resumed.total_iterations < full.total_iterations);
        // the resumed continuation reproduces the exact tail of the full
        // jacobi rung: identical final iterate
        assert_eq!(bits(&resumed.result.x), bits(&full.result.x));
    }

    #[test]
    fn resume_at_restart_and_refinement_rungs_skips_earlier_rungs() {
        use RecoveryKind::{PrecisionEscalation, Precondition, Restart};
        // rung 1 continues bit for bit and still climbs to rung 2
        let (op, b, diag, cfg) = ill_scaled_case();
        let (full, resumed) = full_and_resumed(&op, &b, &cfg, Some(&diag), rungs::RESTART, 3);
        assert_eq!(full.outcome(), SolveOutcome::Converged);
        assert_eq!(resumed.outcome(), SolveOutcome::Converged);
        assert_eq!(resumed.escalations, vec![Restart, Precondition]);
        assert_eq!(bits(&resumed.result.x), bits(&full.result.x));
        assert!(resumed.total_iterations < full.total_iterations);

        // rung 3 restarts its outer loop from the persisted f32 iterate
        let (op64, b64) = f32_overflow_system();
        let (op32, b32, cfg) = narrowed(&op64, &b64);
        let diag: Vec<f32> = (0..op32.n).map(|i| op32.a[i * op32.n + i]).collect();
        let (full, resumed) =
            full_and_resumed(&op32, &b32, &cfg, Some(&diag), rungs::REFINEMENT, 1);
        assert_eq!(
            full.escalations,
            vec![Restart, Precondition, PrecisionEscalation]
        );
        assert_eq!(resumed.escalations, vec![PrecisionEscalation]);
        assert_eq!(resumed.outcome(), SolveOutcome::Converged);
        assert!(resumed.total_iterations < full.total_iterations);
    }

    #[test]
    fn refinement_is_gated_to_narrow_precisions() {
        // An f64 solve that cannot converge must NOT enter rung 3.
        let n = 24;
        let op = near_singular_spd(n, 1e-3, 1e-14);
        let b = vec![1.0; n];
        let cfg = CgConfig {
            epsilon: 1e-12,
            max_iterations: Some(8),
            ..CgConfig::default()
        };
        let guarded = solve_with_guardrails(
            &op,
            &b,
            &cfg,
            &RecoveryPolicy::default(),
            JacobiDiagonal::Unavailable,
            None,
        );
        assert!(!guarded
            .escalations
            .contains(&RecoveryKind::PrecisionEscalation));
        assert!(!guarded.outcome().is_converged());
    }
}
