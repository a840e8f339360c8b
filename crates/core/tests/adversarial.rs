//! Adversarial solver fixtures: deterministic pathological problems that
//! must come back with a *classified* [`SolveOutcome`] — converged via the
//! escalation ladder, or an honest failure — never a panic and never a
//! silently-wrong model.

use plssvm_core::cg::SolveOutcome;
use plssvm_core::guard::RecoveryPolicy;
use plssvm_core::prelude::*;
use plssvm_core::trace::RecoveryKind;
use plssvm_data::dense::DenseMatrix;
use plssvm_data::libsvm::RegressionData;
use plssvm_data::synthetic::{generate_planes, PlanesConfig};

/// The paper's planes problem, deterministic seed, no label noise.
fn planes(points: usize, seed: u64) -> LabeledData<f64> {
    generate_planes(&PlanesConfig::new(points, 4, seed).with_flip_fraction(0.0)).unwrap()
}

#[test]
fn ill_conditioned_rbf_is_classified_honestly() {
    // cost = 1e12 (ridge 1e-12) with an extreme gamma drives the RBF
    // kernel matrix to numerical rank deficiency: far-apart points give
    // k ≈ 0, so K ≈ I + ridge — nearly the identity — while gamma
    // underflow on near-duplicate distances can produce exact ties. The
    // solve must report whatever happened truthfully.
    let data = planes(60, 17);
    let telemetry = Telemetry::shared();
    let out = LsSvm::<f64>::new()
        .with_kernel(KernelSpec::Rbf { gamma: 1e6 })
        .with_cost(1e12)
        .with_epsilon(1e-12)
        .with_max_iterations(300)
        .with_metrics(telemetry.clone())
        .train(&data)
        .unwrap();

    // the boolean, the classification and the telemetry must agree
    assert_eq!(out.converged, out.outcome.is_converged());
    assert!(out.relative_residual.is_finite());
    let report = out.telemetry.as_ref().unwrap();
    let recorded = report.cg_outcome.as_ref().expect("outcome recorded");
    assert_eq!(recorded.outcome, out.outcome.as_str());
    assert_eq!(recorded.iterations, out.iterations);
    // every escalation rung that engaged left a recovery event
    for kind in &out.escalations {
        assert!(
            report.recovery.iter().any(|s| s.kind == *kind),
            "escalation {kind:?} missing from recovery telemetry"
        );
    }
}

#[test]
fn ill_conditioned_linear_high_cost_is_classified_honestly() {
    // Linear kernel on 60 points with 4 features: K = XXᵀ has rank ≤ 5,
    // so with ridge = 1/cost = 1e-12 the system's condition number is
    // ~1e13 and CG cannot reach 1e-14. The outcome must say so.
    let data = planes(60, 23);
    let out = LsSvm::<f64>::new()
        .with_cost(1e12)
        .with_epsilon(1e-14)
        .with_max_iterations(400)
        .train(&data)
        .unwrap();
    assert_eq!(out.converged, out.outcome.is_converged());
    if !out.converged {
        // honest failure: classified, with the engaged rungs recorded
        assert_ne!(out.outcome, SolveOutcome::Converged);
        assert!(!out.escalations.is_empty(), "ladder should have engaged");
    }
}

#[test]
fn near_duplicate_rows_yield_classified_outcome() {
    // 24 points that are all tiny perturbations of two base rows: the
    // kernel matrix is numerically rank-2, the reduced system nearly
    // singular at cost = 1e10.
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for i in 0..24 {
        let eps = i as f64 * 1e-13;
        if i % 2 == 0 {
            rows.push(vec![1.0 + eps, 2.0 - eps, 3.0 + eps, 4.0 - eps]);
            y.push(1.0);
        } else {
            rows.push(vec![-1.0 - eps, -2.0 + eps, -3.0 - eps, -4.0 + eps]);
            y.push(-1.0);
        }
    }
    let data = LabeledData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap();
    let out = LsSvm::<f64>::new()
        .with_cost(1e10)
        .with_epsilon(1e-12)
        .with_max_iterations(200)
        .train(&data)
        .unwrap();
    assert_eq!(out.converged, out.outcome.is_converged());
    assert!(out.relative_residual.is_finite());
}

#[test]
fn all_equal_labels_are_classified_not_panicked() {
    // Every label identical: the reduced right-hand side is exactly zero,
    // so the solve is trivially converged (x = 0) — or the constructor
    // rejects the degenerate set with a structured error. Either is fine;
    // a panic is not.
    let x = DenseMatrix::from_rows(vec![
        vec![1.0, 2.0],
        vec![3.0, 4.0],
        vec![5.0, 6.0],
        vec![7.0, 8.0],
    ])
    .unwrap();
    match LabeledData::new(x, vec![1.0, 1.0, 1.0, 1.0]) {
        Ok(data) => {
            let out = LsSvm::<f64>::new().train(&data).unwrap();
            assert_eq!(out.converged, out.outcome.is_converged());
            assert_eq!(out.outcome, SolveOutcome::Converged);
            assert!(out.escalations.is_empty());
        }
        Err(e) => {
            assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn single_point_dataset_is_classified_not_panicked() {
    // One training point: the reduced system has dimension zero. Training
    // must either produce a (trivial) model or a structured error.
    let x = DenseMatrix::from_rows(vec![vec![0.5, -1.5]]).unwrap();
    match LabeledData::new(x, vec![1.0]) {
        Ok(data) => match LsSvm::<f64>::new().train(&data) {
            Ok(out) => {
                assert_eq!(out.converged, out.outcome.is_converged());
                assert_eq!(out.model.total_sv(), 1);
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        },
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

mod lowrank {
    //! Adversarial fixtures for the randomized low-rank solver: abusive
    //! ranks, degenerate sketches, and problems the Nyström direct solve
    //! cannot crack — each must end in a structured error or a
    //! classified outcome with the lowrank→exact-CG escalation on
    //! record, never a panic.

    use super::*;
    use plssvm_core::lowrank::{LandmarkStrategy, SolverSelection};
    use plssvm_core::SvmError;

    #[test]
    fn rank_zero_is_a_structured_error() {
        let data = planes(30, 3);
        let err = LsSvm::<f64>::new()
            .with_solver(SolverSelection::lowrank(0))
            .train(&data)
            .unwrap_err();
        assert!(
            matches!(err, SvmError::Solver(_)),
            "rank 0 must be a solver error, got {err}"
        );
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn rank_one_and_oversized_ranks_train_classified() {
        // rank 1: a single landmark is a legal (if crude) sketch; rank
        // 10·m documents the clamp to the reduced-system dimension.
        // Both must produce classified outcomes, not panics.
        let data = planes(40, 7);
        for rank in [1, 400] {
            let out = LsSvm::<f64>::new()
                .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
                .with_cost(2.0)
                .with_epsilon(1e-8)
                .with_solver(SolverSelection::lowrank(rank))
                .train(&data)
                .unwrap();
            assert_eq!(out.converged, out.outcome.is_converged(), "rank {rank}");
            assert!(out.relative_residual.is_finite(), "rank {rank}");
            assert!(
                out.converged,
                "rank {rank} should still converge via escalation"
            );
        }
    }

    #[test]
    fn duplicate_rows_make_a_degenerate_sketch_not_a_panic() {
        // 24 points, each an exact duplicate of one of two base rows:
        // any sketch with more than two landmarks picks duplicate
        // columns, so S = W + CᵀD⁻¹C is singular up to the jitter
        // ladder. Training must survive with a classified outcome.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..24 {
            if i % 2 == 0 {
                rows.push(vec![1.0, 2.0, 3.0, 4.0]);
                y.push(1.0);
            } else {
                rows.push(vec![-1.0, -2.0, -3.0, -4.0]);
                y.push(-1.0);
            }
        }
        let data = LabeledData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap();
        for strategy in [LandmarkStrategy::Uniform, LandmarkStrategy::Leverage] {
            let out = LsSvm::<f64>::new()
                .with_kernel(KernelSpec::Rbf { gamma: 0.5 })
                .with_cost(1e8)
                .with_epsilon(1e-10)
                .with_solver(SolverSelection::LowRank {
                    rank: 12,
                    seed: 42,
                    strategy,
                })
                .train(&data)
                .unwrap();
            assert_eq!(
                out.converged,
                out.outcome.is_converged(),
                "{strategy:?}: classification"
            );
            assert!(out.relative_residual.is_finite(), "{strategy:?}");
        }
    }

    #[test]
    fn ill_conditioned_fixture_trains_only_via_recorded_escalation_to_exact_cg() {
        // gamma = 1e6 drives K to a numerical identity, which a rank-4
        // Nyström sketch cannot represent: the direct Woodbury solve
        // misses epsilon, the Nyström-preconditioned CG inherits the
        // useless preconditioner, and only the fallback to the exact
        // guarded ladder trains the model. Every transition must be on
        // the telemetry record.
        let data = planes(60, 17);
        let telemetry = Telemetry::shared();
        let out = LsSvm::<f64>::new()
            .with_kernel(KernelSpec::Rbf { gamma: 1e6 })
            .with_cost(1e12)
            .with_epsilon(1e-10)
            .with_max_iterations(300)
            .with_solver(SolverSelection::lowrank(4))
            .with_metrics(telemetry.clone())
            .train(&data)
            .unwrap();

        assert_eq!(out.converged, out.outcome.is_converged());
        assert!(
            out.escalations.contains(&RecoveryKind::Precondition),
            "the Nyström-PCG rung must have engaged: {:?}",
            out.escalations
        );
        assert!(
            out.escalations.contains(&RecoveryKind::SolverFallback),
            "training must have fallen back to exact CG: {:?}",
            out.escalations
        );
        assert!(
            out.converged,
            "the exact ladder must rescue the run (outcome {})",
            out.outcome
        );

        // telemetry carries the same story: both lowrank transitions as
        // recovery events, plus the low-rank sample itself
        let report = out.telemetry.as_ref().unwrap();
        for kind in [RecoveryKind::Precondition, RecoveryKind::SolverFallback] {
            assert!(
                report.recovery.iter().any(|s| s.kind == kind),
                "recovery telemetry misses {kind:?}"
            );
        }
        let sample = report.lowrank.as_ref().expect("lowrank sample recorded");
        assert_eq!(sample.rank, 4);
        assert!(sample.direct_relative_residual > 1e-10);
        let json = report.to_json_lines();
        assert!(json.contains("\"kind\":\"solver_fallback\""), "{json}");
        assert!(json.contains("\"type\":\"lowrank\""), "{json}");
    }
}

#[test]
fn f32_svr_trains_only_via_precision_escalation() {
    // Regression targets at scale 1e25: every individual value fits f32,
    // but ‖b‖² ≈ 1e50 overflows at the very first dot product, so every
    // f32-native rung (plain, restarted, Jacobi) sees a non-finite
    // residual norm and is classified breakdown_nonfinite. Only the f64
    // refinement rung — f64 norms, unit-normalized inner right-hand
    // sides — can train this, and it must say so in the telemetry.
    const SCALE: f64 = 1e25;
    let n = 32;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| (0..3).map(|j| ((i * 3 + j) as f32 * 0.37).sin()).collect())
        .collect();
    let y: Vec<f32> = (0..n)
        .map(|i| (SCALE * (1.0 + (i as f64 * 0.73).sin())) as f32)
        .collect();
    let data = RegressionData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap();

    let unguarded = LsSvm::<f32>::new()
        .with_cost(10.0)
        .with_epsilon(1e-4)
        .with_recovery_policy(RecoveryPolicy::disabled())
        .train_regression(&data)
        .unwrap();
    assert!(
        !unguarded.converged,
        "fixture must defeat the plain f32 solve (outcome {})",
        unguarded.outcome
    );
    assert_eq!(
        unguarded.outcome.as_str(),
        "breakdown_nonfinite",
        "‖b‖² overflow must be classified as a non-finite breakdown"
    );

    let telemetry = Telemetry::shared();
    let guarded = LsSvm::<f32>::new()
        .with_cost(10.0)
        .with_epsilon(1e-4)
        .with_metrics(telemetry.clone())
        .train_regression(&data)
        .unwrap();
    assert_eq!(
        guarded.outcome,
        SolveOutcome::Converged,
        "escalation ladder must rescue the f32 training run"
    );
    assert!(
        guarded
            .escalations
            .contains(&RecoveryKind::PrecisionEscalation),
        "convergence must come from the f64 refinement rung, got {:?}",
        guarded.escalations
    );
    assert!(
        guarded.escalations.contains(&RecoveryKind::Precondition),
        "the Jacobi rung engages (and fails) before precision escalation"
    );
    let report = guarded.telemetry.as_ref().unwrap();
    for kind in [
        RecoveryKind::Restart,
        RecoveryKind::Precondition,
        RecoveryKind::PrecisionEscalation,
    ] {
        assert!(
            report.recovery.iter().any(|s| s.kind == kind),
            "recovery telemetry misses the {kind:?} rung"
        );
    }
    let recorded = report.cg_outcome.as_ref().unwrap();
    assert_eq!(recorded.outcome, "converged");
    assert!(recorded.relative_residual <= 1e-4 * 1.01);
}
