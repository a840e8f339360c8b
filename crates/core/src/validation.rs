//! k-fold cross-validation — LIBSVM's `-v` mode.
//!
//! LIBSVM reports cross-validation accuracy by partitioning the training
//! data into `k` stratified folds, training on `k−1` and predicting the
//! held-out fold, pooling all predictions. This module reproduces that
//! behaviour on top of [`crate::svm::LsSvm`] so `svm-train -v k` works as
//! a drop-in.

use rand::prelude::*;
use rand::rngs::StdRng;

use plssvm_data::libsvm::LabeledData;
use plssvm_data::Real;
use plssvm_simgpu::device::AtomicScalar;

use crate::cg::SolveOutcome;
use crate::error::SvmError;
use crate::svm::{predict, LsSvm};

/// How one fold's training solve ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldSolve {
    /// Why the solve stopped.
    pub outcome: SolveOutcome,
    /// Final `‖r‖/‖r₀‖`.
    pub relative_residual: f64,
    /// CG iterations performed.
    pub iterations: usize,
}

/// Cross-validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Accuracy per fold (fraction of the fold's points classified
    /// correctly).
    pub fold_accuracies: Vec<f64>,
    /// How each fold's solve ended, in fold order.
    pub fold_solves: Vec<FoldSolve>,
    /// Pooled accuracy over all points (what LIBSVM prints).
    pub accuracy: f64,
}

/// Builds stratified fold assignments: every fold receives a proportional
/// share of each class. Returns `fold_of[i] ∈ 0..folds` per point.
fn stratified_folds<T: Real>(data: &LabeledData<T>, folds: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold_of = vec![0usize; data.points()];
    for class_positive in [true, false] {
        let mut indices: Vec<usize> = (0..data.points())
            .filter(|&i| (data.y[i].to_f64() > 0.0) == class_positive)
            .collect();
        indices.shuffle(&mut rng);
        for (slot, &i) in indices.iter().enumerate() {
            fold_of[i] = slot % folds;
        }
    }
    fold_of
}

/// Runs stratified k-fold cross-validation with `trainer`'s configuration.
pub fn cross_validate<T: AtomicScalar>(
    data: &LabeledData<T>,
    trainer: &LsSvm<T>,
    folds: usize,
    seed: u64,
) -> Result<CvResult, SvmError> {
    if folds < 2 {
        return Err(SvmError::Solver("cross validation needs k >= 2".into()));
    }
    if folds > data.points() {
        return Err(SvmError::Solver(format!(
            "{folds} folds for {} points",
            data.points()
        )));
    }
    let fold_of = stratified_folds(data, folds, seed);
    let mut fold_accuracies = Vec::with_capacity(folds);
    let mut fold_solves = Vec::with_capacity(folds);
    let mut correct_total = 0usize;

    for fold in 0..folds {
        let train_idx: Vec<usize> = (0..data.points()).filter(|&i| fold_of[i] != fold).collect();
        let test_idx: Vec<usize> = (0..data.points()).filter(|&i| fold_of[i] == fold).collect();
        if test_idx.is_empty() || train_idx.len() < 2 {
            return Err(SvmError::Solver(format!(
                "fold {fold} is degenerate ({} train / {} test points)",
                train_idx.len(),
                test_idx.len()
            )));
        }
        let train = LabeledData::with_label_map(
            data.x.select_rows(&train_idx),
            train_idx.iter().map(|&i| data.y[i]).collect(),
            data.label_map,
        )?;
        let out = trainer.train(&train)?;
        fold_solves.push(FoldSolve {
            outcome: out.outcome,
            relative_residual: out.relative_residual,
            iterations: out.iterations,
        });
        let test_x = data.x.select_rows(&test_idx);
        let predictions = predict(&out.model, &test_x);
        let correct = predictions
            .iter()
            .zip(test_idx.iter())
            .filter(|(p, &i)| p.to_f64() == data.y[i].to_f64())
            .count();
        correct_total += correct;
        fold_accuracies.push(correct as f64 / test_idx.len() as f64);
    }
    Ok(CvResult {
        fold_accuracies,
        fold_solves,
        accuracy: correct_total as f64 / data.points() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn sample(seed: u64) -> LabeledData<f64> {
        generate_planes(
            &PlanesConfig::new(100, 6, seed)
                .with_cluster_sep(3.0)
                .with_flip_fraction(0.0),
        )
        .unwrap()
    }

    #[test]
    fn folds_are_stratified_and_balanced() {
        let data = sample(1);
        let fold_of = stratified_folds(&data, 5, 7);
        assert_eq!(fold_of.len(), 100);
        for fold in 0..5 {
            let members: Vec<usize> = (0..100).filter(|&i| fold_of[i] == fold).collect();
            assert_eq!(members.len(), 20);
            let pos = members.iter().filter(|&&i| data.y[i] > 0.0).count();
            // each fold has a proportional class share (±1)
            assert!((9..=11).contains(&pos), "fold {fold}: {pos} positives");
        }
    }

    #[test]
    fn cv_on_separable_data_is_accurate() {
        let data = sample(2);
        let trainer = LsSvm::new().with_epsilon(1e-8);
        let result = cross_validate(&data, &trainer, 5, 3).unwrap();
        assert_eq!(result.fold_accuracies.len(), 5);
        assert!(result.accuracy >= 0.95, "cv accuracy {}", result.accuracy);
        // pooled accuracy equals the weighted mean of fold accuracies
        let mean: f64 = result.fold_accuracies.iter().sum::<f64>() / 5.0;
        assert!((mean - result.accuracy).abs() < 1e-9);
    }

    #[test]
    fn cv_is_deterministic_per_seed() {
        let data = sample(3);
        let trainer = LsSvm::new().with_epsilon(1e-6);
        let a = cross_validate(&data, &trainer, 4, 9).unwrap();
        let b = cross_validate(&data, &trainer, 4, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_fold_counts_rejected() {
        let data = sample(4);
        let trainer = LsSvm::new();
        assert!(cross_validate(&data, &trainer, 1, 0).is_err());
        assert!(cross_validate(&data, &trainer, 101, 0).is_err());
    }

    #[test]
    fn cv_detects_overfitting_hyperparameters() {
        // heavily noisy data: CV accuracy must fall well below training
        // accuracy of a full-fit model (sanity of held-out estimation)
        let data = generate_planes::<f64>(
            &PlanesConfig::new(80, 4, 5)
                .with_cluster_sep(0.3)
                .with_flip_fraction(0.2),
        )
        .unwrap();
        let trainer = LsSvm::new()
            .with_kernel(plssvm_data::model::KernelSpec::Rbf { gamma: 50.0 })
            .with_cost(1e6)
            .with_epsilon(1e-8);
        let full = trainer.train(&data).unwrap();
        let train_acc = crate::svm::accuracy(&full.model, &data);
        let cv = cross_validate(&data, &trainer, 5, 11).unwrap();
        assert!(
            train_acc > 0.95,
            "overfit model should memorize: {train_acc}"
        );
        assert!(
            cv.accuracy < train_acc - 0.15,
            "cv {} vs train {train_acc}",
            cv.accuracy
        );
    }
}
