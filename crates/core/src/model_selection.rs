//! Hyperparameter grid search — the `grid.py` companion tool of LIBSVM,
//! as a library function over the LS-SVM trainer.
//!
//! LIBSVM's recommended workflow searches `(C, γ)` on an exponential grid
//! with cross-validation; PLSSVM inherits that workflow as a drop-in
//! replacement. [`grid_search`] runs it with the stratified k-fold
//! machinery of [`crate::validation`].

use plssvm_data::libsvm::LabeledData;
use plssvm_data::model::KernelSpec;
use plssvm_data::Real;
use plssvm_simgpu::device::AtomicScalar;

use crate::error::SvmError;
use crate::svm::LsSvm;
use crate::validation::cross_validate;

/// The search space.
#[derive(Debug, Clone)]
pub struct GridSearchConfig<T> {
    /// Candidate `C` values. LIBSVM's `grid.py` default is
    /// `2^-5 … 2^15`.
    pub costs: Vec<T>,
    /// Candidate `γ` values (ignored for the linear kernel).
    pub gammas: Vec<T>,
    /// Cross-validation folds (grid.py default 5).
    pub folds: usize,
    /// RNG seed for the fold assignment.
    pub seed: u64,
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint<T> {
    /// The candidate `C`.
    pub cost: T,
    /// The candidate kernel (γ filled in for RBF/poly/sigmoid).
    pub kernel: KernelSpec<T>,
    /// Cross-validation accuracy at this point.
    pub cv_accuracy: f64,
}

/// Grid search outcome: the winner plus the full table.
#[derive(Debug, Clone)]
pub struct GridSearchResult<T> {
    /// The best grid point (ties: first encountered wins, like grid.py).
    pub best: GridPoint<T>,
    /// Every evaluated point, in evaluation order.
    pub evaluated: Vec<GridPoint<T>>,
}

/// Replaces the γ of a kernel spec (identity for the linear kernel).
fn with_gamma<T: Real>(kernel: &KernelSpec<T>, gamma: T) -> KernelSpec<T> {
    match *kernel {
        KernelSpec::Linear => KernelSpec::Linear,
        KernelSpec::Polynomial { degree, coef0, .. } => KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        },
        KernelSpec::Rbf { .. } => KernelSpec::Rbf { gamma },
        KernelSpec::Sigmoid { coef0, .. } => KernelSpec::Sigmoid { gamma, coef0 },
    }
}

/// Searches `(C, γ)` by cross-validated accuracy. The `template` trainer
/// supplies everything else (kernel kind, backend, ε); for the linear
/// kernel only `C` is swept.
pub fn grid_search<T: AtomicScalar>(
    data: &LabeledData<T>,
    template: &LsSvm<T>,
    config: &GridSearchConfig<T>,
) -> Result<GridSearchResult<T>, SvmError> {
    if config.costs.is_empty() {
        return Err(SvmError::Solver("grid search needs at least one C".into()));
    }
    let gammas: &[T] = if matches!(template.kernel, KernelSpec::Linear) {
        &[T::ONE][..] // placeholder; γ unused
    } else {
        if config.gammas.is_empty() {
            return Err(SvmError::Solver(
                "grid search needs at least one gamma for nonlinear kernels".into(),
            ));
        }
        &config.gammas
    };

    let mut evaluated = Vec::with_capacity(config.costs.len() * gammas.len());
    let mut best: Option<GridPoint<T>> = None;
    for &cost in &config.costs {
        for &gamma in gammas {
            let kernel = with_gamma(&template.kernel, gamma);
            let trainer = template.clone().with_kernel(kernel).with_cost(cost);
            let cv = cross_validate(data, &trainer, config.folds, config.seed)?;
            let point = GridPoint {
                cost,
                kernel,
                cv_accuracy: cv.accuracy,
            };
            if best
                .as_ref()
                .map(|b| point.cv_accuracy > b.cv_accuracy)
                .unwrap_or(true)
            {
                best = Some(point.clone());
            }
            evaluated.push(point);
        }
    }
    Ok(GridSearchResult {
        best: best.expect("at least one point evaluated"),
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plssvm_data::dense::DenseMatrix;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    #[test]
    fn linear_grid_sweeps_only_costs() {
        let data = generate_planes::<f64>(
            &PlanesConfig::new(60, 4, 1)
                .with_cluster_sep(3.0)
                .with_flip_fraction(0.0),
        )
        .unwrap();
        let config = GridSearchConfig {
            costs: vec![0.1, 1.0, 10.0],
            gammas: vec![0.1, 1.0],
            folds: 3,
            seed: 1,
        };
        let result = grid_search(&data, &LsSvm::new().with_epsilon(1e-6), &config).unwrap();
        assert_eq!(result.evaluated.len(), 3); // gammas ignored for linear
        assert!(result.best.cv_accuracy >= 0.9);
    }

    #[test]
    fn rbf_grid_finds_a_sensible_gamma() {
        // XOR-like data: tiny gamma ≈ linear (fails), moderate gamma wins
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let (a, b) = (i as f64 / 4.0 - 1.0, j as f64 / 4.0 - 1.0);
                rows.push(vec![a, b]);
                y.push(if (a > 0.0) == (b > 0.0) { 1.0 } else { -1.0 });
            }
        }
        let data = LabeledData::new(DenseMatrix::from_rows(rows).unwrap(), y).unwrap();
        let template = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 1.0 })
            .with_epsilon(1e-6);
        let config = GridSearchConfig {
            costs: vec![10.0],
            gammas: vec![1e-4, 2.0],
            folds: 4,
            seed: 2,
        };
        let result = grid_search(&data, &template, &config).unwrap();
        assert_eq!(result.evaluated.len(), 2);
        assert!(matches!(
            result.best.kernel,
            KernelSpec::Rbf { gamma } if gamma == 2.0
        ));
        // the winner must clearly beat the quasi-linear candidate
        let worst = result
            .evaluated
            .iter()
            .map(|p| p.cv_accuracy)
            .fold(f64::INFINITY, f64::min);
        assert!(result.best.cv_accuracy > worst + 0.15);
    }

    #[test]
    fn empty_grids_rejected() {
        let data = generate_planes::<f64>(&PlanesConfig::new(20, 3, 3)).unwrap();
        let empty_costs = GridSearchConfig {
            costs: vec![],
            gammas: vec![1.0],
            folds: 2,
            seed: 0,
        };
        assert!(grid_search(&data, &LsSvm::new(), &empty_costs).is_err());
        let empty_gammas = GridSearchConfig {
            costs: vec![1.0],
            gammas: vec![],
            folds: 2,
            seed: 0,
        };
        let rbf = LsSvm::new().with_kernel(KernelSpec::Rbf { gamma: 1.0 });
        assert!(grid_search(&data, &rbf, &empty_gammas).is_err());
    }
}
