//! A ThunderSVM-style batched working-set SMO solver.
//!
//! ThunderSVM accelerates SMO by processing a **working set** of the `q`
//! most violating points per outer iteration: the kernel rows of the whole
//! set are computed in bulk (on a GPU this is the flood of small compute
//! kernels the paper profiles — >1600 launches, each well under a
//! millisecond, §IV-C), the two-variable updates run *inside* the working
//! set against a local gradient, and the global gradient is then updated
//! in one pass. This is the "point groups" parallelization of SMO the
//! paper describes in §II-G.
//!
//! The row batch and the global gradient update are plain loops on the
//! calling thread (ThunderSVM's CPU mode spreads them over OpenMP threads;
//! this baseline keeps them sequential). Kernel launch counts are tracked
//! so the profiling comparison of §IV-C can be regenerated.

use plssvm_data::libsvm::LabeledData;
use plssvm_data::model::{KernelSpec, SvmModel};
use plssvm_data::{DataError, Real};

use crate::rows::{DenseRows, KernelRows};

const TAU: f64 = 1e-12;

/// Batched-SMO configuration.
#[derive(Debug, Clone)]
pub struct ThunderConfig<T> {
    /// Kernel function.
    pub kernel: KernelSpec<T>,
    /// Upper box bound `C`.
    pub cost: T,
    /// Global KKT violation tolerance.
    pub epsilon: T,
    /// Working set size `q` (ThunderSVM default 512).
    pub working_set_size: usize,
    /// Maximum two-variable updates per outer iteration (defaults to the
    /// working set size).
    pub inner_iterations: Option<usize>,
    /// Outer iteration cap; `None` = `max(1000, 10·m / q)·q`-ish safety
    /// bound, far above practical convergence.
    pub max_outer_iterations: Option<usize>,
}

impl<T: Real> Default for ThunderConfig<T> {
    fn default() -> Self {
        Self {
            kernel: KernelSpec::Linear,
            cost: T::ONE,
            epsilon: T::from_f64(1e-3),
            working_set_size: 512,
            inner_iterations: None,
            max_outer_iterations: None,
        }
    }
}

/// Result of a batched-SMO run.
#[derive(Debug)]
pub struct ThunderOutput<T> {
    /// The trained model.
    pub model: SvmModel<T>,
    /// Outer (working set) iterations.
    pub outer_iterations: usize,
    /// Total two-variable updates across all working sets.
    pub inner_iterations: usize,
    /// Kernel rows computed (each is one `O(m·d)` batch row).
    pub rows_computed: usize,
    /// Device kernel launches a GPU execution of this run would issue —
    /// ThunderSVM launches separate small kernels for the row batch, the
    /// local solve, the gradient update and the convergence reduction per
    /// outer iteration.
    pub kernel_launches: usize,
    /// Whether the global KKT criterion was met.
    pub converged: bool,
}

/// Kernel launches ThunderSVM issues per outer iteration (row-batch
/// kernel, working-set selection reductions, local SMO kernel, global
/// gradient update, convergence check).
pub const LAUNCHES_PER_OUTER: usize = 6;

/// The batched solver.
pub struct ThunderSolver<T> {
    config: ThunderConfig<T>,
}

impl<T: Real> ThunderSolver<T> {
    /// Creates a solver with the given configuration.
    pub fn new(config: ThunderConfig<T>) -> Result<Self, DataError> {
        config.kernel.validate()?;
        // the negated comparison deliberately rejects NaN as well
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(config.cost.to_f64() > 0.0) {
            return Err(DataError::Invalid("C must be positive".into()));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(config.epsilon.to_f64() > 0.0) {
            return Err(DataError::Invalid("epsilon must be positive".into()));
        }
        if config.working_set_size < 2 {
            return Err(DataError::Invalid(
                "working set needs at least two points".into(),
            ));
        }
        Ok(Self { config })
    }

    /// Trains on `data` with dense kernel rows.
    pub fn train(&self, data: &LabeledData<T>) -> Result<ThunderOutput<T>, DataError> {
        let rows = DenseRows::new(data.x.clone(), self.config.kernel);
        self.train_with_rows(data, &rows)
    }

    /// Trains with an explicit kernel-row provider.
    pub fn train_with_rows<R: KernelRows<T>>(
        &self,
        data: &LabeledData<T>,
        rows: &R,
    ) -> Result<ThunderOutput<T>, DataError> {
        let m = rows.points();
        if data.y.len() != m {
            return Err(DataError::Invalid("label/point count mismatch".into()));
        }
        let y: Vec<f64> = data.y.iter().map(|v| v.to_f64()).collect();
        let pos = y.iter().filter(|&&v| v > 0.0).count();
        if pos == 0 || pos == m {
            return Err(DataError::Invalid(
                "SMO needs at least one point of each class".into(),
            ));
        }
        let c = self.config.cost.to_f64();
        let eps = self.config.epsilon.to_f64();
        let q = self.config.working_set_size.min(m);
        let inner_budget = self.config.inner_iterations.unwrap_or(q);
        let max_outer = self
            .config
            .max_outer_iterations
            .unwrap_or_else(|| (20 * m / q + 1000).max(1000));

        let diag: Vec<f64> = (0..m).map(|i| rows.diag(i).to_f64()).collect();
        let mut alpha = vec![0.0f64; m];
        let mut grad = vec![-1.0f64; m];

        let mut outer = 0usize;
        let mut inner_total = 0usize;
        let mut rows_computed = 0usize;
        let mut converged = false;

        while outer < max_outer {
            // --- global convergence check (max violating pair) ---
            let mut gmax = f64::NEG_INFINITY;
            let mut gmin = f64::INFINITY;
            for t in 0..m {
                let v = -y[t] * grad[t];
                let in_up = if y[t] > 0.0 {
                    alpha[t] < c
                } else {
                    alpha[t] > 0.0
                };
                let in_low = if y[t] > 0.0 {
                    alpha[t] > 0.0
                } else {
                    alpha[t] < c
                };
                if in_up {
                    gmax = gmax.max(v);
                }
                if in_low {
                    gmin = gmin.min(v);
                }
            }
            if gmax - gmin < eps {
                converged = true;
                break;
            }
            outer += 1;

            // --- working set: q/2 most violating from I_up, q/2 from I_low ---
            let mut ups: Vec<(f64, usize)> = (0..m)
                .filter(|&t| {
                    if y[t] > 0.0 {
                        alpha[t] < c
                    } else {
                        alpha[t] > 0.0
                    }
                })
                .map(|t| (-y[t] * grad[t], t))
                .collect();
            let mut lows: Vec<(f64, usize)> = (0..m)
                .filter(|&t| {
                    if y[t] > 0.0 {
                        alpha[t] > 0.0
                    } else {
                        alpha[t] < c
                    }
                })
                .map(|t| (-y[t] * grad[t], t))
                .collect();
            ups.sort_by(|a, b| b.0.total_cmp(&a.0)); // descending violation
            lows.sort_by(|a, b| a.0.total_cmp(&b.0)); // ascending
            let mut ws: Vec<usize> = Vec::with_capacity(q);
            let mut in_ws = vec![false; m];
            for &(_, t) in ups.iter().take(q / 2).chain(lows.iter().take(q / 2)) {
                if !in_ws[t] {
                    in_ws[t] = true;
                    ws.push(t);
                }
            }
            if ws.len() < 2 {
                converged = true;
                break;
            }

            // --- bulk kernel rows of the working set (the GPU row batch) ---
            let ws_rows: Vec<Vec<T>> = ws
                .iter()
                .map(|&t| {
                    let mut buf = vec![T::ZERO; m];
                    rows.compute_row(t, &mut buf);
                    buf
                })
                .collect();
            rows_computed += ws.len();

            // --- local SMO on the working set ---
            // local gradient over ws, local kernel matrix from the rows
            let w = ws.len();
            let mut g_loc: Vec<f64> = ws.iter().map(|&t| grad[t]).collect();
            let a_old: Vec<f64> = ws.iter().map(|&t| alpha[t]).collect();
            let mut a_loc = a_old.clone();
            let k_loc = |u: usize, v: usize| ws_rows[u][ws[v]].to_f64();

            for _ in 0..inner_budget {
                // max violating pair within the set
                let mut lmax = f64::NEG_INFINITY;
                let mut li = usize::MAX;
                let mut lmin = f64::INFINITY;
                let mut lj = usize::MAX;
                for u in 0..w {
                    let t = ws[u];
                    let v = -y[t] * g_loc[u];
                    let in_up = if y[t] > 0.0 {
                        a_loc[u] < c
                    } else {
                        a_loc[u] > 0.0
                    };
                    let in_low = if y[t] > 0.0 {
                        a_loc[u] > 0.0
                    } else {
                        a_loc[u] < c
                    };
                    if in_up && v > lmax {
                        lmax = v;
                        li = u;
                    }
                    if in_low && v < lmin {
                        lmin = v;
                        lj = u;
                    }
                }
                if li == usize::MAX || lj == usize::MAX || lmax - lmin < eps {
                    break;
                }
                let (ti, tj) = (ws[li], ws[lj]);
                let k_ij = k_loc(li, lj);
                let (old_i, old_j) = (a_loc[li], a_loc[lj]);
                if y[ti] != y[tj] {
                    // QD[i]+QD[j]+2·Q_ij with Q_ij = yᵢyⱼK_ij = −K_ij here
                    let quad = (diag[ti] + diag[tj] - 2.0 * k_ij).max(TAU);
                    let delta = (-g_loc[li] - g_loc[lj]) / quad;
                    let diff = a_loc[li] - a_loc[lj];
                    a_loc[li] += delta;
                    a_loc[lj] += delta;
                    if diff > 0.0 {
                        if a_loc[lj] < 0.0 {
                            a_loc[lj] = 0.0;
                            a_loc[li] = diff;
                        }
                    } else if a_loc[li] < 0.0 {
                        a_loc[li] = 0.0;
                        a_loc[lj] = -diff;
                    }
                    if diff > 0.0 {
                        if a_loc[li] > c {
                            a_loc[li] = c;
                            a_loc[lj] = c - diff;
                        }
                    } else if a_loc[lj] > c {
                        a_loc[lj] = c;
                        a_loc[li] = c + diff;
                    }
                } else {
                    let quad = (diag[ti] + diag[tj] - 2.0 * k_ij).max(TAU);
                    let delta = (g_loc[li] - g_loc[lj]) / quad;
                    let sum = a_loc[li] + a_loc[lj];
                    a_loc[li] -= delta;
                    a_loc[lj] += delta;
                    if sum > c {
                        if a_loc[li] > c {
                            a_loc[li] = c;
                            a_loc[lj] = sum - c;
                        }
                    } else if a_loc[lj] < 0.0 {
                        a_loc[lj] = 0.0;
                        a_loc[li] = sum;
                    }
                    if sum > c {
                        if a_loc[lj] > c {
                            a_loc[lj] = c;
                            a_loc[li] = sum - c;
                        }
                    } else if a_loc[li] < 0.0 {
                        a_loc[li] = 0.0;
                        a_loc[lj] = sum;
                    }
                }
                // local gradient update within the working set
                let dai = a_loc[li] - old_i;
                let daj = a_loc[lj] - old_j;
                for u in 0..w {
                    let t = ws[u];
                    g_loc[u] += y[t] * (y[ti] * k_loc(li, u) * dai + y[tj] * k_loc(lj, u) * daj);
                }
                inner_total += 1;
            }

            // --- bulk global gradient update with the accumulated Δα ---
            let deltas: Vec<(usize, f64, usize)> = (0..w)
                .filter(|&u| (a_loc[u] - a_old[u]).abs() > 0.0)
                .map(|u| (ws[u], a_loc[u] - a_old[u], u))
                .collect();
            for &(t, _, u) in &deltas {
                alpha[t] = a_loc[u];
            }
            for (s, g) in grad.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &(t, da, u) in &deltas {
                    acc += y[t] * ws_rows[u][s].to_f64() * da;
                }
                *g += y[s] * acc;
            }
        }

        // rho, objective, model — identical to plain SMO
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut nr_free = 0usize;
        for t in 0..m {
            let yg = y[t] * grad[t];
            if alpha[t] >= c {
                if y[t] < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if alpha[t] <= 0.0 {
                if y[t] > 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else {
                nr_free += 1;
                sum_free += yg;
            }
        }
        let rho = if nr_free > 0 {
            sum_free / nr_free as f64
        } else {
            (ub + lb) / 2.0
        };

        let sv_indices: Vec<usize> = (0..m).filter(|&t| alpha[t] > 0.0).collect();
        if sv_indices.is_empty() {
            return Err(DataError::Invalid(
                "batched SMO produced no support vectors".into(),
            ));
        }
        let sv = data.x.select_rows(&sv_indices);
        let coef: Vec<T> = sv_indices
            .iter()
            .map(|&t| T::from_f64(alpha[t] * y[t]))
            .collect();
        let pos_sv = sv_indices.iter().filter(|&&t| y[t] > 0.0).count();
        let model = SvmModel {
            kernel: self.config.kernel,
            labels: data.label_map,
            rho: T::from_f64(rho),
            sv,
            coef,
            nr_sv: [pos_sv, sv_indices.len() - pos_sv],
            solver: None,
        };
        Ok(ThunderOutput {
            model,
            outer_iterations: outer,
            inner_iterations: inner_total,
            rows_computed,
            kernel_launches: outer * LAUNCHES_PER_OUTER,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{train_dense, SmoConfig};
    use plssvm_core::svm::accuracy;
    use plssvm_data::dense::DenseMatrix;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn planes(points: usize, seed: u64) -> LabeledData<f64> {
        generate_planes(
            &PlanesConfig::new(points, 6, seed)
                .with_cluster_sep(3.0)
                .with_flip_fraction(0.0),
        )
        .unwrap()
    }

    #[test]
    fn converges_on_separable_data() {
        let data = planes(120, 1);
        let solver = ThunderSolver::new(ThunderConfig {
            working_set_size: 16,
            ..Default::default()
        })
        .unwrap();
        let out = solver.train(&data).unwrap();
        assert!(out.converged);
        assert!(out.outer_iterations >= 1);
        let acc = accuracy(&out.model, &data);
        assert!(acc >= 0.97, "accuracy {acc}");
    }

    #[test]
    fn matches_plain_smo_objective() {
        let data = planes(70, 2);
        let smo = train_dense(&data, &SmoConfig::default()).unwrap();
        let thunder = ThunderSolver::new(ThunderConfig {
            working_set_size: 16,
            epsilon: 1e-5,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        // both solve the same convex dual → same rho up to tolerance
        assert!(
            (smo.model.rho - thunder.model.rho).abs() < 1e-2,
            "rho {} vs {}",
            smo.model.rho,
            thunder.model.rho
        );
        // predictions agree everywhere on the training set
        let a = plssvm_core::svm::predict(&smo.model, &data.x);
        let b = plssvm_core::svm::predict(&thunder.model, &data.x);
        let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(diff <= 1, "{diff} prediction differences");
    }

    #[test]
    fn launch_count_scales_with_outer_iterations() {
        let data = planes(100, 3);
        let out = ThunderSolver::new(ThunderConfig {
            working_set_size: 8,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        assert_eq!(
            out.kernel_launches,
            out.outer_iterations * LAUNCHES_PER_OUTER
        );
        assert!(out.rows_computed >= out.outer_iterations.min(1));
    }

    #[test]
    fn rbf_solves_xor() {
        let mut rows_v = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let (a, b) = (i as f64 / 4.0 - 1.0, j as f64 / 4.0 - 1.0);
                rows_v.push(vec![a, b]);
                y.push(if (a > 0.0) == (b > 0.0) { 1.0 } else { -1.0 });
            }
        }
        let data = LabeledData::new(DenseMatrix::from_rows(rows_v).unwrap(), y).unwrap();
        let out = ThunderSolver::new(ThunderConfig {
            kernel: KernelSpec::Rbf { gamma: 2.0 },
            cost: 10.0,
            working_set_size: 16,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        assert!(accuracy(&out.model, &data) >= 0.97);
    }

    #[test]
    fn dual_constraint_holds() {
        let data = planes(60, 4);
        let out = ThunderSolver::new(ThunderConfig {
            working_set_size: 10,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        let s: f64 = out.model.coef.iter().sum();
        assert!(s.abs() < 1e-8, "Σαy = {s}");
        for coef in &out.model.coef {
            assert!(coef.abs() <= 1.0 + 1e-9); // |α·y| ≤ C
        }
    }

    #[test]
    fn working_set_larger_than_data_is_clamped() {
        let data = planes(20, 5);
        let out = ThunderSolver::new(ThunderConfig {
            working_set_size: 512,
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        assert!(out.converged);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ThunderSolver::<f64>::new(ThunderConfig {
            working_set_size: 1,
            ..Default::default()
        })
        .is_err());
        assert!(ThunderSolver::<f64>::new(ThunderConfig {
            cost: 0.0,
            ..Default::default()
        })
        .is_err());
        let solver = ThunderSolver::<f64>::new(ThunderConfig::default()).unwrap();
        let x = DenseMatrix::from_rows(vec![vec![1.0f64], vec![2.0]]).unwrap();
        let single = LabeledData::new(x, vec![1.0, 1.0]).unwrap();
        assert!(solver.train(&single).is_err());
    }

    #[test]
    fn outer_cap_respected() {
        let data = generate_planes(&PlanesConfig::new(100, 6, 6).with_cluster_sep(0.2)).unwrap();
        let out = ThunderSolver::new(ThunderConfig {
            working_set_size: 4,
            epsilon: 1e-10,
            max_outer_iterations: Some(2),
            ..Default::default()
        })
        .unwrap()
        .train(&data)
        .unwrap();
        assert_eq!(out.outer_iterations, 2);
        assert!(!out.converged);
    }
}
