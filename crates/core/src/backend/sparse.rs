//! Sparse CPU backend — the paper's §V next step "to consider sparse data
//! structures for the CG solver".
//!
//! PLSSVM v1 densifies all input ("in the case of very sparse data sets
//! with many features, it is therefore better to use ThunderSVM"). This
//! backend removes that caveat: the training data is held in CSR form and
//! every kernel evaluation inside the implicit matvec runs on the sparse
//! rows (index-merge dot products / distances), so the per-entry cost is
//! `O(nnz_i + nnz_j)` instead of `O(d)`. Inner-product kernels use the
//! precomputed self-dots and the identity `‖a−b‖² = ⟨a,a⟩+⟨b,b⟩−2⟨a,b⟩`
//! for the RBF kernel, exactly like LIBSVM.
//!
//! Results are bit-compatible with the dense backends up to floating point
//! reassociation; on dense data the merge overhead makes it slower — see
//! the `ablation` figure for the crossover.

use rayon::prelude::*;

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::sparse::CsrMatrix;
use plssvm_data::Real;

use crate::error::SvmError;
use crate::matrix_free::QTildeParams;
use crate::par::with_grain;

/// Row-block granularity for the parallel row sweep.
const ROW_BLOCK: usize = 32;

/// The sparse (CSR) CPU backend.
pub struct SparseBackend<T> {
    csr: CsrMatrix<T>,
    kernel: KernelSpec<T>,
    params: QTildeParams<T>,
    self_dots: Vec<T>,
    pool: Option<rayon::ThreadPool>,
}

impl<T: Real> SparseBackend<T> {
    /// Compresses the data and prepares the backend.
    pub fn new(
        data: &DenseMatrix<T>,
        kernel: KernelSpec<T>,
        cost: T,
        threads: Option<usize>,
    ) -> Result<Self, SvmError> {
        let pool = match threads {
            None => None,
            Some(0) => return Err(SvmError::Solver("thread count must be at least 1".into())),
            Some(t) => Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .map_err(|e| SvmError::Solver(format!("thread pool: {e}")))?,
            ),
        };
        let csr = CsrMatrix::from_dense(data);
        let self_dots: Vec<T> = (0..csr.rows()).map(|i| csr.sparse_dot(i, i)).collect();
        let m = csr.rows();
        let last = m - 1;
        let eval = |i: usize, j: usize| kernel_sparse(&kernel, &csr, &self_dots, i, j);
        let params = QTildeParams {
            q: (0..last).map(|i| eval(i, last)).collect(),
            k_mm: eval(last, last),
            inv_c: T::ONE / cost,
            ridge_diag: None,
        };
        Ok(Self {
            csr,
            kernel,
            params,
            self_dots,
            pool,
        })
    }

    /// The shared `Q̃` parameters.
    pub fn params(&self) -> &QTildeParams<T> {
        &self.params
    }

    /// Density of the compressed training data.
    pub fn density(&self) -> f64 {
        self.csr.density()
    }

    /// `w = Σᵢ αᵢ·xᵢ` accumulated over the CSR rows (linear kernel).
    pub fn linear_w(&self, alpha: &[T]) -> Vec<T> {
        let mut w = vec![T::ZERO; self.csr.cols()];
        for (p, &a) in alpha.iter().enumerate() {
            let (cols, vals) = self.csr.row(p);
            for (&c, &v) in cols.iter().zip(vals) {
                w[c as usize] = a.mul_add(v, w[c as usize]);
            }
        }
        w
    }

    /// `out = K·v` over the first `m−1` points, parallel over row blocks
    /// that each own their output rows, all kernel evaluations on CSR rows.
    /// Runs on the calling thread below [`crate::par::PAR_GRAIN`], counting
    /// one multiply-add per stored entry of each merged row pair.
    pub fn kernel_matvec(&self, v: &[T], out: &mut [T]) {
        let n = self.params.dim();
        debug_assert_eq!(v.len(), n);
        debug_assert_eq!(out.len(), n);
        let nnz_per_row = self.csr.nnz().div_ceil(self.csr.rows()).max(1);
        let work = n as u128 * n as u128 * nnz_per_row as u128;
        let run = |out: &mut [T]| {
            with_grain(work, || {
                out.par_chunks_mut(ROW_BLOCK)
                    .enumerate()
                    .for_each(|(block, chunk)| {
                        let i0 = block * ROW_BLOCK;
                        for (di, slot) in chunk.iter_mut().enumerate() {
                            let i = i0 + di;
                            let mut acc = T::ZERO;
                            for (j, &vj) in v.iter().enumerate() {
                                acc = kernel_sparse(&self.kernel, &self.csr, &self.self_dots, i, j)
                                    .mul_add(vj, acc);
                            }
                            *slot = acc;
                        }
                    });
            })
        };
        match &self.pool {
            Some(pool) => pool.install(|| run(out)),
            None => run(out),
        }
    }
}

/// One kernel evaluation on CSR rows using precomputed self-dots.
#[inline]
fn kernel_sparse<T: Real>(
    kernel: &KernelSpec<T>,
    csr: &CsrMatrix<T>,
    self_dots: &[T],
    i: usize,
    j: usize,
) -> T {
    match *kernel {
        KernelSpec::Linear => csr.sparse_dot(i, j),
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => gamma.mul_add(csr.sparse_dot(i, j), coef0).powi(degree),
        KernelSpec::Rbf { gamma } => {
            let dist_sq =
                (self_dots[i] + self_dots[j] - T::TWO * csr.sparse_dot(i, j)).max(T::ZERO);
            (-gamma * dist_sq).exp()
        }
        KernelSpec::Sigmoid { gamma, coef0 } => gamma.mul_add(csr.sparse_dot(i, j), coef0).tanh(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::serial::SerialBackend;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn sparse_sample(points: usize) -> DenseMatrix<f64> {
        let mut x = generate_planes::<f64>(&PlanesConfig::new(points, 8, 21))
            .unwrap()
            .x;
        // zero out two thirds of the entries
        for p in 0..x.rows() {
            for f in 0..x.cols() {
                if (p + f) % 3 != 0 {
                    x.set(p, f, 0.0);
                }
            }
        }
        x
    }

    #[test]
    fn matches_serial_backend_on_all_kernels() {
        let data = sparse_sample(40);
        for kernel in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 2,
                gamma: 0.5,
                coef0: 1.0,
            },
            KernelSpec::Rbf { gamma: 0.4 },
            KernelSpec::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let dense = SerialBackend::new(data.clone(), kernel, 2.0);
            let sparse = SparseBackend::new(&data, kernel, 2.0, Some(2)).unwrap();
            let n = dense.params().dim();
            // q parameters agree
            for i in 0..n {
                assert!(
                    (dense.params().q[i] - sparse.params().q[i]).abs() < 1e-12,
                    "{kernel:?} q[{i}]"
                );
            }
            assert!((dense.params().k_mm - sparse.params().k_mm).abs() < 1e-12);
            // matvec agrees
            let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.23).sin()).collect();
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            dense.kernel_matvec(&v, &mut a);
            sparse.kernel_matvec(&v, &mut b);
            for i in 0..n {
                assert!((a[i] - b[i]).abs() < 1e-10, "{kernel:?} row {i}");
            }
        }
    }

    #[test]
    fn density_reported() {
        let data = sparse_sample(30);
        let b = SparseBackend::new(&data, KernelSpec::Linear, 1.0, None).unwrap();
        assert!(b.density() > 0.2 && b.density() < 0.5, "{}", b.density());
    }

    #[test]
    fn zero_threads_rejected() {
        let data = sparse_sample(10);
        assert!(SparseBackend::new(&data, KernelSpec::Linear, 1.0, Some(0)).is_err());
    }

    #[test]
    fn works_on_fully_dense_data() {
        let data = generate_planes::<f64>(&PlanesConfig::new(20, 4, 3))
            .unwrap()
            .x;
        let dense = SerialBackend::new(data.clone(), KernelSpec::Linear, 1.0);
        let sparse = SparseBackend::new(&data, KernelSpec::Linear, 1.0, None).unwrap();
        let n = dense.params().dim();
        let v = vec![1.0; n];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        dense.kernel_matvec(&v, &mut a);
        sparse.kernel_matvec(&v, &mut b);
        for i in 0..n {
            assert!((a[i] - b[i]).abs() < 1e-10);
        }
    }
}
