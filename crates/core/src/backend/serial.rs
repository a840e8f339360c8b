//! Single-threaded reference backend.
//!
//! Computes the implicit kernel matrix–vector product exactly as written in
//! the paper's equations, exploiting symmetry (each off-diagonal entry is
//! evaluated once and used for both `out[i]` and `out[j]`). This is the
//! ground truth the parallel and device backends are tested against. The
//! inner loops run on the blocked panel micro-kernel of
//! [`crate::backend::cpu_blocked`] with the default [`CpuTilingConfig`], so
//! even the reference is register-tiled and auto-vectorizable — only the
//! sequential, single-buffer schedule distinguishes it from the "OpenMP"
//! backend.
//!
//! Like the paper's CPU path, this backend works on the untransformed
//! row-major layout — the SoA transform exists for GPU memory coalescing
//! and is applied only by the device backend (§III-A, §IV-E).

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::KernelSpec;
use plssvm_data::Real;

use crate::backend::cpu_blocked::{symmetric_group_matvec, CpuTilingConfig};
use crate::matrix_free::QTildeParams;
use crate::simd::Isa;

/// The serial CPU backend.
pub struct SerialBackend<T> {
    data: DenseMatrix<T>,
    kernel: KernelSpec<T>,
    params: QTildeParams<T>,
    tiling: CpuTilingConfig,
}

impl<T: Real> SerialBackend<T> {
    /// Prepares the backend: computes the cached `q⃗` and `k_mm`. The panel
    /// micro-kernel ISA tier is resolved once here ([`Isa::select`]) and
    /// pinned for the backend's lifetime.
    pub fn new(data: DenseMatrix<T>, kernel: KernelSpec<T>, cost: T) -> Self {
        let tiling = CpuTilingConfig::default().with_isa(Isa::select());
        let params = QTildeParams::compute_dense(&data, &kernel, cost, tiling.resolved_isa());
        Self {
            data,
            kernel,
            params,
            tiling,
        }
    }

    /// The shared `Q̃` parameters.
    pub fn params(&self) -> &QTildeParams<T> {
        &self.params
    }

    /// The training data.
    pub fn data(&self) -> &DenseMatrix<T> {
        &self.data
    }

    /// The ISA tier the panel micro-kernels dispatch to.
    pub fn isa(&self) -> Isa {
        self.tiling.resolved_isa()
    }

    /// `out = K·v` with `Kᵢⱼ = k(xᵢ,xⱼ)` over the first `m−1` points:
    /// the blocked symmetric schedule run sequentially as a single group,
    /// accumulating straight into `out`.
    pub fn kernel_matvec(&self, v: &[T], out: &mut [T]) {
        let n = self.params.dim();
        debug_assert_eq!(v.len(), n);
        debug_assert_eq!(out.len(), n);
        out.fill(T::ZERO);
        let cfg = self.tiling.effective_for(n);
        symmetric_group_matvec(
            cfg.resolved_isa(),
            &self.data,
            &self.kernel,
            &cfg,
            n,
            v,
            0,
            1,
            out,
        );
    }
}

#[cfg(test)]
// index loops in these tests mirror the paper's subscript notation
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::kernel::kernel_row;
    use plssvm_data::synthetic::{generate_planes, PlanesConfig};

    fn backend(kernel: KernelSpec<f64>) -> SerialBackend<f64> {
        let d = generate_planes(&PlanesConfig::new(17, 4, 5)).unwrap();
        SerialBackend::new(d.x, kernel, 1.0)
    }

    #[test]
    fn matches_naive_double_loop() {
        for kernel in [
            KernelSpec::Linear,
            KernelSpec::Polynomial {
                degree: 2,
                gamma: 0.5,
                coef0: 0.25,
            },
            KernelSpec::Rbf { gamma: 0.3 },
        ] {
            let b = backend(kernel);
            let n = b.params.dim();
            let v: Vec<f64> = (0..n).map(|i| (i as f64 - 7.0) / 3.0).collect();
            let mut fast = vec![0.0; n];
            b.kernel_matvec(&v, &mut fast);

            // naive O(n²) without symmetry
            let mut naive = vec![0.0; n];
            for i in 0..n {
                for j in 0..n {
                    naive[i] += kernel_row(&b.kernel, b.data.row(i), b.data.row(j)) * v[j];
                }
            }
            for i in 0..n {
                assert!((fast[i] - naive[i]).abs() < 1e-10, "{kernel:?} row {i}");
            }
        }
    }

    #[test]
    fn params_match_soa_computation() {
        let d = generate_planes::<f64>(&PlanesConfig::new(17, 4, 5)).unwrap();
        let soa = plssvm_data::dense::SoAMatrix::from_dense(&d.x, 8);
        for kernel in [KernelSpec::Linear, KernelSpec::Rbf { gamma: 0.7 }] {
            let dense = QTildeParams::compute_dense(&d.x, &kernel, 2.0, crate::simd::Isa::select());
            let via_soa = QTildeParams::compute(&soa, &kernel, 2.0);
            assert_eq!(dense.dim(), via_soa.dim());
            for i in 0..dense.dim() {
                assert!((dense.q[i] - via_soa.q[i]).abs() < 1e-12);
            }
            assert!((dense.k_mm - via_soa.k_mm).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_with_zero_vector_is_zero() {
        let b = backend(KernelSpec::Linear);
        let n = b.params.dim();
        let mut out = vec![1.0; n]; // must be overwritten
        b.kernel_matvec(&vec![0.0; n], &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_is_linear() {
        let b = backend(KernelSpec::Rbf { gamma: 0.8 });
        let n = b.params.dim();
        let v1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let v2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let combo: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let mut out1 = vec![0.0; n];
        let mut out2 = vec![0.0; n];
        let mut out_combo = vec![0.0; n];
        b.kernel_matvec(&v1, &mut out1);
        b.kernel_matvec(&v2, &mut out2);
        b.kernel_matvec(&combo, &mut out_combo);
        for i in 0..n {
            let expected = 2.0 * out1[i] - 0.5 * out2[i];
            assert!((out_combo[i] - expected).abs() < 1e-9);
        }
    }
}
