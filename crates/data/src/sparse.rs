//! Compressed sparse row (CSR) storage.
//!
//! PLSSVM v1 treats all data as dense ("sparse data sets … are treated as
//! if they would represent dense data"), and its §V names "consider sparse
//! data structures for the CG solver" as a canonical next step. This
//! module provides the CSR substrate for both the sparse LIBSVM baseline
//! (`plssvm-smo`) and the sparse CPU backend extension of `plssvm-core`.

use crate::dense::DenseMatrix;
use crate::real::Real;

/// A CSR matrix: rows of `(column, value)` pairs with explicit zeros
/// dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Real> CsrMatrix<T> {
    /// Compresses a dense matrix, dropping explicit zeros.
    pub fn from_dense(x: &DenseMatrix<T>) -> Self {
        let mut row_ptr = Vec::with_capacity(x.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in x.rows_iter() {
            for (f, &v) in row.iter().enumerate() {
                if v.to_f64() != 0.0 {
                    col_idx.push(f as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            rows: x.rows(),
            cols: x.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows (data points).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density `nnz / (rows·cols)` in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The `(columns, values)` pair lists of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse·sparse dot product of two rows by index merge (LIBSVM's
    /// `dot`).
    pub fn sparse_dot(&self, i: usize, j: usize) -> T {
        let (ia, va) = self.row(i);
        let (ib, vb) = self.row(j);
        let mut acc = T::ZERO;
        let (mut p, mut q) = (0usize, 0usize);
        while p < ia.len() && q < ib.len() {
            match ia[p].cmp(&ib[q]) {
                std::cmp::Ordering::Equal => {
                    acc = va[p].mul_add(vb[q], acc);
                    p += 1;
                    q += 1;
                }
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
            }
        }
        acc
    }

    /// Reconstructs the dense representation.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let row = out.row_mut(i);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
        }
        out
    }

    /// Memory footprint of the CSR arrays in bytes.
    pub fn byte_size(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(vec![
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![5.0, 6.0, 7.0, 8.0],
        ])
        .unwrap()
    }

    #[test]
    fn compression_drops_zeros() {
        let csr = CsrMatrix::from_dense(&sample());
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.nnz(), 8);
        assert_eq!(csr.density(), 0.5);
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        let (cols, _) = csr.row(2);
        assert!(cols.is_empty());
    }

    #[test]
    fn roundtrip_to_dense() {
        let d = sample();
        assert_eq!(CsrMatrix::from_dense(&d).to_dense(), d);
    }

    #[test]
    fn sparse_dot_matches_dense() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        for i in 0..4 {
            for j in 0..4 {
                let dense: f64 = (0..4).map(|f| d.get(i, f) * d.get(j, f)).sum();
                assert_eq!(csr.sparse_dot(i, j), dense, "dot({i},{j})");
            }
        }
    }

    #[test]
    fn empty_row_dots_to_zero() {
        let csr = CsrMatrix::from_dense(&sample());
        assert_eq!(csr.sparse_dot(2, 3), 0.0);
    }

    #[test]
    fn byte_size_scales_with_nnz() {
        let dense = sample();
        let csr = CsrMatrix::from_dense(&dense);
        let dense_bytes = dense.rows() * dense.cols() * 8;
        assert!(csr.byte_size() < dense_bytes + 5 * 8 + 8);
    }
}
