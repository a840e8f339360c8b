//! Dense matrix storage.
//!
//! Two layouts are provided, mirroring §III-A of the paper:
//!
//! * [`DenseMatrix`] — the row-major (point-major, array-of-structures)
//!   layout the data is initially parsed into. One row per data point.
//! * [`SoAMatrix`] — the column-major (feature-major, structure-of-arrays)
//!   layout the data is *transformed* into before it is uploaded to a
//!   device. Points are padded to a multiple of the device block size so
//!   that kernels never have to check boundary conditions (§III-C-1).

use crate::error::DataError;
use crate::real::Real;

/// A dense, row-major matrix: `rows` data points with `cols` features each.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> DenseMatrix<T> {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from per-point rows, validating that every row has
    /// the same number of features.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::Invalid("matrix needs at least one row".into()));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(DataError::Invalid(
                "matrix needs at least one column".into(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(DataError::Invalid(format!(
                    "row {i} has {} features, expected {cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of data points (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features (columns).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The features of data point `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of the features of data point `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access: data point `row`, feature `col`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Element mutation: data point `row`, feature `col`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: T) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = v;
    }

    /// Iterator over the rows (data points).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix containing only the selected rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// True if all entries are finite (no NaN / ±inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Distributes `total` items over chunks proportionally to `weights`
/// using the largest-remainder method (the allocation behind
/// [`SoAMatrix::split_features_weighted`]; public so that analytic work
/// models share the exact same split).
pub fn weighted_allocation(total: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one chunk");
    assert!(
        weights.iter().all(|w| *w > 0.0 && w.is_finite()),
        "weights must be positive and finite"
    );
    let sum: f64 = weights.iter().sum();
    let n = weights.len();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut remaining = total - counts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in order.iter().cycle().take(remaining) {
        counts[k] += 1;
        remaining -= 1;
        if remaining == 0 {
            break;
        }
    }
    counts
}

/// A dense, column-major (structure-of-arrays) matrix with point padding.
///
/// Entry `(point, feature)` lives at `feature * padded_points + point`. All
/// padded entries are zero, which is safe for every kernel function: padded
/// points contribute nothing to scalar products and are never read as output.
#[derive(Debug, Clone, PartialEq)]
pub struct SoAMatrix<T> {
    points: usize,
    features: usize,
    padded_points: usize,
    data: Vec<T>,
}

impl<T: Real> SoAMatrix<T> {
    /// Transforms a row-major matrix into the padded SoA layout.
    ///
    /// `pad_to` is the device block granularity; the number of points is
    /// rounded up to the next multiple of it (`pad_to == 1` disables
    /// padding). This is the paper's "transform" training step.
    pub fn from_dense(dense: &DenseMatrix<T>, pad_to: usize) -> Self {
        assert!(pad_to >= 1, "padding granularity must be at least 1");
        let points = dense.rows();
        let features = dense.cols();
        let padded_points = points.div_ceil(pad_to) * pad_to;
        let mut data = vec![T::ZERO; padded_points * features];
        for p in 0..points {
            let row = dense.row(p);
            for f in 0..features {
                data[f * padded_points + p] = row[f];
            }
        }
        Self {
            points,
            features,
            padded_points,
            data,
        }
    }

    /// Number of real (unpadded) data points.
    #[inline]
    pub fn points(&self) -> usize {
        self.points
    }

    /// Number of features per data point.
    #[inline]
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of points including padding.
    #[inline]
    pub fn padded_points(&self) -> usize {
        self.padded_points
    }

    /// The flat column-major buffer (length `padded_points * features`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Element access: data point `point`, feature `feature`.
    #[inline]
    pub fn get(&self, point: usize, feature: usize) -> T {
        debug_assert!(point < self.padded_points && feature < self.features);
        self.data[feature * self.padded_points + point]
    }

    /// The column (all points' values) of one feature, including padding.
    #[inline]
    pub fn feature_column(&self, feature: usize) -> &[T] {
        &self.data[feature * self.padded_points..(feature + 1) * self.padded_points]
    }

    /// Scalar product of the feature vectors of two points.
    pub fn dot(&self, a: usize, b: usize) -> T {
        let mut acc = T::ZERO;
        for f in 0..self.features {
            let base = f * self.padded_points;
            acc = self.data[base + a].mul_add(self.data[base + b], acc);
        }
        acc
    }

    /// Squared euclidean distance between the feature vectors of two points.
    pub fn dist_sq(&self, a: usize, b: usize) -> T {
        let mut acc = T::ZERO;
        for f in 0..self.features {
            let base = f * self.padded_points;
            let d = self.data[base + a] - self.data[base + b];
            acc = d.mul_add(d, acc);
        }
        acc
    }

    /// Splits the matrix feature-wise into `n` parts for multi-device
    /// execution (§III-C-5): part `k` receives a contiguous chunk of the
    /// feature dimensions, every part keeps all points.
    ///
    /// The chunks differ in size by at most one feature. Parts may be empty
    /// if `n > features`; callers should clamp `n` beforehand.
    pub fn split_features(&self, n: usize) -> Vec<SoAMatrix<T>> {
        assert!(n >= 1, "need at least one device");
        let base = self.features / n;
        let extra = self.features % n;
        let mut parts = Vec::with_capacity(n);
        let mut start = 0;
        for k in 0..n {
            let len = base + usize::from(k < extra);
            let data =
                self.data[start * self.padded_points..(start + len) * self.padded_points].to_vec();
            parts.push(SoAMatrix {
                points: self.points,
                features: len,
                padded_points: self.padded_points,
                data,
            });
            start += len;
        }
        parts
    }

    /// Splits the matrix feature-wise with *weighted* chunk sizes — the
    /// load-balancing variant of [`SoAMatrix::split_features`] for
    /// heterogeneous devices (the paper's §V long-term goal: "multi-node
    /// multi-GPU execution including load balancing on heterogeneous
    /// hardware"). Chunk `k` receives a share of the features proportional
    /// to `weights[k]`, allocated by the largest-remainder method so the
    /// total is exact.
    pub fn split_features_weighted(&self, weights: &[f64]) -> Vec<SoAMatrix<T>> {
        let counts = weighted_allocation(self.features, weights);
        let mut parts = Vec::with_capacity(weights.len());
        let mut start = 0;
        for &len in &counts {
            let data =
                self.data[start * self.padded_points..(start + len) * self.padded_points].to_vec();
            parts.push(SoAMatrix {
                points: self.points,
                features: len,
                padded_points: self.padded_points,
                data,
            });
            start += len;
        }
        parts
    }

    /// Reconstructs the row-major representation (drops padding).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.points, self.features);
        for p in 0..self.points {
            for f in 0..self.features {
                out.set(p, f, self.get(p, f));
            }
        }
        out
    }

    /// Memory footprint of the device buffer in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![10.0, 11.0, 12.0],
            vec![13.0, 14.0, 15.0],
        ])
        .unwrap()
    }

    #[test]
    fn dense_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        assert_eq!(m.rows_iter().count(), 5);
    }

    #[test]
    fn dense_set_and_mut_row() {
        let mut m = sample();
        m.set(0, 0, -1.0);
        assert_eq!(m.get(0, 0), -1.0);
        m.row_mut(4)[2] = 99.0;
        assert_eq!(m.get(4, 2), 99.0);
    }

    #[test]
    fn dense_rejects_ragged_rows() {
        let err = DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(err.to_string().contains("row 1"));
    }

    #[test]
    fn dense_rejects_empty() {
        assert!(DenseMatrix::<f64>::from_rows(vec![]).is_err());
        assert!(DenseMatrix::<f64>::from_rows(vec![vec![]]).is_err());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn dense_from_vec_checks_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0f64, 2.0, 3.0]);
    }

    #[test]
    fn dense_select_rows() {
        let m = sample();
        let s = m.select_rows(&[4, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[13.0, 14.0, 15.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_all_finite() {
        let mut m = sample();
        assert!(m.all_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn soa_roundtrip_without_padding() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 1);
        assert_eq!(s.points(), 5);
        assert_eq!(s.padded_points(), 5);
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn soa_padding_rounds_up() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 4);
        assert_eq!(s.padded_points(), 8);
        // padded entries are zero
        for f in 0..3 {
            for p in 5..8 {
                assert_eq!(s.get(p, f), 0.0);
            }
        }
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn soa_layout_is_column_major() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 1);
        // feature 0 column holds the first feature of every point
        assert_eq!(s.feature_column(0), &[1.0, 4.0, 7.0, 10.0, 13.0]);
        assert_eq!(s.feature_column(2), &[3.0, 6.0, 9.0, 12.0, 15.0]);
    }

    #[test]
    fn soa_dot_and_dist() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 4);
        // <row0, row1> = 1*4 + 2*5 + 3*6 = 32
        assert_eq!(s.dot(0, 1), 32.0);
        // ||row0 - row1||^2 = 9 + 9 + 9 = 27
        assert_eq!(s.dist_sq(0, 1), 27.0);
        // padded point dot anything = 0
        assert_eq!(s.dot(7, 1), 0.0);
    }

    #[test]
    fn soa_feature_split_concatenates_back() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 4);
        let parts = s.split_features(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].features(), 2);
        assert_eq!(parts[1].features(), 1);
        // dot product is additive over the feature split (linear kernel!)
        let total = s.dot(0, 1);
        let partial: f64 = parts.iter().map(|p| p.dot(0, 1)).sum();
        assert_eq!(total, partial);
    }

    #[test]
    fn soa_split_more_devices_than_features() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 1);
        let parts = s.split_features(5);
        assert_eq!(parts.len(), 5);
        let non_empty: usize = parts.iter().filter(|p| p.features() > 0).count();
        assert_eq!(non_empty, 3);
    }

    #[test]
    fn weighted_split_proportions_and_reassembly() {
        let m =
            DenseMatrix::from_rows(vec![(0..10).map(|f| f as f64).collect::<Vec<_>>(); 4]).unwrap();
        let s = SoAMatrix::from_dense(&m, 2);
        // weights 3:1 over 10 features → 7-8 vs 2-3 features
        let parts = s.split_features_weighted(&[3.0, 1.0]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].features() + parts[1].features(), 10);
        assert!(parts[0].features() >= 7, "{}", parts[0].features());
        // dot products still sum to the full dot
        let total = s.dot(0, 1);
        let partial: f64 = parts.iter().map(|p| p.dot(0, 1)).sum();
        assert!((total - partial).abs() < 1e-12);
        // equal weights reproduce the even split
        let even = s.split_features_weighted(&[1.0, 1.0]);
        let plain = s.split_features(2);
        assert_eq!(even[0].features(), plain[0].features());
    }

    #[test]
    fn weighted_split_exact_total_with_awkward_weights() {
        let m = DenseMatrix::from_rows(vec![(0..7).map(|f| f as f64).collect::<Vec<_>>()]).unwrap();
        let s = SoAMatrix::from_dense(&m, 1);
        let parts = s.split_features_weighted(&[0.3, 0.3, 0.4]);
        let total: usize = parts.iter().map(|p| p.features()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_split_rejects_bad_weights() {
        let m = DenseMatrix::from_rows(vec![vec![1.0f64, 2.0]]).unwrap();
        let s = SoAMatrix::from_dense(&m, 1);
        let _ = s.split_features_weighted(&[1.0, 0.0]);
    }

    #[test]
    fn soa_byte_size() {
        let m = sample();
        let s = SoAMatrix::from_dense(&m, 4);
        assert_eq!(s.byte_size(), 8 * 3 * 8);
        let s32 = SoAMatrix::from_dense(
            &DenseMatrix::<f32>::from_rows(vec![vec![1.0f32, 2.0]]).unwrap(),
            1,
        );
        assert_eq!(s32.byte_size(), 2 * 4);
    }
}
