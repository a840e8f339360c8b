//! Multi-class data sets — the paper's §V "multi-class classifications"
//! extension.
//!
//! PLSSVM v1 supports only binary classification; LIBSVM handles
//! multi-class problems by one-vs-one decomposition over binary solvers.
//! This module provides the data side: reading LIBSVM files with more than
//! two labels and carving out the binary subproblems the decomposition
//! strategies need (`plssvm-core::multiclass` implements the solvers).

use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::{DataError, MAX_FEATURE_INDEX};
use crate::libsvm::{token_column, LabeledData};
use crate::real::Real;

/// A labeled data set with an arbitrary number of classes.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassData<T> {
    /// The feature matrix: one row per data point.
    pub x: DenseMatrix<T>,
    /// Original integer label of every point.
    pub labels: Vec<i32>,
    /// The distinct classes, sorted ascending.
    pub classes: Vec<i32>,
}

impl<T: Real> MultiClassData<T> {
    /// Builds a data set, collecting and sorting the distinct classes.
    pub fn new(x: DenseMatrix<T>, labels: Vec<i32>) -> Result<Self, DataError> {
        if x.rows() != labels.len() {
            return Err(DataError::Invalid(format!(
                "{} data points but {} labels",
                x.rows(),
                labels.len()
            )));
        }
        let mut classes: Vec<i32> = labels.clone();
        classes.sort_unstable();
        classes.dedup();
        if classes.is_empty() {
            return Err(DataError::Invalid("no data points".into()));
        }
        Ok(Self { x, labels, classes })
    }

    /// Number of data points.
    pub fn points(&self) -> usize {
        self.x.rows()
    }

    /// Number of features.
    pub fn features(&self) -> usize {
        self.x.cols()
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Points per class, in `classes` order.
    pub fn class_counts(&self) -> Vec<usize> {
        self.classes
            .iter()
            .map(|c| self.labels.iter().filter(|l| *l == c).count())
            .collect()
    }

    /// The binary one-vs-one subproblem of classes `a` (+1) vs `b` (−1):
    /// only points of those two classes, labels mapped to ±1 with
    /// `label_map = [a, b]`.
    pub fn pair_subset(&self, a: i32, b: i32) -> Result<LabeledData<T>, DataError> {
        if a == b {
            return Err(DataError::Invalid("pair classes must differ".into()));
        }
        let indices: Vec<usize> = (0..self.points())
            .filter(|&i| self.labels[i] == a || self.labels[i] == b)
            .collect();
        if indices.is_empty() {
            return Err(DataError::Invalid(format!(
                "no points with class {a} or {b}"
            )));
        }
        let y: Vec<T> = indices
            .iter()
            .map(|&i| if self.labels[i] == a { T::ONE } else { -T::ONE })
            .collect();
        LabeledData::with_label_map(self.x.select_rows(&indices), y, [a, b])
    }

    /// The binary one-vs-rest subproblem of class `c` (+1) vs all others
    /// (−1, marked with the sentinel `i32::MIN` in the label map).
    pub fn one_vs_rest(&self, c: i32) -> Result<LabeledData<T>, DataError> {
        if !self.classes.contains(&c) {
            return Err(DataError::Invalid(format!("class {c} not in data")));
        }
        let y: Vec<T> = self
            .labels
            .iter()
            .map(|&l| if l == c { T::ONE } else { -T::ONE })
            .collect();
        LabeledData::with_label_map(self.x.clone(), y, [c, i32::MIN])
    }

    /// Restricts the data to the binary case if exactly two classes are
    /// present (lets callers reuse the binary pipeline transparently).
    pub fn as_binary(&self) -> Option<Result<LabeledData<T>, DataError>> {
        if self.classes.len() == 2 {
            Some(self.pair_subset(self.classes[0], self.classes[1]))
        } else {
            None
        }
    }
}

/// A classification file parsed once: [`Classes::Binary`] when it holds at
/// most two labels, [`Classes::Multi`] otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Classes<T> {
    /// At most two labels: exactly what [`crate::libsvm::read_libsvm_file`]
    /// returns for the file (first label seen maps to +1).
    Binary(LabeledData<T>),
    /// More than two labels.
    Multi(MultiClassData<T>),
}

/// Parses a LIBSVM classification file once and keeps it binary or
/// multi-class by its label count. A file with more than two labels
/// parses as [`read_libsvm_multiclass_file`] does; any other file gives
/// the data, or the error, of [`crate::libsvm::read_libsvm_file`].
pub fn read_libsvm_classes_file<T: Real>(path: impl AsRef<Path>) -> Result<Classes<T>, DataError> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
    let (data, unordered) = parse_multiclass::<T>(&content, None)?;
    if data.num_classes() > 2 {
        return Ok(Classes::Multi(data));
    }
    if let Some(e) = unordered {
        return Err(e.with_path(path));
    }
    // order-of-appearance mapping, as the binary reader does: the first
    // label maps to +1; a one-class file maps -1 to the complement
    let first = data.labels[0];
    let second = data
        .labels
        .iter()
        .copied()
        .find(|&l| l != first)
        .unwrap_or(if first == 1 { -1 } else { 1 });
    let y = data
        .labels
        .iter()
        .map(|&l| if l == first { T::ONE } else { -T::ONE })
        .collect();
    Ok(Classes::Binary(LabeledData::with_label_map(
        data.x,
        y,
        [first, second],
    )?))
}

/// Parses LIBSVM content with any number of integer labels.
pub fn read_libsvm_multiclass_str<T: Real>(
    content: &str,
    num_features: Option<usize>,
) -> Result<MultiClassData<T>, DataError> {
    parse_multiclass(content, num_features).map(|(data, _)| data)
}

/// The multi-class parser. Alongside the data it returns the error the
/// binary reader raises at the first feature index that does not
/// increase strictly along its line; multi-class input tolerates those.
fn parse_multiclass<T: Real>(
    content: &str,
    num_features: Option<usize>,
) -> Result<(MultiClassData<T>, Option<DataError>), DataError> {
    let mut rows: Vec<(i32, Vec<(usize, T)>)> = Vec::new();
    let mut max_index = 0usize;
    let mut unordered = None;
    for (lineno, line) in content.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_ascii_whitespace();
        let label_tok = tokens
            .next()
            .ok_or_else(|| DataError::parse(lineno, "missing label"))?;
        let label: f64 = label_tok
            .parse()
            .map_err(|_| DataError::parse(lineno, format!("invalid label '{label_tok}'")))?;
        if !label.is_finite() || label.fract() != 0.0 || label.abs() > i32::MAX as f64 {
            return Err(DataError::parse(
                lineno,
                format!("classification labels must be integers, got '{label_tok}'"),
            ));
        }
        let mut entries = Vec::new();
        for tok in tokens {
            let col = token_column(line, tok);
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| {
                DataError::parse_at(lineno, col, format!("expected 'index:value', got '{tok}'"))
            })?;
            let idx: usize = idx_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid index '{idx_s}'"))
            })?;
            if idx == 0 {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    "feature indices are 1-based",
                ));
            }
            if idx > MAX_FEATURE_INDEX {
                return Err(DataError::parse_at(
                    lineno,
                    col,
                    format!(
                        "feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                    ),
                ));
            }
            let val: T = val_s.trim().parse().map_err(|_| {
                DataError::parse_at(lineno, col, format!("invalid value '{val_s}'"))
            })?;
            if unordered.is_none() && entries.last().is_some_and(|&(prev, _)| idx - 1 <= prev) {
                unordered = Some(DataError::parse_at(
                    lineno,
                    col,
                    format!("feature indices must be strictly increasing (index {idx})"),
                ));
            }
            max_index = max_index.max(idx);
            entries.push((idx - 1, val));
        }
        rows.push((label as i32, entries));
    }
    if rows.is_empty() {
        return Err(DataError::Invalid(
            "data file contains no data points".into(),
        ));
    }
    let features = match num_features {
        Some(n) if n >= max_index => n,
        Some(n) => {
            return Err(DataError::Invalid(format!(
                "requested {n} features but data contains index {max_index}"
            )))
        }
        None => max_index,
    };
    if features == 0 {
        return Err(DataError::Invalid(
            "data file contains no feature entries".into(),
        ));
    }
    let mut x = DenseMatrix::zeros(rows.len(), features);
    let mut labels = Vec::with_capacity(rows.len());
    for (p, (label, entries)) in rows.into_iter().enumerate() {
        labels.push(label);
        let row = x.row_mut(p);
        for (idx, val) in entries {
            row[idx] = val;
        }
    }
    Ok((MultiClassData::new(x, labels)?, unordered))
}

/// Reads a multi-class LIBSVM file from disk.
pub fn read_libsvm_multiclass_file<T: Real>(
    path: impl AsRef<Path>,
    num_features: Option<usize>,
) -> Result<MultiClassData<T>, DataError> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
    read_libsvm_multiclass_str(&content, num_features)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_reader_parses_once_as_the_binary_or_multiclass_reader_would() {
        let dir = std::env::temp_dir().join("plssvm_data_classes_reader");
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            ("binary", "-1 1:0.5 3:1e-3\n+1 2:2\n\n# note\n-1 1:7\n"),
            ("one_class", "2 1:0.25 2:1\n2 2:-3\n"),
            ("unordered", "1 1:1 3:2\n-1 3:1 2:5\n"),
            ("repeated", "1 2:1 2:2\n-1 1:1\n"),
            ("bad_value", "1 1:x\n-1 1:1\n"),
            ("empty", "\n"),
        ];
        for (name, content) in cases {
            let path = dir.join(format!("{name}.libsvm"));
            std::fs::write(&path, content).unwrap();
            let once = read_libsvm_classes_file::<f64>(&path);
            let binary = crate::libsvm::read_libsvm_file::<f64>(&path, None);
            match (once, binary) {
                (Ok(Classes::Binary(got)), Ok(want)) => assert_eq!(got, want, "{name}"),
                (Err(got), Err(want)) => {
                    // the multi-class parser reports the syntax errors
                    // first, as svm-train always has
                    let multi = read_libsvm_multiclass_file::<f64>(&path, None);
                    let want = multi.err().unwrap_or(want).to_string();
                    assert_eq!(got.to_string(), want, "{name}");
                }
                (got, want) => panic!("{name}: {got:?} vs {want:?}"),
            }
        }
        let path = dir.join("three.libsvm");
        std::fs::write(&path, "3 1:1\n1 2:1 1:2\n2 1:0.5\n").unwrap();
        match read_libsvm_classes_file::<f64>(&path).unwrap() {
            Classes::Multi(got) => {
                assert_eq!(got, read_libsvm_multiclass_file(&path, None).unwrap())
            }
            other => panic!("three labels read as {other:?}"),
        }
    }

    const SAMPLE: &str = "\
3 1:1 2:0.5
1 1:-1
2 2:2
3 1:0.5 2:0.5
1 2:-1
";

    #[test]
    fn parses_three_classes() {
        let d: MultiClassData<f64> = read_libsvm_multiclass_str(SAMPLE, None).unwrap();
        assert_eq!(d.points(), 5);
        assert_eq!(d.features(), 2);
        assert_eq!(d.classes, vec![1, 2, 3]);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.class_counts(), vec![2, 1, 2]);
        assert_eq!(d.labels, vec![3, 1, 2, 3, 1]);
    }

    #[test]
    fn pair_subset_maps_labels() {
        let d: MultiClassData<f64> = read_libsvm_multiclass_str(SAMPLE, None).unwrap();
        let pair = d.pair_subset(3, 1).unwrap();
        assert_eq!(pair.points(), 4);
        assert_eq!(pair.label_map, [3, 1]);
        assert_eq!(pair.y, vec![1.0, -1.0, 1.0, -1.0]);
        // rows preserved in order
        assert_eq!(pair.x.row(0), d.x.row(0));
        assert_eq!(pair.x.row(1), d.x.row(1));
        assert!(d.pair_subset(1, 1).is_err());
        assert!(d.pair_subset(7, 9).is_err());
    }

    #[test]
    fn one_vs_rest_covers_all_points() {
        let d: MultiClassData<f64> = read_libsvm_multiclass_str(SAMPLE, None).unwrap();
        let ovr = d.one_vs_rest(2).unwrap();
        assert_eq!(ovr.points(), 5);
        assert_eq!(ovr.y, vec![-1.0, -1.0, 1.0, -1.0, -1.0]);
        assert_eq!(ovr.label_map, [2, i32::MIN]);
        assert!(d.one_vs_rest(99).is_err());
    }

    #[test]
    fn binary_detection() {
        let d: MultiClassData<f64> =
            read_libsvm_multiclass_str("1 1:1\n-1 1:2\n1 1:3\n", None).unwrap();
        let bin = d.as_binary().unwrap().unwrap();
        assert_eq!(bin.label_map, [-1, 1]); // classes sorted ascending
        let d3: MultiClassData<f64> = read_libsvm_multiclass_str(SAMPLE, None).unwrap();
        assert!(d3.as_binary().is_none());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(read_libsvm_multiclass_str::<f64>("", None).is_err());
        assert!(read_libsvm_multiclass_str::<f64>("1.5 1:1\n", None).is_err());
        assert!(read_libsvm_multiclass_str::<f64>("1 0:1\n", None).is_err());
        assert!(read_libsvm_multiclass_str::<f64>("1 1:1 2:b\n", None).is_err());
        assert!(read_libsvm_multiclass_str::<f64>("1 4:1\n", Some(2)).is_err());
        let x = DenseMatrix::from_rows(vec![vec![1.0f64]]).unwrap();
        assert!(MultiClassData::new(x, vec![1, 2]).is_err());
    }

    #[test]
    fn single_class_is_allowed_at_data_level() {
        let d: MultiClassData<f64> = read_libsvm_multiclass_str("5 1:1\n5 1:2\n", None).unwrap();
        assert_eq!(d.num_classes(), 1);
        assert!(d.as_binary().is_none());
    }
}
