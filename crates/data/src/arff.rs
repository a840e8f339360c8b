//! ARFF (Attribute-Relation File Format) reading and writing.
//!
//! Besides LIBSVM files, the real PLSSVM accepts Weka-style `.arff` input:
//! a header of `@RELATION` / `@ATTRIBUTE` declarations followed by
//! `@DATA`, with the **last attribute as the class**. Both dense rows
//! (`v₁,v₂,…,label`) and sparse rows (`{index value, …}` with 0-based
//! indices, missing entries zero) are supported, as are `%` comments —
//! matching the subset PLSSVM v1.0.1 parses.

use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::DataError;
use crate::libsvm::{text_capacity, FmtReal, LabeledData};
use crate::real::Real;

/// Parses ARFF content into a (binary) labeled data set. The last
/// attribute is the class; the first label encountered maps to `+1`
/// (order-of-appearance semantics, like the LIBSVM reader).
pub fn read_arff_str<T: Real>(content: &str) -> Result<LabeledData<T>, DataError> {
    let mut attributes = 0usize;
    let mut in_data = false;
    let mut rows: Vec<(i32, Vec<T>)> = Vec::new();

    for (lineno, raw) in content.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        if !in_data {
            let upper = line.to_ascii_uppercase();
            if upper.starts_with("@RELATION") {
                continue;
            }
            if upper.starts_with("@ATTRIBUTE") {
                attributes += 1;
                continue;
            }
            if upper.starts_with("@DATA") {
                if attributes < 2 {
                    return Err(DataError::parse(
                        lineno,
                        "ARFF needs at least one feature attribute plus the class attribute",
                    ));
                }
                in_data = true;
                continue;
            }
            return Err(DataError::parse(
                lineno,
                format!("unexpected ARFF header line '{line}'"),
            ));
        }

        let features = attributes - 1;
        if line.starts_with('{') {
            // sparse row: {index value, index value, ...}
            let inner = line
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .ok_or_else(|| DataError::parse(lineno, "unterminated sparse ARFF row"))?;
            let mut values = vec![T::ZERO; features];
            let mut label: Option<i32> = None;
            for entry in inner.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                let (idx_s, val_s) = entry.split_once(char::is_whitespace).ok_or_else(|| {
                    DataError::parse(lineno, format!("expected 'index value', got '{entry}'"))
                })?;
                let idx: usize = idx_s.trim().parse().map_err(|_| {
                    DataError::parse(lineno, format!("invalid sparse index '{idx_s}'"))
                })?;
                if idx == features {
                    label = Some(parse_label(val_s.trim(), lineno)?);
                } else if idx < features {
                    values[idx] = val_s.trim().parse().map_err(|_| {
                        DataError::parse(lineno, format!("invalid value '{val_s}'"))
                    })?;
                } else {
                    return Err(DataError::parse(
                        lineno,
                        format!("sparse index {idx} out of range for {attributes} attributes"),
                    ));
                }
            }
            // ARFF sparse rows may omit the class only if it is zero — for
            // a ±1 binary class that would be invalid, so require it
            let label = label.ok_or_else(|| {
                DataError::parse(lineno, "sparse ARFF row misses the class attribute")
            })?;
            rows.push((label, values));
        } else {
            let tokens: Vec<&str> = line.split(',').map(str::trim).collect();
            if tokens.len() != attributes {
                return Err(DataError::parse(
                    lineno,
                    format!(
                        "expected {attributes} comma-separated values, got {}",
                        tokens.len()
                    ),
                ));
            }
            let mut values = Vec::with_capacity(features);
            for tok in &tokens[..features] {
                values.push(
                    tok.parse()
                        .map_err(|_| DataError::parse(lineno, format!("invalid value '{tok}'")))?,
                );
            }
            let label = parse_label(tokens[features], lineno)?;
            rows.push((label, values));
        }
    }

    if !in_data {
        return Err(DataError::Invalid("ARFF file has no @DATA section".into()));
    }
    if rows.is_empty() {
        return Err(DataError::Invalid("ARFF file contains no data rows".into()));
    }

    // order-of-appearance ±1 mapping (same as the LIBSVM reader)
    let first = rows[0].0;
    let mut second: Option<i32> = None;
    for &(label, _) in &rows {
        if label != first {
            match second {
                None => second = Some(label),
                Some(s) if s == label => {}
                Some(s) => {
                    return Err(DataError::Invalid(format!(
                        "binary classification supports exactly two labels, found {first}, {s} and {label}"
                    )))
                }
            }
        }
    }
    let second = second.unwrap_or(if first == 1 { -1 } else { 1 });

    let features = attributes - 1;
    let mut x = DenseMatrix::zeros(rows.len(), features);
    let mut y = Vec::with_capacity(rows.len());
    for (p, (label, values)) in rows.into_iter().enumerate() {
        y.push(if label == first { T::ONE } else { -T::ONE });
        x.row_mut(p).copy_from_slice(&values);
    }
    LabeledData::with_label_map(x, y, [first, second])
}

fn parse_label(tok: &str, lineno: usize) -> Result<i32, DataError> {
    let v: f64 = tok
        .parse()
        .map_err(|_| DataError::parse(lineno, format!("invalid class label '{tok}'")))?;
    if !v.is_finite() || v.fract() != 0.0 {
        return Err(DataError::parse(
            lineno,
            format!("class labels must be integers, got '{tok}'"),
        ));
    }
    Ok(v as i32)
}

/// Reads an ARFF file from disk.
pub fn read_arff_file<T: Real>(path: impl AsRef<Path>) -> Result<LabeledData<T>, DataError> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
    read_arff_str(&content)
}

/// Serializes a data set in ARFF format (dense rows).
pub fn write_arff_string<T: Real>(data: &LabeledData<T>, relation: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(text_capacity(data.points(), data.features()));
    // Writing into a `String` cannot fail.
    let _ = write!(out, "@RELATION {relation}\n\n");
    for f in 0..data.features() {
        let _ = writeln!(out, "@ATTRIBUTE feature_{f} NUMERIC");
    }
    let _ = write!(
        out,
        "@ATTRIBUTE class {{{},{}}}\n\n@DATA\n",
        data.label_map[0], data.label_map[1]
    );
    for (p, row) in data.x.rows_iter().enumerate() {
        for &v in row {
            let _ = write!(out, "{},", FmtReal(v));
        }
        let _ = writeln!(out, "{}", data.original_label(data.y[p]));
    }
    out
}

/// Writes a data set to an ARFF file atomically and durably.
pub fn write_arff_file<T: Real>(
    path: impl AsRef<Path>,
    data: &LabeledData<T>,
    relation: &str,
) -> Result<(), DataError> {
    crate::io::write_atomic(path, write_arff_string(data, relation).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
% planes problem
@RELATION planes

@ATTRIBUTE x0 NUMERIC
@ATTRIBUTE x1 NUMERIC
@ATTRIBUTE class {-1,1}

@DATA
1.5,-2.0,1
0.0,3.25,-1
{0 2.5, 2 1}
{2 -1}
";

    #[test]
    fn parses_dense_and_sparse_rows() {
        let d: LabeledData<f64> = read_arff_str(SAMPLE).unwrap();
        assert_eq!(d.points(), 4);
        assert_eq!(d.features(), 2);
        assert_eq!(d.x.row(0), &[1.5, -2.0]);
        assert_eq!(d.x.row(2), &[2.5, 0.0]); // sparse, x1 omitted → 0
        assert_eq!(d.x.row(3), &[0.0, 0.0]);
        assert_eq!(d.y, vec![1.0, -1.0, 1.0, -1.0]);
        assert_eq!(d.label_map, [1, -1]);
    }

    #[test]
    fn case_insensitive_keywords_and_comments() {
        let content =
            "% c\n@relation r\n@attribute a numeric\n@attribute class {0,1}\n@data\n1.0,0\n2.0,1\n";
        let d: LabeledData<f64> = read_arff_str(content).unwrap();
        assert_eq!(d.points(), 2);
        assert_eq!(d.label_map, [0, 1]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let d: LabeledData<f64> = read_arff_str(SAMPLE).unwrap();
        let text = write_arff_string(&d, "roundtrip");
        let back: LabeledData<f64> = read_arff_str(&text).unwrap();
        assert_eq!(d.x, back.x);
        assert_eq!(d.y, back.y);
        assert_eq!(d.label_map, back.label_map);
    }

    #[test]
    fn file_roundtrip_and_libsvm_equivalence() {
        // the same data through ARFF and LIBSVM readers gives the same set
        let d: LabeledData<f64> = read_arff_str(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("plssvm_arff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("planes.arff");
        write_arff_file(&path, &d, "planes").unwrap();
        let back: LabeledData<f64> = read_arff_file(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).ok();

        let libsvm_text = crate::libsvm::write_libsvm_string(&d, true);
        let via_libsvm: LabeledData<f64> =
            crate::libsvm::read_libsvm_str(&libsvm_text, Some(d.features())).unwrap();
        assert_eq!(d.x, via_libsvm.x);
        assert_eq!(d.y, via_libsvm.y);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(read_arff_str::<f64>("").is_err());
        assert!(read_arff_str::<f64>("@DATA\n1,1\n").is_err()); // no attributes
        assert!(read_arff_str::<f64>("@ATTRIBUTE a NUMERIC\n@DATA\n1\n").is_err()); // 1 attr
        let hdr = "@ATTRIBUTE a NUMERIC\n@ATTRIBUTE c {0,1}\n@DATA\n";
        assert!(read_arff_str::<f64>(&format!("{hdr}1.0\n")).is_err()); // arity
        assert!(read_arff_str::<f64>(&format!("{hdr}x,1\n")).is_err()); // value
        assert!(read_arff_str::<f64>(&format!("{hdr}1.0,0.5\n")).is_err()); // frac label
        assert!(read_arff_str::<f64>(&format!("{hdr}{{0 1.0\n")).is_err()); // unterminated
        assert!(read_arff_str::<f64>(&format!("{hdr}{{5 1.0}}\n")).is_err()); // idx range
        assert!(read_arff_str::<f64>(&format!("{hdr}{{0 1.0}}\n")).is_err()); // no class
        assert!(read_arff_str::<f64>("bogus header\n").is_err());
        // three classes
        let three = format!("{hdr}1,0\n1,1\n1,2\n");
        assert!(read_arff_str::<f64>(&three).is_err());
    }

    #[test]
    fn trains_identically_to_libsvm_input() {
        use crate::synthetic::{generate_planes, PlanesConfig};
        let d = generate_planes::<f64>(&PlanesConfig::new(30, 4, 9)).unwrap();
        let arff = write_arff_string(&d, "t");
        let back: LabeledData<f64> = read_arff_str(&arff).unwrap();
        assert_eq!(d.x, back.x);
        // the ±1 mapping may flip (first label in the file ↦ +1); compare
        // in original label space
        for i in 0..d.points() {
            assert_eq!(d.original_label(d.y[i]), back.original_label(back.y[i]));
        }
    }
}
