//! LIBSVM-compatible model files.
//!
//! PLSSVM is a drop-in replacement for LIBSVM, so its model files use the
//! LIBSVM text layout: a header (`svm_type`, `kernel_type`, …, `rho`,
//! `label`, `nr_sv`) followed by an `SV` block with one
//! `coefficient index:value …` line per support vector. For an LS-SVM
//! *every* training point is a support vector.
//!
//! The decision function encoded by a model is LIBSVM's
//! `f(x) = Σ coefᵢ·k(svᵢ, x) − rho`, i.e. `rho = −b` in the paper's
//! notation (Eq. 10/15).

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::dense::DenseMatrix;
use crate::error::{DataError, MAX_FEATURE_INDEX};
use crate::io::write_atomic;
use crate::libsvm::{text_capacity, token_column, write_libsvm_line, FmtReal};
use crate::real::Real;

/// The kernel function selection with its hyperparameters (§II-E).
///
/// * linear: `⟨x, x'⟩`
/// * polynomial: `(γ·⟨x, x'⟩ + r)^degree`
/// * radial: `exp(−γ·‖x − x'‖²)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec<T> {
    /// The linear kernel `⟨x, x'⟩` (the only kernel with multi-GPU support
    /// in the paper).
    Linear,
    /// The polynomial kernel `(γ·⟨x, x'⟩ + r)^degree`.
    Polynomial {
        /// Exponent `d` (LIBSVM default 3).
        degree: i32,
        /// Scale `γ > 0` (LIBSVM default `1/num_features`).
        gamma: T,
        /// Offset `r` (LIBSVM `coef0`, default 0).
        coef0: T,
    },
    /// The radial basis function kernel `exp(−γ·‖x − x'‖²)`.
    Rbf {
        /// Width `γ > 0` (LIBSVM default `1/num_features`).
        gamma: T,
    },
    /// The sigmoid kernel `tanh(γ·⟨x, x'⟩ + r)` — LIBSVM/ThunderSVM
    /// parity extension (paper §IV-H). **Not a Mercer kernel** in general:
    /// the LS-SVM system may be indefinite, in which case CG stops early
    /// and reports non-convergence.
    Sigmoid {
        /// Scale `γ > 0`.
        gamma: T,
        /// Offset `r` (LIBSVM `coef0`).
        coef0: T,
    },
}

impl<T: Real> KernelSpec<T> {
    /// The LIBSVM `kernel_type` keyword.
    pub fn name(&self) -> &'static str {
        match self {
            KernelSpec::Linear => "linear",
            KernelSpec::Polynomial { .. } => "polynomial",
            KernelSpec::Rbf { .. } => "rbf",
            KernelSpec::Sigmoid { .. } => "sigmoid",
        }
    }

    /// Validates hyperparameters (γ must be positive where it is used).
    pub fn validate(&self) -> Result<(), DataError> {
        match *self {
            KernelSpec::Linear => Ok(()),
            KernelSpec::Polynomial { degree, gamma, .. } => {
                if gamma.to_f64() <= 0.0 {
                    Err(DataError::Invalid(
                        "polynomial kernel needs gamma > 0".into(),
                    ))
                } else if degree < 1 {
                    Err(DataError::Invalid(
                        "polynomial kernel needs degree >= 1".into(),
                    ))
                } else {
                    Ok(())
                }
            }
            KernelSpec::Rbf { gamma } => {
                if gamma.to_f64() <= 0.0 {
                    Err(DataError::Invalid("rbf kernel needs gamma > 0".into()))
                } else {
                    Ok(())
                }
            }
            KernelSpec::Sigmoid { gamma, .. } => {
                if gamma.to_f64() <= 0.0 {
                    Err(DataError::Invalid("sigmoid kernel needs gamma > 0".into()))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A trained binary SVM model in LIBSVM's representation.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel<T> {
    /// Kernel function and hyperparameters.
    pub kernel: KernelSpec<T>,
    /// Original class labels; `labels[0]` is the `+1` class.
    pub labels: [i32; 2],
    /// `rho = −b`: the negated bias of the decision function.
    pub rho: T,
    /// Support vectors, one row each.
    pub sv: DenseMatrix<T>,
    /// Per-support-vector coefficient (`αᵢ` for the LS-SVM, `yᵢαᵢ` for SMO).
    pub coef: Vec<T>,
    /// Number of support vectors per class (`labels` order).
    pub nr_sv: [usize; 2],
    /// Solver provenance (a PLSSVM extension header key, e.g.
    /// `lowrank rank=64 seed=42 strategy=uniform`): written only when the
    /// model came from a non-default solver, so exactly-solved models stay
    /// byte-compatible with LIBSVM.
    pub solver: Option<String>,
}

impl<T: Real> SvmModel<T> {
    /// Sanity checks the internal consistency of the model.
    pub fn validate(&self) -> Result<(), DataError> {
        self.kernel.validate()?;
        if self.coef.len() != self.sv.rows() {
            return Err(DataError::Invalid(format!(
                "{} coefficients for {} support vectors",
                self.coef.len(),
                self.sv.rows()
            )));
        }
        if self.nr_sv[0].checked_add(self.nr_sv[1]) != Some(self.sv.rows()) {
            return Err(DataError::Invalid("nr_sv does not sum to total_sv".into()));
        }
        Ok(())
    }

    /// Number of support vectors.
    pub fn total_sv(&self) -> usize {
        self.sv.rows()
    }

    /// Number of features per support vector.
    pub fn features(&self) -> usize {
        self.sv.cols()
    }

    /// The bias `b` of the paper's decision function (Eq. 10).
    pub fn bias(&self) -> T {
        -self.rho
    }

    /// Maps a decision value to the original class label.
    pub fn decide(&self, decision_value: T) -> i32 {
        if decision_value.to_f64() >= 0.0 {
            self.labels[0]
        } else {
            self.labels[1]
        }
    }

    /// Serializes the model into the LIBSVM text format.
    pub fn to_model_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(text_capacity(self.sv.rows(), self.sv.cols()));
        // Writing into a `String` cannot fail.
        out.push_str("svm_type c_svc\n");
        write_kernel_header(&mut out, &self.kernel);
        out.push_str("nr_class 2\n");
        let _ = writeln!(out, "total_sv {}", self.total_sv());
        let _ = writeln!(out, "rho {}", FmtReal(self.rho));
        let _ = writeln!(out, "label {} {}", self.labels[0], self.labels[1]);
        let _ = writeln!(out, "nr_sv {} {}", self.nr_sv[0], self.nr_sv[1]);
        write_sv_block(&mut out, self.solver.as_deref(), &self.coef, &self.sv);
        out
    }

    /// Writes the model to a file (the paper's training step 4).
    ///
    /// The write is atomic and durable (temp file + fsync + rename +
    /// parent-directory fsync): a crash mid-save leaves either the old
    /// model or the complete new one, never a truncated file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        write_atomic(path, self.to_model_string().as_bytes())
    }

    /// [`SvmModel::save`] through an explicit [`Vfs`](crate::vfs::Vfs).
    pub fn save_with(&self, vfs: &dyn crate::vfs::Vfs, path: &Path) -> Result<(), DataError> {
        crate::io::write_atomic_with(vfs, path, self.to_model_string().as_bytes())
    }

    /// Parses a model from its LIBSVM text representation.
    pub fn from_model_string(content: &str) -> Result<Self, DataError> {
        parse_model(content.lines().map(|l| Ok(l.to_owned())))
    }

    /// Loads a model from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DataError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| DataError::io_path(path, e))?;
        parse_model(BufReader::new(file).lines()).map_err(|e| e.with_path(path))
    }
}

/// Writes the `kernel_type` line and the kernel's hyperparameter lines.
fn write_kernel_header<T: Real>(out: &mut String, kernel: &KernelSpec<T>) {
    use std::fmt::Write;
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "kernel_type {}", kernel.name());
    match *kernel {
        KernelSpec::Linear => {}
        KernelSpec::Polynomial {
            degree,
            gamma,
            coef0,
        } => {
            let _ = writeln!(out, "degree {degree}");
            let _ = writeln!(out, "gamma {}", FmtReal(gamma));
            let _ = writeln!(out, "coef0 {}", FmtReal(coef0));
        }
        KernelSpec::Rbf { gamma } => {
            let _ = writeln!(out, "gamma {}", FmtReal(gamma));
        }
        KernelSpec::Sigmoid { gamma, coef0 } => {
            let _ = writeln!(out, "gamma {}", FmtReal(gamma));
            let _ = writeln!(out, "coef0 {}", FmtReal(coef0));
        }
    }
}

/// Writes the optional `solver` line, then `SV` and one
/// `coefficient index:value …` line per support vector (zeros omitted).
fn write_sv_block<T: Real>(
    out: &mut String,
    solver: Option<&str>,
    coef: &[T],
    sv: &DenseMatrix<T>,
) {
    if let Some(solver) = solver {
        out.push_str("solver ");
        out.push_str(solver);
        out.push('\n');
    }
    out.push_str("SV\n");
    for (i, row) in sv.rows_iter().enumerate() {
        write_libsvm_line(out, FmtReal(coef[i]), row, true);
    }
}

fn parse_model<T: Real>(
    lines: impl Iterator<Item = std::io::Result<String>>,
) -> Result<SvmModel<T>, DataError> {
    let mut kernel_type: Option<String> = None;
    let mut degree: i32 = 3;
    let mut gamma: Option<T> = None;
    let mut coef0: T = T::ZERO;
    let mut rho: Option<T> = None;
    let mut labels: Option<[i32; 2]> = None;
    let mut nr_sv: Option<[usize; 2]> = None;
    let mut total_sv: Option<usize> = None;
    let mut solver: Option<String> = None;
    let mut in_sv = false;

    let mut sv_rows: Vec<Vec<(usize, T)>> = Vec::new();
    let mut coef: Vec<T> = Vec::new();
    let mut max_index = 0usize;

    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !in_sv {
            let (key, rest) = match line.split_once(' ') {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match key {
                "svm_type" => {
                    if rest != "c_svc" {
                        return Err(DataError::parse(
                            lineno,
                            format!("unsupported svm_type '{rest}' (only c_svc)"),
                        ));
                    }
                }
                "kernel_type" => kernel_type = Some(rest.to_owned()),
                "degree" => {
                    degree = rest
                        .parse()
                        .map_err(|_| DataError::parse(lineno, "invalid degree"))?
                }
                "gamma" => {
                    gamma = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid gamma"))?,
                    )
                }
                "coef0" => {
                    coef0 = rest
                        .parse()
                        .map_err(|_| DataError::parse(lineno, "invalid coef0"))?
                }
                "nr_class" => {
                    let n: usize = rest
                        .parse()
                        .map_err(|_| DataError::parse(lineno, "invalid nr_class"))?;
                    if n != 2 {
                        return Err(DataError::parse(
                            lineno,
                            format!("only binary models supported, nr_class = {n}"),
                        ));
                    }
                }
                "total_sv" => {
                    total_sv = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid total_sv"))?,
                    )
                }
                "rho" => {
                    rho = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid rho"))?,
                    )
                }
                "label" => {
                    let parts: Vec<i32> = rest
                        .split_ascii_whitespace()
                        .map(|t| t.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| DataError::parse(lineno, "invalid label line"))?;
                    if parts.len() != 2 {
                        return Err(DataError::parse(lineno, "expected two labels"));
                    }
                    labels = Some([parts[0], parts[1]]);
                }
                "nr_sv" => {
                    let parts: Vec<usize> = rest
                        .split_ascii_whitespace()
                        .map(|t| t.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| DataError::parse(lineno, "invalid nr_sv line"))?;
                    if parts.len() != 2 {
                        return Err(DataError::parse(lineno, "expected two nr_sv counts"));
                    }
                    nr_sv = Some([parts[0], parts[1]]);
                }
                "solver" => solver = Some(rest.to_owned()),
                "SV" => in_sv = true,
                other => {
                    return Err(DataError::parse(
                        lineno,
                        format!("unknown model header key '{other}'"),
                    ))
                }
            }
        } else {
            let mut tokens = line.split_ascii_whitespace();
            let c: T = tokens
                .next()
                .ok_or_else(|| DataError::parse(lineno, "missing SV coefficient"))?
                .parse()
                .map_err(|_| DataError::parse(lineno, "invalid SV coefficient"))?;
            coef.push(c);
            let mut entries = Vec::new();
            for tok in tokens {
                let col = token_column(line, tok);
                let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| {
                    DataError::parse_at(lineno, col, format!("expected 'index:value', got '{tok}'"))
                })?;
                let idx: usize = idx_s
                    .parse()
                    .map_err(|_| DataError::parse_at(lineno, col, "invalid SV feature index"))?;
                if idx == 0 {
                    return Err(DataError::parse_at(
                        lineno,
                        col,
                        "SV feature indices are 1-based",
                    ));
                }
                if idx > MAX_FEATURE_INDEX {
                    return Err(DataError::parse_at(
                        lineno,
                        col,
                        format!(
                            "SV feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                        ),
                    ));
                }
                let val: T = val_s
                    .parse()
                    .map_err(|_| DataError::parse_at(lineno, col, "invalid SV feature value"))?;
                max_index = max_index.max(idx);
                entries.push((idx - 1, val));
            }
            sv_rows.push(entries);
        }
    }

    let kernel_type =
        kernel_type.ok_or_else(|| DataError::Invalid("model misses kernel_type".into()))?;
    let rho = rho.ok_or_else(|| DataError::Invalid("model misses rho".into()))?;
    let labels = labels.ok_or_else(|| DataError::Invalid("model misses label line".into()))?;
    let nr_sv = nr_sv.ok_or_else(|| DataError::Invalid("model misses nr_sv line".into()))?;
    let total = total_sv.ok_or_else(|| DataError::Invalid("model misses total_sv".into()))?;
    if sv_rows.len() != total {
        return Err(DataError::Invalid(format!(
            "total_sv says {total} support vectors but {} SV lines found",
            sv_rows.len()
        )));
    }
    if sv_rows.is_empty() {
        return Err(DataError::Invalid(
            "model contains no support vectors".into(),
        ));
    }

    let kernel = match kernel_type.as_str() {
        "linear" => KernelSpec::Linear,
        "polynomial" => KernelSpec::Polynomial {
            degree,
            gamma: gamma
                .ok_or_else(|| DataError::Invalid("polynomial model misses gamma".into()))?,
            coef0,
        },
        "rbf" => KernelSpec::Rbf {
            gamma: gamma.ok_or_else(|| DataError::Invalid("rbf model misses gamma".into()))?,
        },
        "sigmoid" => KernelSpec::Sigmoid {
            gamma: gamma.ok_or_else(|| DataError::Invalid("sigmoid model misses gamma".into()))?,
            coef0,
        },
        other => {
            return Err(DataError::Invalid(format!(
                "unsupported kernel_type '{other}'"
            )))
        }
    };

    let mut sv = DenseMatrix::zeros(sv_rows.len(), max_index.max(1));
    for (p, entries) in sv_rows.into_iter().enumerate() {
        let row = sv.row_mut(p);
        for (idx, val) in entries {
            row[idx] = val;
        }
    }

    let model = SvmModel {
        kernel,
        labels,
        rho,
        sv,
        coef,
        nr_sv,
        solver,
    };
    model.validate()?;
    Ok(model)
}

/// A trained LS-SVR (regression) model — the paper's §V "regression
/// tasks" extension.
///
/// Uses LIBSVM's `epsilon_svr` model layout: the header has no
/// `label`/`nr_sv` lines, and the decision function is the raw value
/// `f(x) = Σ coefᵢ·k(svᵢ, x) − rho` (no sign).
#[derive(Debug, Clone, PartialEq)]
pub struct SvrModel<T> {
    /// Kernel function and hyperparameters.
    pub kernel: KernelSpec<T>,
    /// `rho = −b`.
    pub rho: T,
    /// Support vectors (all training points for the LS-SVR).
    pub sv: DenseMatrix<T>,
    /// Per-support-vector coefficient `αᵢ`.
    pub coef: Vec<T>,
    /// Solver provenance; mirrors [`SvmModel::solver`].
    pub solver: Option<String>,
}

impl<T: Real> SvrModel<T> {
    /// Sanity checks the internal consistency of the model.
    pub fn validate(&self) -> Result<(), DataError> {
        self.kernel.validate()?;
        if self.coef.len() != self.sv.rows() {
            return Err(DataError::Invalid(format!(
                "{} coefficients for {} support vectors",
                self.coef.len(),
                self.sv.rows()
            )));
        }
        Ok(())
    }

    /// Number of support vectors.
    pub fn total_sv(&self) -> usize {
        self.sv.rows()
    }

    /// Number of features per support vector.
    pub fn features(&self) -> usize {
        self.sv.cols()
    }

    /// The bias `b` of the regression function.
    pub fn bias(&self) -> T {
        -self.rho
    }

    /// Serializes into LIBSVM's `epsilon_svr` text layout.
    pub fn to_model_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(text_capacity(self.sv.rows(), self.sv.cols()));
        // Writing into a `String` cannot fail.
        out.push_str("svm_type epsilon_svr\n");
        write_kernel_header(&mut out, &self.kernel);
        out.push_str("nr_class 2\n"); // LIBSVM writes 2 for SVR as well
        let _ = writeln!(out, "total_sv {}", self.total_sv());
        let _ = writeln!(out, "rho {}", FmtReal(self.rho));
        write_sv_block(&mut out, self.solver.as_deref(), &self.coef, &self.sv);
        out
    }

    /// Writes the model file atomically and durably (same guarantees as
    /// [`SvmModel::save`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        write_atomic(path, self.to_model_string().as_bytes())
    }

    /// [`SvrModel::save`] through an explicit [`Vfs`](crate::vfs::Vfs).
    pub fn save_with(&self, vfs: &dyn crate::vfs::Vfs, path: &Path) -> Result<(), DataError> {
        crate::io::write_atomic_with(vfs, path, self.to_model_string().as_bytes())
    }

    /// Parses an `epsilon_svr` model from its text form.
    pub fn from_model_string(content: &str) -> Result<Self, DataError> {
        parse_svr_model(content)
    }

    /// Loads a model from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DataError> {
        let path = path.as_ref();
        let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
        parse_svr_model(&content)
    }
}

/// Reads the `svm_type` header of a model file without fully parsing it —
/// lets `svm-predict` dispatch between classification and regression.
pub fn peek_svm_type(content: &str) -> Option<&str> {
    for line in content.lines() {
        if let Some(rest) = line.trim().strip_prefix("svm_type ") {
            return Some(rest.trim());
        }
    }
    None
}

fn parse_svr_model<T: Real>(content: &str) -> Result<SvrModel<T>, DataError> {
    let mut kernel_type: Option<String> = None;
    let mut degree: i32 = 3;
    let mut gamma: Option<T> = None;
    let mut coef0: T = T::ZERO;
    let mut rho: Option<T> = None;
    let mut total_sv: Option<usize> = None;
    let mut solver: Option<String> = None;
    let mut in_sv = false;
    let mut sv_rows: Vec<Vec<(usize, T)>> = Vec::new();
    let mut coef: Vec<T> = Vec::new();
    let mut max_index = 0usize;

    for (lineno, line) in content.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !in_sv {
            let (key, rest) = match line.split_once(' ') {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match key {
                "svm_type" => {
                    if rest != "epsilon_svr" {
                        return Err(DataError::parse(
                            lineno,
                            format!("expected epsilon_svr, got '{rest}'"),
                        ));
                    }
                }
                "kernel_type" => kernel_type = Some(rest.to_owned()),
                "degree" => {
                    degree = rest
                        .parse()
                        .map_err(|_| DataError::parse(lineno, "invalid degree"))?
                }
                "gamma" => {
                    gamma = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid gamma"))?,
                    )
                }
                "coef0" => {
                    coef0 = rest
                        .parse()
                        .map_err(|_| DataError::parse(lineno, "invalid coef0"))?
                }
                "nr_class" => {}
                "total_sv" => {
                    total_sv = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid total_sv"))?,
                    )
                }
                "rho" => {
                    rho = Some(
                        rest.parse()
                            .map_err(|_| DataError::parse(lineno, "invalid rho"))?,
                    )
                }
                "solver" => solver = Some(rest.to_owned()),
                "SV" => in_sv = true,
                other => {
                    return Err(DataError::parse(
                        lineno,
                        format!("unknown svr model header key '{other}'"),
                    ))
                }
            }
        } else {
            let mut tokens = line.split_ascii_whitespace();
            let c: T = tokens
                .next()
                .ok_or_else(|| DataError::parse(lineno, "missing SV coefficient"))?
                .parse()
                .map_err(|_| DataError::parse(lineno, "invalid SV coefficient"))?;
            coef.push(c);
            let mut entries = Vec::new();
            for tok in tokens {
                let col = token_column(line, tok);
                let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| {
                    DataError::parse_at(lineno, col, format!("expected 'index:value', got '{tok}'"))
                })?;
                let idx: usize = idx_s
                    .parse()
                    .map_err(|_| DataError::parse_at(lineno, col, "invalid SV feature index"))?;
                if idx == 0 {
                    return Err(DataError::parse_at(
                        lineno,
                        col,
                        "SV feature indices are 1-based",
                    ));
                }
                if idx > MAX_FEATURE_INDEX {
                    return Err(DataError::parse_at(
                        lineno,
                        col,
                        format!(
                            "SV feature index {idx} exceeds the supported maximum {MAX_FEATURE_INDEX}"
                        ),
                    ));
                }
                let val: T = val_s
                    .parse()
                    .map_err(|_| DataError::parse_at(lineno, col, "invalid SV feature value"))?;
                max_index = max_index.max(idx);
                entries.push((idx - 1, val));
            }
            sv_rows.push(entries);
        }
    }

    let kernel_type =
        kernel_type.ok_or_else(|| DataError::Invalid("model misses kernel_type".into()))?;
    let rho = rho.ok_or_else(|| DataError::Invalid("model misses rho".into()))?;
    let total = total_sv.ok_or_else(|| DataError::Invalid("model misses total_sv".into()))?;
    if sv_rows.len() != total {
        return Err(DataError::Invalid(format!(
            "total_sv says {total} support vectors but {} SV lines found",
            sv_rows.len()
        )));
    }
    if sv_rows.is_empty() {
        return Err(DataError::Invalid(
            "model contains no support vectors".into(),
        ));
    }
    let kernel = match kernel_type.as_str() {
        "linear" => KernelSpec::Linear,
        "polynomial" => KernelSpec::Polynomial {
            degree,
            gamma: gamma
                .ok_or_else(|| DataError::Invalid("polynomial model misses gamma".into()))?,
            coef0,
        },
        "rbf" => KernelSpec::Rbf {
            gamma: gamma.ok_or_else(|| DataError::Invalid("rbf model misses gamma".into()))?,
        },
        "sigmoid" => KernelSpec::Sigmoid {
            gamma: gamma.ok_or_else(|| DataError::Invalid("sigmoid model misses gamma".into()))?,
            coef0,
        },
        other => {
            return Err(DataError::Invalid(format!(
                "unsupported kernel_type '{other}'"
            )))
        }
    };
    let mut sv = DenseMatrix::zeros(sv_rows.len(), max_index.max(1));
    for (p, entries) in sv_rows.into_iter().enumerate() {
        let row = sv.row_mut(p);
        for (idx, val) in entries {
            row[idx] = val;
        }
    }
    let model = SvrModel {
        kernel,
        rho,
        sv,
        coef,
        solver,
    };
    model.validate()?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> SvmModel<f64> {
        SvmModel {
            kernel: KernelSpec::Rbf { gamma: 0.25 },
            labels: [1, -1],
            rho: -0.5,
            sv: DenseMatrix::from_rows(vec![
                vec![1.0, 0.0, 3.5],
                vec![0.0, -2.0, 0.0],
                vec![0.25, 0.5, 0.75],
            ])
            .unwrap(),
            coef: vec![0.7, -1.1, 0.4],
            nr_sv: [2, 1],
            solver: None,
        }
    }

    #[test]
    fn roundtrip_rbf() {
        let m = sample_model();
        let s = m.to_model_string();
        let m2 = SvmModel::<f64>::from_model_string(&s).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn roundtrip_linear_and_polynomial() {
        let mut m = sample_model();
        m.kernel = KernelSpec::Linear;
        let m2 = SvmModel::<f64>::from_model_string(&m.to_model_string()).unwrap();
        assert_eq!(m, m2);

        m.kernel = KernelSpec::Polynomial {
            degree: 4,
            gamma: 0.5,
            coef0: 1.25,
        };
        let m2 = SvmModel::<f64>::from_model_string(&m.to_model_string()).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn roundtrip_sigmoid() {
        let mut m = sample_model();
        m.kernel = KernelSpec::Sigmoid {
            gamma: 0.125,
            coef0: -0.5,
        };
        let s = m.to_model_string();
        assert!(s.contains("kernel_type sigmoid"));
        let m2 = SvmModel::<f64>::from_model_string(&s).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn sigmoid_validation() {
        assert!(KernelSpec::Sigmoid {
            gamma: 0.5f64,
            coef0: -1.0
        }
        .validate()
        .is_ok());
        assert!(KernelSpec::Sigmoid {
            gamma: 0.0f64,
            coef0: 0.0
        }
        .validate()
        .is_err());
        assert_eq!(
            KernelSpec::Sigmoid {
                gamma: 1.0f64,
                coef0: 0.0
            }
            .name(),
            "sigmoid"
        );
    }

    #[test]
    fn file_roundtrip() {
        let m = sample_model();
        let dir = std::env::temp_dir().join("plssvm_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.libsvm");
        m.save(&path).unwrap();
        let m2 = SvmModel::<f64>::load(&path).unwrap();
        assert_eq!(m, m2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bias_is_negated_rho() {
        let m = sample_model();
        assert_eq!(m.bias(), 0.5);
    }

    #[test]
    fn decide_maps_sign_to_labels() {
        let m = sample_model();
        assert_eq!(m.decide(2.0), 1);
        assert_eq!(m.decide(0.0), 1);
        assert_eq!(m.decide(-0.1), -1);
    }

    #[test]
    fn header_errors() {
        assert!(SvmModel::<f64>::from_model_string("svm_type nu_svc\n").is_err());
        assert!(SvmModel::<f64>::from_model_string("nr_class 3\n").is_err());
        assert!(SvmModel::<f64>::from_model_string("bogus_key 1\n").is_err());
        // missing rho
        let s = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 1\nlabel 1 -1\nnr_sv 1 0\nSV\n1 1:1\n";
        assert!(SvmModel::<f64>::from_model_string(s).is_err());
    }

    #[test]
    fn sv_count_mismatch_detected() {
        let m = sample_model();
        let s = m.to_model_string().replace("total_sv 3", "total_sv 4");
        assert!(SvmModel::<f64>::from_model_string(&s).is_err());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut m = sample_model();
        m.coef.pop();
        assert!(m.validate().is_err());
        let mut m = sample_model();
        m.nr_sv = [1, 1];
        assert!(m.validate().is_err());
        let mut m = sample_model();
        m.kernel = KernelSpec::Rbf { gamma: -1.0 };
        assert!(m.validate().is_err());
        let mut m = sample_model();
        m.kernel = KernelSpec::Polynomial {
            degree: 0,
            gamma: 1.0,
            coef0: 0.0,
        };
        assert!(m.validate().is_err());
    }

    fn sample_svr() -> SvrModel<f64> {
        SvrModel {
            kernel: KernelSpec::Rbf { gamma: 0.5 },
            rho: 1.25,
            sv: DenseMatrix::from_rows(vec![vec![0.5, -1.0], vec![2.0, 0.0]]).unwrap(),
            coef: vec![0.3, -0.7],
            solver: None,
        }
    }

    #[test]
    fn svr_roundtrip() {
        let m = sample_svr();
        let s = m.to_model_string();
        assert!(s.contains("svm_type epsilon_svr"));
        assert!(!s.contains("label"));
        let m2 = SvrModel::<f64>::from_model_string(&s).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m.bias(), -1.25);
    }

    #[test]
    fn svr_file_roundtrip() {
        let m = sample_svr();
        let dir = std::env::temp_dir().join("plssvm_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svr.model");
        m.save(&path).unwrap();
        let m2 = SvrModel::<f64>::load(&path).unwrap();
        assert_eq!(m, m2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn svr_rejects_classification_models() {
        let cls = sample_model().to_model_string();
        assert!(SvrModel::<f64>::from_model_string(&cls).is_err());
        // and vice versa
        let svr = sample_svr().to_model_string();
        assert!(SvmModel::<f64>::from_model_string(&svr).is_err());
    }

    #[test]
    fn peek_svm_type_dispatch() {
        assert_eq!(
            peek_svm_type(&sample_model().to_model_string()),
            Some("c_svc")
        );
        assert_eq!(
            peek_svm_type(&sample_svr().to_model_string()),
            Some("epsilon_svr")
        );
        assert_eq!(peek_svm_type("no header here\n"), None);
    }

    #[test]
    fn svr_validate() {
        let mut m = sample_svr();
        m.coef.pop();
        assert!(m.validate().is_err());
    }

    #[test]
    fn parses_verbatim_libsvm_output() {
        // a model as LIBSVM 3.25's svm-train actually writes it:
        // scientific-notation coefficients, +1 labels, trailing spaces
        let golden = "\
svm_type c_svc
kernel_type rbf
gamma 0.25
nr_class 2
total_sv 3
rho -1.0460915e-01
label 1 -1
nr_sv 2 1
SV
1.0460915e+00 1:-7.1054273e-15 2:1 
6.3512454e-01 1:0.5 2:-0.25 
-1.6812161e+00 1:1 2:0.75 
";
        let m = SvmModel::<f64>::from_model_string(golden).unwrap();
        assert_eq!(m.total_sv(), 3);
        assert_eq!(m.labels, [1, -1]);
        assert!((m.rho + 0.10460915).abs() < 1e-12);
        assert!((m.coef[0] - 1.0460915).abs() < 1e-12);
        assert!((m.sv.get(0, 0) + 7.1054273e-15).abs() < 1e-25);
        assert_eq!(m.sv.get(2, 1), 0.75);
        assert!(matches!(m.kernel, KernelSpec::Rbf { gamma } if gamma == 0.25));
    }

    #[test]
    fn solver_provenance_roundtrips_and_defaults_absent() {
        // the default (exact) model writes no solver key at all
        let plain = sample_model().to_model_string();
        assert!(!plain.contains("solver"));

        let mut m = sample_model();
        m.solver = Some("lowrank rank=64 seed=42 strategy=uniform".into());
        let s = m.to_model_string();
        assert!(s.contains("solver lowrank rank=64 seed=42 strategy=uniform\n"));
        let m2 = SvmModel::<f64>::from_model_string(&s).unwrap();
        assert_eq!(m, m2);

        let mut r = sample_svr();
        r.solver = Some("lowrank rank=8 seed=1 strategy=leverage".into());
        let r2 = SvrModel::<f64>::from_model_string(&r.to_model_string()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(KernelSpec::<f64>::Linear.name(), "linear");
        assert_eq!(
            KernelSpec::Polynomial {
                degree: 3,
                gamma: 1.0f64,
                coef0: 0.0
            }
            .name(),
            "polynomial"
        );
        assert_eq!(KernelSpec::Rbf { gamma: 1.0f64 }.name(), "rbf");
    }
}
