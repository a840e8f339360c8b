//! Multi-class classification — the paper's §V "multi-class
//! classifications" extension.
//!
//! Two standard decompositions over the binary LS-SVM (both go back to
//! Suykens & Vandewalle's multi-class LS-SVM paper, the paper's
//! reference \[27\]):
//!
//! * **one-vs-one** (LIBSVM's scheme): one binary model per unordered
//!   class pair, prediction by majority vote with the summed decision
//!   values as tie breaker — `k·(k−1)/2` small problems;
//! * **one-vs-rest**: one binary model per class against everything else,
//!   prediction by the largest decision value — `k` full-size problems.
//!
//! Every binary subproblem runs through the normal [`crate::svm::LsSvm`]
//! pipeline, so all backends (including the simulated multi-GPU split)
//! apply unchanged.

use std::path::Path;

use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::SvmModel;
use plssvm_data::multiclass::MultiClassData;
use plssvm_data::{DataError, Real};
use plssvm_simgpu::device::AtomicScalar;

use crate::cg::SolveOutcome;
use crate::error::SvmError;
use crate::svm::{predict_decision_values, LsSvm};

/// The decomposition strategy.
///
/// ```
/// use plssvm_core::prelude::*;
/// use plssvm_data::synthetic::{generate_blobs, BlobsConfig};
///
/// let data = generate_blobs::<f64>(&BlobsConfig::new(90, 4, 3, 5))?;
/// let model = train_multiclass(
///     &data,
///     &LsSvm::new().with_epsilon(1e-6),
///     MultiClassStrategy::OneVsOne,
/// )?;
/// assert_eq!(model.num_models(), 3); // 3 classes → 3 pairs
/// assert!(model.accuracy(&data) > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiClassStrategy {
    /// One binary model per class pair (LIBSVM's default).
    OneVsOne,
    /// One binary model per class against the rest.
    OneVsRest,
}

impl MultiClassStrategy {
    /// Keyword used in the model container file.
    pub fn name(&self) -> &'static str {
        match self {
            MultiClassStrategy::OneVsOne => "ovo",
            MultiClassStrategy::OneVsRest => "ovr",
        }
    }
}

/// A trained multi-class model: a set of binary LS-SVM models plus the
/// class inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassModel<T> {
    /// The distinct classes, sorted ascending.
    pub classes: Vec<i32>,
    /// The decomposition used.
    pub strategy: MultiClassStrategy,
    /// The binary models: for one-vs-one keyed `(a, b)` with `a < b`
    /// (positive class `a`); for one-vs-rest keyed `(c, i32::MIN)`.
    pub models: Vec<((i32, i32), SvmModel<T>)>,
}

impl<T: Real> MultiClassModel<T> {
    /// Number of binary models.
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Fallible [`MultiClassModel::predict`]: returns a structured
    /// [`SvmError::Solver`] instead of panicking when the query batch is
    /// empty, has zero-feature rows, or does not match the model's
    /// feature count — the contract the serving layer needs for
    /// untrusted requests.
    pub fn try_predict(&self, x: &DenseMatrix<T>) -> Result<Vec<i32>, SvmError> {
        let features = self
            .models
            .first()
            .map(|(_, m)| m.features())
            .ok_or_else(|| SvmError::Solver("multiclass model holds no binary models".into()))?;
        crate::svm::validate_query_batch(features, x)?;
        Ok(self.predict(x))
    }

    /// Predicts original class labels for every row of `x`.
    pub fn predict(&self, x: &DenseMatrix<T>) -> Vec<i32> {
        let k = self.classes.len();
        let class_index = |c: i32| self.classes.iter().position(|&x| x == c).unwrap();
        // decision values of every binary model over all points
        let decisions: Vec<Vec<T>> = self
            .models
            .iter()
            .map(|(_, m)| predict_decision_values(m, x))
            .collect();

        (0..x.rows())
            .map(|p| match self.strategy {
                MultiClassStrategy::OneVsOne => {
                    let mut votes = vec![0usize; k];
                    let mut score = vec![0.0f64; k];
                    for (((a, b), _), values) in self.models.iter().zip(&decisions) {
                        let v = values[p].to_f64();
                        let (ia, ib) = (class_index(*a), class_index(*b));
                        if v >= 0.0 {
                            votes[ia] += 1;
                        } else {
                            votes[ib] += 1;
                        }
                        score[ia] += v;
                        score[ib] -= v;
                    }
                    let best = (0..k)
                        .max_by(|&i, &j| {
                            votes[i].cmp(&votes[j]).then(score[i].total_cmp(&score[j]))
                        })
                        .unwrap();
                    self.classes[best]
                }
                MultiClassStrategy::OneVsRest => {
                    let best = self
                        .models
                        .iter()
                        .zip(&decisions)
                        .max_by(|(_, a), (_, b)| a[p].to_f64().total_cmp(&b[p].to_f64()))
                        .map(|(((c, _), _), _)| *c)
                        .unwrap();
                    best
                }
            })
            .collect()
    }

    /// Fraction of correctly classified points.
    pub fn accuracy(&self, data: &MultiClassData<T>) -> f64 {
        let predictions = self.predict(&data.x);
        let correct = predictions
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / data.points() as f64
    }

    /// Serializes the model container: a header naming the strategy and
    /// classes, then each binary model in the standard LIBSVM layout
    /// framed by `model a b` / `end_model` lines.
    pub fn to_container_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plssvm_multiclass {}\n", self.strategy.name()));
        out.push_str(&format!("nr_class {}\n", self.classes.len()));
        out.push_str("classes");
        for c in &self.classes {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
        for ((a, b), model) in &self.models {
            out.push_str(&format!("model {a} {b}\n"));
            out.push_str(&model.to_model_string());
            out.push_str("end_model\n");
        }
        out
    }

    /// Writes the container file atomically and durably (temp file +
    /// fsync + rename + parent-directory fsync): a crash mid-save can
    /// never leave a truncated container behind.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        plssvm_data::write_atomic(path, self.to_container_string().as_bytes())
    }

    /// [`MultiClassModel::save`] through an explicit
    /// [`Vfs`](plssvm_data::vfs::Vfs).
    pub fn save_with(&self, vfs: &dyn plssvm_data::vfs::Vfs, path: &Path) -> Result<(), DataError> {
        plssvm_data::write_atomic_with(vfs, path, self.to_container_string().as_bytes())
    }

    /// Parses a container produced by [`MultiClassModel::to_container_string`].
    pub fn from_container_string(content: &str) -> Result<Self, DataError> {
        let mut lines = content.lines().peekable();
        let header = lines
            .next()
            .ok_or_else(|| DataError::Invalid("empty container".into()))?;
        let strategy = match header.trim() {
            "plssvm_multiclass ovo" => MultiClassStrategy::OneVsOne,
            "plssvm_multiclass ovr" => MultiClassStrategy::OneVsRest,
            other => {
                return Err(DataError::Invalid(format!(
                    "not a multiclass container: '{other}'"
                )))
            }
        };
        let nr_class_line = lines
            .next()
            .ok_or_else(|| DataError::Invalid("missing nr_class".into()))?;
        let nr_class: usize = nr_class_line
            .strip_prefix("nr_class ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| DataError::Invalid("invalid nr_class line".into()))?;
        let classes_line = lines
            .next()
            .ok_or_else(|| DataError::Invalid("missing classes".into()))?;
        let classes: Vec<i32> = classes_line
            .strip_prefix("classes")
            .ok_or_else(|| DataError::Invalid("invalid classes line".into()))?
            .split_ascii_whitespace()
            .map(|t| t.parse())
            .collect::<Result<_, _>>()
            .map_err(|_| DataError::Invalid("invalid class label".into()))?;
        if classes.len() != nr_class {
            return Err(DataError::Invalid(format!(
                "nr_class {nr_class} but {} classes listed",
                classes.len()
            )));
        }

        let mut models = Vec::new();
        while let Some(line) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("model ")
                .ok_or_else(|| DataError::Invalid(format!("expected 'model a b', got '{line}'")))?;
            let mut it = rest.split_ascii_whitespace();
            let a: i32 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| DataError::Invalid("invalid model pair".into()))?;
            let b: i32 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| DataError::Invalid("invalid model pair".into()))?;
            let mut block = String::new();
            let mut closed = false;
            for inner in lines.by_ref() {
                if inner.trim() == "end_model" {
                    closed = true;
                    break;
                }
                block.push_str(inner);
                block.push('\n');
            }
            if !closed {
                return Err(DataError::Invalid("unterminated model block".into()));
            }
            models.push(((a, b), SvmModel::from_model_string(&block)?));
        }
        if models.is_empty() {
            return Err(DataError::Invalid("container holds no models".into()));
        }
        let expected = match strategy {
            MultiClassStrategy::OneVsOne => nr_class * (nr_class - 1) / 2,
            MultiClassStrategy::OneVsRest => nr_class,
        };
        if models.len() != expected {
            return Err(DataError::Invalid(format!(
                "expected {expected} binary models, found {}",
                models.len()
            )));
        }
        Ok(Self {
            classes,
            strategy,
            models,
        })
    }

    /// Loads a container file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DataError> {
        let path = path.as_ref();
        let content = std::fs::read_to_string(path).map_err(|e| DataError::io_path(path, e))?;
        Self::from_container_string(&content)
    }
}

/// A trained multi-class model plus the classified solve outcome and
/// relative residual of every binary subproblem — the multi-class analogue
/// of [`crate::svm::TrainOutput::outcome`] and
/// [`crate::svm::TrainOutput::relative_residual`].
#[derive(Debug)]
pub struct MultiClassTrainOutput<T> {
    /// The trained multi-class model.
    pub model: MultiClassModel<T>,
    /// Per-subproblem solve outcomes, final relative residuals and CG
    /// iterations (summed across the subproblem's escalation rungs),
    /// keyed like [`MultiClassModel::models`] (`(a, b)` pairs for
    /// one-vs-one, `(c, i32::MIN)` for one-vs-rest).
    pub outcomes: Vec<((i32, i32), SolveOutcome, f64, usize)>,
    /// True when any binary subproblem lost its durable checkpointing to
    /// persistent storage failures (see
    /// [`crate::svm::TrainOutput::io_degraded`]).
    pub io_degraded: bool,
}

impl<T> MultiClassTrainOutput<T> {
    /// The subproblems that did *not* converge, with their classified
    /// outcomes, relative residuals and iterations.
    pub fn non_converged(&self) -> Vec<((i32, i32), SolveOutcome, f64, usize)> {
        self.outcomes
            .iter()
            .filter(|(_, o, _, _)| !o.is_converged())
            .copied()
            .collect()
    }
}

/// Trains a multi-class LS-SVM by decomposing into binary subproblems,
/// each trained with `trainer`'s configuration (kernel, cost, ε, backend).
pub fn train_multiclass<T: AtomicScalar>(
    data: &MultiClassData<T>,
    trainer: &LsSvm<T>,
    strategy: MultiClassStrategy,
) -> Result<MultiClassModel<T>, SvmError> {
    train_multiclass_with_outcomes(data, trainer, strategy).map(|out| out.model)
}

/// Like [`train_multiclass`], additionally reporting the classified
/// [`SolveOutcome`] of every binary subproblem so callers can tell which
/// pairwise solves needed escalation or never converged.
pub fn train_multiclass_with_outcomes<T: AtomicScalar>(
    data: &MultiClassData<T>,
    trainer: &LsSvm<T>,
    strategy: MultiClassStrategy,
) -> Result<MultiClassTrainOutput<T>, SvmError> {
    if data.num_classes() < 2 {
        return Err(SvmError::Solver(
            "multi-class training needs at least two classes".into(),
        ));
    }
    // one binary subproblem per key, in container order: `(a, b)` pairs
    // for one-vs-one, `(c, i32::MIN)` for one-vs-rest
    let classes = &data.classes;
    let keys: Vec<(i32, i32)> = match strategy {
        MultiClassStrategy::OneVsOne => (0..classes.len())
            .flat_map(|i| (i + 1..classes.len()).map(move |j| (classes[i], classes[j])))
            .collect(),
        MultiClassStrategy::OneVsRest => classes.iter().map(|&c| (c, i32::MIN)).collect(),
    };
    let mut models = Vec::new();
    let mut outcomes = Vec::new();
    let mut io_degraded = false;
    for (task, &(a, b)) in keys.iter().enumerate() {
        let subset = match strategy {
            MultiClassStrategy::OneVsOne => data.pair_subset(a, b)?,
            MultiClassStrategy::OneVsRest => data.one_vs_rest(a)?,
        };
        // with a durable journal attached, each binary subproblem
        // checkpoints into its own `task-<k>/` sub-journal (independent
        // generation numbering), so a crash resumes exactly the
        // subproblem it interrupted
        let sub = match &trainer.checkpoint_journal {
            Some(journal) => Some(
                trainer
                    .clone()
                    .with_checkpoint_journal(journal.for_task(task)?),
            ),
            None => None,
        };
        let out = sub.as_ref().unwrap_or(trainer).train(&subset)?;
        outcomes.push(((a, b), out.outcome, out.relative_residual, out.iterations));
        io_degraded |= out.io_degraded;
        models.push(((a, b), out.model));
    }
    Ok(MultiClassTrainOutput {
        model: MultiClassModel {
            classes: data.classes.clone(),
            strategy,
            models,
        },
        outcomes,
        io_degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plssvm_data::model::KernelSpec;
    use plssvm_data::synthetic::{generate_blobs, BlobsConfig};
    use plssvm_simgpu::{hw, Backend as DeviceApi};

    use crate::backend::BackendSelection;

    fn blobs(classes: usize, seed: u64) -> MultiClassData<f64> {
        generate_blobs(&BlobsConfig::new(40 * classes, 6, classes, seed).with_separation(6.0))
            .unwrap()
    }

    fn trainer() -> LsSvm<f64> {
        LsSvm::new().with_epsilon(1e-8)
    }

    #[test]
    fn ovo_classifies_three_blobs() {
        let data = blobs(3, 1);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        assert_eq!(model.num_models(), 3); // 3 choose 2
        let acc = model.accuracy(&data);
        assert!(acc >= 0.97, "accuracy {acc}");
    }

    #[test]
    fn ovr_classifies_three_blobs() {
        let data = blobs(3, 2);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsRest).unwrap();
        assert_eq!(model.num_models(), 3);
        let acc = model.accuracy(&data);
        assert!(acc >= 0.97, "accuracy {acc}");
    }

    #[test]
    fn five_classes_ovo_model_count() {
        let data = blobs(5, 3);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        assert_eq!(model.num_models(), 10); // 5 choose 2
        assert!(model.accuracy(&data) >= 0.95);
    }

    #[test]
    fn strategies_agree_on_separable_data() {
        let data = blobs(4, 4);
        let ovo = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        let ovr = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsRest).unwrap();
        let a = ovo.predict(&data.x);
        let b = ovr.predict(&data.x);
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(
            agree as f64 / a.len() as f64 >= 0.95,
            "strategies agree on {agree}/{}",
            a.len()
        );
    }

    #[test]
    fn container_roundtrip() {
        let data = blobs(3, 5);
        for strategy in [MultiClassStrategy::OneVsOne, MultiClassStrategy::OneVsRest] {
            let model = train_multiclass(&data, &trainer(), strategy).unwrap();
            let text = model.to_container_string();
            let back = MultiClassModel::<f64>::from_container_string(&text).unwrap();
            assert_eq!(model, back);
            assert_eq!(model.predict(&data.x), back.predict(&data.x));
        }
    }

    #[test]
    fn container_file_roundtrip() {
        let data = blobs(3, 6);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        let dir = std::env::temp_dir().join("plssvm_multiclass_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blobs.model");
        model.save(&path).unwrap();
        let back = MultiClassModel::<f64>::load(&path).unwrap();
        assert_eq!(model, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_containers_rejected() {
        assert!(MultiClassModel::<f64>::from_container_string("").is_err());
        assert!(MultiClassModel::<f64>::from_container_string("svm_type c_svc\n").is_err());
        assert!(MultiClassModel::<f64>::from_container_string(
            "plssvm_multiclass ovo\nnr_class 3\nclasses 1 2\n"
        )
        .is_err());
        // unterminated model block
        let bad = "plssvm_multiclass ovo\nnr_class 2\nclasses 1 2\nmodel 1 2\nsvm_type c_svc\n";
        assert!(MultiClassModel::<f64>::from_container_string(bad).is_err());
        // wrong model count
        let data = blobs(3, 7);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        let text = model
            .to_container_string()
            .replace("nr_class 3", "nr_class 4");
        let text = text.replace("classes 1 2 3", "classes 1 2 3 4");
        assert!(MultiClassModel::<f64>::from_container_string(&text).is_err());
    }

    #[test]
    fn works_on_device_backend() {
        let data = blobs(3, 8);
        let t = trainer().with_backend(BackendSelection::sim_gpu(hw::A100, DeviceApi::Cuda));
        let model = train_multiclass(&data, &t, MultiClassStrategy::OneVsOne).unwrap();
        assert!(model.accuracy(&data) >= 0.97);
    }

    #[test]
    fn rbf_solves_nonlinear_multiclass() {
        // three concentric rings: only a nonlinear kernel separates them
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let angle = (i as f64) * 0.33;
            let class = i % 3;
            let radius = 1.0 + 2.0 * class as f64;
            rows.push(vec![radius * angle.cos(), radius * angle.sin()]);
            labels.push(class + 1);
        }
        let data = MultiClassData::new(DenseMatrix::from_rows(rows).unwrap(), labels).unwrap();
        let t = LsSvm::new()
            .with_kernel(KernelSpec::Rbf { gamma: 1.0 })
            .with_cost(100.0)
            .with_epsilon(1e-8);
        let model = train_multiclass(&data, &t, MultiClassStrategy::OneVsOne).unwrap();
        assert!(model.accuracy(&data) >= 0.97);
    }

    #[test]
    fn journaled_multiclass_uses_per_task_journals_and_resumes() {
        use plssvm_data::CheckpointJournal;
        let data = blobs(3, 9);
        let dir = std::env::temp_dir().join(format!("plssvm_mc_journal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let reference = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        let journaled_trainer = trainer()
            .with_checkpoint_interval(3)
            .with_checkpoint_journal(journal.clone());
        let journaled =
            train_multiclass(&data, &journaled_trainer, MultiClassStrategy::OneVsOne).unwrap();
        assert_eq!(reference, journaled, "journaling must not perturb training");
        // one sub-journal per class pair, each with its own generations
        for task in 0..3 {
            assert!(
                !journal.for_task(task).unwrap().is_empty().unwrap(),
                "task {task} wrote no generations"
            );
        }
        // resuming re-enters every subproblem at its newest snapshot and
        // lands on the bit-identical container
        let resumed_trainer = journaled_trainer.with_resume(true);
        let resumed =
            train_multiclass(&data, &resumed_trainer, MultiClassStrategy::OneVsOne).unwrap();
        assert_eq!(reference, resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_predict_rejects_degenerate_batches() {
        let data = blobs(3, 10);
        let model = train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).unwrap();
        let err = model
            .try_predict(&DenseMatrix::<f64>::zeros(0, 6))
            .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let err = model
            .try_predict(&DenseMatrix::<f64>::zeros(2, 0))
            .unwrap_err();
        assert!(err.to_string().contains("zero features"), "{err}");
        let err = model
            .try_predict(&DenseMatrix::<f64>::zeros(2, 9))
            .unwrap_err();
        assert!(err.to_string().contains("expects 6"), "{err}");
        assert_eq!(model.try_predict(&data.x).unwrap(), model.predict(&data.x));
    }

    #[test]
    fn single_class_rejected() {
        let x = DenseMatrix::from_rows(vec![vec![1.0f64], vec![2.0]]).unwrap();
        let data = MultiClassData::new(x, vec![1, 1]).unwrap();
        assert!(train_multiclass(&data, &trainer(), MultiClassStrategy::OneVsOne).is_err());
    }
}
