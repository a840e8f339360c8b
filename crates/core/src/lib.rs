//! PLSSVM core — the Parallel Least Squares Support Vector Machine.
//!
//! Training an LS-SVM reduces to solving one symmetric positive definite
//! system of linear equations (§II-F of the paper):
//!
//! ```text
//! Q̃ · α̃ = ȳ − y_m·1,        Q̃ᵢⱼ = k(xᵢ,xⱼ) + δᵢⱼ/C − k(x_m,xⱼ) − k(xᵢ,x_m) + k(x_m,x_m) + 1/C
//! ```
//!
//! solved with Conjugate Gradients where `Q̃` is never materialized — every
//! entry is recomputed from the kernel function on each use (§III-B). The
//! expensive implicit matrix–vector product runs on an interchangeable
//! [`backend`]: a serial reference CPU implementation, a multi-threaded
//! "OpenMP" implementation, or the simulated GPGPU device(s) of
//! `plssvm-simgpu` (standing in for the paper's CUDA/OpenCL/SYCL backends,
//! including the feature-wise multi-GPU split of §III-C-5).
//!
//! Entry points: [`svm::train`], [`svm::predict`], [`svm::accuracy`].

#![warn(missing_docs)]

pub mod backend;
pub mod cg;
pub mod checkpoint;
pub mod error;
pub mod guard;
pub mod kernel;
pub mod lowrank;
pub mod matrix_free;
pub mod model_selection;
pub mod multiclass;
pub mod par;
pub mod regression;
pub mod resilience;
pub mod simd;
pub mod svm;
pub mod timing;
pub mod trace;
pub mod validation;
pub mod weighted;

pub use error::SvmError;
pub use svm::{
    accuracy, predict, predict_decision_values, predict_labels, train, try_predict_decision_values,
    try_predict_labels, LsSvm, TrainOutput,
};

/// Convenient glob-import surface for downstream users.
pub mod prelude {
    pub use crate::backend::BackendSelection;
    pub use crate::cg::SolveOutcome;
    pub use crate::checkpoint::{ContextFingerprint, JournalSink};
    pub use crate::guard::RecoveryPolicy;
    pub use crate::lowrank::{LandmarkStrategy, SolverSelection};
    pub use crate::model_selection::{grid_search, GridSearchConfig, GridSearchResult};
    pub use crate::multiclass::{
        train_multiclass, train_multiclass_with_outcomes, MultiClassModel, MultiClassStrategy,
        MultiClassTrainOutput,
    };
    pub use crate::regression::{
        mean_squared_error, predict_values, r_squared, try_predict_values,
    };
    pub use crate::simd::Isa;
    pub use crate::svm::{
        accuracy, predict, predict_labels, predict_linear, train, try_predict_decision_values,
        try_predict_labels, LsSvm, TrainOutput,
    };
    pub use crate::trace::{MetricsSink, Telemetry, TelemetryReport};
    pub use crate::validation::{cross_validate, CvResult};
    pub use crate::weighted::{robust_weights, train_robust, RobustTrainOutput};
    pub use plssvm_data::libsvm::{
        read_libsvm_file, write_libsvm_file, LabeledData, RegressionData,
    };
    pub use plssvm_data::model::{KernelSpec, SvmModel, SvrModel};
    pub use plssvm_data::Real;
}
