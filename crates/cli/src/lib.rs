//! Command line front ends.
//!
//! PLSSVM is "a drop-in replacement for LIBSVM": the `svm-train`,
//! `svm-predict` and `svm-scale` binaries accept LIBSVM's flags (the subset
//! PLSSVM supports) plus the PLSSVM-specific `--backend` switch. The
//! `generate-data` binary is the equivalent of the repository's
//! `generate_data.py` utility script ("planes" problem and the SAT-6-like
//! generator).
//!
//! All argument parsing lives in this library crate so it is unit-testable:
//! one flag table per binary drives its parsing, its usage text and, for
//! `svm-train`, which flags each mode accepts. Each binary's `main` is one
//! call to its function here ([`train_main`] and so on).

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod signals;

pub use args::{generate_main, predict_main, scale_main, serve_main, train_main, CliError};
