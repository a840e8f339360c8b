//! `svm-predict` — LIBSVM-compatible prediction front end.

fn main() -> std::process::ExitCode {
    plssvm_cli::predict_main()
}
