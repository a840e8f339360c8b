//! `svm-train` — LIBSVM-compatible training front end.

fn main() -> std::process::ExitCode {
    plssvm_cli::train_main()
}
