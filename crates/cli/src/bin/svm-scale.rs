//! `svm-scale` — LIBSVM-compatible feature scaling (scaled data on stdout).

fn main() -> std::process::ExitCode {
    plssvm_cli::scale_main()
}
