//! `generate-data` — synthetic data set generator (the paper's
//! `generate_data.py`): the "planes" problem and a SAT-6-like image set.

fn main() -> std::process::ExitCode {
    plssvm_cli::generate_main()
}
