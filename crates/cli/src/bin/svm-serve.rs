//! `svm-serve` — long-lived batched inference server.
//!
//! Serves any model `svm-train` can write (binary, multiclass, SVR) over
//! newline-delimited JSON or LIBSVM-format request lines, coalescing
//! concurrent requests into micro-batches: an idle engine predicts a
//! request at once, and requests arriving meanwhile form the next batch
//! (up to `--max-batch`). Reads stdin by default, or
//! listens on TCP with `--listen host:port`.
//!
//! Overload hardening: `--max-connections` caps concurrency,
//! `--queue-watermark` sheds excess requests with `overloaded`,
//! `--deadline-us` answers `deadline_exceeded` to requests that queued
//! too long, and `--client-timeout-ms` disconnects stalled peers.
//! SIGTERM/SIGINT (or a `shutdown` control line) drains gracefully:
//! in-flight requests finish, new lines answer `shutting_down`, and the
//! process exits 0 after a deterministic summary.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match plssvm_cli::args::parse_serve(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "svm-serve: {e}\n\
                 usage: svm-serve [options] model_file\n\
                 options: --stdin (default) | --listen host:port\n\
                 \x20        --max-batch n (64)\n\
                 \x20        --max-connections n (256, 0 = unlimited)\n\
                 \x20        --queue-watermark n (1024, 0 = off)\n\
                 \x20        --deadline-us n (0 = off)\n\
                 \x20        --client-timeout-ms n (10000, 0 = off)\n\
                 \x20        --reload-poll-ms n (200, 0 = off)\n\
                 \x20        --metrics-out file | -q, --quiet"
            );
            return ExitCode::from(2);
        }
    };
    match plssvm_cli::commands::run_serve(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
