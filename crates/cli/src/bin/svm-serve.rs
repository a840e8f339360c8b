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

fn main() -> std::process::ExitCode {
    plssvm_cli::serve_main()
}
