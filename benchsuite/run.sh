#!/usr/bin/env bash
# Builds svm-serve and the plssvm-bench harness in release mode, then runs
# the harness with the given arguments, e.g.
#
#   bash benchsuite/run.sh --workload train-exact --seed 7 --seconds 25 --trace 0
#
# Both builds share one target directory: $CARGO_TARGET_DIR when set,
# otherwise the repository's own target/. Build output goes to stderr; the
# harness prints its result as the last line of stdout.
set -euo pipefail

suite_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$suite_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo_dir/target}"

cargo build --release --offline --quiet \
    --manifest-path "$repo_dir/Cargo.toml" -p plssvm-cli --bin svm-serve >&2
cargo build --release --offline --quiet \
    --manifest-path "$suite_dir/Cargo.toml" --bin plssvm-bench >&2

export PLSSVM_SERVE_BIN="$CARGO_TARGET_DIR/release/svm-serve"
exec "$CARGO_TARGET_DIR/release/plssvm-bench" "$@"
