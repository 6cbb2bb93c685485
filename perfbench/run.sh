#!/usr/bin/env bash
# Builds the release `scfi` binary and the benchmark from source, then
# runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p scfi-cli --bin scfi >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/scfi-perfbench" "$@"
