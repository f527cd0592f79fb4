#!/usr/bin/env bash
# Builds the benchmark and the `serve` binary from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target). The last line of stdout is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ctms-bench --bin serve >&2
exec "$CARGO_TARGET_DIR/release/ctms-perfbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
