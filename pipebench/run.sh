#!/usr/bin/env bash
# Builds the cpn-serve daemon and the pipebench binary from source, then
# runs one workload:
#
#   bash pipebench/run.sh --workload paper_pipeline --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cpn-serve --bin cpn-serve >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pipebench" --serve-bin "$CARGO_TARGET_DIR/release/cpn-serve" "$@"
