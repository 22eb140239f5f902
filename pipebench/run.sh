#!/usr/bin/env bash
# Builds the system under test (pka-serve, pka-fabric) and the benchmark
# harness from source, then runs one workload:
#
#   bash pipebench/run.sh --workload survey_fabric --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the harness's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p pka-serve -p pka-fabric >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/pipebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
