#!/usr/bin/env bash
# Build `gcl` and the benchmark harness (release, offline), then run the
# harness from the repository root with the arguments given.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]        every workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --repeat 2 | --compare A.json B.json | --smoke
#
# Build output goes to stderr; stdout carries only the harness's report,
# whose last line (with --workload) is the result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    gcl_bin="$CARGO_TARGET_DIR/release/gcl"
    harness="$CARGO_TARGET_DIR/release/gcl-benchmark"
else
    gcl_bin="target/release/gcl"
    harness="benchmark/target/release/gcl-benchmark"
fi

cargo build --release --offline --quiet --bin gcl >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$harness" --gcl-bin "$gcl_bin" "$@"
