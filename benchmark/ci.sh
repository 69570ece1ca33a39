#!/usr/bin/env bash
# What CI should call: the harness's self-tests, then the smoke run (every
# workload and every probe at tiny scale, names validated against
# BENCHMARK.json). About half a minute after the build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
