#!/usr/bin/env bash
# Builds the release hermes-serve / hermes-coord binaries and the load
# generator from source, then runs one workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries the report and, as its last
# line, the JSON result.
set -euo pipefail

root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-perfbench/target}"

cargo build --release --offline -q --manifest-path Cargo.toml \
    --bin hermes-serve --bin hermes-coord >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$bench_target/release/hermes-perfbench" --bin-dir "$root_target/release" "$@"
