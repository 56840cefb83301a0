#!/usr/bin/env bash
# The one command of the benchmark: build (release, offline), then run.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--scale smoke]
#       all four workloads; one `workload name value unit` line per metric,
#       results in benchmark/out/results.json (--trace adds the traced run:
#       per-layer times, the ladder, benchmark/out/trace-<workload>.jsonl)
#   benchmark/run.sh --selfcheck [--seed N] [--seconds S]
#       the suite twice; applies every bound to the pair
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, as the driver of BENCHMARK.json calls it: the last
#       line of standard output is the result object
#
# Shares the repo's target/ unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/amnesia-benchmark" "$@"
