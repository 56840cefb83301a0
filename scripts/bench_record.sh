#!/usr/bin/env bash
# One committed benchmark record: run the benchmark suite traced (the
# traced run is what measures the machine) and write BENCH_<pr>.json at
# the root of this checkout, holding
#
#   "results": benchmark/out/results.json as the suite wrote it;
#   "machine": cores and memcpy GB/s the traced run measured, plus nproc
#              and the architecture, so records taken at different times can be
#              told apart (and divided out) before they are compared;
#   "loc":     scripts/loc.sh as numbers, per crate and the total.
#
# Usage:
#   scripts/bench_record.sh <pr> [benchmark/run.sh args...]
#   scripts/bench_record.sh 27 --seed 11        # BENCH_27.json
#
# To compare two trees, run it in a checkout of each (copy this script
# into the older one), one right after the other on the same machine.
# Building benchmark/ rewrites its stale Cargo.lock: the script restores
# it if it was unmodified before the run, and otherwise leaves it and
# warns. "commit" is `git describe --always --dirty`: a record of an
# uncommitted tree says so. Needs jq.

set -euo pipefail
[[ $# -ge 1 && "$1" =~ ^[0-9]+$ ]] || {
    echo "usage: $0 <pr> [benchmark/run.sh args...]" >&2
    exit 2
}
pr="$1"
shift
cd "$(dirname "$0")/.."

lock=benchmark/Cargo.lock
lock_clean=0
git diff --quiet -- "$lock" 2>/dev/null && lock_clean=1
status=0
benchmark/run.sh --trace "$@" || status=$?
if [[ $lock_clean -eq 1 ]]; then
    git checkout -q -- "$lock"
elif ! git diff --quiet -- "$lock" 2>/dev/null; then
    echo "warning: $lock was modified before the run; left as it is" >&2
fi
# 1 = failed operations: the record still shows them. 2 = no results.
[[ $status -le 1 ]] || exit "$status"

loc="$(scripts/loc.sh | awk '
    BEGIN { printf "{\"crates\": {" }
    NR > 1 && NF == 5 && $1 != "TOTAL" {
        printf "%s\"%s\": {\"library\": %d, \"test\": %d, \"bench\": %d, \"pub_fn\": %d}",
            sep, $1, $2, $3, $4, $5
        sep = ", "
    }
    /^workspace/ { total = $(NF - 1) }
    END { printf "}, \"workspace\": %d}", total }
')"

jq -n \
    --argjson pr "$pr" \
    --arg commit "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
    --arg arch "$(uname -m)" \
    --argjson nproc "$(nproc)" \
    --argjson loc "$loc" \
    --slurpfile results benchmark/out/results.json \
    '$results[0] as $r
     | ($r.workloads | to_entries[0].value.per_layer) as $m
     | {pr: $pr, commit: $commit,
        machine: {arch: $arch, nproc: $nproc, cores: $m["machine.cores"],
                  simd_bits: $m["machine.simd_bits"],
                  memcpy_gbps: [$r.workloads[].per_layer["machine.memcpy_gbps"]]},
        loc: $loc, results: $r}' >"BENCH_$pr.json"
echo "wrote BENCH_$pr.json" >&2
exit "$status"
