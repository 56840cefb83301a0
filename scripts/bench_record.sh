#!/usr/bin/env bash
# One committed benchmark record: run the benchmark suite traced (the
# traced run is what measures the machine) and write BENCH_<pr>.json at
# the root of this checkout, holding
#
#   "results": benchmark/out/results.json as the suite wrote it;
#   "machine": cores and memcpy GB/s the traced run measured, plus nproc
#              and the architecture, so records taken at different times can be
#              told apart (and divided out) before they are compared; and
#              scalar_ref_s, the seconds a fixed scalar loop took right
#              before and right after the suite: a machine that slowed or
#              sped up during the run shows as two different numbers;
#              and cpu_flags, which of avx2, avx512f, avx512bw and
#              avx512vbmi /proc/cpuinfo lists: the vector tier the
#              kernels ran (amnesia_columnar::simd), so two records
#              whose compressed reads ran different code can be told
#              apart;
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

# Seconds one fixed scalar loop takes (an integer LCG in awk: exact in
# doubles, no memory traffic; about a second on a 2-core x86-64 VM).
scalar_ref() {
    local start end
    start=$(date +%s%N)
    awk 'BEGIN { x = 1; for (i = 0; i < 4000000; i++) x = (x * 69069 + 1) % 4294967296; if (x < 0) print x }'
    end=$(date +%s%N)
    awk -v ns=$((end - start)) 'BEGIN { printf "%.4f", ns / 1e9 }'
}

# The kernel-tier flags /proc/cpuinfo lists, as a JSON array (empty where
# there is no /proc/cpuinfo).
cpu_flags() {
    local flag present=()
    for flag in avx2 avx512f avx512bw avx512vbmi; do
        grep -qw "$flag" /proc/cpuinfo 2>/dev/null && present+=("$flag")
    done
    printf '%s\n' "${present[@]}" | jq -R . | jq -sc 'map(select(. != ""))'
}

lock=benchmark/Cargo.lock
lock_clean=0
git diff --quiet -- "$lock" 2>/dev/null && lock_clean=1
# Build first (into the target directory run.sh uses), so the first
# reference is not taken beside the compiler.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
ref_start="$(scalar_ref)"
status=0
benchmark/run.sh --trace "$@" || status=$?
ref_end="$(scalar_ref)"
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
    --argjson cpu_flags "$(cpu_flags)" \
    --argjson loc "$loc" \
    --argjson ref_start "$ref_start" \
    --argjson ref_end "$ref_end" \
    --slurpfile results benchmark/out/results.json \
    '$results[0] as $r
     | ($r.workloads | to_entries[0].value.per_layer) as $m
     | {pr: $pr, commit: $commit,
        machine: {arch: $arch, nproc: $nproc, cores: $m["machine.cores"],
                  simd_bits: $m["machine.simd_bits"], cpu_flags: $cpu_flags,
                  memcpy_gbps: [$r.workloads[].per_layer["machine.memcpy_gbps"]],
                  scalar_ref_s: [$ref_start, $ref_end]},
        loc: $loc, results: $r}' >"BENCH_$pr.json"
echo "wrote BENCH_$pr.json" >&2
exit "$status"
