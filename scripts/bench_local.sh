#!/usr/bin/env bash
# Local mirror of CI's bench-smoke job: run the criterion-shim bench
# suite with JSON capture and drop BENCH_smoke.json at the repo root —
# the same artifact CI uploads as BENCH_smoke-<sha> and feeds to
# .github/bench_compare.py.
#
# Usage:
#   scripts/bench_local.sh                 # full 5-bench suite
#   scripts/bench_local.sh sql_bench       # just one bench
#   BASELINE=old.json scripts/bench_local.sh   # also diff vs a baseline
#
# Gates that run inside sql_bench (tune or disable via env):
#   AMNESIA_SCALE_GATE   8-thread speedup over serial (default: auto)
#   AMNESIA_ORDER_GATE   cost-driven vs syntactic worst-order (default 2.0)
#   AMNESIA_QERROR_GATE  max estimator q-error, uniform+zipf (default 8.0)

set -euo pipefail
cd "$(dirname "$0")/.."

# Preflight: a bench run on a tree that will fail CI's invariant gate
# is wasted time — fail fast here (rules: CONTRIBUTING.md).
echo "=== amnesia-lint preflight ==="
cargo run -q -p amnesia-lint -- check

# Preflight: the model suites are CI's model-check job; a bench run on
# a tree with a schedulable race or a broken morsel protocol is equally
# wasted. Fast (< 5 s): bounded DPOR exploration, not wall-clock fuzzing.
# Skip with AMNESIA_SKIP_MODEL=1 when iterating on bench-only changes.
if [[ "${AMNESIA_SKIP_MODEL:-0}" != "1" ]]; then
  echo "=== amnesia-sync model preflight ==="
  cargo test -q -p amnesia-sync --features model
  cargo test -q -p amnesia-engine --features model --test model
fi

# Preflight: `benchmark/` is a workspace of its own that tier-1 never
# builds; an API it names must not drift (CI job `benchmark-api`). The
# build rewrites its stale Cargo.lock, which is not ours to change.
echo "=== benchmark/ build + test preflight ==="
(cd benchmark && export CARGO_TARGET_DIR="$PWD/../target" &&
    cargo build --release --offline && cargo test --offline)
git checkout -q -- benchmark/Cargo.lock 2>/dev/null || true

OUT="BENCH_smoke.json"
# Absolute path: cargo runs bench binaries with cwd = the package dir
# (crates/bench), so a relative path would land the file there.
export AMNESIA_BENCH_JSON="$(pwd)/$OUT"
rm -f "$OUT"

BENCHES=(compressed_scan tiered_scan sql_bench persist_bench)
if [[ $# -gt 0 ]]; then
    BENCHES=("$@")
fi

for bench in "${BENCHES[@]}"; do
    echo "=== cargo bench -p amnesia-bench --bench $bench ==="
    cargo bench -p amnesia-bench --bench "$bench"
done

echo "wrote $(wc -l <"$OUT") bench records to $OUT"

if [[ -n "${BASELINE:-}" ]]; then
    python3 .github/bench_compare.py "$BASELINE" "$OUT"
fi
