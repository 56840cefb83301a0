#!/usr/bin/env bash
# Lines of Rust per crate, split into library / test / bench, plus the
# `pub fn` count of the library — the number ROADMAP aim 2 ("net LoC is
# a tracked number") refers to. Plain find / wc / grep -c, so the table
# is reproducible at any commit:
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh ../other   # another checkout of the same repo
#
# "library" is everything under <crate>/src (inline `#[cfg(test)]`
# modules included: they are deleted with the code they test), "test"
# is <crate>/tests, "bench" is <crate>/benches. The root package counts
# src/, tests/ and examples/ (as "bench": runnable, not library).
# crates/model counts as test throughout: it is the dev-only reference
# the suites check against, with no library caller.

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Total lines of the .rs files under the given directories (0 if none).
lines() {
    local total=0 d
    for d in "$@"; do
        [[ -d "$d" ]] || continue
        total=$((total + $(find "$d" -name '*.rs' -type f -print0 | xargs -0 cat | wc -l)))
    done
    echo "$total"
}

# `pub fn` declarations under a directory.
pub_fns() {
    [[ -d "$1" ]] || { echo 0; return; }
    find "$1" -name '*.rs' -type f -print0 | xargs -0 cat | grep -c 'pub fn' || true
}

printf '%-22s %8s %8s %8s %8s\n' crate library test bench 'pub fn'
tl=0 tt=0 tb=0 tp=0
row() {
    printf '%-22s %8d %8d %8d %8d\n' "$1" "$2" "$3" "$4" "$5"
    tl=$((tl + $2)) tt=$((tt + $3)) tb=$((tb + $4)) tp=$((tp + $5))
}
row amnesia "$(lines src)" "$(lines tests)" "$(lines examples)" "$(pub_fns src)"
for c in crates/* crates/shims/*; do
    [[ -f "$c/Cargo.toml" ]] || continue
    if [[ "$c" == crates/model ]]; then
        row model 0 "$(lines "$c/src" "$c/tests")" 0 0
        continue
    fi
    row "${c#crates/}" "$(lines "$c/src")" "$(lines "$c/tests")" "$(lines "$c/benches")" "$(pub_fns "$c/src")"
done
printf '%-22s %8d %8d %8d %8d\n' TOTAL "$tl" "$tt" "$tb" "$tp"
echo "workspace (library + test + bench): $((tl + tt + tb)) lines"
echo "engine/src/batch.rs: $(grep -c 'pub fn' crates/engine/src/batch.rs) pub fn"
# The plan's operators, span kernels included: everything another module can call.
echo "engine/src/kernels.rs: $(grep -cE 'pub(\(crate\))? fn' crates/engine/src/kernels.rs) pub fn + pub(crate) fn"
