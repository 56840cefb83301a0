#!/usr/bin/env python3
"""Compare two criterion-shim JSON-lines bench artifacts.

Usage: bench_compare.py BASELINE.json CURRENT.json

Each file is the JSON-lines stream the in-tree criterion shim emits when
``AMNESIA_BENCH_JSON`` is set: one object per completed bench, with at
least ``name`` and ``median_ns_per_iter``. If a name repeats (a bench
re-run within one process), the last record wins.

Prints a per-bench delta table to stdout, appends the same markdown to
``$GITHUB_STEP_SUMMARY`` when that variable is set, and exits non-zero
if any *gated* bench regressed by more than the threshold (25 % on the
median by default, ``AMNESIA_BENCH_REGRESSION_PCT`` to tune).

A missing or empty baseline is not an error: the run establishes the
baseline and exits 0.
"""

import json
import os
import sys

# Benches whose medians gate the job. Everything else is report-only:
# small legs are noisy on shared runners, and parallel legs depend on
# runner core counts.
GATED = (
    "sql/grouped_agg/hot",
    "sql/grouped_agg/frozen",
    # The top 10 of ~10 000 groups: one group-table probe per selected
    # row, then a top-k over group positions that builds ten rows. Building
    # and sorting every group row was several times this.
    "sql/grouped_agg/high_card_frozen",
    "sql/global_agg/frozen",
    # A sorted column read hot: every full hot block carries its zone
    # map, so a 1 % range prunes all but one or two blocks, as it does
    # frozen. Without hot block metas every row was scanned: 329 us.
    "tiered_scan_1m/rle/scan_hot",
    # The packed-field group kernel (columnar::compress::filter): a 20-bit
    # forpack filter, serial and allocation-free, so quiet on runners.
    "compressed_scan/forpack_w20/filter",
    # The same filter at 7 bits, sql_frozen's `b`: one AVX-512 VBMI octet
    # step per 8 fields where the runner has it, the scalar step elsewhere.
    "compressed_scan/forpack_w7/filter",
    # The `global` statement's fold: 50 % of rows selected, no filter —
    # masked lane adds, mins and maxes per octet on the vector tier.
    "compressed_scan/forpack_w7/fold_sel50",
    # A 0.5 % selection (`scatter`'s fold, about one row per touched
    # group) must stay on per-row point reads: the vector fold costs a
    # whole group's step per touched group.
    "compressed_scan/forpack_w20/fold_sparse",
    # Rotting blocks: uniform 20-bit values, half the rows squashed onto
    # their neighbour, as the run bitmap codec (runbits) holds them. The
    # filter compares one packed value per run and deposits the verdicts
    # over the rows; the same blocks as rle took 6.3 ns/row (runbits 0.40).
    "compressed_scan/squashed_50_runbits/filter",
    # Their fold under a 50 % selection: one rank and one unpack per
    # selected row; as rle 11.6 ns/row (runbits 1.9).
    "compressed_scan/squashed_50_runbits/fold_sel50",
    # The codec chooser every freeze, recompression and replay runs: it
    # sizes all six codecs arithmetically and encodes only the winner.
    # Encoding all six and keeping the smallest is about 4x this.
    "compressed_scan/encode_auto/uniform_w20",
    # A drop's checkpoint over 1M live + 1M dropped rows (snapshot v4):
    # serial, in memory, and the per-cycle cost of physical forgetting.
    "snapshot/encode_fifo_history",
    # Its restore: the dropped history decodes run by run into sealed
    # runs, never row by row — the in-memory half of `recover_ms`.
    "snapshot/decode_fifo_history",
    # Planning a three-conjunct scan from held column summaries: it must
    # stay O(predicates x bins) — a rebuild per statement is 1000x this.
    "stats/order_predicates/frozen",
    # stream_scatter's victim draw: 25 000 uniform victims of 1 000 000
    # active rows out of 1 850 000, sampled as ranks into a bitmap and
    # deposited into the activity words (about 0.6 ms on a 2-core VM).
    # Listing every active id and drawing through a hash set took
    # 3.8-4.2 ms there.
    "policy/scatter_25000_of_1m/uniform",
)

DEFAULT_THRESHOLD_PCT = 25.0


def load(path):
    """Parse a JSON-lines bench artifact into {name: median_ns}."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                name = rec.get("name")
                median = rec.get("median_ns_per_iter")
                if isinstance(name, str) and isinstance(median, (int, float)):
                    out[name] = float(median)
    except OSError:
        return None
    return out


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f} us"
    return f"{ns:.0f} ns"


def emit(markdown):
    print(markdown)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(markdown + "\n")


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} BASELINE.json CURRENT.json", file=sys.stderr)
        return 2

    baseline_path, current_path = argv[1], argv[2]
    current = load(current_path)
    if not current:
        print(f"error: no bench records in {current_path}", file=sys.stderr)
        return 2

    baseline = load(baseline_path)
    if not baseline:
        emit(
            "## Bench deltas\n\n"
            f"No baseline artifact at `{baseline_path}` — "
            f"establishing baseline from {len(current)} benches."
        )
        return 0

    threshold = float(
        os.environ.get("AMNESIA_BENCH_REGRESSION_PCT", DEFAULT_THRESHOLD_PCT)
    )

    lines = [
        "## Bench deltas\n",
        f"Gate: >{threshold:.0f}% median regression on gated benches fails the job.\n",
        "| bench | baseline | current | delta | gated |",
        "|---|---:|---:|---:|:---:|",
    ]
    failures = []
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        gated = name in GATED
        if base is None or base <= 0.0:
            delta = "new"
        else:
            pct = (cur - base) / base * 100.0
            delta = f"{pct:+.1f}%"
            if gated and pct > threshold:
                failures.append((name, base, cur, pct))
        lines.append(
            f"| {name} | {fmt_ns(base) if base else '—'} | {fmt_ns(cur)} "
            f"| {delta} | {'yes' if gated else ''} |"
        )
    for name in sorted(baseline):
        if name not in current:
            lines.append(f"| {name} | {fmt_ns(baseline[name])} | — | removed | |")

    if failures:
        lines.append("")
        for name, base, cur, pct in failures:
            lines.append(
                f"**REGRESSION** `{name}`: {fmt_ns(base)} -> {fmt_ns(cur)} "
                f"({pct:+.1f}% > +{threshold:.0f}%)"
            )
    emit("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
