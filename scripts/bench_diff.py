#!/usr/bin/env python3
"""Diff two committed benchmark records (BENCH_<pr>.json).

Usage: scripts/bench_diff.py A.json B.json [--all]

For every workload and metric the two records share, prints A's value,
B's value and the ratio B/A three times:

  raw   B/A as measured;
  norm  B/A with the machine's speed divided out. Each workload's traced
        run measures memcpy bandwidth (per_layer machine.memcpy_gbps);
        s = memcpy(B) / memcpy(A) is how much faster B's machine ran. A
        rate (higher is better) divides by s, a time (lower is better)
        multiplies by s, so both read "B against A on A's machine".
        Counts, sizes and ratios are not machine-bound: norm is "-".
  ref   the same with s taken from the scalar reference loop instead
        (machine.scalar_ref_s, timed at the start and at the end of each
        record's run): s = mean ref(A) / mean ref(B). "-" when a record
        has no reference (records before BENCH_29).

A record whose start and end references differ by more than 10 % ran on
a machine whose speed changed during the run; the header says so, and
neither normalisation can be trusted for it. Two records whose
machine.cpu_flags differ (records from BENCH_31 on) ran different kernel
tiers: their compressed-read timings come from different code, and a
warning says so.

A mark follows: "+" when the normalised ratio is better than 1 by more
than 5 %, "-" when worse by more than 5 %, nothing otherwise ("better"
from BENCHMARK.json, or the unit). By default only the end-to-end metrics
print, plus every per-layer metric that moved by more than 5 %; --all
prints every metric. Records come from scripts/bench_record.sh.
"""

import json
import os
import sys

# Units of machine-bound metrics: times (lower is better) and rates
# (higher is better). Everything else is a count or a size.
TIME_UNITS = {"s", "ms", "us", "ns", "ns/row"}
RATE_UNITS = {"rows/s", "stmt/s", "GB/s"}
NOISE = 0.05
# Start/end scalar references further apart than this flag a record.
DRIFT = 0.10


def metric_specs():
    """{name: (unit, better)} from BENCHMARK.json beside this script."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "..", "BENCHMARK.json")
    specs = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return specs
    for section in ("end_to_end", "per_layer"):
        for m in bench.get(section, []):
            specs[m["name"]] = (m.get("unit", ""), m.get("better", "lower"))
    return specs


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return record, record["results"]["workloads"]


def fmt(v):
    if v is None:
        return "-"
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return f"{v:.4g}"
    return f"{v:.3e}"


def scalar_ref(record):
    """(start, end) seconds of the record's scalar reference, or None."""
    ref = record.get("machine", {}).get("scalar_ref_s")
    if isinstance(ref, list) and len(ref) == 2 and all(ref):
        return ref[0], ref[1]
    return None


def drift_note(ref):
    """How far a record's end reference is from its start one."""
    if ref is None:
        return "no scalar reference"
    drift = ref[1] / ref[0] - 1.0
    flag = "  ** machine speed drifted by more than 10 % **" if abs(drift) > DRIFT else ""
    return f"scalar ref {fmt(ref[0])} -> {fmt(ref[1])} s ({drift * 100:+.1f} %){flag}"


def tier_warning(rec_a, rec_b):
    """A warning line when the records ran different kernel tiers, else
    None (also when either predates machine.cpu_flags)."""
    flags_a = rec_a.get("machine", {}).get("cpu_flags")
    flags_b = rec_b.get("machine", {}).get("cpu_flags")
    if flags_a is None or flags_b is None or set(flags_a) == set(flags_b):
        return None
    return (f"warning: CPU flags differ ({' '.join(flags_a) or 'none'} -> "
            f"{' '.join(flags_b) or 'none'}): the records ran different kernel "
            "tiers, so their compressed-read timings come from different code")


def normalise(raw, unit, name, speed):
    """B/A on A's machine, for a machine that ran `speed` times faster."""
    if raw is None or not speed:
        return None
    if unit in TIME_UNITS:
        return raw * speed
    if unit in RATE_UNITS and name != "machine.memcpy_gbps":
        return raw / speed
    return None


def compare(name, a, b, speed, ref_speed, specs):
    """(raw, memcpy-normalised, reference-normalised ratio, mark) for one
    metric, or None."""
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return None
    raw = b / a if a else None
    # Traced self times (self_s.<span>) are seconds.
    unit, better = specs.get(name, ("s" if name.startswith("self_s.") else "", "lower"))
    norm = normalise(raw, unit, name, speed)
    by_ref = normalise(raw, unit, name, ref_speed)
    judged = norm if norm is not None else raw
    mark = ""
    if judged is not None and abs(judged - 1.0) > NOISE:
        improved = judged > 1.0 if better == "higher" else judged < 1.0
        mark = "+" if improved else "-"
    return raw, norm, by_ref, mark


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    show_all = "--all" in argv[1:]
    if len(args) != 2:
        print(f"usage: {argv[0]} A.json B.json [--all]", file=sys.stderr)
        return 2
    (rec_a, work_a), (rec_b, work_b) = load(args[0]), load(args[1])
    specs = metric_specs()
    ref_a, ref_b = scalar_ref(rec_a), scalar_ref(rec_b)
    print(f"A = {args[0]} (pr {rec_a.get('pr')}, {rec_a.get('commit')}; {drift_note(ref_a)})")
    print(f"B = {args[1]} (pr {rec_b.get('pr')}, {rec_b.get('commit')}; {drift_note(ref_b)})")
    warning = tier_warning(rec_a, rec_b)
    if warning:
        print(warning)
    ref_speed = sum(ref_a) / sum(ref_b) if ref_a and ref_b else None
    print(f"scalar reference speed B/A: {fmt(ref_speed)}")
    for workload in work_a:
        if workload not in work_b:
            continue
        wa, wb = work_a[workload], work_b[workload]
        mem_a = wa.get("per_layer", {}).get("machine.memcpy_gbps")
        mem_b = wb.get("per_layer", {}).get("machine.memcpy_gbps")
        speed = mem_b / mem_a if mem_a and mem_b else None
        print()
        print(f"== {workload}: memcpy {fmt(mem_a)} -> {fmt(mem_b)} GB/s "
              f"(s = {fmt(speed)}); failed {wa.get('failed')} -> {wb.get('failed')}")
        print(f"{'metric':34} {'A':>11} {'B':>11} {'raw B/A':>8} {'norm':>8} {'ref':>8}")
        for section in ("end_to_end", "per_layer"):
            ma, mb = wa.get(section, {}), wb.get(section, {})
            for name in sorted(ma):
                row = compare(name, ma[name], mb.get(name), speed, ref_speed, specs)
                if row is None:
                    continue
                raw, norm, by_ref, mark = row
                if section == "per_layer" and not show_all and not mark:
                    continue
                print(f"{name:34} {fmt(ma[name]):>11} {fmt(mb[name]):>11} "
                      f"{fmt(raw):>8} {fmt(norm):>8} {fmt(by_ref):>8} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
