#!/usr/bin/env python3
"""Diff two committed benchmark records (BENCH_<pr>.json).

Usage: scripts/bench_diff.py A.json B.json [--all]

For every workload and metric the two records share, prints A's value,
B's value and the ratio B/A twice:

  raw   B/A as measured;
  norm  B/A with the machine's speed divided out. Each workload's traced
        run measures memcpy bandwidth (per_layer machine.memcpy_gbps);
        s = memcpy(B) / memcpy(A) is how much faster B's machine ran. A
        rate (higher is better) divides by s, a time (lower is better)
        multiplies by s, so both read "B against A on A's machine".
        Counts, sizes and ratios are not machine-bound: norm is "-".

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


def compare(name, a, b, speed, specs):
    """(raw ratio, normalised ratio, mark) for one metric, or None."""
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return None
    raw = b / a if a else None
    # Traced self times (self_s.<span>) are seconds.
    unit, better = specs.get(name, ("s" if name.startswith("self_s.") else "", "lower"))
    norm = None
    if raw is not None and speed:
        if unit in TIME_UNITS:
            norm = raw * speed
        elif unit in RATE_UNITS and name != "machine.memcpy_gbps":
            norm = raw / speed
    judged = norm if norm is not None else raw
    mark = ""
    if judged is not None and abs(judged - 1.0) > NOISE:
        improved = judged > 1.0 if better == "higher" else judged < 1.0
        mark = "+" if improved else "-"
    return raw, norm, mark


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    show_all = "--all" in argv[1:]
    if len(args) != 2:
        print(f"usage: {argv[0]} A.json B.json [--all]", file=sys.stderr)
        return 2
    (rec_a, work_a), (rec_b, work_b) = load(args[0]), load(args[1])
    specs = metric_specs()
    print(f"A = {args[0]} (pr {rec_a.get('pr')}, {rec_a.get('commit')})")
    print(f"B = {args[1]} (pr {rec_b.get('pr')}, {rec_b.get('commit')})")
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
        print(f"{'metric':34} {'A':>11} {'B':>11} {'raw B/A':>8} {'norm':>8}")
        for section in ("end_to_end", "per_layer"):
            ma, mb = wa.get(section, {}), wb.get(section, {})
            for name in sorted(ma):
                row = compare(name, ma[name], mb.get(name), speed, specs)
                if row is None:
                    continue
                raw, norm, mark = row
                if section == "per_layer" and not show_all and not mark:
                    continue
                print(f"{name:34} {fmt(ma[name]):>11} {fmt(mb[name]):>11} "
                      f"{fmt(raw):>8} {fmt(norm):>8} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
