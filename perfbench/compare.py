"""Compare two sets of benchmark records, per workload, against the bounds.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of records written by ``run.py`` (or
record files).  Untraced records give the end-to-end metrics; each (metric,
workload) pair is labelled against the metric's ``bound`` and ``better``
direction in ``BENCHMARK.json``:

* ``unresolved`` -- the run-to-run spread (quartile distance over the median)
  of either side exceeds the bound, and not every new run beats every base
  run (that case is ``improved``);
* ``worse`` -- the new median is worse than the base median by more than the
  bound;
* ``improved`` -- the new median is better by more than the base spread;
* ``unchanged`` -- otherwise.

Traced records add the medians of every per-layer metric (no bound, no
label).  Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(location: str) -> List[dict]:
    paths = (sorted(glob.glob(os.path.join(location, "*.json")))
             if os.path.isdir(location) else [location])
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def by_workload(records: List[dict], section: str) -> Dict[str, Dict[str, List[float]]]:
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        for name, metric in record.get(section, {}).items():
            if section == "end_to_end" and record["trace"]:
                continue  # end-to-end numbers come from untraced runs only
            grouped.setdefault(record["workload"], {}).setdefault(name, []).append(
                metric["value"])
    return grouped


def spread(values: List[float]) -> float:
    """Quartile distance over the median (infinite below two samples)."""
    if len(values) < 2:
        return math.inf
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def label(base: List[float], new: List[float], bound: float, better: str) -> Tuple[str, float]:
    """The (label, signed worsening share of the base median) of one pair."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(new) - base_median) / base_median
    if max(spread(base), spread(new)) > bound:
        if all(sign * value < sign * other for value in new for other in base):
            return "improved", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if -worsening > spread(base):
        return "improved", worsening
    return "unchanged", worsening


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base_records, new_records = load(argv[0]), load(argv[1])
    base, new = by_workload(base_records, "end_to_end"), by_workload(new_records, "end_to_end")
    any_worse = False
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'new':>12s} {'worse by':>8s} "
          f"{'bound':>6s}  label")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            verdict, worsening = label(base[workload][name], new[workload][name],
                                       metric["bound"], metric["better"])
            any_worse |= verdict == "worse"
            print(f"{workload:16s} {name:14s} {statistics.median(base[workload][name]):12.5g} "
                  f"{statistics.median(new[workload][name]):12.5g} {worsening:+8.1%} "
                  f"{metric['bound']:6.2f}  {verdict}")
    base_layers = by_workload(base_records, "per_layer")
    new_layers = by_workload(new_records, "per_layer")
    for workload in sorted(set(base_layers) & set(new_layers)):
        print(f"\nper-layer medians, {workload} (base -> new)")
        for name in sorted(set(base_layers[workload]) & set(new_layers[workload])):
            print(f"  {name:34s} {statistics.median(base_layers[workload][name]):12.5g} -> "
                  f"{statistics.median(new_layers[workload][name]):12.5g}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
