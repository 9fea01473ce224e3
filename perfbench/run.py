"""One benchmark for the repository: offline CLUDE plus two serving streams.

Run from the repository root::

    python3 perfbench/run.py --workload ludem_wiki --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` measures the workload twice on the same inputs -- untraced,
then with span wrappers around every layer's calls (``tracing.py``) -- and
reports the per-layer metrics, the tracing overhead, and whether the traced
answers are bitwise equal to the untraced ones.

Each run builds ``instances`` inputs from the seed (``setup_s`` is the median
set-up time of one instance), then runs passes over them in turn until
``--seconds`` have elapsed and every instance ran at least once.  Reported
times are scaled to a reference host speed by a probe taken around each pass
(see :class:`SpeedProbe`); records also hold the unscaled values.  Outputs are
checked outside the timed region; any wrong, failed or cancelled answer
counts in ``failed``.  The last line of standard output is one JSON object;
a machine-readable record of the run goes to ``perfbench/records/`` (or
``--records``); ``compare.py`` diffs two sets of records.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "sequence_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "fill_nnz": "count",
}

TIERS = ("hit", "store_restore", "verbatim_reuse", "corrected_reuse", "refresh", "cold")

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "serve.queue_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "query.plan_s": "s",
    "query.ladder_s": "s",
    "query.answer_s": "s",
    **{f"query.tier.{tier}_s": "s" for tier in TIERS},
    **{f"query.tier.{tier}_groups": "count" for tier in TIERS},
    "query.scan_s": "s",
    "query.scan_calls": "count",
    "query.scan_accept_ratio": "ratio",
    "query.result_hit_ratio": "ratio",
    "query.factor_hit_ratio": "ratio",
    "policy.correct_s": "s",
    "policy.correct_calls": "count",
    "graphs.system_delta_s": "s",
    "graphs.system_delta_calls": "count",
    "lu.markowitz_s": "s",
    "lu.markowitz_calls": "count",
    "lu.crout_s": "s",
    "lu.crout_calls": "count",
    "lu.bennett_s": "s",
    "lu.bennett_calls": "count",
    "lu.symbolic_s": "s",
    "lu.smw_setup_s": "s",
    "lu.smw_solve_s": "s",
    "lu.solve_many_s": "s",
    "lu.solve_many_calls": "count",
    "lu.solve_many_cols": "count",
    "core.clustering_s": "s",
    "core.clusters": "count",
    "core.cluster_unit_s": "s",
    "exec.units": "count",
    "exec.execute_s": "s",
    "bench.gen_late_p99_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.span_coverage": "ratio",
    "bench.max_rel_dev": "ratio",
}

#: Spans whose self time is reported under a metric of another name.
SELF_TIME_METRICS = {
    "query.plan_s": "query.plan",
    "query.ladder_s": "query.ladder",
    **{f"query.tier.{tier}_s": f"query.tier.{tier}" for tier in TIERS},
    "query.scan_s": "query.scan",
    "policy.correct_s": "policy.correct",
    "graphs.system_delta_s": "graphs.system_delta",
    "lu.markowitz_s": "lu.markowitz",
    "lu.crout_s": "lu.crout",
    "lu.bennett_s": "lu.bennett",
    "lu.symbolic_s": "lu.symbolic",
    "lu.smw_setup_s": "lu.smw_setup",
    "lu.smw_solve_s": "lu.smw_solve",
    "lu.solve_many_s": "lu.solve_many",
    "core.clustering_s": "core.clustering",
    "core.cluster_unit_s": "core.cluster_unit",
    "exec.execute_s": "exec.execute",
}

#: Lowest acceptable share of root-span time covered by layer spans.
MIN_SPAN_COVERAGE = 0.9

#: Times each instance is built during set-up (``setup_s`` is their median).
SETUP_REPEATS = 3

#: Seconds one :class:`SpeedProbe` run takes at the reference host speed.
REFERENCE_PROBE_S = 0.025


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile (every reported value was observed)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(fraction * len(ordered))) - 1])


class SpeedProbe:
    """Measures how fast the host runs fixed Python work right now.

    The host's speed drifts by tens of percent within a minute (cores shared
    with other machines, frequency changes), and the drift moves every timing
    alike.  A probe before and after each timed pass gives the factor that
    scales the pass's times to the reference speed ``REFERENCE_PROBE_S``, so
    runs made minutes apart stay comparable.  The probe mixes integer
    arithmetic with lookups in a dictionary larger than the caches, like the
    program's sparse-factor loops; it shares no code with the program.
    Records keep the unscaled values next to the scaled ones.
    """

    def __init__(self) -> None:
        self._table = {row: {col: float(col) for col in range(8)} for row in range(30_000)}
        self._keys = [(row * 7919) % 30_000 for row in range(30_000)]

    def _once(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        acc = 0.0
        for key in self._keys:
            row = self._table[key]
            acc += row[3] + row[5]
        return time.perf_counter() - started

    def measure(self) -> float:
        """Median seconds of three probe runs."""
        return statistics.median(self._once() for _ in range(3))

    def scale(self, before: float, after: float) -> float:
        return REFERENCE_PROBE_S / ((before + after) / 2)


def run_phase(workload, instances, seconds: float, probe: SpeedProbe, tracer=None):
    """Passes over the instances in turn for ``seconds`` (each at least once).

    Garbage left by the previous pass is collected before each pass, so a
    pass's collection pauses come from its own allocations.
    """
    passes = []
    gc.collect()
    before = probe.measure()
    started = time.perf_counter()
    while len(passes) < len(instances) or time.perf_counter() - started < seconds:
        index = len(passes) % len(instances)
        gc.collect()
        result = workload.run_pass(instances[index], tracer)
        after = probe.measure()
        result.scale = probe.scale(before, after)
        before = after
        passes.append((index, result))
    return passes


def end_to_end_metrics(setup_times, setup_scale, passes, scaled=True):
    """End-to-end metrics, in reference-speed time unless ``scaled`` is off."""

    def factor(result):
        return result.scale if scaled else 1.0

    latencies = [latency * factor(result)
                 for _, result in passes for latency in result.latencies]
    first = {}
    for index, result in passes:
        first.setdefault(index, result)
    return {
        "setup_s": statistics.median(setup_times) * (setup_scale if scaled else 1.0),
        "sequence_s": statistics.median(
            result.sequence * factor(result) for _, result in passes),
        "query_p50_ms": percentile(latencies, 0.50) * 1e3,
        "query_p90_ms": percentile(latencies, 0.90) * 1e3,
        "fill_nnz": statistics.fmean(result.fill for result in first.values()),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_instance_busy(passes):
    busy = {}
    for index, result in passes:
        busy.setdefault(index, []).append(result.busy * result.scale)
    return {index: statistics.median(values) for index, values in busy.items()}


def per_layer_metrics(tracer, plain, traced, checks):
    totals = tracer.totals()
    counts = tracer.counts

    def self_time(span):
        return totals.get(span, {}).get("self", 0.0)

    def calls(span):
        return totals.get(span, {}).get("calls", 0.0)

    def total(span):
        return totals.get(span, {}).get("total", 0.0)

    queue = [value for _, result in traced for value in result.queue]
    sizes = [value for _, result in traced for value in result.batch_sizes]
    info = {}
    for _, result in traced:
        for key, value in result.cache_info.items():
            info[key] = info.get(key, 0) + value
    plain_busy = _per_instance_busy(plain)
    traced_busy = _per_instance_busy(traced)
    overhead = statistics.fmean(
        traced_busy[index] / plain_busy[index] - 1.0 for index in plain_busy
    )
    roots, covered = tracer.coverage()
    metrics = {name: self_time(span) for name, span in SELF_TIME_METRICS.items()}
    metrics.update({
        "serve.queue_ms_p50": percentile(queue, 0.50) * 1e3,
        "serve.batch_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "query.answer_s": total("query.execute") - total("query.ladder"),
        **{f"query.tier.{tier}_groups": counts.get(f"query.tier.{tier}.groups", 0.0)
           for tier in TIERS},
        "query.scan_calls": calls("query.scan"),
        "query.scan_accept_ratio": _ratio(counts.get("query.scan.accepted", 0.0),
                                          calls("query.scan")),
        "query.result_hit_ratio": _ratio(info.get("result_hits", 0),
                                         info.get("result_hits", 0)
                                         + info.get("result_misses", 0)),
        "query.factor_hit_ratio": _ratio(info.get("hits", 0),
                                         info.get("hits", 0) + info.get("misses", 0)),
        "policy.correct_calls": calls("policy.correct"),
        "graphs.system_delta_calls": calls("graphs.system_delta"),
        "lu.markowitz_calls": calls("lu.markowitz"),
        "lu.crout_calls": calls("lu.crout"),
        "lu.bennett_calls": calls("lu.bennett"),
        "lu.solve_many_calls": calls("lu.solve_many"),
        "lu.solve_many_cols": counts.get("lu.solve_many.cols", 0.0),
        "core.clusters": _ratio(counts.get("core.clustering.clusters", 0.0),
                                calls("core.clustering")),
        "exec.units": counts.get("exec.execute.units", 0.0),
        "bench.gen_late_p99_ms": percentile(
            [value for _, result in plain for value in result.lateness], 0.99) * 1e3,
        "bench.trace_overhead_frac": overhead,
        "bench.span_coverage": _ratio(covered, roots),
        "bench.max_rel_dev": max(check.max_rel_dev for check in checks),
    })
    shares = {name: _ratio(metrics[name], roots) for name in SELF_TIME_METRICS}
    shares["query.answer_s"] = _ratio(metrics["query.answer_s"], roots)
    return metrics, shares


def closed_loop_tiers(passes):
    """Tier counts of the first pass over each instance, summed."""
    first = {}
    for index, result in passes:
        first.setdefault(index, result)
    tiers = {}
    for result in first.values():
        for tier, count in result.tiers.items():
            tiers[tier] = tiers.get(tier, 0) + count
    return tiers


def write_record(record, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
        f"{time.time_ns()}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", default=os.path.join(HERE, "records"),
                        help="directory the run's record is written to")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from _shared import host_info

    import tracing
    from workloads import WORKLOADS, threads_alive

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    seeds = [args.seed * 1000 + offset for offset in range(workload.instances)]

    probe = SpeedProbe()
    instances = []
    setup_times = []
    before = probe.measure()
    for seed in seeds:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            instance = workload.build(seed)
            setup_times.append(time.perf_counter() - started)
        instances.append(instance)
    setup_scale = probe.scale(before, probe.measure())
    # The inputs live for the whole run: keep them out of the collector's
    # scans, so the program's collection pauses do not grow with them.
    gc.collect()
    gc.freeze()

    trace_checks = {}
    if args.trace:
        plain = run_phase(workload, instances, args.seconds / 2, probe)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, instances, args.seconds / 2, probe, tracer)
        finally:
            tracer.restore()
        first_plain = {index: result for index, result in reversed(plain)}
        first_traced = {index: result for index, result in reversed(traced)}
        trace_checks = {
            "bitwise_mismatches": sum(
                1
                for index in first_plain
                for a, b in zip(first_plain[index].answers, first_traced[index].answers)
                if a is None or b is None or a.tobytes() != b.tobytes()
            ),
            "wrappers_restored": tracing.installed_targets_restored(),
        }
        passes = plain + traced
    else:
        passes = run_phase(workload, instances, args.seconds, probe)

    checks = [workload.check(instances[index], result) for index, result in passes]
    attempted = sum(len(result.answers) for _, result in passes)
    failed = sum(check.wrong for check in checks) + trace_checks.get("bitwise_mismatches", 0)

    untraced = plain if args.trace else passes
    e2e = end_to_end_metrics(setup_times, setup_scale, untraced)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "instance_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "config": workload.config,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "tiers_first_passes": closed_loop_tiers(plain if args.trace else passes),
        "end_to_end": {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "end_to_end_unscaled": end_to_end_metrics(setup_times, setup_scale, untraced,
                                                  scaled=False),
        "speed_scale": {"setup": setup_scale,
                        "passes": [result.scale for _, result in passes]},
        "checks": {
            "checked": sum(check.checked for check in checks),
            "max_rel_dev": max(check.max_rel_dev for check in checks),
            **trace_checks,
        },
    }
    if args.trace:
        layers, shares = per_layer_metrics(tracer, plain, traced, checks)
        record["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in PER_LAYER.items()}
        record["layer_shares"] = shares
        trace_checks["span_coverage_ok"] = layers["bench.span_coverage"] >= MIN_SPAN_COVERAGE
        record["checks"]["span_coverage_ok"] = trace_checks["span_coverage_ok"]
        metrics = record["per_layer"]
    else:
        metrics = record["end_to_end"]
    correct = failed == 0 and all(
        trace_checks.get(key, True) for key in ("wrappers_restored", "span_coverage_ok")
    )
    gc.unfreeze()
    record["correct"] = correct
    record["threads_left"] = threads_alive()
    print(f"record: {write_record(record, args.records)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct and record["threads_left"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
