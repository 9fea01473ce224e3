"""Benchmark harness: workloads, runners and plain-text reporting."""

from repro.bench.reporting import format_table, print_header, reports_to_table, series_table
from repro.bench.runner import (
    AlgorithmReport,
    WorkloadRunner,
    sweep_alpha,
    sweep_beta,
    sweep_workers,
)
from repro.bench.workloads import (
    ALPHA_SWEEP,
    BETA_SWEEP,
    DELTA_E_SWEEP,
    WORKER_SWEEP,
    Workload,
    dblp_workload,
    parallel_speedup_workload,
    synthetic_workload_with_delta,
    wiki_workload,
)

__all__ = [
    "Workload",
    "WorkloadRunner",
    "AlgorithmReport",
    "sweep_alpha",
    "sweep_beta",
    "sweep_workers",
    "parallel_speedup_workload",
    "WORKER_SWEEP",
    "wiki_workload",
    "dblp_workload",
    "synthetic_workload_with_delta",
    "ALPHA_SWEEP",
    "BETA_SWEEP",
    "DELTA_E_SWEEP",
    "format_table",
    "series_table",
    "reports_to_table",
    "print_header",
]
