"""Shared workloads and cached sweeps for the benchmark suite.

Every ``bench_fig*.py`` module regenerates one figure of the paper.  Several
figures share the same underlying runs (e.g. Figures 6, 7 and 8 all come from
the α sweep on the Wiki and DBLP workloads), so this module builds each
workload and each sweep exactly once per pytest session and caches the
results.

Scales are chosen so the whole suite finishes in a few minutes of pure
Python.  They are far below the paper's dataset sizes; the quantities
reported are the same ones the paper plots.
"""

from __future__ import annotations

import functools
import os
import platform
from typing import Dict, List, Optional, Sequence

from repro.bench.runner import AlgorithmReport, WorkloadRunner
from repro.bench.workloads import Workload
from repro.datasets.dblp import DBLPConfig, generate_dblp_egs
from repro.datasets.patent import PatentConfig, generate_patent_dataset
from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind

def host_info() -> Dict[str, object]:
    """CPU/platform facts every recorded benchmark result self-describes with.

    ``usable_cpus`` is the count this *process* may actually run on
    (``os.process_cpu_count()`` where available — 3.13+ — else the
    scheduling affinity mask), which is the honest number for parallel
    runs: this container typically exposes 1 usable core, so recorded
    pool/shard runs show dispatch overhead, not speedup.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    usable: Optional[int] = None
    if process_cpu_count is not None:
        usable = process_cpu_count()
    if usable is None:
        try:
            usable = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            usable = os.cpu_count()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
    }


def host_info_line() -> str:
    """One markdown bullet recording :func:`host_info` in a results file."""
    info = host_info()
    return (
        f"- machine: {info['platform']}, python {info['python']}, "
        f"{info['usable_cpus']} usable CPU core(s) of {info['cpu_count']} visible"
    )


#: α values swept in Figures 6-8 (the paper sweeps 0.90 … 1.00).
ALPHAS: List[float] = [0.90, 0.94, 0.98, 1.00]

#: β values swept in Figure 10.
BETAS: List[float] = [0.0, 0.05, 0.1, 0.2, 0.3]

#: ΔE values swept in Figure 9 (scaled to the benchmark graph size).
DELTA_ES: List[int] = [8, 16, 24, 32]

#: Benchmark-scale stand-in for the paper's Wikipedia dataset.
WIKI_BENCH_CONFIG = WikiConfig(
    pages=400,
    snapshots=50,
    initial_links=2000,
    final_links=2500,
    churn_per_day=2,
    tracked_page=17,
    event_gain_day=12,
    event_dilute_day=30,
    seed=42,
)

#: Benchmark-scale stand-in for the paper's DBLP dataset (symmetric matrices).
DBLP_BENCH_CONFIG = DBLPConfig(
    authors=220,
    snapshots=40,
    initial_papers=330,
    papers_per_day=2,
    max_authors_per_paper=3,
    seed=13,
)

#: Smaller symmetric workload for the LUDEM-QC sweep (β-clustering re-runs
#: Markowitz many times, so the sequence is kept shorter).
DBLP_QC_CONFIG = DBLPConfig(
    authors=150,
    snapshots=20,
    initial_papers=220,
    papers_per_day=2,
    max_authors_per_paper=3,
    seed=13,
)

#: Case-study patent dataset configuration (Figure 11).
PATENT_BENCH_CONFIG = PatentConfig()


@functools.lru_cache(maxsize=None)
def wiki_runner() -> WorkloadRunner:
    """Workload runner for the Wiki benchmark workload (BF cached inside)."""
    egs = generate_wiki_egs(WIKI_BENCH_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK)
    return WorkloadRunner(Workload(name="wiki-bench", matrices=list(ems), symmetric=False))


@functools.lru_cache(maxsize=None)
def dblp_runner() -> WorkloadRunner:
    """Workload runner for the DBLP benchmark workload."""
    egs = generate_dblp_egs(DBLP_BENCH_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
    return WorkloadRunner(Workload(name="dblp-bench", matrices=list(ems), symmetric=True))


@functools.lru_cache(maxsize=None)
def dblp_qc_runner() -> WorkloadRunner:
    """Workload runner for the (smaller) LUDEM-QC workload."""
    egs = generate_dblp_egs(DBLP_QC_CONFIG)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
    return WorkloadRunner(Workload(name="dblp-qc-bench", matrices=list(ems), symmetric=True))


@functools.lru_cache(maxsize=None)
def patent_dataset():
    """The patent case-study dataset (Figure 11)."""
    return generate_patent_dataset(PATENT_BENCH_CONFIG)


@functools.lru_cache(maxsize=None)
def baseline_report(dataset: str, algorithm: str) -> AlgorithmReport:
    """BF / INC report for a dataset (cached; these take no parameter)."""
    runner = wiki_runner() if dataset == "wiki" else dblp_runner()
    return runner.evaluate(algorithm)


@functools.lru_cache(maxsize=None)
def alpha_report(dataset: str, algorithm: str, alpha: float) -> AlgorithmReport:
    """CINC / CLUDE report for one α value on one dataset (cached)."""
    runner = wiki_runner() if dataset == "wiki" else dblp_runner()
    return runner.evaluate(algorithm, alpha=alpha)


def alpha_sweep(dataset: str, algorithm: str, alphas: Sequence[float] = ALPHAS) -> List[AlgorithmReport]:
    """Reports of an algorithm across the α sweep for a dataset."""
    return [alpha_report(dataset, algorithm, alpha) for alpha in alphas]


@functools.lru_cache(maxsize=None)
def beta_report(algorithm: str, beta: float) -> AlgorithmReport:
    """CINC-QC / CLUDE-QC report for one β value (cached)."""
    return dblp_qc_runner().evaluate_qc(algorithm, beta=beta)


def beta_sweep(algorithm: str, betas: Sequence[float] = tuple(BETAS)) -> List[AlgorithmReport]:
    """Reports of a QC algorithm across the β sweep."""
    return [beta_report(algorithm, beta) for beta in betas]


def series_from_reports(reports: Sequence[AlgorithmReport], field: str) -> List[float]:
    """Extract one numeric column from a list of reports."""
    return [float(getattr(report, field)) for report in reports]


def single_run(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark.

    The heavy sequence decompositions are not micro-benchmarks; re-running
    them dozens of times would make the suite unusable.  ``pedantic`` with a
    single round records one timing sample while keeping the benchmark
    machinery (and its reporting) intact.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
