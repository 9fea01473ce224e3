"""In-text claims: query answering after LU decomposition vs GE, PI and MC.

Section 1 of the paper reports that, once a matrix is LU-decomposed, solving
a linear system by forward/backward substitution is orders of magnitude
faster than running one Gaussian elimination per query (about 5000x on their
Wikipedia data), and Section 8 adds that it is also much faster than
answering each query with power iteration or Monte-Carlo simulation.  This
benchmark measures per-query latency of all four methods on one Wiki
snapshot.  Absolute ratios depend on scale and implementation; the assertions
check the ordering and that the substitution path wins by a wide margin.
"""

from __future__ import annotations

import time

import numpy as np

from _shared import WIKI_BENCH_CONFIG, single_run
from repro.bench.reporting import format_table, print_header
from repro.datasets.wiki import generate_wiki_egs
from repro.graphs.matrixkind import MatrixKind, column_normalized_matrix, measure_matrix
from repro.lu.crout import crout_decompose
from repro.lu.gauss import gaussian_elimination_solve
from repro.lu.markowitz import markowitz_ordering
from repro.lu.solve import solve_reordered_system
from repro.measures.monte_carlo import rwr_monte_carlo
from repro.measures.power_iteration import rwr_power_iteration
from repro.measures.rwr import rwr_rhs


def _measure_latencies():
    snapshot = generate_wiki_egs(WIKI_BENCH_CONFIG)[10]
    matrix = measure_matrix(snapshot, MatrixKind.RANDOM_WALK, damping=0.85)
    walk = column_normalized_matrix(snapshot)
    n = matrix.n

    ordering, pattern = markowitz_ordering(matrix)
    factors = crout_decompose(ordering.apply(matrix), pattern=pattern)

    query_nodes = [1, 7, 17, 40, 99]
    timings = {}

    start = time.perf_counter()
    lu_solutions = []
    for node in query_nodes:
        lu_solutions.append(solve_reordered_system(factors, ordering, rwr_rhs(n, node)))
    timings["LU substitution"] = (time.perf_counter() - start) / len(query_nodes)

    start = time.perf_counter()
    ge_solutions = []
    for node in query_nodes:
        ge_solutions.append(gaussian_elimination_solve(matrix, rwr_rhs(n, node)))
    timings["Gaussian elimination"] = (time.perf_counter() - start) / len(query_nodes)

    start = time.perf_counter()
    for node in query_nodes:
        rwr_power_iteration(snapshot, node, tolerance=1e-10, walk_matrix=walk)
    timings["Power iteration"] = (time.perf_counter() - start) / len(query_nodes)

    start = time.perf_counter()
    for node in query_nodes:
        rwr_monte_carlo(snapshot, node, walks=1500, seed=node)
    timings["Monte Carlo"] = (time.perf_counter() - start) / len(query_nodes)

    agreement = max(
        float(np.max(np.abs(lu - ge))) for lu, ge in zip(lu_solutions, ge_solutions)
    )
    return timings, agreement


def test_claim_query_latency_after_decomposition(benchmark):
    """Per-query latency: LU substitution vs GE vs PI vs MC (one Wiki snapshot)."""
    timings, agreement = single_run(benchmark, _measure_latencies)

    lu = timings["LU substitution"]
    rows = [
        {
            "method": name,
            "seconds_per_query": seconds,
            "slowdown_vs_LU": seconds / lu,
        }
        for name, seconds in timings.items()
    ]
    print_header("In-text claim: per-query latency after LU decomposition")
    print(format_table(rows, ["method", "seconds_per_query", "slowdown_vs_LU"]))
    print(f"\nmax |x_LU - x_GE| over the probe queries: {agreement:.2e}")

    # LU-based substitution and Gaussian elimination agree exactly.
    assert agreement < 1e-8
    # Substitution is by far the cheapest way to answer a query; GE per query
    # is the most expensive exact method.
    assert timings["Gaussian elimination"] > 10 * lu
    assert timings["Power iteration"] > 2 * lu
    assert timings["Monte Carlo"] > 2 * lu
