"""Kernel layer vs. the seed's pure-Python loops.

The seed ``SparseMatrix`` stored a dict-of-dicts and walked it with Python
loops in every hot path.  This benchmark reconstructs that implementation as
an in-file baseline and measures the vectorized CSR kernels against it:

* ``matvec`` at ``n = 2000`` — the inner loop of power iteration and of
  every residual check (acceptance floor: >= 5x),
* ``solve_many`` on a 64-column right-hand-side block vs. 64 scalar solves —
  the paper's measure-time-series access pattern (acceptance floor: > 1x),
* the narrow (per-column Python) and wide (vectorized NumPy) triangular
  sweeps at k = 1, 4, 16, 64 on an ``n = 400`` RWR system, with the sweep the
  width rule selects, plus a one-hot k = 1 and a two-seed k = 4 block shaped
  like the RWR/PPR queries' right-hand sides, where the narrow forward sweep
  skips the columns of ``L`` whose ``x[j]`` is zero.  Both sweeps run
  through the factors' sweep plan and must agree bitwise on every block,
  on a fresh container (the first solve builds the plan) and on the built
  plan.  The Markowitz elimination's rows must equal a separate symbolic
  pass's, and that system's Crout factors must be bitwise the same whether
  ``s̃p`` comes from the Markowitz elimination (``pattern=``) or the
  symbolic pass.  At k = 1 (one-hot) the first solve of a fresh container,
  plan build included, and the steady per-column time are printed,
* Figure 8(b) in small: the Bennett time of one α = 0.95 cluster of the
  ``ludem_wiki`` wiki sequence (300 pages, seed 3), replayed through CLUDE's
  sealed USSP structure and through CINC's growable factors in the first
  member's own Markowitz order; five interleaved repeats with the collector
  off, gated on the sealed median staying below the growable one.

Runs standalone in a few seconds::

    PYTHONPATH=src python benchmarks/bench_kernels_vs_python.py
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List

import numpy as np

from repro.core.cinc import decompose_cluster_cinc
from repro.core.clude import decompose_cluster_clude
from repro.core.clustering import alpha_clustering
from repro.core.result import Stopwatch
from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind, measure_matrix
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.lu.solve import solve_factored, solve_factored_many
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import narrow_sweep, wide_sweep

MATVEC_N = 2000
MATVEC_AVG_DEGREE = 8
MATVEC_REPS = 30

SOLVE_N = 300
SOLVE_AVG_DEGREE = 3
SOLVE_RHS = 64
SOLVE_REPS = 3

SWEEP_N = 400
SWEEP_WIDTHS = (1, 4, 16, 64)
SWEEP_REPS = 5
#: Sparse right-hand sides ``(1 - d)·q``: (label, k, seeds per column).
SPARSE_SWEEPS = (("one-hot", 1, 1), ("two-seed", 4, 2))

#: The ``ludem_wiki`` workload's wiki sequence at seed 3, and its α.
FIG08B_WIKI = WikiConfig(
    pages=300, snapshots=40, initial_links=1500, final_links=1875, churn_per_day=2,
    tracked_page=17, event_gain_day=12, event_dilute_day=30, seed=3,
)
FIG08B_ALPHA = 0.95
FIG08B_REPEATS = 5


class DictOfDictsMatvec:
    """The seed implementation: per-row ``{column: value}`` dicts, Python loops."""

    def __init__(self, matrix: SparseMatrix) -> None:
        self.n = matrix.n
        self.rows: List[Dict[int, float]] = [matrix.row(i) for i in range(matrix.n)]

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        result = np.zeros(self.n, dtype=float)
        for i, row in enumerate(self.rows):
            total = 0.0
            for j, value in row.items():
                total += value * vector[j]
            result[i] = total
        return result


def _random_dd(n: int, avg_degree: int, seed: int) -> SparseMatrix:
    rng = np.random.default_rng(seed)
    nnz = n * avg_degree
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    off = rows != cols
    vals = -0.5 * rng.random(nnz)
    matrix = SparseMatrix.from_coo(n, rows[off], cols[off], vals[off])
    # Make it strictly diagonally dominant so it decomposes without pivoting.
    row_sums = np.abs(matrix.to_dense()).sum(axis=1) if n <= 500 else None
    if row_sums is None:
        row_sums = np.bincount(matrix.coo()[0], weights=np.abs(matrix.data), minlength=n)
    diag = SparseMatrix.from_coo(n, np.arange(n), np.arange(n), 1.0 + row_sums)
    return matrix.add(diag)


def _best_of(reps: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def measure_matvec_speedup() -> Dict[str, float]:
    """Time dict-of-dicts vs. CSR-kernel matvec at ``n = MATVEC_N``."""
    matrix = _random_dd(MATVEC_N, MATVEC_AVG_DEGREE, seed=7)
    baseline = DictOfDictsMatvec(matrix)
    x = np.random.default_rng(1).random(MATVEC_N)
    # Warm up + correctness guard: both paths must agree.
    assert np.allclose(baseline.matvec(x), matrix.matvec(x))
    python_time = _best_of(max(3, MATVEC_REPS // 10), baseline.matvec, x)
    kernel_time = _best_of(MATVEC_REPS, matrix.matvec, x)
    return {
        "n": float(MATVEC_N),
        "nnz": float(matrix.nnz),
        "python_ms": python_time * 1e3,
        "kernel_ms": kernel_time * 1e3,
        "speedup": python_time / kernel_time,
    }


def measure_solve_many_speedup() -> Dict[str, float]:
    """Time 64 scalar solves vs. one batched ``solve_many`` on the same factors."""
    matrix = _random_dd(SOLVE_N, SOLVE_AVG_DEGREE, seed=11)
    ordering, pattern = markowitz_ordering(matrix)
    factors = crout_decompose(ordering.apply(matrix), pattern=pattern)
    block = np.random.default_rng(2).random((SOLVE_N, SOLVE_RHS))

    def looped() -> np.ndarray:
        return np.column_stack(
            [solve_factored(factors, block[:, c]) for c in range(SOLVE_RHS)]
        )

    def batched() -> np.ndarray:
        return solve_factored_many(factors, block)

    assert looped().tobytes() == batched().tobytes()
    looped_time = _best_of(SOLVE_REPS, looped)
    batched_time = _best_of(SOLVE_REPS, batched)
    return {
        "n": float(SOLVE_N),
        "rhs": float(SOLVE_RHS),
        "looped_ms": looped_time * 1e3,
        "batched_ms": batched_time * 1e3,
        "speedup": looped_time / batched_time,
    }


def _rwr_system(n: int, seed: int) -> SparseMatrix:
    """``I - 0.85 W`` of a random digraph with 3 out-edges per node on average."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((u, v))
    return measure_matrix(GraphSnapshot(n, edges), MatrixKind.RANDOM_WALK, 0.85)


def _bits(factors) -> tuple:
    """The factors' index lists, with every value as ``float.hex``."""
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()

    def hexed(lists):
        return [[value.hex() for value in values] for values in lists]

    return [value.hex() for value in pivots], l_rows, hexed(l_values), u_cols, hexed(u_values)


def _seeded_block(n: int, k: int, seeds: int, rng: np.random.Generator) -> np.ndarray:
    """``(1 - d)`` spread over ``seeds`` random rows of each of ``k`` columns."""
    block = np.zeros((n, k))
    for column in range(k):
        block[rng.choice(n, size=seeds, replace=False), column] = 0.15 / seeds
    return block


def _first_solve(factors, block) -> float:
    """Seconds of one solve on a fresh copy of ``factors`` (plan build included)."""
    fresh = factors.copy()
    start = time.perf_counter()
    fresh.solve_many(block)
    return time.perf_counter() - start


def measure_sweeps() -> List[Dict[str, object]]:
    """Time both sweeps on dense blocks at ``SWEEP_WIDTHS``, then on ``SPARSE_SWEEPS``."""
    matrix = _rwr_system(SWEEP_N, seed=3)
    ordering, pattern = markowitz_ordering(matrix)
    reordered = ordering.apply(matrix)
    factors = crout_decompose(reordered, pattern=pattern)
    # Deterministic gates: the Markowitz elimination's rows are a separate
    # symbolic pass's, and Crout gives the same bits from either.
    symbolic = symbolic_decomposition(reordered.pattern())
    assert pattern.row_lists() == symbolic.row_lists()
    assert _bits(factors) == _bits(crout_decompose(reordered, pattern=symbolic))
    plan = factors.sweep_plan()
    blocks = [("dense", np.random.default_rng(k).random((SWEEP_N, k))) for k in SWEEP_WIDTHS]
    blocks += [
        (label, _seeded_block(SWEEP_N, k, seeds, np.random.default_rng(k)))
        for label, k, seeds in SPARSE_SWEEPS
    ]
    rows = []
    for label, block in blocks:
        k = block.shape[1]
        # Deterministic gate: both sweeps give the same bits on every block,
        # through a plan built by the first solve and through the built plan.
        first = narrow_sweep(factors.copy(), block).tobytes()
        assert first == wide_sweep(factors.copy(), block).tobytes()
        assert first == narrow_sweep(factors, block).tobytes()
        assert first == wide_sweep(factors, block).tobytes()
        row = {
            "rhs": label,
            "k": float(k),
            "narrow_ms": _best_of(SWEEP_REPS, narrow_sweep, factors, block) * 1e3,
            "wide_ms": _best_of(SWEEP_REPS, wide_sweep, factors, block) * 1e3,
            "selects_narrow": float(plan.is_narrow(k)),
        }
        if label == "one-hot":
            row["first_ms"] = min(
                _first_solve(factors, block) for _ in range(SWEEP_REPS)
            ) * 1e3
            row["steady_ms"] = _best_of(SWEEP_REPS, factors.solve_many, block) * 1e3
        rows.append(row)
    return rows


def measure_fig08b() -> Dict[str, float]:
    """Median Bennett time of the first α-cluster through CINC and CLUDE.

    Both run the cluster's own work-unit routine and the ``bennett``
    bucket of its stopwatch is read, as the full Figure 8(b) bench reads
    each algorithm's Bennett time.  The runs alternate which goes first.
    """
    matrices = list(EvolvingMatrixSequence.from_graphs(generate_wiki_egs(FIG08B_WIKI)))
    cluster = alpha_clustering(matrices, FIG08B_ALPHA)[0]
    members = matrices[cluster.start:cluster.stop]
    routines = {"growable": decompose_cluster_cinc, "sealed": decompose_cluster_clude}
    samples: Dict[str, List[float]] = {name: [] for name in routines}
    for repeat in range(FIG08B_REPEATS):
        for name in ("growable", "sealed") if repeat % 2 == 0 else ("sealed", "growable"):
            stopwatch = Stopwatch()
            gc.collect()
            gc.disable()
            try:
                routines[name](members, cluster.start, 0, stopwatch)
            finally:
                gc.enable()
            samples[name].append(stopwatch.total("bennett"))
    growable = statistics.median(samples["growable"])
    sealed = statistics.median(samples["sealed"])
    return {
        "members": float(len(members)),
        "growable_ms": growable * 1e3,
        "sealed_ms": sealed * 1e3,
        "ratio": growable / sealed,
    }


def _report(
    matvec: Dict[str, float], solve: Dict[str, float], sweeps: List[Dict[str, object]],
    fig08b: Dict[str, float],
) -> None:
    print("\n== CSR kernels vs. seed dict-of-dicts loops ==")
    print(
        f"matvec     n={int(matvec['n'])} nnz={int(matvec['nnz'])}: "
        f"python {matvec['python_ms']:.3f} ms -> kernel {matvec['kernel_ms']:.3f} ms "
        f"({matvec['speedup']:.1f}x)"
    )
    print(
        f"solve_many n={int(solve['n'])} k={int(solve['rhs'])}: "
        f"looped {solve['looped_ms']:.3f} ms -> batched {solve['batched_ms']:.3f} ms "
        f"({solve['speedup']:.1f}x)"
    )
    for row in sweeps:
        picked = "narrow" if row["selects_narrow"] else "wide"
        print(
            f"solve_many n={SWEEP_N} k={int(row['k'])} {row['rhs']}: "
            f"narrow {row['narrow_ms']:.3f} ms, "
            f"wide {row['wide_ms']:.3f} ms (selects {picked}; bitwise equal)"
        )
        if "first_ms" in row:
            print(
                f"solve_many n={SWEEP_N} k=1 {row['rhs']}: first solve {row['first_ms']:.3f} ms "
                f"(plan build included), steady {row['steady_ms']:.3f} ms per column"
            )
    print(
        f"fig08b     {int(fig08b['members'])} members, median of {FIG08B_REPEATS}: "
        f"growable (CINC) {fig08b['growable_ms']:.1f} ms, "
        f"sealed (CLUDE) {fig08b['sealed_ms']:.1f} ms ({fig08b['ratio']:.2f}x)"
    )


def test_kernels_vs_python(benchmark):
    """Record kernel speedups over the seed's pure-Python loops."""
    from _shared import single_run

    matvec = single_run(benchmark, measure_matvec_speedup)
    solve = measure_solve_many_speedup()
    fig08b = measure_fig08b()
    _report(matvec, solve, measure_sweeps(), fig08b)
    assert matvec["speedup"] >= 5.0
    assert solve["speedup"] > 1.0
    assert fig08b["sealed_ms"] < fig08b["growable_ms"]


def main() -> int:
    matvec = measure_matvec_speedup()
    solve = measure_solve_many_speedup()
    fig08b = measure_fig08b()
    _report(matvec, solve, measure_sweeps(), fig08b)
    ok = (
        matvec["speedup"] >= 5.0
        and solve["speedup"] > 1.0
        and fig08b["sealed_ms"] < fig08b["growable_ms"]
    )
    print("PASS" if ok else "FAIL: speedup floors or the Fig. 8(b) gate not met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
