"""The Brute Force (BF) baseline algorithm.

BF (paper Section 4) computes the Markowitz ordering ``O*(A_i)`` of every
matrix in the EMS and performs a full Crout decomposition of every reordered
matrix.  It is the slowest method but achieves the best possible ordering
quality by construction (its quality-loss is zero), so the paper uses it both
as the speed baseline (other algorithms are reported as speedups over BF) and
as the quality reference.

Every snapshot is independent of every other, so BF is also the most
parallel algorithm: its execution plan has one work unit per snapshot and an
executor may run all of them concurrently.
"""

from __future__ import annotations

import time
from typing import Sequence, Union

from repro.core.result import (
    MatrixDecomposition,
    SequenceResult,
    Stopwatch,
    TimingBreakdown,
)
from repro.errors import EmptySequenceError
from repro.exec.executors import Executor, resolve_executor
from repro.exec.plan import plan_bf
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix


def decompose_snapshot_bf(
    matrix: SparseMatrix, index: int, stopwatch: Stopwatch
) -> MatrixDecomposition:
    """Run BF on one snapshot: Markowitz ordering + full Crout decomposition.

    This is the body of one BF work unit; both the serial and the parallel
    executors call exactly this function, which is what keeps their outputs
    bitwise-identical.
    """
    with stopwatch.time("ordering"):
        ordering, pattern = markowitz_ordering(matrix)
    with stopwatch.time("decomposition"):
        factors = crout_decompose(ordering.apply(matrix), pattern=pattern)
    return MatrixDecomposition(
        index=index,
        ordering=ordering,
        factors=factors,
        fill_size=factors.fill_size,
        cluster_id=index,
        structural_ops=factors.structural_ops,
    )


def decompose_sequence_bf(
    matrices: Sequence[SparseMatrix],
    executor: Union[Executor, int, None] = None,
) -> SequenceResult:
    """Run BF over an EMS: per-matrix Markowitz ordering + full decomposition.

    Parameters
    ----------
    matrices:
        The evolving matrix sequence.
    executor:
        How to schedule the per-snapshot work units: ``None`` (default) runs
        serially in-process, an ``int`` is a worker count for a process pool,
        or pass an :class:`~repro.exec.executors.Executor` instance.  The
        decompositions are bitwise-identical regardless of the executor.
    """
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot decompose an empty matrix sequence")

    started = time.perf_counter()
    plan = plan_bf(matrices)
    outcome = resolve_executor(executor).execute(plan)
    return SequenceResult(
        algorithm="BF",
        decompositions=outcome.decompositions,
        timing=TimingBreakdown.from_buckets(outcome.timings),
        cluster_count=len(matrices),
        wall_time=time.perf_counter() - started,
        bytes_shipped=outcome.bytes_shipped,
    )
