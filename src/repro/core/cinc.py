"""The cluster-based incremental algorithm (CINC).

CINC (paper Algorithm 2) first segments the EMS into α-bounded clusters
(Algorithm 1).  Within each cluster it behaves like INC: it computes the
Markowitz ordering of the *first* member, applies it to every member, fully
decomposes the first member and applies Bennett's algorithm to the rest —
but the clustering keeps the shared ordering reasonably fit for all members,
which is what INC lacks.  The factors are still held in per-matrix dynamic
adjacency lists, so the structural-restructuring cost of Bennett's algorithm
remains (that is the cost CLUDE removes).

Clusters share no state with one another, so each cluster is one work unit
of the execution plan and a parallel executor may decompose clusters
concurrently.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from repro.core.clustering import MatrixCluster, alpha_clustering
from repro.core.result import (
    MatrixDecomposition,
    SequenceResult,
    Stopwatch,
    TimingBreakdown,
)
from repro.errors import EmptySequenceError
from repro.exec.executors import Executor, reduce_timings, resolve_executor
from repro.exec.plan import plan_clustered
from repro.lu.bennett import bennett_update
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix


def decompose_cluster_cinc(
    members: Sequence[SparseMatrix],
    start: int,
    cluster_id: int,
    stopwatch: Stopwatch,
) -> List[MatrixDecomposition]:
    """Run CINC on one cluster (paper Algorithm 2), returning its decompositions.

    ``members`` are the cluster's matrices in sequence order and ``start`` is
    the EMS index of the first one.  This is the body of one CINC work unit;
    serial and parallel executors run exactly this code.
    """
    with stopwatch.time("ordering"):
        ordering, pattern = markowitz_ordering(members[0])

    decompositions: List[MatrixDecomposition] = []
    with stopwatch.time("decomposition"):
        factors = crout_decompose(ordering.apply(members[0]), pattern=pattern)
    decompositions.append(
        MatrixDecomposition(
            index=start,
            ordering=ordering,
            factors=factors,
            fill_size=factors.fill_size,
            cluster_id=cluster_id,
            structural_ops=factors.structural_ops,
        )
    )

    for offset in range(1, len(members)):
        with stopwatch.time("bennett"):
            delta_original = members[offset - 1].delta_entries(members[offset])
            delta = ordering.map_entries(delta_original)
            # Each member gets its own list structures derived from the
            # previous member's (structural copy + in-place restructuring),
            # matching the dynamic-representation cost profile of the paper.
            factors = factors.copy()
            ops_before = factors.structural_ops
            bennett_update(factors, delta)
            structural_ops = factors.structural_ops - ops_before
        decompositions.append(
            MatrixDecomposition(
                index=start + offset,
                ordering=ordering,
                factors=factors,
                fill_size=factors.fill_size,
                cluster_id=cluster_id,
                structural_ops=structural_ops,
            )
        )
    return decompositions


def decompose_sequence_cinc(
    matrices: Sequence[SparseMatrix],
    alpha: float = 0.95,
    clusters: Optional[Sequence[MatrixCluster]] = None,
    executor: Union[Executor, int, None] = None,
) -> SequenceResult:
    """Run CINC over an EMS.

    Parameters
    ----------
    matrices:
        The evolving matrix sequence.
    alpha:
        Similarity threshold for α-clustering (ignored when ``clusters`` is given).
    clusters:
        Optional precomputed clustering (used by the LUDEM-QC driver, which
        supplies β-clusters instead of α-clusters).
    executor:
        How to schedule the per-cluster work units: ``None`` (default) runs
        serially, an ``int`` is a process-pool worker count, or pass an
        :class:`~repro.exec.executors.Executor`.  Output is bitwise-identical
        across executors; clustering itself always runs in-process (it is a
        sequential scan by construction).
    """
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot decompose an empty matrix sequence")

    started = time.perf_counter()
    stopwatch = Stopwatch()
    if clusters is None:
        with stopwatch.time("clustering"):
            clusters = alpha_clustering(matrices, alpha)

    plan = plan_clustered("CINC", matrices, clusters)
    outcome = resolve_executor(executor).execute(plan)
    timings = reduce_timings([stopwatch.totals(), outcome.timings])
    return SequenceResult(
        algorithm="CINC",
        decompositions=outcome.decompositions,
        timing=TimingBreakdown.from_buckets(timings),
        cluster_count=len(clusters),
        wall_time=time.perf_counter() - started,
        bytes_shipped=outcome.bytes_shipped,
    )
