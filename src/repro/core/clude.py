"""CLUDE: fast cluster-based LU decomposition (the paper's main contribution).

CLUDE (paper Algorithm 3) improves on CINC in two ways:

1. **Better shared ordering.**  Instead of ordering each cluster by its first
   member, CLUDE computes the Markowitz ordering ``O_∪`` of the cluster's
   union matrix ``A_∪`` (Definition 7), which by construction "sees" the
   structure of every member and therefore fits all of them better.
2. **Universal static data structure.**  A symbolic decomposition of
   ``A_∪^{O_∪}`` yields the *universal symbolic sparsity pattern* (USSP,
   Definition 9), which by Theorem 1 covers the symbolic pattern of every
   member.  One static structure allocated from the USSP is reused for every
   member's factors, so Bennett's algorithm performs purely numerical work —
   no adjacency-list restructuring at all.
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
from repro.core.similarity import cluster_union_matrix
from repro.errors import EmptySequenceError
from repro.exec.executors import Executor, reduce_timings, resolve_executor
from repro.exec.plan import plan_clustered
from repro.lu.bennett import bennett_update
from repro.lu.crout import crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.markowitz import markowitz_ordering
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering


def universal_symbolic_pattern(
    members: Sequence[SparseMatrix], ordering: Ordering
) -> SparsityPattern:
    """Return the USSP of a cluster under a shared ordering (Definition 9 / Theorem 1).

    The USSP is ``s̃p(A_∪^O)`` — the symbolic sparsity pattern of the reordered
    union matrix; by Lemma 1 it contains ``s̃p(A^O)`` for every member ``A``.
    """
    union = cluster_union_matrix(members)
    reordered_union = ordering.apply(union)
    return symbolic_decomposition(reordered_union.pattern())


def decompose_cluster_clude(
    members: Sequence[SparseMatrix],
    start: int,
    cluster_id: int,
    stopwatch: Stopwatch,
    share_factors: bool = False,
) -> List[MatrixDecomposition]:
    """Run CLUDE on one cluster (paper Algorithm 3), returning its decompositions.

    ``members`` are the cluster's matrices in sequence order and ``start`` is
    the EMS index of the first one.  This is the body of one CLUDE work
    unit; serial and parallel executors run exactly this code.

    Parameters
    ----------
    share_factors:
        When ``True``, every member's decomposition references the *same*
        static structure (whose values at return time are those of the last
        member).  This mirrors a streaming deployment where factors are used
        as soon as they are produced and then overwritten; it keeps memory
        flat across very long clusters.  The default (``False``) snapshots
        the values for every member so all solves remain available, which is
        what the examples and tests expect.
    """
    with stopwatch.time("ordering"):
        union_matrix = cluster_union_matrix(members)
        ordering = markowitz_ordering(union_matrix)
    with stopwatch.time("symbolic"):
        reordered_union = ordering.apply(union_matrix)
        ussp = symbolic_decomposition(reordered_union.pattern())
        static_factors = LUFactors.sealed(ussp)

    decompositions: List[MatrixDecomposition] = []
    with stopwatch.time("decomposition"):
        first_reordered = ordering.apply(members[0])
        crout_decompose_into(first_reordered, static_factors, pattern=ussp)
    decompositions.append(
        _make_decomposition(start, ordering, static_factors, cluster_id, share_factors)
    )

    for offset in range(1, len(members)):
        with stopwatch.time("bennett"):
            delta_original = members[offset - 1].delta_entries(members[offset])
            delta = ordering.map_entries(delta_original)
            bennett_update(static_factors, delta)
        decompositions.append(
            _make_decomposition(
                start + offset, ordering, static_factors, cluster_id, share_factors
            )
        )
    return decompositions


def _make_decomposition(
    index: int,
    ordering: Ordering,
    static_factors: LUFactors,
    cluster_id: int,
    share_factors: bool,
) -> MatrixDecomposition:
    """Package the current state of the static factors as a decomposition record."""
    factors = static_factors if share_factors else static_factors.copy()
    return MatrixDecomposition(
        index=index,
        ordering=ordering,
        factors=factors,
        fill_size=static_factors.fill_size,
        cluster_id=cluster_id,
        structural_ops=0,
    )


def decompose_sequence_clude(
    matrices: Sequence[SparseMatrix],
    alpha: float = 0.95,
    clusters: Optional[Sequence[MatrixCluster]] = None,
    share_factors: bool = False,
    executor: Union[Executor, int, None] = None,
) -> SequenceResult:
    """Run CLUDE over an EMS.

    Parameters
    ----------
    matrices:
        The evolving matrix sequence.
    alpha:
        Similarity threshold for α-clustering (ignored when ``clusters`` is given).
    clusters:
        Optional precomputed clustering (the LUDEM-QC driver passes β-clusters).
    share_factors:
        See :func:`decompose_cluster_clude`.
    executor:
        How to schedule the per-cluster work units: ``None`` (default) runs
        serially, an ``int`` is a process-pool worker count, or pass an
        :class:`~repro.exec.executors.Executor`.  Output is bitwise-identical
        across executors; clustering itself always runs in-process.
    """
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot decompose an empty matrix sequence")

    started = time.perf_counter()
    stopwatch = Stopwatch()
    if clusters is None:
        with stopwatch.time("clustering"):
            clusters = alpha_clustering(matrices, alpha)

    plan = plan_clustered(
        "CLUDE", matrices, clusters, options={"share_factors": share_factors}
    )
    outcome = resolve_executor(executor).execute(plan)
    timings = reduce_timings([stopwatch.totals(), outcome.timings])
    return SequenceResult(
        algorithm="CLUDE",
        decompositions=outcome.decompositions,
        timing=TimingBreakdown.from_buckets(timings),
        cluster_count=len(clusters),
        wall_time=time.perf_counter() - started,
        bytes_shipped=outcome.bytes_shipped,
    )
