"""Property-based invariants of α- and β-clustering (paper Algorithms 1, 4, 5).

Randomized matrix sequences (hypothesis-driven but derandomized, so every
run draws the same fixed seeds) must always yield clusterings that are

* contiguous — every cluster is a ``start … stop-1`` range,
* non-overlapping and covering — the clusters tile ``0 … T-1`` exactly,
* α-bounded (α-clustering): the compactness ``mes(A_∩, A_∪)`` of every
  cluster stays at least α, and greedy maximality holds — extending a
  cluster with the next matrix would break the bound,
* β-bounded (QC variants): the shared ordering of every cluster keeps every
  *checked* member's quality-loss within β (Algorithm 4 checks candidates
  against the first member's ordering; Algorithm 5 checks the union
  ordering's upper bound against every member).
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    alpha_clustering,
    beta_clustering_cinc,
    beta_clustering_clude,
    clusters_cover_sequence,
)
from repro.core.quality import MarkowitzReference, symbolic_size_under_ordering
from repro.core.similarity import cluster_compactness, cluster_union_matrix
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.matrixkind import MatrixKind
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)
deltas = st.integers(min_value=4, max_value=26)
alphas = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
betas = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def _sequence(seed: int, delta_edges: int, snapshots: int = 6) -> List[SparseMatrix]:
    config = SyntheticEGSConfig(
        nodes=28,
        edge_pool_size=252,
        average_degree=3,
        delta_edges=delta_edges,
        snapshots=snapshots,
        seed=seed,
    )
    egs = generate_synthetic_egs(config)
    return list(EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK))


def assert_partition_invariants(clusters, length: int) -> None:
    """Contiguous, non-overlapping, covering — checked both ways."""
    assert clusters_cover_sequence(clusters, length)
    position = 0
    for cluster in clusters:
        assert cluster.start == position
        assert cluster.stop > cluster.start
        assert list(cluster.indices) == list(range(cluster.start, cluster.stop))
        position = cluster.stop
    assert position == length


@SETTINGS
@given(seed=seeds, delta_edges=deltas, alpha=alphas)
def test_alpha_clustering_invariants(seed, delta_edges, alpha):
    matrices = _sequence(seed, delta_edges)
    clusters = alpha_clustering(matrices, alpha)
    assert_partition_invariants(clusters, len(matrices))
    for position, cluster in enumerate(clusters):
        members = [matrices[i] for i in cluster.indices]
        # Every produced cluster honours the α bound...
        assert cluster_compactness(members) >= alpha
        # ...and is greedily maximal: absorbing the next matrix would break it.
        if position + 1 < len(clusters):
            next_first = matrices[clusters[position + 1].start]
            assert cluster_compactness(members + [next_first]) < alpha


@SETTINGS
@given(seed=seeds, delta_edges=deltas, beta=betas)
def test_beta_clustering_cinc_invariants(seed, delta_edges, beta):
    matrices = _sequence(seed, delta_edges)
    reference = MarkowitzReference()
    clusters = beta_clustering_cinc(matrices, beta, reference)
    assert_partition_invariants(clusters, len(matrices))
    checker = MarkowitzReference()
    for cluster in clusters:
        shared_ordering, _ = markowitz_ordering(matrices[cluster.start])
        for index in cluster.indices:
            # Algorithm 4's admission test, re-evaluated independently: the
            # first member's ordering must keep every member within β.  (The
            # first member scores exactly 0 by Definition 4.)
            loss = checker.quality_loss(index, shared_ordering, matrices[index])
            assert loss <= beta


@SETTINGS
@given(seed=seeds, delta_edges=deltas, beta=betas)
def test_beta_clustering_clude_invariants(seed, delta_edges, beta):
    matrices = _sequence(seed, delta_edges, snapshots=5)
    reference = MarkowitzReference()
    clusters = beta_clustering_clude(matrices, beta, reference)
    assert_partition_invariants(clusters, len(matrices))
    checker = MarkowitzReference()
    for cluster in clusters:
        members = [matrices[i] for i in cluster.indices]
        union_matrix = cluster_union_matrix(members)
        union_ordering, _ = markowitz_ordering(union_matrix)
        union_size = symbolic_size_under_ordering(union_matrix, union_ordering)
        for index in cluster.indices:
            best = checker.size_for(index, matrices[index])
            # Algorithm 5's shortcut bound: the union pattern's size (an
            # upper bound on every member's, by Theorem 1) stays within β.
            assert union_size - best <= beta * best
            # ...which implies the member's own quality-loss bound.
            loss = checker.quality_loss(index, union_ordering, matrices[index])
            assert loss <= beta


@pytest.mark.parametrize("alpha", [-0.1, 1.5])
def test_alpha_out_of_range_rejected(alpha, tiny_ems):
    from repro.errors import ClusteringError

    with pytest.raises(ClusteringError):
        alpha_clustering(list(tiny_ems), alpha)
