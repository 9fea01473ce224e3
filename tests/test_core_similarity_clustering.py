"""Tests for cluster similarity machinery and the clustering algorithms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    alpha_clustering,
    beta_clustering_cinc,
    beta_clustering_clude,
    clusters_cover_sequence,
    MatrixCluster,
)
from repro.core.quality import MarkowitzReference, quality_loss
from repro.core.similarity import (
    IncrementalClusterBound,
    cluster_compactness,
    cluster_intersection_pattern,
    cluster_union_matrix,
    cluster_union_pattern,
    is_alpha_bounded,
    successive_similarities,
)
from repro.errors import ClusteringError, DimensionError
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix
from tests.conftest import perturb_matrix, random_dd_matrix


def matrix_chain(rng, count=5, n=20, churn=3):
    """A chain of gradually evolving diagonally dominant matrices."""
    matrices = [random_dd_matrix(n, 3 * n, rng)]
    for _ in range(count - 1):
        matrices.append(perturb_matrix(matrices[-1], changes=churn, rng=rng))
    return matrices


class TestBoundingMatrices:
    def test_property_1_sandwich(self, rng):
        """Property 1: sp(A_∩) ⊆ sp(A_i) ⊆ sp(A_∪) for every member."""
        matrices = matrix_chain(rng)
        intersection = cluster_intersection_pattern(matrices)
        union = cluster_union_pattern(matrices)
        for matrix in matrices:
            assert intersection <= matrix.pattern()
            assert matrix.pattern() <= union

    def test_union_matrix_is_indicator(self, rng):
        matrices = matrix_chain(rng, count=3)
        union_matrix = cluster_union_matrix(matrices)
        assert union_matrix.pattern() == cluster_union_pattern(matrices)
        assert all(value == 1.0 for _, _, value in union_matrix.items())

    def test_compactness_bounds(self, rng):
        matrices = matrix_chain(rng)
        compactness = cluster_compactness(matrices)
        assert 0.0 <= compactness <= 1.0
        assert cluster_compactness([matrices[0]]) == pytest.approx(1.0)

    def test_alpha_boundedness(self, rng):
        matrices = matrix_chain(rng, churn=1)
        assert is_alpha_bounded(matrices, 0.0)
        assert is_alpha_bounded([matrices[0]], 1.0)
        with pytest.raises(ClusteringError):
            is_alpha_bounded(matrices, 1.5)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusteringError):
            cluster_union_pattern([])

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(DimensionError):
            cluster_union_pattern([random_dd_matrix(5, 10, rng), random_dd_matrix(6, 10, rng)])

    def test_successive_similarities(self, rng):
        matrices = matrix_chain(rng, count=4, churn=1)
        sims = successive_similarities(matrices)
        assert len(sims) == 3
        assert all(0.0 <= s <= 1.0 for s in sims)


class TestIncrementalClusterBound:
    def test_matches_batch_computation(self, rng):
        matrices = matrix_chain(rng, count=6)
        bound = IncrementalClusterBound(matrices[0])
        for index in range(1, len(matrices)):
            predicted = bound.compactness_with(matrices[index])
            bound.add(matrices[index])
            batch = cluster_compactness(matrices[: index + 1])
            assert predicted == pytest.approx(batch)
            assert bound.compactness() == pytest.approx(batch)
        assert bound.size == len(matrices)

    def test_dimension_check(self, rng):
        bound = IncrementalClusterBound(random_dd_matrix(5, 12, rng))
        with pytest.raises(DimensionError):
            bound.add(random_dd_matrix(6, 12, rng))


class TestMatrixCluster:
    def test_properties(self):
        cluster = MatrixCluster(2, 6)
        assert cluster.size == 4
        assert list(cluster.indices) == [2, 3, 4, 5]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusteringError):
            MatrixCluster(3, 3)

    def test_cover_check(self):
        clusters = [MatrixCluster(0, 2), MatrixCluster(2, 5)]
        assert clusters_cover_sequence(clusters, 5)
        assert not clusters_cover_sequence(clusters, 6)
        assert not clusters_cover_sequence(list(reversed(clusters)), 5)


class TestAlphaClustering:
    def test_partitions_the_sequence(self, rng):
        matrices = matrix_chain(rng, count=8, churn=4)
        clusters = alpha_clustering(matrices, alpha=0.9)
        assert clusters_cover_sequence(clusters, len(matrices))

    def test_every_cluster_is_alpha_bounded(self, rng):
        matrices = matrix_chain(rng, count=8, churn=4)
        alpha = 0.9
        clusters = alpha_clustering(matrices, alpha=alpha)
        for cluster in clusters:
            members = [matrices[index] for index in cluster.indices]
            assert is_alpha_bounded(members, alpha)

    def test_alpha_one_gives_singletons_for_changing_matrices(self, rng):
        matrices = matrix_chain(rng, count=5, churn=4)
        clusters = alpha_clustering(matrices, alpha=1.0)
        # With strictly changing sparsity patterns every cluster is a singleton.
        assert all(cluster.size == 1 for cluster in clusters)

    def test_alpha_zero_gives_one_cluster(self, rng):
        matrices = matrix_chain(rng, count=5, churn=4)
        clusters = alpha_clustering(matrices, alpha=0.0)
        assert len(clusters) == 1

    def test_identical_matrices_form_one_cluster(self, rng):
        matrix = random_dd_matrix(15, 45, rng)
        clusters = alpha_clustering([matrix] * 6, alpha=1.0)
        assert len(clusters) == 1

    def test_monotone_in_alpha(self, rng):
        matrices = matrix_chain(rng, count=10, churn=3)
        previous_count = 0
        for alpha in (0.85, 0.92, 0.97, 1.0):
            count = len(alpha_clustering(matrices, alpha=alpha))
            assert count >= previous_count
            previous_count = count

    def test_invalid_inputs(self, rng):
        with pytest.raises(ClusteringError):
            alpha_clustering([], 0.9)
        with pytest.raises(ClusteringError):
            alpha_clustering([random_dd_matrix(5, 10, rng)], 1.5)


class TestBetaClustering:
    def symmetric_chain(self, rng, count=6, n=18, churn=2):
        base = np.zeros((n, n))
        for _ in range(2 * n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                base[i, j] = base[j, i] = -0.3
        matrices = []
        for _ in range(count):
            dense = base.copy()
            for i in range(n):
                dense[i, i] = 1.0 + np.sum(np.abs(dense[i]))
            matrices.append(SparseMatrix.from_dense(dense))
            # add a couple of symmetric entries for the next snapshot
            for _ in range(churn):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    base[i, j] = base[j, i] = -0.3
        return matrices

    def test_cinc_version_respects_constraint(self, rng):
        matrices = self.symmetric_chain(rng)
        beta = 0.15
        reference = MarkowitzReference(symmetric=True)
        clusters = beta_clustering_cinc(matrices, beta, reference)
        assert clusters_cover_sequence(clusters, len(matrices))
        for cluster in clusters:
            ordering, _ = markowitz_ordering(matrices[cluster.start])
            for index in cluster.indices:
                loss = quality_loss(
                    ordering, matrices[index],
                    reference_size=reference.size_for(index, matrices[index]),
                )
                assert loss <= beta + 1e-9

    def test_clude_version_respects_constraint(self, rng):
        matrices = self.symmetric_chain(rng)
        beta = 0.15
        reference = MarkowitzReference(symmetric=True)
        clusters = beta_clustering_clude(matrices, beta, reference)
        assert clusters_cover_sequence(clusters, len(matrices))
        for cluster in clusters:
            members = [matrices[index] for index in cluster.indices]
            ordering, _ = markowitz_ordering(cluster_union_matrix(members))
            for index in cluster.indices:
                loss = quality_loss(
                    ordering, matrices[index],
                    reference_size=reference.size_for(index, matrices[index]),
                )
                assert loss <= beta + 1e-9

    def test_beta_zero_forces_tight_clusters(self, rng):
        matrices = self.symmetric_chain(rng, churn=3)
        zero_clusters = beta_clustering_cinc(matrices, 0.0)
        loose_clusters = beta_clustering_cinc(matrices, 0.5)
        assert len(zero_clusters) >= len(loose_clusters)

    def test_negative_beta_rejected(self, rng):
        with pytest.raises(ClusteringError):
            beta_clustering_cinc(self.symmetric_chain(rng, count=2), -0.1)
        with pytest.raises(ClusteringError):
            beta_clustering_clude(self.symmetric_chain(rng, count=2), -0.1)


@given(alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_alpha_clustering_always_partitions(alpha, seed):
    rng = np.random.default_rng(seed)
    matrices = matrix_chain(rng, count=int(rng.integers(2, 7)), n=12, churn=int(rng.integers(1, 5)))
    clusters = alpha_clustering(matrices, alpha)
    assert clusters_cover_sequence(clusters, len(matrices))
