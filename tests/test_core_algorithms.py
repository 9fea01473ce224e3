"""Integration tests for the four LUDEM algorithms (BF, INC, CINC, CLUDE)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bf import decompose_sequence_bf
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude, universal_symbolic_pattern
from repro.core.clustering import alpha_clustering
from repro.core.inc import decompose_sequence_inc
from repro.core.quality import MarkowitzReference
from repro.errors import EmptySequenceError
from repro.lu.symbolic import reorder_pattern, symbolic_decomposition
from tests.lu_oracles import factors_are_valid


ALGORITHMS = {
    "BF": decompose_sequence_bf,
    "INC": decompose_sequence_inc,
    "CINC": lambda matrices: decompose_sequence_cinc(matrices, alpha=0.9),
    "CLUDE": lambda matrices: decompose_sequence_clude(matrices, alpha=0.9),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestAllAlgorithms:
    def test_factors_reconstruct_every_matrix(self, name, tiny_ems):
        matrices = list(tiny_ems)
        result = ALGORITHMS[name](matrices)
        assert len(result) == len(matrices)
        for decomposition, matrix in zip(result.decompositions, matrices):
            assert factors_are_valid(
                decomposition.factors, matrix, decomposition.ordering, tolerance=1e-6
            )

    def test_solves_match_direct_solution(self, name, tiny_ems):
        matrices = list(tiny_ems)
        result = ALGORITHMS[name](matrices)
        rng = np.random.default_rng(0)
        b = rng.random(tiny_ems.n)
        for index, matrix in enumerate(matrices):
            x = result.solve(index, b)
            assert np.allclose(matrix.matvec(x), b, atol=1e-7)

    def test_fill_sizes_positive_and_recorded(self, name, tiny_ems):
        result = ALGORITHMS[name](list(tiny_ems))
        assert all(size >= tiny_ems.n for size in result.fill_sizes)

    def test_empty_sequence_rejected(self, name, tiny_ems):
        with pytest.raises(EmptySequenceError):
            ALGORITHMS[name]([])

    def test_timing_components_nonnegative(self, name, tiny_ems):
        result = ALGORITHMS[name](list(tiny_ems))
        timing = result.timing.as_dict()
        assert all(value >= 0.0 for value in timing.values())
        assert timing["total_time"] > 0.0


class TestAlgorithmSpecificBehaviour:
    def test_bf_has_zero_quality_loss(self, tiny_ems):
        matrices = list(tiny_ems)
        result = decompose_sequence_bf(matrices)
        reference = MarkowitzReference()
        losses = result.quality_losses(matrices, reference)
        assert all(abs(loss) < 1e-9 for loss in losses)

    def test_bf_uses_one_cluster_per_matrix(self, tiny_ems):
        result = decompose_sequence_bf(list(tiny_ems))
        assert result.cluster_count == len(tiny_ems)

    def test_inc_uses_single_ordering(self, tiny_ems):
        result = decompose_sequence_inc(list(tiny_ems))
        first = result[0].ordering
        assert all(decomposition.ordering == first for decomposition in result.decompositions)
        assert result.cluster_count == 1

    def test_inc_quality_never_better_than_cluster_methods_on_average(self, tiny_ems):
        matrices = list(tiny_ems)
        reference = MarkowitzReference()
        inc_loss = decompose_sequence_inc(matrices).average_quality_loss(matrices, reference)
        clude_loss = decompose_sequence_clude(matrices, alpha=0.95).average_quality_loss(
            matrices, reference
        )
        assert clude_loss <= inc_loss + 1e-9

    def test_cinc_orderings_shared_within_cluster(self, tiny_ems):
        matrices = list(tiny_ems)
        result = decompose_sequence_cinc(matrices, alpha=0.9)
        by_cluster = {}
        for decomposition in result.decompositions:
            by_cluster.setdefault(decomposition.cluster_id, set()).add(decomposition.ordering)
        assert all(len(orderings) == 1 for orderings in by_cluster.values())

    def test_clude_has_no_structural_ops(self, tiny_ems):
        result = decompose_sequence_clude(list(tiny_ems), alpha=0.9)
        assert result.total_structural_ops == 0

    def test_cinc_and_inc_have_structural_ops_recorded(self, tiny_ems):
        matrices = list(tiny_ems)
        inc_ops = decompose_sequence_inc(matrices).total_structural_ops
        cinc_ops = decompose_sequence_cinc(matrices, alpha=0.9).total_structural_ops
        assert inc_ops >= 0 and cinc_ops >= 0

    def test_clude_respects_precomputed_clusters(self, tiny_ems):
        matrices = list(tiny_ems)
        clusters = alpha_clustering(matrices, 0.97)
        result = decompose_sequence_clude(matrices, clusters=clusters)
        assert result.cluster_count == len(clusters)

    def test_universal_pattern_covers_members(self, tiny_ems):
        """Theorem 1 applied through the CLUDE helper."""
        matrices = list(tiny_ems)
        clusters = alpha_clustering(matrices, 0.9)
        from repro.lu.markowitz import markowitz_ordering
        from repro.core.similarity import cluster_union_matrix

        for cluster in clusters:
            members = [matrices[index] for index in cluster.indices]
            ordering, _ = markowitz_ordering(cluster_union_matrix(members))
            ussp = universal_symbolic_pattern(members, ordering)
            for member in members:
                reordered = reorder_pattern(
                    member.pattern(), ordering.row.order, ordering.column.order
                )
                assert symbolic_decomposition(reordered) <= ussp
