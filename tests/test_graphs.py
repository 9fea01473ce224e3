"""Tests for graph snapshots, deltas, sequences, matrix composition and generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DatasetError, DimensionError, EmptySequenceError, MeasureError
from repro.graphs.delta import GraphDelta, touched_nodes
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import (
    SyntheticEGSConfig,
    barabasi_albert_edges,
    generate_synthetic_egs,
    growing_egs,
)
from repro.graphs.io import load_egs, save_egs
from repro.graphs.matrixkind import (
    MatrixKind,
    column_normalized_matrix,
    laplacian_matrix,
    measure_matrix,
    symmetric_normalized_matrix,
)
from repro.graphs.snapshot import GraphSnapshot


class TestGraphSnapshot:
    def test_basic_structure(self):
        snapshot = GraphSnapshot(4, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert snapshot.edge_count == 3
        assert (0, 1) in snapshot
        assert snapshot.successors(0) == {1}
        assert snapshot.predecessors(0) == {2}
        assert snapshot.out_degree(0) == 1
        assert snapshot.in_degree(0) == 1

    def test_undirected_mirrors_edges(self):
        snapshot = GraphSnapshot(3, [(0, 1)], directed=False)
        assert (1, 0) in snapshot
        assert snapshot.edge_count == 2

    def test_self_loops_and_duplicates_dropped(self):
        snapshot = GraphSnapshot(3, [(0, 0), (0, 1), (0, 1)])
        assert snapshot.edge_count == 1

    def test_out_of_bounds_edge(self):
        with pytest.raises(DimensionError):
            GraphSnapshot(3, [(0, 3)])

    def test_with_edges(self):
        snapshot = GraphSnapshot(4, [(0, 1), (1, 2)])
        updated = snapshot.with_edges(added=[(2, 3)], removed=[(0, 1)])
        assert (2, 3) in updated and (0, 1) not in updated
        assert (1, 2) in updated

    def test_degree_vectors(self):
        snapshot = GraphSnapshot(3, [(0, 1), (0, 2), (1, 2)])
        assert snapshot.out_degrees() == [2, 1, 0]
        assert snapshot.in_degrees() == [0, 1, 2]
        assert snapshot.average_degree() == pytest.approx(1.0)


class TestGraphDelta:
    def test_between_and_apply(self):
        before = GraphSnapshot(4, [(0, 1), (1, 2)])
        after = GraphSnapshot(4, [(1, 2), (2, 3)])
        delta = GraphDelta.between(before, after)
        assert delta.added == frozenset({(2, 3)})
        assert delta.removed == frozenset({(0, 1)})
        assert delta.apply(before) == after
        assert delta.size == 2

    def test_reversed(self):
        before = GraphSnapshot(3, [(0, 1)])
        after = GraphSnapshot(3, [(1, 2)])
        delta = GraphDelta.between(before, after)
        assert delta.reversed().apply(after) == before

    def test_overlapping_added_removed_rejected(self):
        with pytest.raises(DimensionError):
            GraphDelta(added=[(0, 1)], removed=[(0, 1)])

    def test_touched_nodes(self):
        delta = GraphDelta(added=[(0, 3)], removed=[(2, 1)])
        assert touched_nodes(delta) == (0, 1, 2, 3)

    def test_empty(self):
        snapshot = GraphSnapshot(3, [(0, 1)])
        assert GraphDelta.between(snapshot, snapshot).is_empty()


class TestEvolvingGraphSequence:
    def test_basic_container(self):
        snapshots = [GraphSnapshot(3, [(0, 1)]), GraphSnapshot(3, [(0, 1), (1, 2)])]
        egs = EvolvingGraphSequence(snapshots)
        assert len(egs) == 2
        assert egs.n == 3
        assert egs[1].edge_count == 2
        assert egs.edge_counts() == [1, 2]

    def test_requires_nonempty_and_consistent(self):
        with pytest.raises(EmptySequenceError):
            EvolvingGraphSequence([])
        with pytest.raises(DimensionError):
            EvolvingGraphSequence([GraphSnapshot(3), GraphSnapshot(4)])

    def test_deltas_and_reconstruction(self):
        snapshots = [
            GraphSnapshot(4, [(0, 1)]),
            GraphSnapshot(4, [(0, 1), (1, 2)]),
            GraphSnapshot(4, [(1, 2), (2, 3)]),
        ]
        egs = EvolvingGraphSequence(snapshots)
        rebuilt = EvolvingGraphSequence.from_initial_and_deltas(snapshots[0], egs.deltas())
        assert list(rebuilt) == snapshots

    def test_similarity_statistic(self):
        same = EvolvingGraphSequence([GraphSnapshot(3, [(0, 1)])] * 3)
        assert same.average_successive_similarity() == pytest.approx(1.0)

    def test_subsequence(self):
        snapshots = [GraphSnapshot(3, [(0, 1)])] * 5
        egs = EvolvingGraphSequence(snapshots)
        assert len(egs.subsequence(1, 4)) == 3
        with pytest.raises(EmptySequenceError):
            egs.subsequence(3, 3)


class TestMatrixComposition:
    def graph(self):
        return GraphSnapshot(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])

    def test_column_normalized(self):
        w = column_normalized_matrix(self.graph())
        dense = w.to_dense()
        for column in range(4):
            assert np.isclose(dense[:, column].sum(), 1.0)

    def test_random_walk_matrix_is_column_diagonally_dominant(self):
        matrix = measure_matrix(self.graph(), MatrixKind.RANDOM_WALK, damping=0.85)
        # A = I - dW with column-stochastic W is diagonally dominant by columns.
        assert matrix.transpose().is_diagonally_dominant()
        assert np.allclose(np.diag(matrix.to_dense()), 1.0)

    def test_symmetric_walk_matrix_is_symmetric_positive_definite(self):
        matrix = measure_matrix(self.graph(), MatrixKind.SYMMETRIC_WALK, damping=0.8)
        assert matrix.is_symmetric()
        eigenvalues = np.linalg.eigvalsh(matrix.to_dense())
        assert np.min(eigenvalues) > 0.0

    def test_symmetric_normalized_entries(self):
        s = symmetric_normalized_matrix(GraphSnapshot(3, [(0, 1), (1, 2)], directed=False))
        # deg(0)=1, deg(1)=2, deg(2)=1
        assert s.get(0, 1) == pytest.approx(1.0 / np.sqrt(2))
        assert s.get(0, 1) == s.get(1, 0)

    def test_laplacian(self):
        lap = laplacian_matrix(GraphSnapshot(3, [(0, 1), (1, 2)], directed=False))
        dense = lap.to_dense()
        assert np.allclose(dense.sum(axis=1), 0.0)
        matrix = measure_matrix(
            GraphSnapshot(3, [(0, 1), (1, 2)], directed=False), MatrixKind.LAPLACIAN
        )
        assert matrix.is_symmetric()

    def test_invalid_damping_rejected(self):
        with pytest.raises(MeasureError):
            measure_matrix(self.graph(), MatrixKind.RANDOM_WALK, damping=1.0)


class TestEvolvingMatrixSequence:
    def test_from_graphs(self, tiny_ems):
        assert len(tiny_ems) == 6
        assert tiny_ems.n == 40
        # Random-walk matrices are diagonally dominant by columns.
        assert all(matrix.transpose().is_diagonally_dominant() for matrix in tiny_ems)

    def test_deltas_align_with_matrices(self, tiny_ems):
        deltas = tiny_ems.deltas()
        assert len(deltas) == len(tiny_ems) - 1
        rebuilt = tiny_ems[0].to_dense()
        for delta, target in zip(deltas, list(tiny_ems)[1:]):
            for (i, j), value in delta.items():
                rebuilt[i, j] += value
            assert np.allclose(rebuilt, target.to_dense(), atol=1e-12)

    def test_symmetry_check(self, tiny_ems, tiny_symmetric_ems):
        assert not tiny_ems.is_symmetric()
        assert tiny_symmetric_ems.is_symmetric()

    def test_subsample_and_subsequence(self, tiny_ems):
        assert len(tiny_ems.subsample(2)) == 3
        assert len(tiny_ems.subsequence(1, 4)) == 3
        with pytest.raises(DimensionError):
            tiny_ems.subsample(0)

    def test_requires_nonempty(self):
        with pytest.raises(EmptySequenceError):
            EvolvingMatrixSequence([])

    def test_ems_from_graphs_with_limit(self):
        egs = growing_egs(nodes=20, snapshots=6, initial_edges=30, edges_per_step=4)
        ems = EvolvingMatrixSequence.from_graphs(egs.subsequence(0, 3))
        assert len(ems) == 3


class TestGenerators:
    def test_barabasi_albert_shape(self, rng):
        edges = barabasi_albert_edges(50, 3, rng)
        assert len(edges) >= 3 * (50 - 3)
        assert all(0 <= u < 50 and 0 <= v < 50 for u, v in edges)

    def test_synthetic_generator_respects_parameters(self):
        config = SyntheticEGSConfig(
            nodes=60, edge_pool_size=500, average_degree=3, delta_edges=10,
            snapshots=8, seed=1,
        )
        egs = generate_synthetic_egs(config)
        assert len(egs) == 8
        assert egs.n == 60
        assert abs(egs[0].edge_count - 180) <= 5
        # Successive snapshots must stay very similar (small delta).
        assert egs.average_successive_similarity() > 0.9

    def test_synthetic_generation_is_deterministic(self):
        config = SyntheticEGSConfig(nodes=40, edge_pool_size=320, snapshots=5, seed=11,
                                    average_degree=3, delta_edges=8)
        assert list(generate_synthetic_egs(config)) == list(generate_synthetic_egs(config))

    def test_synthetic_invalid_configs(self):
        with pytest.raises(DatasetError):
            SyntheticEGSConfig(nodes=1).validate()
        with pytest.raises(DatasetError):
            SyntheticEGSConfig(nodes=100, edge_pool_size=50).validate()
        with pytest.raises(DatasetError):
            SyntheticEGSConfig(nodes=10, edge_pool_size=100, average_degree=20).validate()

    def test_growing_egs_grows(self):
        egs = growing_egs(nodes=30, snapshots=5, initial_edges=40, edges_per_step=5)
        counts = egs.edge_counts()
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestEGSIO:
    def test_round_trip(self, tmp_path):
        egs = growing_egs(nodes=15, snapshots=4, initial_edges=20, edges_per_step=3)
        path = tmp_path / "sample.egs"
        save_egs(egs, path)
        loaded = load_egs(path)
        assert list(loaded) == list(egs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_egs(tmp_path / "missing.egs")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.egs"
        path.write_text("not an egs file\n")
        with pytest.raises(DatasetError):
            load_egs(path)
