"""Property tests for the batched multi-right-hand-side solve path.

The contract under test: ``solve_many(B)`` equals column-by-column
``solve(b)`` — *bitwise*, not just approximately — for all four LU engines
(BF, INC, CINC, CLUDE) on a small EMS, and the batched and scalar measure
series paths produce bitwise-identical PageRank/RWR time series.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import EMSSolver, available_algorithms
from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.matrixkind import MatrixKind, measure_matrix
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.markowitz import markowitz_ordering
from repro.lu.solve import solve_factored
from repro.lu.factors import LUFactors
from repro.lu.symbolic import symbolic_decomposition
from repro.measures.pagerank import pagerank_rhs, pagerank_series
from repro.measures.rwr import rwr_scores, rwr_scores_many
from repro.measures.timeseries import MeasureSeries
from repro.measures.base import SnapshotMeasureSolver
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import narrow_sweep, wide_sweep
from tests.conftest import random_dd_matrix

ALGORITHMS = available_algorithms()


@pytest.fixture(scope="module")
def small_egs():
    config = SyntheticEGSConfig(
        nodes=30, edge_pool_size=240, average_degree=4, delta_edges=8,
        snapshots=4, seed=21,
    )
    return generate_synthetic_egs(config)


@pytest.fixture(scope="module")
def small_ems(small_egs):
    from repro.graphs.ems import EvolvingMatrixSequence
    from repro.graphs.matrixkind import MatrixKind

    return EvolvingMatrixSequence.from_graphs(small_egs, kind=MatrixKind.RANDOM_WALK)


def _dynamic_and_static(matrix):
    """Crout factors of ``matrix`` in both factor containers."""
    pattern = symbolic_decomposition(matrix.pattern())
    static = LUFactors.sealed(pattern)
    crout_decompose_into(matrix, static, pattern=pattern)
    return crout_decompose(matrix), static


def _assert_sweeps_agree(factors, block):
    """Narrow, wide, auto-selected and column-wise scalar solves are bitwise equal."""
    narrow = narrow_sweep(factors, block)
    wide = wide_sweep(factors, block)
    assert narrow.shape == wide.shape == block.shape
    assert narrow.tobytes() == wide.tobytes()
    assert factors.solve_many(block).tobytes() == narrow.tobytes()
    for forward, backward in ((True, False), (False, True)):
        assert (
            narrow_sweep(factors, block, forward, backward).tobytes()
            == wide_sweep(factors, block, forward, backward).tobytes()
        )
    for column in range(block.shape[1]):
        scalar = solve_factored(factors, block[:, column])
        assert narrow[:, column].tobytes() == scalar.tobytes()


def _reference_narrow(factors, block, forward=True, backward=True):
    """The narrow sweep without the zero skip: every update of every column."""
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    block = np.array(block, dtype=np.float64)
    for c in range(block.shape[1]):
        x = block[:, c].tolist()
        if forward:
            for j, pivot in enumerate(pivots):
                xj = x[j] / pivot
                x[j] = xj
                for i, value in zip(l_rows[j], l_values[j]):
                    x[i] -= value * xj
        if backward:
            for i in range(len(pivots) - 1, -1, -1):
                xi = x[i]
                for j, value in zip(reversed(u_cols[i]), reversed(u_values[i])):
                    xi -= value * x[j]
                x[i] = xi
        block[:, c] = x
    return block


def _assert_matches_reference(factors, block):
    """The narrow sweep equals the unskipped reference bit for bit, each way."""
    for forward, backward in ((True, True), (True, False), (False, True)):
        assert (
            narrow_sweep(factors, block, forward, backward).tobytes()
            == _reference_narrow(factors, block, forward, backward).tobytes()
        )


def _sparse_block(shape: str, n: int, k: int, rng) -> np.ndarray:
    """A right-hand-side block shaped like the serving RHS: mostly zeros."""
    block = np.zeros((n, k))
    if n == 0:
        return block
    for column in range(k):
        if shape == "one_hot":
            block[rng.integers(n), column] = 0.15
        elif shape == "two_seed":
            block[rng.integers(n, size=2), column] = 0.075
        else:
            dense = rng.random(n) < 0.3
            block[dense, column] = rng.standard_normal(int(dense.sum()))
    return block


class TestSolveManyEqualsColumnwiseSolve:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_engines_all_snapshots(self, algorithm, small_ems):
        solver = EMSSolver(small_ems, algorithm=algorithm, alpha=0.9)
        rng = np.random.default_rng(5)
        n = small_ems.n
        block = rng.standard_normal((n, 7))
        for index in range(len(small_ems)):
            batched = solver.solve_many(index, block)
            assert batched.shape == (n, 7)
            for column in range(block.shape[1]):
                scalar = solver.solve(index, block[:, column])
                assert batched[:, column].tobytes() == scalar.tobytes()

    def test_factors_level_solve_many(self, rng):
        matrix = random_dd_matrix(20, 70, rng)
        factors = crout_decompose(matrix)
        block = rng.standard_normal((20, 64))
        batched = factors.solve_many(block)
        for column in range(64):
            scalar = solve_factored(factors, block[:, column])
            assert batched[:, column].tobytes() == scalar.tobytes()
        # And the answers are actually solutions.
        assert np.allclose(matrix.to_dense() @ batched, block)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 40),
        n=st.sampled_from([0, 1, 12, 120]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_equals_scalar_property(self, seed, k, n):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((n, k))
        for factors in _dynamic_and_static(random_dd_matrix(n, 3 * n, rng)):
            _assert_sweeps_agree(factors, block)

    @pytest.mark.parametrize("n", [0, 1, 12, 120])
    def test_both_sweeps_at_every_width(self, n):
        rng = np.random.default_rng(n)
        containers = _dynamic_and_static(random_dd_matrix(n, 3 * n, rng))
        for k in range(41):
            block = rng.standard_normal((n, k))
            for factors in containers:
                _assert_sweeps_agree(factors, block)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 2, 5, 40]),
        n=st.sampled_from([0, 1, 12, 120]),
        shape=st.sampled_from(["one_hot", "two_seed", "mostly_zero"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_skip_keeps_every_bit(self, seed, k, n, shape):
        rng = np.random.default_rng(seed)
        block = _sparse_block(shape, n, k, rng)
        for factors in _dynamic_and_static(random_dd_matrix(n, 3 * n, rng)):
            # The skip is live whenever the block holds a zero.
            live = factors.sweep_plan().zero_skip_is_exact(block)
            assert live == (block == 0.0).any()
            _assert_sweeps_agree(factors, block)
            _assert_matches_reference(factors, block)

    def test_negative_zeros_in_the_block(self):
        rng = np.random.default_rng(11)
        block = _sparse_block("mostly_zero", 120, 3, rng)
        zeros = block == 0.0
        block[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        for factors in _dynamic_and_static(random_dd_matrix(120, 360, rng)):
            assert not factors.sweep_plan().zero_skip_is_exact(block)
            _assert_sweeps_agree(factors, block)
            _assert_matches_reference(factors, block)

    def test_non_finite_factor_entries(self):
        matrix = SparseMatrix(3, {(0, 0): 2.0, (1, 1): 3.0, (2, 2): 4.0, (2, 0): np.inf})
        block = np.eye(3)[:, [1]]
        for factors in _dynamic_and_static(matrix):
            assert not factors.sweep_plan().zero_skip_is_exact(block)
            solution = narrow_sweep(factors, block)[:, 0]
            assert solution[:2].tolist() == [0.0, 1.0 / 3.0]
            assert np.isnan(solution[2])
            with np.errstate(invalid="ignore"):  # the wide sweep's inf · 0
                _assert_sweeps_agree(factors, block)
            _assert_matches_reference(factors, block)

    @pytest.mark.parametrize("nan_bits", [0x7FF8000000000001, 0x7FF0000000000001])
    def test_nan_entries_in_the_block(self, nan_bits):
        """Quiet and signalling NaNs leave the skip exact: the pivot division quiets both."""
        rng = np.random.default_rng(5)
        block = _sparse_block("two_seed", 120, 2, rng)
        block[rng.integers(120, size=4), 0] = np.array([nan_bits], np.uint64).view(np.float64)[0]
        for factors in _dynamic_and_static(random_dd_matrix(120, 360, rng)):
            assert factors.sweep_plan().zero_skip_is_exact(block)
            with np.errstate(invalid="ignore"):  # NumPy quieting the signalling NaN
                _assert_sweeps_agree(factors, block)
            _assert_matches_reference(factors, block)

    def test_width_rule_on_a_serve_sized_system(self):
        rng = np.random.default_rng(3)
        edges = set()
        while len(edges) < 1200:  # 3 out-edges per node, as the serving workloads
            u, v = (int(x) for x in rng.integers(0, 400, size=2))
            if u != v:
                edges.add((u, v))
        matrix = measure_matrix(GraphSnapshot(400, edges), MatrixKind.RANDOM_WALK, 0.85)
        factors = crout_decompose(markowitz_ordering(matrix)[0].apply(matrix))
        plan = factors.sweep_plan()
        assert plan.is_narrow(1)
        assert not plan.is_narrow(32)


class TestBatchedSeriesBitwiseIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pagerank_series_scalar_vs_batched(self, algorithm, small_ems):
        solver = EMSSolver(small_ems, algorithm=algorithm, alpha=0.9)
        rhs = pagerank_rhs(small_ems.n)
        scalar_series = solver.solve_series(rhs)
        batched_series = solver.solve_series_batched(rhs[:, None])[:, :, 0]
        assert scalar_series.tobytes() == batched_series.tobytes()

    def test_pagerank_series_function_matches_direct_solves(self, small_egs):
        nodes = [0, 3, 7]
        series = pagerank_series(small_egs, nodes, algorithm="CLUDE", alpha=0.9)
        from repro.graphs.ems import EvolvingMatrixSequence
        from repro.graphs.matrixkind import MatrixKind

        ems = EvolvingMatrixSequence.from_graphs(small_egs, kind=MatrixKind.RANDOM_WALK)
        solver = EMSSolver(ems, algorithm="CLUDE", alpha=0.9)
        expected = solver.solve_series(pagerank_rhs(small_egs.n))[:, nodes]
        assert series.tobytes() == expected.tobytes()

    def test_measure_series_rwr_many_bitwise(self, small_egs):
        series = MeasureSeries(small_egs, algorithm="CLUDE", alpha=0.9)
        starts = [1, 4, 9]
        batched = series.rwr_many(starts)
        assert batched.shape == (len(small_egs), small_egs.n, len(starts))
        for column, start in enumerate(starts):
            scalar = series.rwr(start)
            assert batched[:, :, column].tobytes() == scalar.tobytes()

    def test_measure_series_ppr_many_bitwise(self, small_egs):
        series = MeasureSeries(small_egs, algorithm="CINC", alpha=0.9)
        seed_sets = [[0, 2], [5], [7, 8, 9]]
        batched = series.ppr_many(seed_sets)
        for column, seeds in enumerate(seed_sets):
            scalar = series.ppr(seeds)
            assert batched[:, :, column].tobytes() == scalar.tobytes()


class TestSnapshotMeasureBatch:
    def test_rwr_scores_many_bitwise(self, tiny_graph):
        solver = SnapshotMeasureSolver(tiny_graph)
        starts = [0, 2, 5]
        batched = rwr_scores_many(tiny_graph, starts, solver=solver)
        for column, start in enumerate(starts):
            scalar = rwr_scores(tiny_graph, start, solver=solver)
            assert batched[:, column].tobytes() == scalar.tobytes()

    def test_rwr_scores_many_are_distributions(self, tiny_graph):
        batched = rwr_scores_many(tiny_graph, [0, 1, 2])
        # RWR scores over a strongly-connected component sum to ~1.
        assert np.all(batched >= 0.0)
        assert np.allclose(batched.sum(axis=0), 1.0, atol=1e-6)


class TestSolveManyValidation:
    def test_wrong_block_shape_rejected(self, rng):
        from repro.errors import DimensionError

        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        with pytest.raises(DimensionError):
            factors.solve_many(np.zeros((7, 3)))
        with pytest.raises(DimensionError):
            factors.solve_many(np.zeros(10))

    def test_zero_width_block(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        result = factors.solve_many(np.zeros((10, 0)))
        assert result.shape == (10, 0)
