"""Regression tests pinning iteration-order determinism after vectorization.

The dict-of-dicts ``SparseMatrix`` iterated entries in per-row insertion
order, so two logically equal matrices built in different orders could feed
the ordering heuristics differently.  The array-backed CSR layout makes
iteration canonical — row-major, ascending column — and this module pins
that contract so downstream Markowitz / minimum-degree orderings (and the
diagonal-dominance check) stay deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lu.markowitz import markowitz_ordering
from repro.lu.mindegree import minimum_degree_ordering
from repro.sparse.csr import SparseMatrix
from tests.conftest import random_dd_matrix


def _shuffled_copies(matrix: SparseMatrix, rng: np.random.Generator, copies: int = 4):
    """Rebuild the same matrix from triples fed in several random orders."""
    triples = list(matrix.items())
    rebuilt = []
    for _ in range(copies):
        order = rng.permutation(len(triples))
        rebuilt.append(
            SparseMatrix.from_triples(matrix.n, [triples[k] for k in order])
        )
    return rebuilt


class TestItemsIterationOrder:
    def test_items_is_row_major_ascending_columns(self):
        matrix = SparseMatrix(
            4, {(2, 3): 1.0, (0, 1): 2.0, (2, 0): 3.0, (0, 0): 4.0, (3, 2): 5.0}
        )
        keys = [(i, j) for i, j, _ in matrix.items()]
        assert keys == [(0, 0), (0, 1), (2, 0), (2, 3), (3, 2)]
        assert keys == sorted(keys)

    def test_items_order_independent_of_construction_order(self, rng):
        matrix = random_dd_matrix(15, 60, rng)
        reference = list(matrix.items())
        for copy in _shuffled_copies(matrix, rng):
            assert list(copy.items()) == reference

    def test_row_items_ascending(self, rng):
        matrix = random_dd_matrix(10, 40, rng)
        for i in range(10):
            columns = [j for j, _ in matrix.row_items(i)]
            assert columns == sorted(columns)


class TestDiagonalDominanceDeterminism:
    def test_same_verdict_for_all_construction_orders(self, rng):
        dominant = random_dd_matrix(12, 50, rng)
        for copy in _shuffled_copies(dominant, rng):
            assert copy.is_diagonally_dominant()
        weak = SparseMatrix(3, {(0, 0): 0.1, (0, 1): 5.0, (1, 1): 1.0, (2, 2): 1.0})
        for copy in _shuffled_copies(weak, rng):
            assert not copy.is_diagonally_dominant()

    def test_boundary_row_is_weakly_dominant(self):
        # |diag| == off-diagonal sum: weak dominance must hold, exactly.
        matrix = SparseMatrix(2, {(0, 0): 2.0, (0, 1): -2.0, (1, 1): 1.0})
        assert matrix.is_diagonally_dominant()


class TestOrderingDeterminism:
    def test_markowitz_stable_across_construction_orders(self, rng):
        matrix = random_dd_matrix(20, 90, rng)
        reference = markowitz_ordering(matrix)[0].row.order
        for copy in _shuffled_copies(matrix, rng):
            assert markowitz_ordering(copy)[0].row.order == reference

    def test_markowitz_stable_across_repeated_calls(self, rng):
        matrix = random_dd_matrix(20, 90, rng)
        first = markowitz_ordering(matrix)
        assert all(markowitz_ordering(matrix) == first for _ in range(3))

    def test_markowitz_matches_pattern_input(self, rng):
        matrix = random_dd_matrix(16, 70, rng)
        assert markowitz_ordering(matrix) == markowitz_ordering(matrix.pattern())

    def test_minimum_degree_stable_across_construction_orders(self, rng):
        base = random_dd_matrix(14, 50, rng)
        symmetric = base.add(base.transpose())
        reference = minimum_degree_ordering(symmetric).row.order
        for copy in _shuffled_copies(symmetric, rng):
            assert minimum_degree_ordering(copy).row.order == reference


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)
