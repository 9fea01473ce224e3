"""Tests for the Markowitz and minimum-degree ordering strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotSymmetricError, OrderingError
from repro.lu.markowitz import markowitz_ordering
from repro.lu.mindegree import (
    minimum_degree_ordering,
    symmetric_symbolic_size,
)
from repro.lu.symbolic import reorder_pattern, symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from tests.conftest import random_dd_matrix
from tests.lu_oracles import symmetric_markowitz_reference


def star_matrix(n, centre_first=True):
    """A star graph matrix; orderings should push the hub to the end."""
    entries = {}
    hub = 0 if centre_first else n - 1
    for node in range(n):
        entries[(node, node)] = 2.0
        if node != hub:
            entries[(hub, node)] = -0.1
            entries[(node, hub)] = -0.1
    return SparseMatrix(n, entries)


class TestMarkowitzOrdering:
    def test_is_a_valid_symmetric_ordering(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        ordering, _ = markowitz_ordering(matrix)
        assert ordering.is_symmetric()
        assert sorted(ordering.row.order) == list(range(12))

    def test_star_hub_ordered_late(self):
        matrix = star_matrix(8, centre_first=True)
        ordering, _ = markowitz_ordering(matrix)
        # The hub (node 0) has the highest Markowitz cost; it must be eliminated
        # only once enough leaves are gone (i.e. among the last two pivots).
        assert 0 in ordering.row.order[-2:]

    def test_reduces_fill_versus_natural_order(self):
        matrix = star_matrix(10, centre_first=True)
        natural_size = len(symbolic_decomposition(matrix.pattern()))
        ordering, _ = markowitz_ordering(matrix)
        reordered = reorder_pattern(matrix.pattern(), ordering.row.order, ordering.column.order)
        ordered_size = len(symbolic_decomposition(reordered))
        assert ordered_size < natural_size

    def test_never_worse_than_random_order_on_average(self, rng):
        """Markowitz should generally beat a random ordering on fill size."""
        wins = 0
        trials = 5
        for _ in range(trials):
            matrix = random_dd_matrix(20, 90, rng)
            pattern = matrix.pattern()
            ordering, _ = markowitz_ordering(matrix)
            markowitz_size = len(
                symbolic_decomposition(
                    reorder_pattern(pattern, ordering.row.order, ordering.column.order)
                )
            )
            random_order = list(rng.permutation(20))
            random_size = len(
                symbolic_decomposition(reorder_pattern(pattern, random_order, random_order))
            )
            if markowitz_size <= random_size:
                wins += 1
        assert wins >= trials - 1

    def test_accepts_pattern_input(self):
        pattern = SparsityPattern(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).with_full_diagonal()
        ordering, _ = markowitz_ordering(pattern)
        assert sorted(ordering.row.order) == [0, 1, 2, 3]

    def test_empty_matrix(self):
        assert markowitz_ordering(SparseMatrix.zeros(0))[0].n == 0

    def test_equal_costs_resolve_to_smaller_index(self):
        # 1 and 3 are isolated (cost 0); 0 and 2 form a 2-cycle (cost 1 each).
        # Once 0 is gone, 2's cost drops to 0.
        pattern = SparsityPattern(4, [(0, 2), (2, 0)]).with_full_diagonal()
        ordering, _ = markowitz_ordering(pattern)
        assert ordering.row.order == [1, 3, 0, 2]
        assert markowitz_ordering(SparseMatrix.identity(5))[0].row.order == [0, 1, 2, 3, 4]


class TestMinimumDegreeOrdering:
    def symmetric_matrix(self, rng, n=14, edges=30):
        entries = {}
        for _ in range(edges):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                entries[(i, j)] = -0.2
                entries[(j, i)] = -0.2
        for i in range(n):
            entries[(i, i)] = 2.0
        return SparseMatrix(n, entries)

    def test_requires_symmetry(self, rng):
        asymmetric = SparseMatrix(3, {(0, 1): 1.0, (0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0})
        with pytest.raises(NotSymmetricError):
            minimum_degree_ordering(asymmetric)

    def test_valid_permutation(self, rng):
        matrix = self.symmetric_matrix(rng)
        ordering = minimum_degree_ordering(matrix)
        assert sorted(ordering.row.order) == list(range(matrix.n))

    def test_symbolic_size_matches_full_computation(self, rng):
        """The elimination-graph size equals |s̃p| of the explicitly reordered pattern."""
        for _ in range(4):
            matrix = self.symmetric_matrix(rng)
            ordering = minimum_degree_ordering(matrix)
            order = ordering.row.order
            fast = symmetric_symbolic_size(matrix.pattern(), order)
            reordered = reorder_pattern(matrix.pattern(), order, order)
            slow = len(symbolic_decomposition(reordered))
            assert fast == slow

    def test_symbolic_size_requires_permutation(self, rng):
        matrix = self.symmetric_matrix(rng)
        with pytest.raises(OrderingError):
            symmetric_symbolic_size(matrix.pattern(), list(range(matrix.n - 1)))

    def test_reference_size_positive(self, rng):
        matrix = self.symmetric_matrix(rng)
        assert symmetric_markowitz_reference(matrix.pattern()) >= matrix.n

    def test_star_hub_eliminated_late(self):
        matrix = star_matrix(7)
        ordering = minimum_degree_ordering(matrix)
        assert 0 in ordering.row.order[-2:]


@given(seed=st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_markowitz_ordering_is_always_a_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    matrix = random_dd_matrix(n, int(rng.integers(n, 3 * n)), rng)
    ordering, _ = markowitz_ordering(matrix)
    assert sorted(ordering.row.order) == list(range(n))
