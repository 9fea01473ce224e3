"""Tests for symbolic decomposition, fill-in patterns and their properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.lu.crout import crout_decompose
from repro.lu.symbolic import (
    fill_in_count,
    fill_in_pattern,
    intersection_pattern,
    reorder_pattern,
    symbolic_decomposition,
    symbolic_pattern_size,
    union_pattern,
)
from repro.sparse.pattern import SparsityPattern
from tests.conftest import random_dd_matrix
from tests.lu_oracles import fill_in_pattern_reference


def chain_pattern(n):
    """A bidirectional chain 0-1-2-...-(n-1) plus the diagonal."""
    indices = {(i, i) for i in range(n)}
    for i in range(n - 1):
        indices.add((i, i + 1))
        indices.add((i + 1, i))
    return SparsityPattern(n, indices)


class TestSymbolicDecomposition:
    def test_chain_produces_no_fill(self):
        """Eliminating a chain in natural order produces no fill-in."""
        pattern = chain_pattern(6)
        assert fill_in_count(pattern) == 0
        assert symbolic_decomposition(pattern) == pattern

    def test_star_centre_first_fills_completely(self):
        """A star eliminated centre-first fills the leaf clique."""
        n = 5
        indices = {(0, i) for i in range(n)} | {(i, 0) for i in range(n)}
        indices |= {(i, i) for i in range(n)}
        pattern = SparsityPattern(n, indices)
        full = symbolic_decomposition(pattern)
        # Eliminating the centre (index 0) first connects all leaves.
        assert len(full) == n * n

    def test_star_centre_last_has_no_fill(self):
        """The same star with the centre eliminated last has no fill."""
        n = 5
        indices = {(n - 1, i) for i in range(n)} | {(i, n - 1) for i in range(n)}
        indices |= {(i, i) for i in range(n)}
        pattern = SparsityPattern(n, indices)
        assert fill_in_count(pattern) == 0

    def test_superset_of_input_with_diagonal(self, rng):
        matrix = random_dd_matrix(15, 50, rng)
        pattern = matrix.pattern()
        full = symbolic_decomposition(pattern)
        assert pattern <= full
        assert all((i, i) in full for i in range(15))

    def test_covers_actual_fill_ins(self, rng):
        """sp(Â) ⊆ s̃p(A): every numeric non-zero of L+U is predicted."""
        for _ in range(5):
            matrix = random_dd_matrix(18, 60, rng)
            predicted = symbolic_decomposition(matrix.pattern())
            factors = crout_decompose(matrix, pattern=predicted)
            assert factors.decomposed_pattern() <= predicted

    def test_matches_reference_implementation(self, rng):
        """The elimination-based fill pattern equals the path-based definition (Eq. 2)."""
        for _ in range(5):
            matrix = random_dd_matrix(12, 35, rng)
            pattern = matrix.pattern().with_full_diagonal()
            fast = fill_in_pattern(pattern)
            slow = fill_in_pattern_reference(pattern)
            assert fast == slow

    def test_pattern_size_helper(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        assert symbolic_pattern_size(matrix.pattern()) == len(
            symbolic_decomposition(matrix.pattern())
        )


class TestMonotonicity:
    """Lemma 1: sp(A) ⊆ sp(B) implies s̃p(A) ⊆ s̃p(B)."""

    @given(
        base=st.frozensets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
        extra=st.frozensets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_lemma_1(self, base, extra):
        smaller = SparsityPattern(10, base)
        larger = SparsityPattern(10, base | extra)
        assert symbolic_decomposition(smaller) <= symbolic_decomposition(larger)

    def test_union_covers_members(self, rng):
        """Theorem 1: s̃p(A_∪) is a USSP — it covers every member's s̃p."""
        members = [random_dd_matrix(12, 40, rng) for _ in range(4)]
        union = union_pattern([m.pattern() for m in members])
        universal = symbolic_decomposition(union)
        for member in members:
            assert symbolic_decomposition(member.pattern()) <= universal


class TestReorderPattern:
    def test_reorder_matches_matrix_permutation(self, rng):
        matrix = random_dd_matrix(8, 25, rng)
        order = list(rng.permutation(8))
        reordered_pattern = reorder_pattern(matrix.pattern(), order, order)
        reordered_matrix = matrix.permuted(order, order)
        assert reordered_pattern == reordered_matrix.pattern()

    def test_reorder_wrong_length(self):
        with pytest.raises(DimensionError):
            reorder_pattern(SparsityPattern(3), [0, 1], [0, 1, 2])


class TestPatternAggregates:
    def test_union_and_intersection_pattern(self):
        a = SparsityPattern(3, [(0, 1)])
        b = SparsityPattern(3, [(0, 1), (1, 2)])
        assert union_pattern([a, b]).indices == frozenset({(0, 1), (1, 2)})
        assert intersection_pattern([a, b]).indices == frozenset({(0, 1)})

    def test_empty_aggregate_rejected(self):
        with pytest.raises(DimensionError):
            union_pattern([])
        with pytest.raises(DimensionError):
            intersection_pattern([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            union_pattern([SparsityPattern(3), SparsityPattern(4)])
