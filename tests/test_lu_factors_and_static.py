"""Tests for the LU factor container in its growable and sealed modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionError, PatternError
from repro.lu.crout import crout_decompose
from repro.lu.factors import LUFactors
from repro.sparse.pattern import SparsityPattern
from tests.conftest import random_dd_matrix


class TestLUFactors:
    def test_set_get_lower_and_upper(self):
        factors = LUFactors(4)
        factors.set_l_diagonal(0, 2.0)
        factors.l_set(2, 1, -1.5)
        factors.u_set(1, 3, 0.25)
        assert factors.l_diagonal(0) == 2.0
        assert factors.l_get(2, 1) == -1.5
        assert factors.u_get(1, 3) == 0.25
        assert factors.u_get(2, 2) == 1.0          # implicit unit diagonal
        assert factors.l_get(1, 2) == 0.0          # above diagonal
        assert factors.u_get(3, 1) == 0.0          # below diagonal

    def test_triangular_constraints(self):
        factors = LUFactors(3)
        with pytest.raises(DimensionError):
            factors.l_set(0, 1, 1.0)
        with pytest.raises(DimensionError):
            factors.u_set(1, 1, 1.0)

    def test_column_and_row_entry_views(self):
        factors = LUFactors(4)
        factors.l_set(2, 0, 5.0)
        factors.l_set(3, 0, 6.0)
        factors.u_set(0, 2, 0.5)
        assert sorted(factors.l_column_entries(0)) == [(2, 5.0), (3, 6.0)]
        assert factors.u_row_entries(0) == [(2, 0.5)]

    def test_fill_size_and_pattern(self):
        factors = LUFactors(3)
        factors.set_l_diagonal(0, 1.0)
        factors.l_set(2, 0, 5.0)
        factors.u_set(0, 1, 2.0)
        assert factors.fill_size == 3
        assert factors.decomposed_pattern().indices == frozenset({(0, 0), (2, 0), (0, 1)})

    def test_copy_independence(self, rng):
        matrix = random_dd_matrix(8, 25, rng)
        factors = crout_decompose(matrix)
        clone = factors.copy()
        clone.set_l_diagonal(0, 99.0)
        assert factors.l_diagonal(0) != 99.0

    def test_structural_ops_increase_on_inserts(self):
        factors = LUFactors(4)
        factors.l_set(1, 0, 1.0)
        factors.u_set(0, 2, 1.0)
        assert factors.structural_ops == 2
        factors.reset_counters()
        assert factors.structural_ops == 0

    def test_reconstruct(self, rng):
        matrix = random_dd_matrix(9, 30, rng)
        factors = crout_decompose(matrix)
        assert factors.reconstruct().allclose(matrix)


class TestStaticLUFactors:
    def make_static(self):
        pattern = SparsityPattern(4, [(1, 0), (2, 0), (3, 2), (0, 1), (0, 3), (1, 3)])
        return LUFactors.sealed(pattern)

    def test_capacity_and_initial_state(self):
        static = self.make_static()
        assert static.capacity == 4 + 6
        assert static.fill_size == 0
        assert static.structural_ops == 0

    def test_set_get_within_pattern(self):
        static = self.make_static()
        static.set_l_diagonal(2, 4.0)
        static.l_set(1, 0, -1.0)
        static.u_set(0, 3, 0.5)
        assert static.l_diagonal(2) == 4.0
        assert static.l_get(1, 0) == -1.0
        assert static.u_get(0, 3) == 0.5
        assert static.u_get(1, 1) == 1.0

    def test_writes_outside_pattern_rejected(self):
        static = self.make_static()
        with pytest.raises(PatternError):
            static.l_set(3, 1, 1.0)
        with pytest.raises(PatternError):
            static.u_set(2, 3, 1.0)

    def test_triangular_constraints(self):
        static = self.make_static()
        with pytest.raises(DimensionError):
            static.l_set(0, 1, 1.0)
        with pytest.raises(DimensionError):
            static.u_set(2, 2, 1.0)

    def test_reads_outside_pattern_are_zero(self):
        static = self.make_static()
        assert static.l_get(3, 1) == 0.0
        assert static.u_get(2, 3) == 0.0

    def test_diagonal_always_admissible(self):
        pattern = SparsityPattern(3, [(0, 1)])
        static = LUFactors.sealed(pattern)
        static.set_l_diagonal(2, 7.0)
        assert static.l_diagonal(2) == 7.0

    def test_reset_values_keeps_structure(self):
        static = self.make_static()
        static.l_set(1, 0, 3.0)
        static.set_l_diagonal(0, 2.0)
        static.l_set(1, 0, 0.0)      # a zeroed slot stays allocated
        static.set_l_diagonal(0, 0.0)
        assert static.fill_size == 0
        assert static.capacity == 10
        assert static.structural_ops == 0
        assert [i for i, _ in static.l_column_entries(0)] == [1, 2]
        static.l_set(1, 0, 1.0)      # still admissible after reset

    def test_entry_views_expose_all_slots(self):
        static = self.make_static()
        assert sorted(index for index, _ in static.l_column_entries(0)) == [1, 2]
        assert sorted(index for index, _ in static.u_row_entries(0)) == [1, 3]

    def test_dense_export_and_items(self):
        static = self.make_static()
        static.set_l_diagonal(0, 2.0)
        static.l_set(2, 0, 1.0)
        static.u_set(0, 1, 0.5)
        l_dense = static.l_dense()
        u_dense = static.u_dense()
        assert l_dense[0, 0] == 2.0 and l_dense[2, 0] == 1.0
        assert u_dense[0, 1] == 0.5 and np.allclose(np.diag(u_dense), 1.0)
        assert set(static.decomposed_pattern().indices) == {(0, 0), (2, 0), (0, 1)}
