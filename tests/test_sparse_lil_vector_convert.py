"""Tests for the factor adjacency lists and the vector helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.lu.crout import crout_decompose
from repro.lu.factors import LUFactors
from repro.sparse.vector import seed_vector, unit_vector
from tests.conftest import random_dd_matrix


class TestAdjacencyListMatrix:
    """The growable factor container's sorted adjacency lists (paper Figure 4)."""

    def test_set_get_round_trip(self):
        factors = LUFactors(4)
        factors.l_set(2, 1, 3.5)
        factors.u_set(1, 3, -1.0)
        assert factors.l_get(2, 1) == 3.5
        assert factors.u_get(1, 3) == -1.0
        assert factors.l_get(3, 1) == 0.0
        assert factors.fill_size == 2

    def test_rows_stay_sorted(self):
        factors = LUFactors(5)
        for row in (4, 1, 3, 2):
            factors.l_set(row, 0, float(row + 1))
        for column in (4, 2, 3):
            factors.u_set(1, column, float(column))
        assert [i for i, _ in factors.l_column_entries(0)] == [1, 2, 3, 4]
        assert [j for j, _ in factors.u_row_entries(1)] == [2, 3, 4]

    def test_setting_zero_removes_entry(self):
        factors = LUFactors(3)
        factors.l_set(1, 0, 2.0)
        factors.l_set(1, 0, 0.0)
        assert factors.l_column_entries(0) == []
        assert factors.fill_size == 0

    def test_structural_ops_counting(self):
        factors = LUFactors(3)
        factors.u_set(0, 1, 2.0)       # insert -> 1 op
        factors.u_set(0, 1, 3.0)       # value update -> 0 ops
        factors.u_set(0, 1, 0.0)       # delete -> 1 op
        factors.set_l_diagonal(0, 1.0)  # pivots live outside the lists
        assert factors.structural_ops == 2
        factors.reset_counters()
        assert factors.structural_ops == 0

    def test_initial_population_not_counted(self, rng):
        factors = crout_decompose(random_dd_matrix(8, 20, rng))
        assert factors.structural_ops == 0
        assert factors.fill_size > 8

    def test_round_trip_with_sparse(self, rng):
        original = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(original)
        assert factors.reconstruct().allclose(original)
        assert original.pattern().indices <= factors.decomposed_pattern().indices

    def test_copy_is_independent(self):
        factors = LUFactors(3)
        factors.l_set(1, 0, 1.0)
        clone = factors.copy()
        clone.l_set(1, 0, 9.0)
        clone.l_set(2, 0, 4.0)
        assert factors.l_column_entries(0) == [(1, 1.0)]

    def test_out_of_bounds(self):
        factors = LUFactors(2)
        with pytest.raises(DimensionError):
            factors.u_set(0, 2, 1.0)
        with pytest.raises(DimensionError):
            factors.l_get(2, 0)


class TestVectorHelpers:
    def test_unit_vector(self):
        v = unit_vector(4, 2, 3.0)
        assert v.tolist() == [0.0, 0.0, 3.0, 0.0]
        with pytest.raises(DimensionError):
            unit_vector(4, 4)

    def test_seed_vector_spreads_mass(self):
        v = seed_vector(5, [0, 3], total=1.0)
        assert v[0] == pytest.approx(0.5)
        assert v[3] == pytest.approx(0.5)
        assert np.sum(v) == pytest.approx(1.0)

    def test_seed_vector_rejects_empty_and_out_of_range(self):
        with pytest.raises(DimensionError):
            seed_vector(5, [])
        with pytest.raises(DimensionError):
            seed_vector(5, [7])

