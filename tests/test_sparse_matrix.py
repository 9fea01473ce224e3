"""Tests for the SparseMatrix container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.sparse.csr import SparseMatrix
from tests.conftest import random_dd_matrix


class TestConstruction:
    def test_from_entries_drops_zeros(self):
        matrix = SparseMatrix(3, {(0, 1): 2.0, (1, 2): 0.0})
        assert matrix.nnz == 1
        assert matrix.get(0, 1) == 2.0
        assert matrix.get(1, 2) == 0.0

    def test_from_triples_sums_duplicates(self):
        matrix = SparseMatrix.from_triples(3, [(0, 1, 1.0), (0, 1, 2.0)])
        assert matrix.get(0, 1) == pytest.approx(3.0)

    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        matrix = SparseMatrix.from_dense(dense)
        assert np.allclose(matrix.to_dense(), dense)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SparseMatrix.from_dense(np.zeros((2, 3)))

    def test_identity_and_zeros(self):
        assert SparseMatrix.identity(3).nnz == 3
        assert SparseMatrix.zeros(3).nnz == 0

    def test_out_of_bounds_entry(self):
        with pytest.raises(DimensionError):
            SparseMatrix(2, {(0, 2): 1.0})

    def test_get_out_of_bounds(self):
        matrix = SparseMatrix.identity(2)
        with pytest.raises(DimensionError):
            matrix.get(2, 0)


class TestAccessors:
    def test_row_and_column(self):
        matrix = SparseMatrix(3, {(0, 1): 2.0, (2, 1): 5.0, (0, 0): 1.0})
        assert matrix.row(0) == {1: 2.0, 0: 1.0}
        assert matrix.column(1) == {0: 2.0, 2: 5.0}

    def test_items_and_entries(self):
        entries = {(0, 1): 2.0, (2, 2): -1.0}
        matrix = SparseMatrix(3, entries)
        assert matrix.entries() == entries
        assert {(i, j, v) for i, j, v in matrix.items()} == {(0, 1, 2.0), (2, 2, -1.0)}

    def test_pattern(self):
        matrix = SparseMatrix(3, {(0, 1): 2.0, (2, 2): -1.0})
        assert matrix.pattern().indices == frozenset({(0, 1), (2, 2)})

    def test_getitem(self):
        matrix = SparseMatrix(3, {(0, 1): 2.0})
        assert matrix[0, 1] == 2.0
        assert matrix[1, 1] == 0.0


class TestPredicates:
    def test_is_symmetric(self):
        symmetric = SparseMatrix(2, {(0, 1): 2.0, (1, 0): 2.0, (0, 0): 1.0})
        asymmetric = SparseMatrix(2, {(0, 1): 2.0})
        assert symmetric.is_symmetric()
        assert not asymmetric.is_symmetric()

    def test_diagonal_dominance(self, small_dd_matrix):
        assert small_dd_matrix.is_diagonally_dominant()
        weak = SparseMatrix(2, {(0, 0): 0.1, (0, 1): 5.0, (1, 1): 1.0})
        assert not weak.is_diagonally_dominant()


class TestAlgebra:
    def test_matvec_matches_dense(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        x = rng.random(12)
        assert np.allclose(matrix.matvec(x), matrix.to_dense() @ x)

    def test_rmatvec_matches_dense(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        x = rng.random(12)
        assert np.allclose(matrix.rmatvec(x), matrix.to_dense().T @ x)

    def test_matvec_wrong_length(self):
        with pytest.raises(DimensionError):
            SparseMatrix.identity(3).matvec([1.0, 2.0])

    def test_add_subtract_scale(self, rng):
        a = random_dd_matrix(8, 20, rng)
        b = random_dd_matrix(8, 20, rng)
        assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
        assert np.allclose((a - b).to_dense(), a.to_dense() - b.to_dense())
        assert np.allclose(a.scale(2.5).to_dense(), 2.5 * a.to_dense())

    def test_transpose(self, rng):
        a = random_dd_matrix(8, 20, rng)
        assert np.allclose(a.transpose().to_dense(), a.to_dense().T)

    def test_dimension_mismatch_add(self):
        with pytest.raises(DimensionError):
            SparseMatrix.identity(2).add(SparseMatrix.identity(3))


class TestDeltaEntries:
    def test_delta_covers_additions_removals_and_changes(self):
        a = SparseMatrix(3, {(0, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0})
        b = SparseMatrix(3, {(0, 1): 1.5, (2, 0): 3.0, (2, 2): 1.0})
        delta = a.delta_entries(b)
        assert delta[(0, 1)] == pytest.approx(0.5)
        assert delta[(1, 2)] == pytest.approx(-2.0)
        assert delta[(2, 0)] == pytest.approx(3.0)
        assert (2, 2) not in delta

    def test_applying_delta_recovers_target(self, rng):
        a = random_dd_matrix(10, 30, rng)
        b = random_dd_matrix(10, 30, rng)
        delta = a.delta_entries(b)
        rebuilt = a.to_dense()
        for (i, j), value in delta.items():
            rebuilt[i, j] += value
        assert np.allclose(rebuilt, b.to_dense())

    def test_empty_delta_for_identical(self, small_dd_matrix):
        assert small_dd_matrix.delta_entries(small_dd_matrix) == {}


class TestPermuted:
    def test_permuted_matches_definition(self, rng):
        matrix = random_dd_matrix(6, 18, rng)
        row_perm = list(rng.permutation(6))
        col_perm = list(rng.permutation(6))
        permuted = matrix.permuted(row_perm, col_perm)
        for r in range(6):
            for c in range(6):
                assert permuted.get(r, c) == matrix.get(row_perm[r], col_perm[c])

    def test_permuted_length_mismatch(self):
        with pytest.raises(DimensionError):
            SparseMatrix.identity(3).permuted([0, 1], [0, 1, 2])


class TestExactZeroDropping:
    def test_triples_cancelling_to_zero_are_dropped(self):
        matrix = SparseMatrix.from_triples(3, [(0, 1, 2.0), (0, 1, -2.0), (1, 2, 1.0)])
        assert matrix.nnz == 1
        assert (0, 1) not in matrix.entries()

    def test_add_cancelling_entries_are_dropped(self):
        a = SparseMatrix(2, {(0, 1): 3.0, (1, 0): 1.0})
        b = SparseMatrix(2, {(0, 1): -3.0})
        total = a + b
        assert total.nnz == 1
        assert total.entries() == {(1, 0): 1.0}

    def test_scale_by_zero_is_empty(self, small_dd_matrix):
        assert small_dd_matrix.scale(0.0).nnz == 0

    def test_from_csr_arrays_drops_explicit_zeros(self):
        matrix = SparseMatrix.from_csr_arrays(2, [0, 2, 2], [0, 1], [1.0, 0.0])
        assert matrix.nnz == 1
        assert matrix.get(0, 1) == 0.0

    def test_from_coo_sums_then_drops(self):
        matrix = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 1], [1.0, -1.0, 5.0])
        assert matrix.nnz == 1
        assert matrix.get(1, 1) == 5.0


class TestImmutability:
    def test_backing_arrays_are_read_only(self, small_dd_matrix):
        for array in (small_dd_matrix.indptr, small_dd_matrix.indices, small_dd_matrix.data):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99

    def test_slots_prevent_new_attributes(self, small_dd_matrix):
        with pytest.raises(AttributeError):
            small_dd_matrix.extra = 1

    def test_transformations_leave_original_untouched(self, rng):
        matrix = random_dd_matrix(8, 24, rng)
        snapshot = matrix.entries()
        matrix.scale(3.0)
        matrix.transpose()
        matrix.add(SparseMatrix.identity(8))
        matrix.permuted(list(rng.permutation(8)), list(rng.permutation(8)))
        matrix.delta_entries(SparseMatrix.identity(8))
        assert matrix.entries() == snapshot

    def test_nnz_matches_data_length_and_items(self, small_dd_matrix):
        assert small_dd_matrix.nnz == small_dd_matrix.data.size
        assert small_dd_matrix.nnz == len(list(small_dd_matrix.items()))


class TestCSRLayout:
    def test_indptr_brackets_rows(self):
        matrix = SparseMatrix(3, {(0, 2): 1.0, (2, 0): 2.0, (2, 1): 3.0})
        assert matrix.indptr.tolist() == [0, 1, 1, 3]
        assert matrix.indices.tolist() == [2, 0, 1]
        assert matrix.data.tolist() == [1.0, 2.0, 3.0]

    def test_columns_strictly_increasing_within_rows(self, rng):
        matrix = random_dd_matrix(12, 50, rng)
        indptr = matrix.indptr
        indices = matrix.indices
        for i in range(12):
            row = indices[indptr[i]:indptr[i + 1]]
            assert np.all(np.diff(row) > 0)


@given(
    entries=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.floats(-10, 10, allow_nan=False),
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_dense_round_trip_property(entries):
    matrix = SparseMatrix(6, entries)
    rebuilt = SparseMatrix.from_dense(matrix.to_dense())
    assert rebuilt.allclose(matrix)
