"""Tests for Crout LU decomposition (sparse and dense reference)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, SingularMatrixError
from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from tests.conftest import random_dd_matrix
from tests.lu_oracles import crout_decompose_dense


class TestDenseReference:
    def test_known_2x2(self):
        lower, upper = crout_decompose_dense(np.array([[4.0, 2.0], [6.0, 7.0]]))
        assert np.allclose(lower, [[4.0, 0.0], [6.0, 4.0]])
        assert np.allclose(upper, [[1.0, 0.5], [0.0, 1.0]])

    def test_reconstruction(self, rng):
        dense = random_dd_matrix(10, 35, rng).to_dense()
        lower, upper = crout_decompose_dense(dense)
        assert np.allclose(lower @ upper, dense)
        # L carries pivots, U has a unit diagonal.
        assert np.allclose(np.diag(upper), 1.0)
        assert np.all(np.abs(np.diag(lower)) > 0)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            crout_decompose_dense(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(PatternError):
            crout_decompose_dense(np.zeros((2, 3)))


class TestSparseCrout:
    def test_matches_dense_reference(self, rng):
        matrix = random_dd_matrix(20, 70, rng)
        factors = crout_decompose(matrix)
        lower_ref, upper_ref = crout_decompose_dense(matrix.to_dense())
        assert np.allclose(factors.l_dense(), lower_ref)
        assert np.allclose(factors.u_dense(), upper_ref)

    def test_reconstruction_error_small(self, rng):
        for _ in range(5):
            matrix = random_dd_matrix(15, 50, rng)
            factors = crout_decompose(matrix)
            product = factors.l_dense() @ factors.u_dense()
            assert np.max(np.abs(product - matrix.to_dense())) < 1e-10

    def test_identity_matrix(self):
        factors = crout_decompose(SparseMatrix.identity(5))
        assert factors.fill_size == 5
        assert np.allclose(factors.l_dense(), np.eye(5))

    def test_singular_raises(self):
        singular = SparseMatrix(3, {(0, 0): 1.0, (1, 1): 1.0})  # zero (2,2) pivot
        with pytest.raises(SingularMatrixError):
            crout_decompose(singular)

    def test_factor_pattern_within_symbolic(self, rng):
        matrix = random_dd_matrix(15, 50, rng)
        predicted = symbolic_decomposition(matrix.pattern())
        factors = crout_decompose(matrix)
        assert factors.decomposed_pattern() <= predicted

    def test_decompose_into_static_structure(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        pattern = symbolic_decomposition(matrix.pattern())
        static = LUFactors.sealed(pattern)
        crout_decompose_into(matrix, static, pattern=pattern)
        assert np.allclose(static.l_dense() @ static.u_dense(), matrix.to_dense())

    def test_decompose_into_larger_pattern_is_fine(self, rng):
        """A USSP strictly larger than s̃p(A) must still work (extra zeros)."""
        matrix = random_dd_matrix(12, 40, rng)
        other = random_dd_matrix(12, 40, rng)
        union = matrix.pattern().union(other.pattern())
        ussp = symbolic_decomposition(union)
        static = LUFactors.sealed(ussp)
        crout_decompose_into(matrix, static, pattern=ussp)
        assert np.allclose(static.l_dense() @ static.u_dense(), matrix.to_dense())

    def test_dimension_mismatch_rejected(self, rng):
        matrix = random_dd_matrix(6, 15, rng)
        wrong = LUFactors.sealed(symbolic_decomposition(random_dd_matrix(7, 15, rng).pattern()))
        with pytest.raises(PatternError):
            crout_decompose_into(matrix, wrong)

    def test_non_empty_growable_destination_rejected(self, rng):
        matrix = random_dd_matrix(6, 15, rng)
        used = crout_decompose(matrix)
        with pytest.raises(PatternError):
            crout_decompose_into(matrix, used)


def _reference_crout_into(matrix, factors, pattern):
    """Crout writing one entry at a time through ``l_set``/``u_set``."""
    n = matrix.n
    row_columns = [sorted({j for r, j in pattern if r == i} | {i}) for i in range(n)]
    upper_rows = [dict() for _ in range(n)]
    for i in range(n):
        stored = matrix.row(i)
        work = {j: stored.get(j, 0.0) for j in row_columns[i]}
        for k in sorted(j for j in work if j < i):
            l_ik = work[k]
            if l_ik == 0.0:
                continue
            for j, u_kj in upper_rows[k].items():
                work[j] -= l_ik * u_kj
        pivot = work[i]
        for j, value in work.items():
            if j < i:
                factors.l_set(i, j, value)
            elif j == i:
                factors.set_l_diagonal(i, pivot)
            else:
                upper_rows[i][j] = value / pivot
                factors.u_set(i, j, value / pivot)


def _hex_storage(factors):
    """Pivots, L columns and U rows with every value as ``float.hex``."""
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    return (
        [value.hex() for value in pivots],
        [(list(rows), [value.hex() for value in values]) for rows, values in zip(l_rows, l_values)],
        [(list(cols), [value.hex() for value in values]) for cols, values in zip(u_cols, u_values)],
    )


@given(seed=st.integers(0, 10_000), sealed=st.booleans(), widen=st.booleans())
@settings(max_examples=60, deadline=None)
def test_crout_is_bitwise_the_per_entry_writer(seed, sealed, widen):
    """Pivots, L and U match the per-entry reference bit for bit.

    Rows are negated at random, so pivots can be negative and the zero slots
    of a sealed (or widened) pattern then hold ``-0.0``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    dense = random_dd_matrix(n, int(rng.integers(0, 4 * n)), rng).to_dense()
    dense *= rng.choice([-1.0, 1.0], size=(n, 1))
    matrix = SparseMatrix.from_dense(dense)
    pattern = symbolic_decomposition(matrix.pattern())
    if widen:
        other = random_dd_matrix(n, 2 * n, rng).pattern()
        pattern = symbolic_decomposition(matrix.pattern() | other)
    if sealed:
        factors, reference = LUFactors.sealed(pattern), LUFactors.sealed(pattern)
    else:
        factors, reference = LUFactors(n), LUFactors(n)
    crout_decompose_into(matrix, factors, pattern=pattern)
    _reference_crout_into(matrix, reference, pattern)
    assert _hex_storage(factors) == _hex_storage(reference)
    assert factors.structural_ops == reference.structural_ops


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_crout_reconstruction_property(seed):
    """L @ U == A for random diagonally dominant matrices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    matrix = random_dd_matrix(n, int(rng.integers(n, 4 * n)), rng)
    factors = crout_decompose(matrix)
    assert np.max(np.abs(factors.l_dense() @ factors.u_dense() - matrix.to_dense())) < 1e-9
