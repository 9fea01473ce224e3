"""Golden-oracle tests: every kernel against its dense NumPy equivalent.

Each vectorized primitive in :mod:`repro.sparse.kernels` (and its
:class:`~repro.sparse.csr.SparseMatrix` / LU-factor wrappers) is checked
against the obvious dense oracle — ``A_dense @ x``, fancy-indexed gathers,
``np.linalg.solve`` — on randomized matrices across sizes 1–64, including
matrices with empty rows and the ``n = 0`` edge case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.solve import (
    backward_substitution,
    backward_substitution_many,
    forward_substitution,
    forward_substitution_many,
    solve_factored,
    solve_factored_many,
)
from repro.lu.factors import LUFactors
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse import kernels

SIZES = [1, 2, 3, 5, 8, 13, 21, 34, 64]


def random_sparse(n: int, rng: np.random.Generator, density: float = 0.25) -> SparseMatrix:
    """A random sparse matrix that usually contains empty rows and columns."""
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    if n >= 3:
        dense[rng.integers(0, n)] = 0.0  # force at least one empty row
        dense[:, rng.integers(0, n)] = 0.0  # ... and one empty column
    return SparseMatrix.from_dense(dense)


def random_dd(n: int, rng: np.random.Generator) -> SparseMatrix:
    """A strictly diagonally dominant random matrix (safe to decompose)."""
    dense = rng.standard_normal((n, n)) * 0.3
    dense[rng.random((n, n)) > 0.4] = 0.0
    np.fill_diagonal(dense, 0.0)
    for i in range(n):
        dense[i, i] = 1.0 + np.sum(np.abs(dense[i]))
    return SparseMatrix.from_dense(dense)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(777)


class TestProductsGolden:
    @pytest.mark.parametrize("n", SIZES)
    def test_matvec(self, n, rng):
        matrix = random_sparse(n, rng)
        x = rng.standard_normal(n)
        assert np.allclose(matrix.matvec(x), matrix.to_dense() @ x)

    @pytest.mark.parametrize("n", SIZES)
    def test_rmatvec(self, n, rng):
        matrix = random_sparse(n, rng)
        x = rng.standard_normal(n)
        assert np.allclose(matrix.rmatvec(x), matrix.to_dense().T @ x)

    @pytest.mark.parametrize("n", SIZES)
    def test_matmat(self, n, rng):
        matrix = random_sparse(n, rng)
        block = rng.standard_normal((n, 5))
        assert np.allclose(matrix.matmat(block), matrix.to_dense() @ block)

    def test_matmat_columns_bitwise_match_matvec(self, rng):
        matrix = random_sparse(16, rng)
        block = rng.standard_normal((16, 4))
        product = matrix.matmat(block)
        for column in range(4):
            assert product[:, column].tobytes() == matrix.matvec(block[:, column]).tobytes()

    def test_matvec_empty_rows_give_zero(self, rng):
        matrix = SparseMatrix(4, {(1, 2): 3.0})
        result = matrix.matvec([1.0, 1.0, 1.0, 1.0])
        assert result.tolist() == [0.0, 3.0, 0.0, 0.0]


def dict_style_product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The seed's hand-rolled dict-of-dicts product (the spgemm oracle)."""
    entries = {}
    b_rows = {i: dict(b.row(i)) for i in range(b.n)}
    for i, k, value_ik in a.items():
        row_k = b_rows.get(k)
        if not row_k:
            continue
        for j, value_kj in row_k.items():
            key = (i, j)
            entries[key] = entries.get(key, 0.0) + value_ik * value_kj
    return SparseMatrix(a.n, entries)


class TestSpgemmGolden:
    @pytest.mark.parametrize("n", SIZES)
    def test_spgemm_matches_dense_product(self, n, rng):
        a = random_sparse(n, rng)
        b = random_sparse(n, rng)
        assert np.allclose(a.multiply(b).to_dense(), a.to_dense() @ b.to_dense())

    @pytest.mark.parametrize("n", SIZES)
    def test_spgemm_matches_dict_product(self, n, rng):
        # Same structure as the seed's dict-of-dicts product; values agree
        # up to the rounding of the pairwise reduction (sequential vs
        # pairwise summation of the same contribution order).
        a = random_sparse(n, rng)
        b = random_sparse(n, rng)
        product = a.multiply(b)
        oracle = dict_style_product(a, b)
        assert product.indptr.tobytes() == oracle.indptr.tobytes()
        assert product.indices.tobytes() == oracle.indices.tobytes()
        assert np.allclose(product.data, oracle.data, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", SIZES)
    def test_spgemm_deterministic(self, n, rng):
        a = random_sparse(n, rng)
        b = random_sparse(n, rng)
        first = a.multiply(b)
        second = a.multiply(b)
        assert first.data.tobytes() == second.data.tobytes()
        assert first.indices.tobytes() == second.indices.tobytes()

    def test_spgemm_matmul_operator(self, rng):
        a = random_sparse(8, rng)
        b = random_sparse(8, rng)
        assert (a @ b) == a.multiply(b)

    def test_spgemm_empty_and_identity(self):
        zero = SparseMatrix.zeros(5)
        eye = SparseMatrix.identity(5)
        some = SparseMatrix(5, {(0, 1): 2.0, (3, 4): -1.5})
        assert (zero @ some).nnz == 0
        assert (some @ zero).nnz == 0
        assert (eye @ some) == some
        assert (some @ eye) == some
        empty = SparseMatrix.zeros(0)
        assert (empty @ empty).n == 0

    def test_spgemm_cancellation_drops_exact_zeros(self):
        # (row 0 of a) @ b accumulates 1*1 + 1*(-1) = 0 at (0, 0).
        a = SparseMatrix(2, {(0, 0): 1.0, (0, 1): 1.0})
        b = SparseMatrix(2, {(0, 0): 1.0, (1, 0): -1.0})
        assert (a @ b).nnz == 0


class TestDeltaGolden:
    @pytest.mark.parametrize("n", SIZES)
    def test_delta_matches_dense_difference(self, n, rng):
        a = random_sparse(n, rng)
        b = random_sparse(n, rng)
        delta = a.delta_entries(b)
        dense_diff = b.to_dense() - a.to_dense()
        expected_keys = {
            (int(i), int(j)) for i, j in zip(*np.nonzero(dense_diff))
        }
        assert set(delta) == expected_keys
        for (i, j), value in delta.items():
            assert value == dense_diff[i, j]

    def test_delta_tolerance_filters_small_changes(self):
        a = SparseMatrix(2, {(0, 0): 1.0, (0, 1): 5.0})
        b = SparseMatrix(2, {(0, 0): 1.0 + 1e-9, (0, 1): 6.0})
        assert a.delta_entries(b, tolerance=1e-6) == {(0, 1): 1.0}

    def test_delta_is_row_major_ordered(self, rng):
        a = random_sparse(12, rng)
        b = random_sparse(12, rng)
        keys = list(a.delta_entries(b))
        assert keys == sorted(keys)


class TestPermuteGolden:
    @pytest.mark.parametrize("n", SIZES)
    def test_permuted_matches_dense_gather(self, n, rng):
        matrix = random_sparse(n, rng)
        row_perm = rng.permutation(n)
        col_perm = rng.permutation(n)
        permuted = matrix.permuted(list(row_perm), list(col_perm))
        expected = matrix.to_dense()[np.ix_(row_perm, col_perm)]
        assert np.array_equal(permuted.to_dense(), expected)

    @pytest.mark.parametrize("n", SIZES)
    def test_transpose_matches_dense(self, n, rng):
        matrix = random_sparse(n, rng)
        assert np.array_equal(matrix.transpose().to_dense(), matrix.to_dense().T)

    def test_permuted_rejects_non_permutation(self):
        matrix = SparseMatrix.identity(3)
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            matrix.permuted([0, 0, 1], [0, 1, 2])


class TestTriangularSolvesGolden:
    @pytest.mark.parametrize("n", SIZES)
    def test_forward_backward_against_linalg(self, n, rng):
        matrix = random_dd(n, rng)
        factors = crout_decompose(matrix)
        lower = factors.l_dense()
        upper = factors.u_dense()
        b = rng.standard_normal(n)
        y = forward_substitution(factors, b)
        assert np.allclose(y, np.linalg.solve(lower, b))
        x = backward_substitution(factors, y)
        assert np.allclose(x, np.linalg.solve(upper, y))
        assert np.allclose(solve_factored(factors, b), np.linalg.solve(lower @ upper, b))

    @pytest.mark.parametrize("n", SIZES)
    def test_batched_solves_against_linalg(self, n, rng):
        matrix = random_dd(n, rng)
        factors = crout_decompose(matrix)
        block = rng.standard_normal((n, 6))
        dense = matrix.to_dense()
        assert np.allclose(
            forward_substitution_many(factors, block),
            np.linalg.solve(factors.l_dense(), block),
        )
        assert np.allclose(solve_factored_many(factors, block), np.linalg.solve(dense, block))

    @pytest.mark.parametrize("n", SIZES)
    def test_static_structure_solves_match(self, n, rng):
        matrix = random_dd(n, rng)
        pattern = symbolic_decomposition(matrix.pattern())
        static = LUFactors.sealed(pattern)
        crout_decompose_into(matrix, static, pattern=pattern)
        block = rng.standard_normal((n, 3))
        assert np.allclose(
            static.solve_many(block), np.linalg.solve(matrix.to_dense(), block)
        )
        assert np.allclose(
            backward_substitution_many(static, block),
            np.linalg.solve(static.u_dense(), block),
        )


class TestEmptyMatrixEdgeCases:
    def test_n_zero_products(self):
        matrix = SparseMatrix.zeros(0)
        assert matrix.matvec([]).shape == (0,)
        assert matrix.rmatvec([]).shape == (0,)
        assert matrix.matmat(np.zeros((0, 3))).shape == (0, 3)

    def test_n_zero_delta_and_permute(self):
        matrix = SparseMatrix.zeros(0)
        assert matrix.delta_entries(matrix) == {}
        assert matrix.permuted([], []).nnz == 0
        assert matrix.transpose().nnz == 0

    def test_n_zero_solves(self):
        factors = crout_decompose(SparseMatrix.zeros(0))
        assert solve_factored(factors, []).shape == (0,)
        assert solve_factored_many(factors, np.zeros((0, 4))).shape == (0, 4)

    def test_n_zero_queries(self):
        matrix = SparseMatrix.zeros(0)
        assert matrix.nnz == 0
        assert list(matrix.items()) == []
        assert matrix.is_diagonally_dominant()
        assert matrix.is_symmetric()


class TestKernelArrayLevel:
    """Drive the raw-array kernels directly (no SparseMatrix wrapper)."""

    def test_csr_from_coo_sums_duplicates_and_drops_zeros(self):
        indptr, indices, data = kernels.csr_from_coo(
            3,
            np.array([0, 0, 1, 1]),
            np.array([1, 1, 2, 2]),
            np.array([1.5, 2.5, 1.0, -1.0]),
        )
        assert indptr.tolist() == [0, 1, 1, 1]
        assert indices.tolist() == [1]
        assert data.tolist() == [4.0]

    def test_csr_aligned_values(self):
        a = SparseMatrix(2, {(0, 0): 1.0, (0, 1): 2.0})
        b = SparseMatrix(2, {(0, 1): 3.0, (1, 1): 4.0})
        rows, cols, va, vb = kernels.csr_aligned_values(2, a.csr_arrays(), b.csr_arrays())
        aligned = {
            (int(i), int(j)): (x, y)
            for i, j, x, y in zip(rows, cols, va, vb)
        }
        assert aligned == {(0, 0): (1.0, 0.0), (0, 1): (2.0, 3.0), (1, 1): (0.0, 4.0)}

    def test_expand_row_ids(self):
        matrix = SparseMatrix(3, {(0, 1): 1.0, (2, 0): 2.0, (2, 2): 3.0})
        assert kernels.expand_row_ids(3, matrix.indptr).tolist() == [0, 2, 2]
