"""Tests for triangular solves, the full solve path, GE baseline and validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, SingularMatrixError
from repro.lu.crout import crout_decompose
from repro.lu.gauss import gaussian_elimination_solve
from repro.lu.markowitz import markowitz_ordering
from repro.lu.solve import (
    backward_substitution,
    forward_substitution,
    solve_factored,
    solve_reordered_system,
)
from repro.lu.validate import factors_are_valid, reconstruction_error, solve_residual
from repro.sparse.csr import SparseMatrix
from tests.conftest import random_dd_matrix


class TestTriangularSolves:
    def test_forward_substitution_matches_numpy(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        factors = crout_decompose(matrix)
        b = rng.random(12)
        y = forward_substitution(factors, b)
        assert np.allclose(factors.l_dense() @ y, b)

    def test_backward_substitution_matches_numpy(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        factors = crout_decompose(matrix)
        y = rng.random(12)
        x = backward_substitution(factors, y)
        assert np.allclose(factors.u_dense() @ x, y)

    def test_solve_factored(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        factors = crout_decompose(matrix)
        b = rng.random(12)
        x = solve_factored(factors, b)
        assert np.allclose(matrix.matvec(x), b, atol=1e-9)

    def test_wrong_rhs_length(self, rng):
        factors = crout_decompose(random_dd_matrix(5, 12, rng))
        with pytest.raises(DimensionError):
            forward_substitution(factors, [1.0, 2.0])
        with pytest.raises(DimensionError):
            backward_substitution(factors, [1.0, 2.0])

    def test_zero_pivot_detected(self):
        from repro.lu.factors import LUFactors
        from repro.sparse.kernels import narrow_sweep, wide_sweep
        from repro.sparse.pattern import SparsityPattern

        factors = LUFactors(2)
        factors.set_l_diagonal(0, 1.0)   # pivot 1 missing (zero)
        with pytest.raises(SingularMatrixError):
            forward_substitution(factors, [1.0, 1.0])

        # Pivot 1 is absent from the dynamic storage while column 1 still
        # holds an entry below it; the sweeps must read it as 0.0, not skip it.
        dynamic = LUFactors(3)
        dynamic.set_l_diagonal(0, 2.0)
        dynamic.l_set(2, 1, 0.5)
        dynamic.set_l_diagonal(2, 1.0)
        static = LUFactors.sealed(SparsityPattern(3, [(2, 1)]))
        static.set_l_diagonal(0, 2.0)
        static.l_set(2, 1, 0.5)
        static.set_l_diagonal(2, 1.0)
        assert dynamic.sweep_storage().pivots == [2.0, 0.0, 1.0]
        for container in (dynamic, static):
            for sweep in (narrow_sweep, wide_sweep):
                for width in (0, 1, 4):
                    with pytest.raises(SingularMatrixError) as raised:
                        sweep(container, np.ones((3, width)))
                    assert (raised.value.pivot_index, raised.value.value) == (1, 0.0)


class TestReorderedSolve:
    def test_solution_in_original_coordinates(self, rng):
        matrix = random_dd_matrix(15, 55, rng)
        ordering = markowitz_ordering(matrix)
        factors = crout_decompose(ordering.apply(matrix))
        x_true = rng.random(15)
        b = matrix.matvec(x_true)
        x = solve_reordered_system(factors, ordering, b)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_identity_ordering_allowed_as_none(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        b = rng.random(10)
        assert np.allclose(
            solve_reordered_system(factors, None, b), solve_factored(factors, b)
        )


class TestGaussianElimination:
    def test_matches_numpy_solve(self, rng):
        matrix = random_dd_matrix(12, 45, rng)
        b = rng.random(12)
        x = gaussian_elimination_solve(matrix, b)
        assert np.allclose(x, np.linalg.solve(matrix.to_dense(), b), atol=1e-9)

    def test_rejects_singular(self):
        singular = SparseMatrix(2, {(0, 0): 1.0})
        with pytest.raises(SingularMatrixError):
            gaussian_elimination_solve(singular, [1.0, 1.0])

    def test_rejects_bad_rhs(self, rng):
        with pytest.raises(DimensionError):
            gaussian_elimination_solve(random_dd_matrix(4, 8, rng), [1.0])

    def test_agrees_with_lu_path(self, rng):
        matrix = random_dd_matrix(10, 35, rng)
        ordering = markowitz_ordering(matrix)
        factors = crout_decompose(ordering.apply(matrix))
        b = rng.random(10)
        assert np.allclose(
            gaussian_elimination_solve(matrix, b),
            solve_reordered_system(factors, ordering, b),
            atol=1e-8,
        )


class TestValidationHelpers:
    def test_reconstruction_error_near_zero_for_valid_factors(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        ordering = markowitz_ordering(matrix)
        factors = crout_decompose(ordering.apply(matrix))
        assert reconstruction_error(factors, matrix, ordering) < 1e-10
        assert factors_are_valid(factors, matrix, ordering)

    def test_invalid_factors_detected(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        factors.set_l_diagonal(0, factors.l_diagonal(0) + 1.0)
        assert not factors_are_valid(factors, matrix)

    def test_solve_residual(self, rng):
        matrix = random_dd_matrix(8, 24, rng)
        x = rng.random(8)
        b = matrix.matvec(x)
        assert solve_residual(matrix, x, b) < 1e-12
        assert solve_residual(matrix, x + 0.1, b) > 0.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_solve_round_trip_property(seed):
    """Property: solving A x = A x0 recovers x0 through the reordered LU path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    matrix = random_dd_matrix(n, int(rng.integers(2 * n, 5 * n)), rng)
    ordering = markowitz_ordering(matrix)
    factors = crout_decompose(ordering.apply(matrix))
    x_true = rng.random(n)
    x = solve_reordered_system(factors, ordering, matrix.matvec(x_true))
    assert np.allclose(x, x_true, atol=1e-7)
