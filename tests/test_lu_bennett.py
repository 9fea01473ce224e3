"""Tests for Bennett's incremental LU update (dynamic and static paths)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, SingularMatrixError
from repro.lu.bennett import (
    bennett_rank_one_update,
    bennett_update,
    delta_to_rank_one_terms,
)
from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from tests.conftest import perturb_matrix, random_dd_matrix


class TestDeltaToRankOneTerms:
    def test_empty_delta(self):
        assert delta_to_rank_one_terms({}) == []

    def test_groups_by_column_when_fewer_columns(self):
        delta = {(0, 2): 1.0, (1, 2): 2.0, (3, 2): -1.0}
        terms = delta_to_rank_one_terms(delta)
        assert len(terms) == 1
        u, v = terms[0]
        assert v == {2: 1.0}
        assert u == {0: 1.0, 1: 2.0, 3: -1.0}

    def test_groups_by_row_when_fewer_rows(self):
        delta = {(1, 0): 1.0, (1, 2): 2.0, (1, 3): -1.0}
        terms = delta_to_rank_one_terms(delta)
        assert len(terms) == 1
        u, v = terms[0]
        assert u == {1: 1.0}
        assert v == {0: 1.0, 2: 2.0, 3: -1.0}

    def test_terms_reconstruct_delta(self, rng):
        n = 8
        delta = {}
        for _ in range(10):
            i, j = rng.integers(0, n, size=2)
            delta[(int(i), int(j))] = float(rng.normal())
        dense = np.zeros((n, n))
        for (i, j), value in delta.items():
            dense[i, j] = value
        rebuilt = np.zeros((n, n))
        for u, v in delta_to_rank_one_terms(delta):
            u_vec = np.zeros(n)
            v_vec = np.zeros(n)
            for index, value in u.items():
                u_vec[index] = value
            for index, value in v.items():
                v_vec[index] = value
            rebuilt += np.outer(u_vec, v_vec)
        assert np.allclose(rebuilt, dense)


class TestRankOneUpdate:
    def test_matches_full_refactorization(self, rng):
        matrix = random_dd_matrix(15, 50, rng)
        factors = crout_decompose(matrix)
        u = {int(rng.integers(0, 15)): 0.3, int(rng.integers(0, 15)): -0.2}
        v = {int(rng.integers(0, 15)): 0.4}
        bennett_rank_one_update(factors, u, v)
        dense = matrix.to_dense()
        u_vec = np.zeros(15)
        v_vec = np.zeros(15)
        for index, value in u.items():
            u_vec[index] = value
        for index, value in v.items():
            v_vec[index] = value
        expected = dense + np.outer(u_vec, v_vec)
        assert np.allclose(factors.l_dense() @ factors.u_dense(), expected, atol=1e-9)

    def test_returns_active_step_count(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        steps = bennett_rank_one_update(factors, {9: 0.1}, {9: 1.0})
        assert steps == 1

    def test_zero_update_is_noop(self, rng):
        matrix = random_dd_matrix(10, 30, rng)
        factors = crout_decompose(matrix)
        before = factors.l_dense() @ factors.u_dense()
        steps = bennett_rank_one_update(factors, {}, {})
        assert steps == 0
        assert np.allclose(factors.l_dense() @ factors.u_dense(), before)

    def test_out_of_bounds_index_rejected(self, rng):
        factors = crout_decompose(random_dd_matrix(5, 12, rng))
        with pytest.raises(PatternError):
            bennett_rank_one_update(factors, {7: 1.0}, {0: 1.0})

    def test_singular_update_rejected(self):
        matrix = SparseMatrix(2, {(0, 0): 1.0, (1, 1): 1.0})
        factors = crout_decompose(matrix)
        with pytest.raises(SingularMatrixError):
            bennett_rank_one_update(factors, {0: -1.0}, {0: 1.0})


class TestBennettUpdateSequences:
    def test_dynamic_matches_refactorization(self, rng):
        matrix = random_dd_matrix(20, 70, rng)
        target = perturb_matrix(matrix, changes=8, rng=rng)
        factors = crout_decompose(matrix)
        bennett_update(factors, matrix.delta_entries(target))
        assert np.allclose(
            factors.l_dense() @ factors.u_dense(), target.to_dense(), atol=1e-8
        )

    def test_static_matches_refactorization(self, rng):
        matrix = random_dd_matrix(20, 70, rng)
        target = perturb_matrix(matrix, changes=8, rng=rng)
        ussp = symbolic_decomposition(matrix.pattern().union(target.pattern()))
        static = LUFactors.sealed(ussp)
        crout_decompose_into(matrix, static, pattern=ussp)
        bennett_update(static, matrix.delta_entries(target))
        assert np.allclose(
            static.l_dense() @ static.u_dense(), target.to_dense(), atol=1e-8
        )
        assert static.structural_ops == 0

    def test_static_and_dynamic_agree(self, rng):
        matrix = random_dd_matrix(16, 55, rng)
        target = perturb_matrix(matrix, changes=6, rng=rng)
        delta = matrix.delta_entries(target)

        dynamic = crout_decompose(matrix)
        bennett_update(dynamic, delta)

        ussp = symbolic_decomposition(matrix.pattern().union(target.pattern()))
        static = LUFactors.sealed(ussp)
        crout_decompose_into(matrix, static, pattern=ussp)
        bennett_update(static, delta)

        assert np.allclose(dynamic.l_dense(), static.l_dense(), atol=1e-8)
        assert np.allclose(dynamic.u_dense(), static.u_dense(), atol=1e-8)

    def test_chain_of_updates_stays_accurate(self, rng):
        """Long chains of incremental updates (as in INC) must not drift."""
        current = random_dd_matrix(15, 50, rng)
        factors = crout_decompose(current)
        for _ in range(10):
            following = perturb_matrix(current, changes=4, rng=rng)
            bennett_update(factors, current.delta_entries(following))
            current = following
        assert np.allclose(
            factors.l_dense() @ factors.u_dense(), current.to_dense(), atol=1e-7
        )

    def test_update_outside_static_pattern_raises(self, rng):
        matrix = random_dd_matrix(10, 25, rng)
        ussp = symbolic_decomposition(matrix.pattern())
        static = LUFactors.sealed(ussp)
        crout_decompose_into(matrix, static, pattern=ussp)
        # Find a position that is not admissible and push a large update there.
        outside = None
        for i in range(10):
            for j in range(10):
                if i != j and (i, j) not in ussp:
                    outside = (i, j)
                    break
            if outside:
                break
        if outside is None:
            pytest.skip("matrix too dense to have an outside position")
        with pytest.raises((PatternError, SingularMatrixError)):
            bennett_update(static, {outside: 5.0})
            # Reaching here without an exception means the pattern check was
            # bypassed; force a failure.
            raise AssertionError("expected a pattern violation")


@given(seed=st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_bennett_equals_refactorization_property(seed):
    """Property: Bennett-updated factors equal the factors of the new matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 18))
    matrix = random_dd_matrix(n, int(rng.integers(2 * n, 5 * n)), rng)
    target = perturb_matrix(matrix, changes=int(rng.integers(1, 6)), rng=rng)
    factors = crout_decompose(matrix)
    bennett_update(factors, matrix.delta_entries(target))
    expected = crout_decompose(target)
    assert np.allclose(factors.l_dense(), expected.l_dense(), atol=1e-7)
    assert np.allclose(factors.u_dense(), expected.u_dense(), atol=1e-7)
