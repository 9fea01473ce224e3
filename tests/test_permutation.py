"""Tests for permutations and orderings."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, OrderingError
from repro.sparse.permutation import Ordering, Permutation, natural_ordering, random_ordering
from tests.conftest import random_dd_matrix


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.order == [0, 1, 2, 3]
        assert len(p) == 4

    def test_rejects_non_permutation(self):
        with pytest.raises(OrderingError):
            Permutation([0, 0, 1])
        with pytest.raises(OrderingError):
            Permutation([0, 2])

    def test_inverse(self):
        p = Permutation([2, 0, 1])
        inverse = p.inverse()
        assert inverse.compose(p) == Permutation.identity(3)
        assert p.compose(inverse) == Permutation.identity(3)

    def test_compose_sizes_must_match(self):
        with pytest.raises(OrderingError):
            Permutation([0, 1]).compose(Permutation([0, 1, 2]))

    def test_apply_to_vector(self):
        p = Permutation([2, 0, 1])
        assert p.apply_to_vector([10.0, 20.0, 30.0]).tolist() == [30.0, 10.0, 20.0]

    def test_apply_to_vector_wrong_length(self):
        with pytest.raises(DimensionError):
            Permutation([1, 0]).apply_to_vector([1.0, 2.0, 3.0])

    def test_to_matrix(self):
        p = Permutation([1, 0])
        dense = p.to_matrix().to_dense()
        assert np.allclose(dense, [[0, 1], [1, 0]])


class TestPermutationIndex:
    def test_index_is_a_read_only_intp_array(self):
        p = Permutation([2, 0, 1])
        assert p.index.dtype == np.intp
        assert p.index.tolist() == [2, 0, 1]
        assert not p.index.flags.writeable
        with pytest.raises(ValueError):
            p.index[0] = 1
        assert p.index is p.index  # built once, not per access

    def test_order_is_still_a_fresh_list(self):
        p = Permutation([2, 0, 1])
        order = p.order
        assert type(order) is list and order == [2, 0, 1]
        assert p.order is not order
        order[0] = 0
        assert p.order == [2, 0, 1]
        assert p.index.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("round_trip", [
        lambda value: pickle.loads(pickle.dumps(value)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trips_keep_equality_hash_and_bits(self, round_trip, rng):
        ordering = Ordering(Permutation(rng.permutation(9)), Permutation(rng.permutation(9)))
        copied = round_trip(ordering)
        assert copied == ordering and hash(copied) == hash(ordering)
        for original, clone in ((ordering.row, copied.row), (ordering.column, copied.column)):
            assert clone == original and hash(clone) == hash(original)
            assert clone.order == original.order
            assert not clone.index.flags.writeable
        block = rng.standard_normal((9, 3))
        assert copied.permute_rhs_many(block).tobytes() == ordering.permute_rhs_many(block).tobytes()
        assert (
            copied.unpermute_solution_many(block).tobytes()
            == ordering.unpermute_solution_many(block).tobytes()
        )
        assert copied.permute_rhs(block[:, 0]).tobytes() == ordering.permute_rhs(block[:, 0]).tobytes()
        assert (
            copied.unpermute_solution(block[:, 0]).tobytes()
            == ordering.unpermute_solution(block[:, 0]).tobytes()
        )


class TestOrdering:
    def test_identity_and_symmetric(self):
        identity = Ordering.identity(3)
        assert identity.is_symmetric()
        symmetric = Ordering.symmetric([2, 0, 1])
        assert symmetric.row == symmetric.column

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(OrderingError):
            Ordering(Permutation([0, 1]), Permutation([0, 1, 2]))

    def test_apply_matches_permutation_matrices(self, rng):
        matrix = random_dd_matrix(6, 18, rng)
        ordering = random_ordering(6, rng)
        reordered = ordering.apply(matrix)
        p = ordering.row.to_matrix().to_dense()
        q = ordering.column.to_matrix().to_dense().T
        # A^O = P A Q where P[k, row[k]] = 1 and Q[col[k], k]^T... build directly:
        expected = np.zeros((6, 6))
        for r in range(6):
            for c in range(6):
                expected[r, c] = matrix.get(ordering.row[r], ordering.column[c])
        assert np.allclose(reordered.to_dense(), expected)
        assert p.shape == q.shape

    def test_apply_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            Ordering.identity(4).apply(random_dd_matrix(5, 10, rng))

    def test_rhs_solution_round_trip(self, rng):
        """Solving the reordered system must give the original solution."""
        matrix = random_dd_matrix(8, 30, rng)
        ordering = random_ordering(8, rng)
        x = rng.random(8)
        b = matrix.matvec(x)
        reordered = ordering.apply(matrix)
        b_prime = ordering.permute_rhs(b)
        x_prime = np.linalg.solve(reordered.to_dense(), b_prime)
        recovered = ordering.unpermute_solution(x_prime)
        assert np.allclose(recovered, x, atol=1e-9)

    def test_map_entries(self, rng):
        matrix = random_dd_matrix(6, 15, rng)
        ordering = random_ordering(6, rng)
        mapped = ordering.map_entries(matrix.entries())
        reordered = ordering.apply(matrix)
        assert mapped == reordered.entries()

    def test_natural_ordering_alias(self):
        assert natural_ordering(5) == Ordering.identity(5)

    def test_from_sequences(self):
        ordering = Ordering.from_sequences([1, 0, 2], [2, 1, 0])
        assert ordering.row.order == [1, 0, 2]
        assert ordering.column.order == [2, 1, 0]


@given(order=st.permutations(list(range(7))))
@settings(max_examples=50, deadline=None)
def test_permutation_inverse_property(order):
    p = Permutation(list(order))
    assert p.inverse().inverse() == p
    assert p.compose(p.inverse()) == Permutation.identity(7)


@given(order=st.permutations(list(range(6))), data=st.data())
@settings(max_examples=40, deadline=None)
def test_unpermute_is_inverse_of_permute_columns(order, data):
    ordering = Ordering.symmetric(list(order))
    values = data.draw(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6)
    )
    x = np.array(values)
    # permute_rhs uses the row permutation; unpermute_solution uses the column
    # permutation.  For a symmetric ordering they must be mutually inverse.
    assert np.allclose(ordering.unpermute_solution(ordering.permute_rhs(x)), x)
