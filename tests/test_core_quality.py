"""Tests for the quality-loss measure and the Markowitz reference cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quality import (
    MarkowitzReference,
    markowitz_reference_size,
    quality_loss,
    symbolic_size_under_ordering,
)
from repro.errors import DimensionError
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.permutation import Ordering, random_ordering
from tests.conftest import random_dd_matrix


class TestSymbolicSizeUnderOrdering:
    def test_identity_ordering_equals_plain_symbolic_size(self, rng):
        from repro.lu.symbolic import symbolic_pattern_size

        matrix = random_dd_matrix(14, 45, rng)
        size = symbolic_size_under_ordering(matrix, Ordering.identity(14))
        assert size == symbolic_pattern_size(matrix.pattern())

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            symbolic_size_under_ordering(random_dd_matrix(5, 10, rng), Ordering.identity(6))


class TestQualityLoss:
    def test_markowitz_ordering_has_zero_loss(self, rng):
        matrix = random_dd_matrix(16, 55, rng)
        ordering, _ = markowitz_ordering(matrix)
        assert quality_loss(ordering, matrix) == pytest.approx(0.0)

    def test_random_ordering_has_nonnegative_loss(self, rng):
        """ql >= 0 whenever the reference really is the Markowitz size."""
        for _ in range(5):
            matrix = random_dd_matrix(16, 60, rng)
            ordering = random_ordering(16, rng)
            assert quality_loss(ordering, matrix) >= -1e-9

    def test_explicit_reference_size(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        ordering, _ = markowitz_ordering(matrix)
        reference = markowitz_reference_size(matrix)
        assert quality_loss(ordering, matrix, reference_size=reference) == pytest.approx(0.0)

    def test_zero_reference_rejected(self, rng):
        matrix = random_dd_matrix(5, 10, rng)
        with pytest.raises(DimensionError):
            quality_loss(Ordering.identity(5), matrix, reference_size=0)

    def test_symmetric_reference_path_consistent(self, rng):
        """For symmetric matrices, the fast reference equals the generic one."""
        n = 14
        dense = np.zeros((n, n))
        for _ in range(35):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                dense[i, j] = dense[j, i] = -0.2
        for i in range(n):
            dense[i, i] = 1.0 + np.sum(np.abs(dense[i]))
        from repro.sparse.csr import SparseMatrix

        matrix = SparseMatrix.from_dense(dense)
        generic = markowitz_reference_size(matrix, symmetric=False)
        fast = markowitz_reference_size(matrix, symmetric=True)
        # Both are valid Markowitz-style references; they must be close (the
        # orderings may differ slightly) and the fast one must be a genuine
        # symbolic size (at least n).
        assert fast >= n
        assert abs(fast - generic) / generic < 0.35


class TestMarkowitzReference:
    def test_caching(self, rng):
        matrix = random_dd_matrix(12, 40, rng)
        reference = MarkowitzReference()
        first = reference.size_for(0, matrix)
        second = reference.size_for(0, matrix)
        assert first == second
        assert reference.known_sizes() == {0: first}

    def test_precompute_and_quality(self, rng):
        matrices = [random_dd_matrix(10, 30, rng) for _ in range(3)]
        reference = MarkowitzReference()
        reference.precompute(matrices)
        assert set(reference.known_sizes()) == {0, 1, 2}
        ordering, _ = markowitz_ordering(matrices[1])
        assert reference.quality_loss(1, ordering, matrices[1]) == pytest.approx(0.0)
