"""One Markowitz elimination yields both the order and ``s̃p(A^O)``.

:func:`markowitz_ordering` returns the symbolic sparsity pattern its own
elimination builds.  These tests pin the order and that pattern to a
brute-force argmin reference, pin the pattern to the independent
:func:`symbolic_decomposition` of the reordered matrix (non-symmetric inputs,
missing diagonals, n = 0 and 1), pin CLUDE's sealed structure to
:func:`universal_symbolic_pattern`, and check that no Markowitz-ordered
factorization runs a second symbolic elimination.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lu.symbolic as symbolic_module
from repro.core.bf import decompose_snapshot_bf
from repro.core.cinc import decompose_cluster_cinc
from repro.core.clude import decompose_cluster_clude, universal_symbolic_pattern
from repro.core.inc import decompose_chain_inc
from repro.core.result import Stopwatch
from repro.core.similarity import cluster_union_matrix
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.lu.symbolic import symbolic_decomposition
from repro.query.spec import FactorizedSystem
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from tests.conftest import perturb_matrix, random_dd_matrix


@st.composite
def patterns(draw, max_n=12):
    """Arbitrary non-symmetric patterns; diagonal entries may be missing."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return SparsityPattern(0)
    index = st.integers(0, n - 1)
    entries = draw(st.sets(st.tuples(index, index), max_size=3 * n))
    return SparsityPattern(n, entries)


def _indicator(pattern: SparsityPattern) -> SparseMatrix:
    return SparseMatrix(pattern.n, {position: 1.0 for position in pattern})


def _sealed_structure(factors) -> SparsityPattern:
    """The positions a sealed container holds, diagonal included."""
    storage = factors.sweep_storage()
    n = len(storage.pivots)
    indices = {(k, k) for k in range(n)}
    for j, rows in enumerate(storage.l_rows):
        indices.update((i, j) for i in rows)
    for i, cols in enumerate(storage.u_cols):
        indices.update((i, j) for j in cols)
    return SparsityPattern(n, indices)


@given(pattern=patterns())
@settings(max_examples=200, deadline=None)
def test_pattern_is_symbolic_decomposition_of_reordered_matrix(pattern):
    matrix = _indicator(pattern)
    ordering, recorded = markowitz_ordering(matrix)
    assert recorded == symbolic_decomposition(ordering.apply(matrix).pattern())


def _reference_markowitz(pattern: SparsityPattern):
    """Brute-force O(n²) Markowitz: scan every live vertex for the argmin of
    ``(cost, index)`` at each step, then eliminate it symbolically."""
    n = pattern.n
    rows = [set() for _ in range(n)]
    columns = [set() for _ in range(n)]
    for i, j in pattern:
        if i != j:
            rows[i].add(j)
            columns[j].add(i)
    live = set(range(n))
    order = []
    eliminated = []
    for _ in range(n):
        pivot = min(live, key=lambda v: (len(rows[v]) * len(columns[v]), v))
        live.remove(pivot)
        order.append(pivot)
        pivot_row, pivot_column = rows[pivot] & live, columns[pivot] & live
        eliminated.append((pivot_row, pivot_column))
        for i in pivot_column:
            rows[i].discard(pivot)
            for j in pivot_row:
                if j != i:
                    rows[i].add(j)
                    columns[j].add(i)
        for j in pivot_row:
            columns[j].discard(pivot)
    position = {original: k for k, original in enumerate(order)}
    indices = {(k, k) for k in range(n)}
    for k, (pivot_row, pivot_column) in enumerate(eliminated):
        indices.update((k, position[j]) for j in pivot_row)
        indices.update((position[i], k) for i in pivot_column)
    return order, SparsityPattern(n, indices)


@st.composite
def seeded_patterns(draw):
    """Larger random patterns, dense enough that fill raises costs mid-run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 60))
    rows, columns = rng.integers(0, n, size=(2, int(rng.integers(n, 4 * n))))
    entries = set(zip(rows.tolist(), columns.tolist()))
    entries.update((k, k) for k in range(n) if rng.random() < 0.8)
    if rng.random() < 0.3:
        entries.update((j, i) for i, j in list(entries))
    return SparsityPattern(n, entries)


@given(pattern=st.one_of(patterns(), seeded_patterns()))
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_reference(pattern):
    """Same pivot at every step and the same s̃p as the O(n²) argmin scan."""
    ordering, recorded = markowitz_ordering(pattern)
    order, reference = _reference_markowitz(pattern)
    assert ordering.row.order == order
    assert recorded == reference


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_dimensions(n):
    for pattern in (SparsityPattern(n), SparsityPattern(n, [(k, k) for k in range(n)])):
        ordering, recorded = markowitz_ordering(pattern)
        assert ordering.n == n
        assert recorded == SparsityPattern(n, [(k, k) for k in range(n)])


@pytest.mark.parametrize("seed", range(6))
def test_clude_ussp_is_union_elimination_pattern(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    members = [random_dd_matrix(n, 3 * n, rng)]
    for _ in range(int(rng.integers(0, 4))):
        members.append(perturb_matrix(members[-1], 4, rng))
    decompositions = decompose_cluster_clude(members, 0, 0, Stopwatch())
    ordering, _ = markowitz_ordering(cluster_union_matrix(members))
    assert decompositions[0].ordering == ordering
    assert _sealed_structure(decompositions[0].factors) == universal_symbolic_pattern(
        members, ordering
    )


@pytest.fixture
def symbolic_calls(monkeypatch):
    """Count every call of ``symbolic_decomposition`` wherever it is bound."""
    original = symbolic_module.symbolic_decomposition
    calls = []

    def counted(pattern):
        calls.append(pattern.n)
        return original(pattern)

    for module in list(sys.modules.values()):
        if getattr(module, "symbolic_decomposition", None) is original:
            monkeypatch.setattr(module, "symbolic_decomposition", counted)
    return calls


def test_markowitz_ordered_factorizations_skip_the_symbolic_pass(symbolic_calls, rng):
    members = [random_dd_matrix(15, 45, rng)]
    members.append(perturb_matrix(members[0], 4, rng))

    FactorizedSystem.factorize(members[0])
    decompose_snapshot_bf(members[0], 0, Stopwatch())
    decompose_chain_inc(members, 0, Stopwatch())
    decompose_cluster_cinc(members, 0, 0, Stopwatch())
    decompose_cluster_clude(members, 0, 0, Stopwatch())
    assert symbolic_calls == []

    # The spy does see the orders that do not come from Markowitz.
    crout_decompose(members[0])
    FactorizedSystem.factorize(members[0], reorder=False)
    assert symbolic_calls == [15, 15]


@pytest.mark.parametrize("seed", range(4))
def test_factors_from_recorded_pattern_are_bitwise_unchanged(seed):
    rng = np.random.default_rng(seed)
    matrix = random_dd_matrix(30, 120, rng)
    ordering, recorded = markowitz_ordering(matrix)
    reordered = ordering.apply(matrix)
    assert crout_decompose(reordered, pattern=recorded).sweep_storage() == (
        crout_decompose(reordered).sweep_storage()
    )
