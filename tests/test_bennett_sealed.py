"""The sealed Bennett sweep against the dict-vector sweep it replaced.

Sealed factors (CLUDE's USSP structure) have their own rank-1 sweep with
dense work vectors.  ``_reference_rank_one`` below is the earlier shared
sweep's body restricted to sealed mode, kept as the reference: on every
input the two must leave pivots, ``L`` and ``U`` bit for bit equal (NaN and
``-0.0`` included), return equal active-step counts and raise the same
exception type at the same step.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import cluster_union_matrix
from repro.errors import PatternError, SingularMatrixError
from repro.lu.bennett import (
    DROP_TOLERANCE,
    OUTSIDE_PATTERN_TOLERANCE,
    PIVOT_TOLERANCE,
    bennett_rank_one_update,
    bennett_update,
    delta_to_rank_one_terms,
)
from repro.lu.crout import crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern


def _reference_rank_one(factors, u, v, pivot_tolerance=PIVOT_TOLERANCE,
                        drop=DROP_TOLERANCE):
    """The dict-vector rank-1 sweep, as it ran on sealed factors."""
    n = factors.n
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()

    def clean(vector):
        cleaned = {}
        for index, value in vector.items():
            index = int(index)
            if not 0 <= index < n:
                raise PatternError(f"update index {index} out of bounds for n={n}")
            value = float(value)
            if value != 0.0:
                cleaned[index] = value
        return cleaned

    u_work = clean(u)
    v_work = clean(v)
    u_get = u_work.get
    v_get = v_work.get
    pending = sorted(u_work.keys() | v_work.keys())

    active_steps = 0
    while pending:
        k = heappop(pending)
        uk = u_work.pop(k, 0.0)
        vk = v_work.pop(k, 0.0)
        if uk == 0.0 and vk == 0.0:
            continue
        active_steps += 1
        d_old = pivots[k]
        d_new = d_old + uk * vk
        if -pivot_tolerance <= d_new <= pivot_tolerance:
            raise SingularMatrixError(k, d_new)
        pivots[k] = d_new

        rows = l_rows[k]
        values = l_values[k]
        missing = ()
        if uk == 0.0:
            missing = []
            for i, ui in u_work.items():
                slot = bisect_left(rows, i)
                if slot < len(rows) and rows[slot] == i:
                    values[slot] = values[slot] + vk * ui
                else:
                    missing.append(i)
        else:
            outside = len(u_work)
            for slot, i in enumerate(rows):
                l_old = values[slot]
                ui_old = u_get(i, 0.0)
                if ui_old != 0.0:
                    outside -= 1
                    if vk != 0.0:
                        values[slot] = l_old + vk * ui_old
                elif l_old == 0.0:
                    continue
                ui_new = (d_old * ui_old - uk * l_old) / d_new
                if -drop < ui_new < drop:
                    if ui_old != 0.0:
                        del u_work[i]
                else:
                    if ui_old == 0.0:
                        heappush(pending, i)
                    u_work[i] = ui_new
            if vk != 0.0 and outside:
                stored = set(rows)
                missing = [i for i in u_work if i not in stored]
        rescale = uk != 0.0 and d_new != d_old
        for i in missing:
            ui_old = u_work[i]
            if abs(vk * ui_old) > OUTSIDE_PATTERN_TOLERANCE:
                raise PatternError(f"fill-in at ({i}, {k}) falls outside the pattern")
            if rescale:
                ui_new = d_old * ui_old / d_new
                if -drop < ui_new < drop:
                    del u_work[i]
                else:
                    u_work[i] = ui_new

        cols = u_cols[k]
        row_values = u_values[k]
        outside = len(v_work)
        for slot, j in enumerate(cols):
            u_kj_old = row_values[slot]
            vj_old = v_get(j, 0.0)
            if vj_old != 0.0:
                outside -= 1
            elif u_kj_old == 0.0:
                continue
            if vk != 0.0 and u_kj_old != 0.0:
                vj_new = vj_old - vk * u_kj_old
                if -drop < vj_new < drop:
                    if vj_old != 0.0:
                        del v_work[j]
                else:
                    if vj_old == 0.0:
                        heappush(pending, j)
                    v_work[j] = vj_new
            if uk != 0.0:
                row_values[slot] = (d_old * u_kj_old + uk * vj_old) / d_new
        if uk != 0.0 and outside:
            stored = set(cols)
            for j, vj in v_work.items():
                if j not in stored and abs(uk * vj / d_new) > OUTSIDE_PATTERN_TOLERANCE:
                    raise PatternError(f"fill-in at ({k}, {j}) falls outside the pattern")
    return active_steps


def _reference_update(factors, delta):
    return sum(_reference_rank_one(factors, u, v) for u, v in delta_to_rank_one_terms(delta))


def _bits(factors):
    """Pivots, ``L`` and ``U`` values as raw IEEE bytes (NaN payloads and ``-0.0`` kept)."""
    pivots, _, l_values, _, u_values = factors.sweep_storage()
    return _pack(pivots), [_pack(v) for v in l_values], [_pack(v) for v in u_values]


def _pack(values):
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(update, factors, *args):
    """``("ok", steps)``, or the exception type and the step it was raised at.

    A :class:`PatternError` names a fill at ``(i, k)`` in ``L`` or ``(k, j)``
    in ``U``; which one a failing step names may differ between the sweeps,
    so only its step ``k``, the smaller index, is kept.
    """
    try:
        return "ok", update(factors, *args)
    except SingularMatrixError as error:
        return SingularMatrixError, (error.pivot_index, struct.pack("<d", error.value))
    except PatternError as error:
        message = str(error)
        position = message[message.index("(") + 1 : message.index(")")]
        return PatternError, min(int(part) for part in position.split(","))


def _assert_same(delta, reference, factors):
    """Both sweeps give the same outcome and, when they succeed, the same bits."""
    want = _outcome(_reference_update, reference, delta)
    assert _outcome(bennett_update, factors, delta) == want
    if want[0] == "ok":
        assert _bits(factors) == _bits(reference)
    return want


# ---------------------------------------------------------------------- #
# Property: random clusters, replayed member by member
# ---------------------------------------------------------------------- #
#: Dyadic values, so that exact cancellations (stored zeros, drops) happen.
_VALUES = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)


def _random_cluster(n, members, rng):
    """Dense member matrices of one cluster: non-symmetric, full diagonal.

    Each member changes a few entries of one or two columns, of one or two
    rows, or scattered, so deltas group by columns as well as by rows.  The
    diagonal outweighs any row or column, so every intermediate matrix of
    a rank-1 sequence is strictly diagonally dominant.
    """
    density = min(0.35, 3.0 / max(n, 1))
    dense = np.where(rng.random((n, n)) < density, rng.choice(_VALUES, size=(n, n)), 0.0)
    np.fill_diagonal(dense, 2.0 * n + 1.0)
    cluster = [dense.copy()]
    for _ in range(members - 1):
        dense = dense.copy()
        shape = rng.integers(0, 3)
        lines = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(x) for x in rng.integers(0, n, size=2))
            if shape == 0:
                j = int(rng.choice(lines))
            elif shape == 1:
                i = int(rng.choice(lines))
            if i == j:
                dense[i, i] = 2.0 * n + 1.0 + float(rng.choice(_VALUES))
            elif dense[i, j] != 0.0 and rng.random() < 0.4:
                dense[i, j] = 0.0
            else:
                dense[i, j] = float(rng.choice(_VALUES))
        cluster.append(dense)
    return [SparseMatrix.from_dense(member) for member in cluster]


@given(
    n=st.sampled_from([1, 2, 12, 60]),
    members=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sealed_sweep_matches_reference_bitwise(n, members, seed):
    cluster = _random_cluster(n, members, np.random.default_rng(seed))
    ordering, ussp = markowitz_ordering(cluster_union_matrix(cluster))
    factors = LUFactors.sealed(ussp)
    crout_decompose_into(ordering.apply(cluster[0]), factors, pattern=ussp)
    reference = factors.copy()
    for before, after in zip(cluster, cluster[1:]):
        delta = ordering.map_entries(before.delta_entries(after))
        want = _reference_update(reference, delta)
        assert bennett_update(factors, delta) == want
        assert _bits(factors) == _bits(reference)


def test_random_clusters_group_by_rows_and_by_columns():
    """The property's deltas include both groupings and multi-term sweeps."""
    by_rows = by_columns = multi_term = 0
    for seed in range(40):
        cluster = _random_cluster(12, 6, np.random.default_rng(seed))
        for before, after in zip(cluster, cluster[1:]):
            terms = delta_to_rank_one_terms(before.delta_entries(after))
            multi_term += len(terms) > 1
            for u, v in terms:
                by_columns += len(v) == 1 and len(u) > 1
                by_rows += len(u) == 1 and len(v) > 1
    assert by_rows and by_columns and multi_term


# ---------------------------------------------------------------------- #
# Explicit cases
# ---------------------------------------------------------------------- #
#: A 4x4 matrix with A[2, 0] = 0; Crout puts no fill at (2, 0), so the
#: pattern of every position but (2, 0) holds its factors.
_MATRIX = np.array([
    [4.0, 0.5, 1.0, 0.25],
    [0.5, 5.0, 0.5, 0.5],
    [0.0, 1.0, 6.0, 0.5],
    [0.5, 0.25, 1.0, 7.0],
])
_MISSING = (2, 0)


def _missing_one_position():
    """Sealed factors of ``_MATRIX`` over the full pattern minus ``_MISSING``."""
    pattern = SparsityPattern(
        4, [(i, j) for i in range(4) for j in range(4) if (i, j) != _MISSING]
    )
    factors = LUFactors.sealed(pattern)
    crout_decompose_into(SparseMatrix.from_dense(_MATRIX), factors, pattern=pattern)
    return factors, factors.copy()


def _outer(u, v):
    return {(i, j): ui * vj for i, ui in u.items() for j, vj in v.items()}


def test_residue_outside_the_pattern_is_skipped_and_rescaled():
    # u's entry at row 2 lands at the missing (2, 0) as 1e-12 (below the
    # tolerance); it is rescaled at step 0 and read again at step 2.
    u = {0: 1.0, 2: 1e-12}
    v = {0: 1.0, 2: 1.0}
    assert abs(u[2] * v[0]) < OUTSIDE_PATTERN_TOLERANCE
    factors, reference = _missing_one_position()
    assert bennett_rank_one_update(factors, u, v) == _reference_rank_one(reference, u, v)
    assert _bits(factors) == _bits(reference)

    factors, reference = _missing_one_position()
    assert _assert_same(_outer(u, v), reference, factors)[0] == "ok"


def test_fill_outside_the_pattern_raises_at_the_same_step():
    u = {0: 1.0, 2: 1e-3}
    v = {0: 1.0, 2: 1.0}
    factors, reference = _missing_one_position()
    with pytest.raises(PatternError):
        _reference_rank_one(reference, u, v)
    with pytest.raises(PatternError, match=r"\(2, 0\)"):
        bennett_rank_one_update(factors, u, v)
    factors, reference = _missing_one_position()
    assert _assert_same(_outer(u, v), reference, factors) == (PatternError, 0)


def test_fill_outside_the_pattern_in_u_row_raises():
    # v non-zero at column 0 of row 2's update: a U fill check runs at step 2.
    pattern = SparsityPattern(
        4, [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 2)]
    )
    matrix = _MATRIX.copy()
    matrix[0, 2] = 0.0
    factors = LUFactors.sealed(pattern)
    crout_decompose_into(SparseMatrix.from_dense(matrix), factors, pattern=pattern)
    reference = factors.copy()
    assert _assert_same({(0, 2): 0.5}, reference, factors) == (PatternError, 0)


def test_pivot_breakdown_raises_with_the_same_pivot():
    factors, reference = _missing_one_position()
    # The delta's first term (column 0) moves pivot 1; its second cancels
    # the moved pivot exactly.
    probe = reference.copy()
    _reference_rank_one(probe, {0: 0.5}, {0: 1.0})
    delta = {(0, 0): 0.5, (1, 1): -probe.sweep_storage().pivots[1]}
    assert _assert_same(delta, reference, factors) == (
        SingularMatrixError, (1, struct.pack("<d", 0.0))
    )


def test_stored_negative_zeros_and_nan_deltas_stay_bitwise_equal():
    factors, reference = _missing_one_position()
    for target in (factors, reference):
        storage = target.sweep_storage()
        storage.l_values[1][0] = -0.0      # L[2, 1]
        storage.u_values[0][1] = -0.0      # U[0, 2]
        storage.u_values[1][1] = -0.0      # U[1, 3]
    _assert_same({(1, 3): 0.5, (3, 3): 0.25}, reference, factors)
    assert _bits(factors)[1][1][:8] == struct.pack("<d", -0.0)
    _assert_same({(3, 1): float("nan"), (1, 1): 0.5}, reference, factors)
    assert any(np.isnan(value) for value in factors.sweep_storage().pivots)


def test_rank_one_update_equals_a_one_term_bennett_update():
    u = {1: 0.5, 3: -0.25}
    v = {1: 1.0}
    (term,) = delta_to_rank_one_terms(_outer(u, v))
    assert term == (u, v)
    factors, reference = _missing_one_position()
    steps = bennett_rank_one_update(factors, u, v)
    assert steps == bennett_update(reference, _outer(u, v))
    assert _bits(factors) == _bits(reference)
    assert factors.is_sealed and factors.structural_ops == 0
