"""Vectorized array kernels over the CSR substrate.

Every hot inner loop of the library funnels through this module: sparse
matrix-vector products, snapshot deltas, permutation gathers and the batched
multi-right-hand-side triangular solves.  The CSR kernels operate on the raw
``indptr`` / ``indices`` / ``data`` arrays of a CSR matrix (plus the expanded
per-entry row ids where that saves a pass), so :class:`~repro.sparse.csr.
SparseMatrix` and the LU layer stay thin wrappers around NumPy calls instead
of pure-Python loops.

Triangular solves
-----------------
The solves read a factor container's :class:`SweepPlan` through its
``sweep_plan()`` method.  The plan is built from the container's native
storage (:class:`SweepStorage`: pivots, ``L`` by column, unit upper ``U``
by row) on the first solve after a write, and the container drops it on
its next write, so a factor that answers many solves checks its pivots,
counts its entries and lays out its lists once (see
:class:`~repro.lu.factors.LUFactors` for the write paths).  The solves pick
one of two sweeps from the block's width:

* the *narrow* sweep solves one column at a time in Python float
  arithmetic — column-oriented forward over ``L``'s own lists,
  row-oriented backward over ``U``'s rows as prebuilt ``(col, value)``
  pairs (rows from ``n - 1`` down, each row's entries in descending column
  order);
* the *wide* sweep runs column-oriented NumPy updates that cover all ``k``
  right-hand sides at once, over ``L`` flattened by column and a
  column-major transpose of ``U``, both prebuilt as flat arrays.

A block of ``k`` columns is narrow while ``k · (nnz(L) + nnz(U) + n) <=
NARROW_SWEEP_RATIO · n``.  Each sweep's layout is built when that sweep
first runs on the plan, so a factor solved once, by one sweep, pays for
that sweep's layout alone.

Determinism contract
--------------------
All reductions are performed with ``np.bincount`` (sequential per bin, input
order) or with per-column elementwise scatter updates.  Both triangular
sweeps give every element the same IEEE operations in the same order,
except that the narrow forward sweep omits updates that are exact no-ops.
Forward, ``y[i]`` receives ``- L[i, j] · y[j]`` for ``j`` ascending and is
then divided by its pivot; the narrow sweep skips column ``j`` when
``y[j] == 0``, but only when the block holds no ``-0.0`` and every stored
value of ``L`` is finite, because then ``y[i] - L[i, j] · (±0.0)`` is
``y[i]`` itself.  Every ``y[j]`` is still divided by its pivot, so a
``-0.0`` that the division produces reaches the backward sweep as before.
Backward, the column sweep subtracts ``U[i, j] · x[j]`` from ``x[i]`` for
``j`` descending (it visits columns from ``n - 1`` down); the row sweep
walks row ``i``'s entries from the largest ``j`` down, which is the same
sequence, and each ``x[j]`` with ``j > i`` is already final in both.  So
the narrow and wide sweeps are bitwise identical, and a block of ``k``
right-hand sides equals, column for column, ``k`` separate solves.  The
scalar substitution routines in :mod:`repro.lu.solve` are ``k = 1`` calls
of these kernels, which is what lets the test-suite assert bitwise
equality between batched and scalar measure series.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import isfinite
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, SingularMatrixError

#: Pivots below this magnitude abort a triangular solve.
PIVOT_TOLERANCE = 1e-12

#: The canonical CSR triple: ``indptr`` (n+1), ``indices`` (nnz), ``data`` (nnz).
CSRArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #
def csr_from_coo(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    sum_duplicates: bool = True,
) -> CSRArrays:
    """Canonicalize COO triples into CSR arrays.

    The result is row-major with strictly increasing column indices inside
    each row; duplicate positions are summed (in input order, matching the
    sequential accumulation of the old dict-based builder) and exact zeros
    are dropped *after* summation, so values that cancel disappear.
    Indices are assumed to be in range.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.size == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
    keys = rows * np.int64(n) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    if sum_duplicates:
        boundaries = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys = keys[boundaries]
        vals = np.add.reduceat(vals, boundaries)
    nonzero = vals != 0.0
    keys = keys[nonzero]
    vals = vals[nonzero]
    out_rows = keys // n
    indices = keys - out_rows * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=n), out=indptr[1:])
    return indptr, indices, vals


def expand_row_ids(n: int, indptr: np.ndarray) -> np.ndarray:
    """Return the per-entry row id array (COO rows) of a CSR matrix."""
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


# ---------------------------------------------------------------------- #
# Products
# ---------------------------------------------------------------------- #
def csr_matvec(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    row_ids: np.ndarray = None,
) -> np.ndarray:
    """Return ``A @ x``.

    Per-row accumulation happens inside one ``np.bincount`` call, which sums
    sequentially in storage (ascending-column) order — deterministic across
    runs and platforms.
    """
    if row_ids is None:
        row_ids = expand_row_ids(n, indptr)
    products = data * x[indices]
    return np.bincount(row_ids, weights=products, minlength=n)[:n]


def csr_rmatvec(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Return ``A.T @ x``."""
    products = data * np.repeat(x, np.diff(indptr))
    return np.bincount(indices, weights=products, minlength=n)[:n]


def csr_spgemm(
    n: int,
    a_indptr: np.ndarray,
    a_indices: np.ndarray,
    a_data: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
    b_data: np.ndarray,
) -> CSRArrays:
    """Return the CSR arrays of the sparse-sparse product ``A @ B``.

    Every nonzero ``A[i, k]`` is expanded against the whole of row ``k`` of
    ``B`` with one gather, and the resulting COO triples are canonicalized by
    :func:`csr_from_coo`.  Contributions to one output entry are ordered as
    the historical dict-of-dicts product ordered them (row-major over ``A``
    with ``k`` increasing) and reduced with NumPy's pairwise summation, so
    the product is deterministic — identical operands give identical bits —
    and agrees with the sequential dict accumulation to within the rounding
    of the reduction tree.  Exact cancellations are dropped.
    """
    counts = b_indptr[a_indices + 1] - b_indptr[a_indices]
    total = int(counts.sum())
    if total == 0:
        return csr_from_coo(
            n, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.float64)
        )
    a_rows = expand_row_ids(n, a_indptr)
    out_rows = np.repeat(a_rows, counts)
    # For A-nonzero t the expansion covers B slots b_indptr[k] … b_indptr[k+1);
    # build those ranges as a flat offset array without a Python loop.
    starts = np.repeat(b_indptr[a_indices], counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    slots = starts + local
    out_cols = b_indices[slots]
    out_vals = np.repeat(a_data, counts) * b_data[slots]
    return csr_from_coo(n, out_rows, out_cols, out_vals)


# ---------------------------------------------------------------------- #
# Structure transforms
# ---------------------------------------------------------------------- #
def csr_permute(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    row_perm: Sequence[int],
    col_perm: Sequence[int],
) -> CSRArrays:
    """Reorder so that ``B[r, c] = A[row_perm[r], col_perm[c]]``.

    Implemented as an index gather: entry ``A[i, j]`` lands at
    ``(inv_row[i], inv_col[j])`` where ``inv`` inverts the "new -> original"
    permutations.
    """
    row_perm = np.asarray(row_perm, dtype=np.int64)
    col_perm = np.asarray(col_perm, dtype=np.int64)
    inv_row = np.empty(n, dtype=np.int64)
    inv_col = np.empty(n, dtype=np.int64)
    inv_row[row_perm] = np.arange(n, dtype=np.int64)
    inv_col[col_perm] = np.arange(n, dtype=np.int64)
    rows = expand_row_ids(n, indptr)
    return csr_from_coo(n, inv_row[rows], inv_col[indices], data, sum_duplicates=False)


def csr_transpose(
    n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
) -> CSRArrays:
    """Return the CSR arrays of ``A.T``."""
    rows = expand_row_ids(n, indptr)
    return csr_from_coo(n, indices, rows, data, sum_duplicates=False)


# ---------------------------------------------------------------------- #
# Entry-wise combination
# ---------------------------------------------------------------------- #
def csr_delta(
    n: int,
    a: CSRArrays,
    b: CSRArrays,
    tolerance: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return COO triples of ``B - A`` whose magnitude exceeds ``tolerance``.

    This is the sparse update matrix ``ΔA`` consumed by the incremental
    decomposition algorithms.  Output is sorted row-major.
    """
    indptr_a, indices_a, data_a = a
    indptr_b, indices_b, data_b = b
    rows = np.concatenate([expand_row_ids(n, indptr_b), expand_row_ids(n, indptr_a)])
    cols = np.concatenate([indices_b, indices_a])
    vals = np.concatenate([data_b, -data_a])
    if rows.size == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.zeros(0, dtype=np.float64)
    keys = rows * np.int64(n) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    boundaries = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys = keys[boundaries]
    sums = np.add.reduceat(vals, boundaries)
    keep = np.abs(sums) > tolerance
    keys = keys[keep]
    sums = sums[keep]
    out_rows = keys // n
    return out_rows, keys - out_rows * n, sums


def csr_aligned_values(
    n: int, a: CSRArrays, b: CSRArrays
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Align two matrices on the union of their patterns.

    Returns ``(rows, cols, values_a, values_b)`` over every position stored
    in either matrix (absent positions read as 0.0) — the raw material for
    vectorized entry-wise comparisons such as ``allclose`` and symmetry
    checks.
    """
    indptr_a, indices_a, data_a = a
    indptr_b, indices_b, data_b = b
    keys_a = expand_row_ids(n, indptr_a) * np.int64(max(n, 1)) + indices_a
    keys_b = expand_row_ids(n, indptr_b) * np.int64(max(n, 1)) + indices_b
    keys_union = np.union1d(keys_a, keys_b)
    values_a = np.zeros(keys_union.size, dtype=np.float64)
    values_b = np.zeros(keys_union.size, dtype=np.float64)
    values_a[np.searchsorted(keys_union, keys_a)] = data_a
    values_b[np.searchsorted(keys_union, keys_b)] = data_b
    rows = keys_union // max(n, 1)
    cols = keys_union - rows * max(n, 1)
    return rows, cols, values_a, values_b


# ---------------------------------------------------------------------- #
# Batched triangular solves (LU factor protocol)
# ---------------------------------------------------------------------- #
#: Width rule: a block of ``k`` right-hand sides takes the narrow sweep while
#: ``k · (nnz(L) + nnz(U) + n) <= NARROW_SWEEP_RATIO · n``.  The narrow sweep
#: costs about one Python float update per stored entry per column, the wide
#: sweep a few NumPy calls per row whatever ``k`` is.  Measured break-even of
#: ``k · (nnz + n) / n`` on Markowitz-ordered RWR systems of the
#: 3-out-edge evolving chain (CPython 3.11, NumPy 2.4, 2-core Intel Xeon):
#: about 110 at n = 100, 140 at n = 400 and 150 at n = 1000.
NARROW_SWEEP_RATIO = 128


class SweepStorage(NamedTuple):
    """A factor container's native storage, as the sweep plan reads it.

    ``pivots[j]`` is ``L[j, j]`` (0.0 when absent).  Column ``j`` of ``L``
    strictly below the diagonal is ``l_rows[j]`` / ``l_values[j]``; row ``i``
    of the unit upper ``U`` strictly right of the diagonal is ``u_cols[i]`` /
    ``u_values[i]``.  Indices ascend within every list.  The lists are the
    container's own storage.
    """

    pivots: List[float]
    l_rows: Sequence[Sequence[int]]
    l_values: Sequence[Sequence[float]]
    u_cols: Sequence[Sequence[int]]
    u_values: Sequence[Sequence[float]]


class _NarrowLayout(NamedTuple):
    """The narrow sweep's view of the factors.

    ``forward`` holds ``(j, pivot, rows, values)`` for every column ``j`` of
    ``L`` (the container's own lists).  ``backward`` holds ``(i, pairs)``
    for every non-empty row ``i`` of ``U``, rows descending, with ``pairs``
    the row's ``(col, value)`` entries in descending column order.
    """

    forward: List[Tuple[int, float, Sequence[int], Sequence[float]]]
    backward: List[Tuple[int, List[Tuple[int, float]]]]


class _WideLayout(NamedTuple):
    """The wide sweep's view: ``L`` flattened by column and ``U`` transposed to
    column-major, each as ``(ptr, indices, values)``; rows ascend per column."""

    l_ptr: List[int]
    l_rows: np.ndarray
    l_values: np.ndarray
    u_ptr: List[int]
    u_rows: np.ndarray
    u_values: np.ndarray


class SweepPlan:
    """What the triangular sweeps read of one factor container, built once.

    A container builds its plan on the first solve after a write and drops
    it on every write (:class:`~repro.lu.factors.LUFactors` documents the
    write paths), so a factor that answers many solves between two writes
    checks its pivots, counts its entries and lays out its lists once.  The
    plan holds the first pivot the forward sweep rejects (``singular``, or
    ``None``), the stored entry count the width rule reads, and, each built
    only when its sweep first runs, the narrow layout (``U``'s rows as
    ``(col, value)`` pairs) and the wide layout (flat NumPy arrays).  ``L``'s finiteness, which
    the narrow forward sweep's zero skip needs, is summed on first use.  The
    plan only reads the container's lists and never writes them.
    """

    __slots__ = ("storage", "stored", "singular", "_l_finite", "_narrow", "_wide")

    def __init__(self, storage: SweepStorage) -> None:
        self.storage = storage
        self.stored = sum(map(len, storage.l_rows)) + sum(map(len, storage.u_cols))
        self.singular: Optional[Tuple[int, float]] = None
        for j, pivot in enumerate(storage.pivots):
            if abs(pivot) <= PIVOT_TOLERANCE:
                self.singular = (j, pivot)
                break
        self._l_finite: Optional[bool] = None
        self._narrow: Optional[_NarrowLayout] = None
        self._wide: Optional[_WideLayout] = None

    def is_narrow(self, k: int) -> bool:
        """Whether a ``k``-column block takes the narrow (scalar) sweep."""
        n = len(self.storage.pivots)
        return k * (self.stored + n) <= NARROW_SWEEP_RATIO * n

    def zero_skip_is_exact(self, block: np.ndarray) -> bool:
        """Whether the forward sweep may skip ``L``'s column ``j`` when ``x[j] == 0``.

        The skipped update ``x[i] -= v · (±0.0)`` leaves ``x[i]`` unchanged
        when ``v`` is finite and ``x[i]`` is not ``-0.0``.  ``a - b`` is
        ``-0.0`` only when ``a`` is, so a block without ``-0.0`` never
        produces one in a row the sweep has yet to reach, and an ``inf`` or
        NaN anywhere in ``L`` makes the sum of its values non-finite.  A NaN
        ``x[i]`` ends with the same bits either way: the skipped subtraction
        would only quiet it, and the division by its pivot quiets it anyway.
        A block without zeros is not checked, since a zero reached by
        cancellation is too rare to pay for the check.
        """
        zeros = block == 0.0
        if not zeros.any() or np.signbit(block[zeros]).any():
            return False
        if self._l_finite is None:
            self._l_finite = isfinite(sum(chain.from_iterable(self.storage.l_values)))
        return self._l_finite

    def narrow_layout(self) -> _NarrowLayout:
        """``L``'s columns as they are, ``U``'s rows as reversed pairs."""
        layout = self._narrow
        if layout is None:
            pivots, l_rows, l_values, u_cols, u_values = self.storage
            n = len(pivots)
            # U flattened row-major and then reversed runs row n - 1 first,
            # each row in descending column order: one zip makes every pair.
            pairs = list(zip(
                reversed(list(chain.from_iterable(u_cols))),
                reversed(list(chain.from_iterable(u_values))),
            ))
            backward = []
            start = 0
            for i in range(n - 1, -1, -1):
                stop = start + len(u_cols[i])
                if stop != start:
                    backward.append((i, pairs[start:stop]))
                start = stop
            forward = list(zip(range(n), pivots, l_rows, l_values))
            layout = self._narrow = _NarrowLayout(forward, backward)
        return layout

    def wide_layout(self) -> _WideLayout:
        """``L`` flattened by column and ``U`` transposed to column-major."""
        layout = self._wide
        if layout is None:
            pivots, l_rows, l_values, u_cols, u_values = self.storage
            n = len(pivots)
            l_ptr, rows, vals = _flatten(l_rows, l_values)
            row_ptr, cols, u_vals = _flatten(u_cols, u_values)
            # Transpose U to column-major: a stable sort by column keeps each
            # column's rows ascending.
            order = np.argsort(cols, kind="stable")
            u_rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(row_ptr))[order]
            u_ptr = [0, *accumulate(np.bincount(cols, minlength=n).tolist())]
            layout = self._wide = _WideLayout(l_ptr, rows, vals, u_ptr, u_rows, u_vals[order])
        return layout


def _as_rhs_block(n: int, block) -> np.ndarray:
    """Copy a right-hand-side block into a float64 ``(n, k)`` array."""
    array = np.array(block, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != n:
        raise DimensionError(
            f"right-hand-side block of shape {array.shape} incompatible with n={n}"
        )
    return array


def _narrow(block: np.ndarray, plan: SweepPlan, forward: bool, backward: bool) -> None:
    """Sweep each column of ``block`` in place with Python float arithmetic.

    Forward, column ``j`` of ``L`` is skipped when ``x[j] == 0`` and
    :meth:`SweepPlan.zero_skip_is_exact` holds for the block, which keeps
    every bit.
    """
    columns, rows = plan.narrow_layout()
    skip = forward and plan.zero_skip_is_exact(block)
    for c in range(block.shape[1]):
        x = block[:, c].tolist()
        if forward:
            for j, pivot, l_rows, l_values in columns:
                xj = x[j] / pivot
                x[j] = xj
                if xj or not skip:
                    for i, value in zip(l_rows, l_values):
                        x[i] -= value * xj
        if backward:
            for i, row in rows:
                xi = x[i]
                for j, value in row:
                    xi -= value * x[j]
                x[i] = xi
        block[:, c] = x


def _flatten(lists: Sequence[Sequence[int]], values: Sequence[Sequence[float]]):
    """Concatenate per-slice index/value lists into ``(ptr, indices, data)``."""
    ptr = [0, *accumulate(map(len, lists))]
    indices = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=ptr[-1])
    data = np.fromiter(chain.from_iterable(values), dtype=np.float64, count=ptr[-1])
    return ptr, indices, data


def _wide(block: np.ndarray, plan: SweepPlan, forward: bool, backward: bool) -> None:
    """Sweep all columns of ``block`` at once with per-column NumPy updates."""
    l_ptr, l_rows, l_vals, u_ptr, u_rows, u_vals = plan.wide_layout()
    if forward:
        for j, pivot in enumerate(plan.storage.pivots):
            block[j] /= pivot
            start, stop = l_ptr[j], l_ptr[j + 1]
            if start != stop:
                block[l_rows[start:stop]] -= l_vals[start:stop, None] * block[j]
    if backward:
        for j in range(len(plan.storage.pivots) - 1, 0, -1):
            start, stop = u_ptr[j], u_ptr[j + 1]
            if start != stop:
                block[u_rows[start:stop]] -= u_vals[start:stop, None] * block[j]


def _sweep(factors, block, forward: bool, backward: bool, kernel=None) -> np.ndarray:
    """Validate, fetch the factors' plan, check pivots and run the chosen sweep."""
    block = _as_rhs_block(factors.n, block)
    plan = factors.sweep_plan()
    if forward and plan.singular is not None:
        raise SingularMatrixError(*plan.singular)
    if kernel is None:
        kernel = _narrow if plan.is_narrow(block.shape[1]) else _wide
    kernel(block, plan, forward, backward)
    return block


def narrow_sweep(factors, block, forward: bool = True, backward: bool = True) -> np.ndarray:
    """Solve with the narrow sweep regardless of width (see :data:`NARROW_SWEEP_RATIO`)."""
    return _sweep(factors, block, forward, backward, _narrow)


def wide_sweep(factors, block, forward: bool = True, backward: bool = True) -> np.ndarray:
    """Solve with the wide sweep regardless of width (see :data:`NARROW_SWEEP_RATIO`)."""
    return _sweep(factors, block, forward, backward, _wide)


def forward_substitution_many(factors, block) -> np.ndarray:
    """Solve ``L Y = B`` for a dense ``(n, k)`` block of right-hand sides."""
    return _sweep(factors, block, True, False)


def backward_substitution_many(factors, block) -> np.ndarray:
    """Solve ``U X = Y`` (unit upper ``U``) for a dense ``(n, k)`` block."""
    return _sweep(factors, block, False, True)


def solve_factored_many(factors, block) -> np.ndarray:
    """Solve ``(L U) X = B`` for a block of right-hand sides (no reordering)."""
    return _sweep(factors, block, True, True)
