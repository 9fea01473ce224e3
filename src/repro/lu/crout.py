"""Sparse Crout LU decomposition (no pivoting).

``A = L U`` with ``L`` lower triangular (explicit diagonal pivots) and ``U``
unit upper triangular, matching the factor layout of the paper's Figure 4.
No numerical pivoting is performed: the matrices arising from the paper's
measures (``A = I - dW`` with ``d < 1`` and ``W`` a normalized adjacency
matrix) are strictly diagonally dominant, so the pivot order is chosen purely
for sparsity by the ordering strategies in :mod:`repro.lu.markowitz` and
:mod:`repro.lu.mindegree`.

The decomposition follows the two-phase split of Section 2.3 of the paper:

* SD-phase — ``s̃p(A)`` bounds all positions the factors can occupy.  For a
  Markowitz order it comes from the ordering's own elimination
  (:func:`~repro.lu.markowitz.markowitz_ordering` returns it as sorted rows)
  and is passed in as ``pattern``; for any other order
  :func:`~repro.lu.symbolic.symbolic_decomposition` computes it here;
* ND-phase — numeric values are computed row by row and written into an
  :class:`~repro.lu.factors.LUFactors` container (growable, or CLUDE's sealed
  USSP structure).  Row ``i`` reads the pattern's sorted columns
  (:meth:`~repro.sparse.pattern.SparsityPattern.row_lists`) and eliminates
  with each finished ``U`` row kept as ``(column, value)`` pairs.

Crout writes the container through ``sweep_storage()``, which drops any
sweep plan the container held.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import List, Optional, Tuple

from repro.errors import PatternError, SingularMatrixError
from repro.lu.factors import LUFactors
from repro.lu.symbolic import symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern

#: Pivots with magnitude below this threshold are treated as (numerically) zero.
PIVOT_TOLERANCE = 1e-12


def crout_decompose(
    matrix: SparseMatrix,
    pattern: Optional[SparsityPattern] = None,
    pivot_tolerance: float = PIVOT_TOLERANCE,
) -> LUFactors:
    """Decompose ``matrix`` into fresh growable LU factors.

    Parameters
    ----------
    matrix:
        The (already reordered, if applicable) matrix to decompose.
    pattern:
        Optional precomputed symbolic sparsity pattern ``s̃p(A)`` (the one
        :func:`~repro.lu.markowitz.markowitz_ordering` returns); computed
        here when absent.
    pivot_tolerance:
        Pivots smaller in magnitude than this raise
        :class:`~repro.errors.SingularMatrixError`.
    """
    factors = LUFactors(matrix.n)
    crout_decompose_into(matrix, factors, pattern=pattern, pivot_tolerance=pivot_tolerance)
    factors.reset_counters()
    return factors


def crout_decompose_into(
    matrix: SparseMatrix,
    factors: LUFactors,
    pattern: Optional[SparsityPattern] = None,
    pivot_tolerance: float = PIVOT_TOLERANCE,
) -> None:
    """Decompose ``matrix`` writing the factors into an existing container.

    The container is either empty and growable, or sealed over a pattern that
    covers ``s̃p(matrix)`` (this is what CLUDE does for the first matrix of
    each cluster).  A growable container that already holds entries raises
    :class:`~repro.errors.PatternError`.

    Parameters
    ----------
    matrix:
        The matrix to decompose.
    factors:
        Destination :class:`~repro.lu.factors.LUFactors`.
    pattern:
        Optional symbolic sparsity pattern to use for the working rows; when
        absent it is computed from ``matrix``.  A larger pattern (e.g. a
        cluster USSP) is allowed — extra positions simply hold zeros.
    pivot_tolerance:
        Threshold below which a pivot is considered numerically zero.
    """
    n = matrix.n
    if factors.n != n:
        raise PatternError(
            f"factor container dimension {factors.n} does not match matrix dimension {n}"
        )
    sealed = factors.is_sealed
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    if not sealed and (any(pivots) or any(l_rows) or any(u_cols)):
        raise PatternError("a growable destination for Crout must be empty")
    if pattern is None:
        pattern = symbolic_decomposition(matrix.pattern())
    # row_columns[i]: row i's pattern columns, ascending (the pattern's own
    # lists, only read here; Markowitz emits them directly).
    row_columns = pattern.row_lists()

    indptr = matrix.indptr.tolist()
    stored_columns = matrix.indices.tolist()
    stored_values = matrix.data.tolist()
    # upper_rows[k]: row k of U for elimination as (column, value) pairs —
    # every pattern position right of the diagonal, zeros included.
    upper_rows: List[List[Tuple[int, float]]] = [[] for _ in range(n)]

    # The working row, dense: pattern positions hold floats, every other
    # position None, so an update outside the pattern raises TypeError.
    work: List[Optional[float]] = [None] * n
    for i in range(n):
        columns = row_columns[i]
        diagonal = bisect_left(columns, i)
        if diagonal == len(columns) or columns[diagonal] != i:
            columns = [*columns[:diagonal], i, *columns[diagonal:]]
        for j in columns:
            work[j] = 0.0
        start, end = indptr[i], indptr[i + 1]
        for j, value in zip(stored_columns[start:end], stored_values[start:end]):
            if work[j] is not None:
                work[j] = value
        try:
            for k in columns[:diagonal]:
                l_ik = work[k]
                if l_ik == 0.0:
                    continue
                for j, u_kj in upper_rows[k]:
                    work[j] -= l_ik * u_kj
        except TypeError:
            raise PatternError(
                f"fill-in at ({i}, {j}) falls outside the symbolic pattern"
            ) from None
        values = [work[j] for j in columns]
        for j in columns:
            work[j] = None
        pivot = values[diagonal]
        if abs(pivot) <= pivot_tolerance:
            raise SingularMatrixError(i, pivot)
        row_cols = columns[diagonal + 1:]
        row_values = [value / pivot for value in values[diagonal + 1:]]
        upper_rows[i] = list(zip(row_cols, row_values))

        pivots[i] = pivot
        lower = values[:diagonal]
        if sealed:
            for j, value in zip(columns, lower):
                l_values[j][_slot(l_rows[j], i, (i, j))] = value
            if u_cols[i] == row_cols:
                u_values[i][:] = row_values
            else:
                for j, value in zip(row_cols, row_values):
                    u_values[i][_slot(u_cols[i], j, (i, j))] = value
        else:
            # Rows arrive in ascending order, so appending keeps every L
            # column sorted; zeros (-0.0 included) are not stored.
            for j, value in compress(zip(columns, lower), lower):
                l_rows[j].append(i)
                l_values[j].append(value)
            u_cols[i].extend(compress(row_cols, row_values))
            u_values[i].extend(filter(None, row_values))
    if not sealed:
        factors.structural_ops += sum(map(len, l_rows)) + sum(map(len, u_cols))


def _slot(indices: List[int], index: int, where: Tuple[int, int]) -> int:
    """Position of ``index`` in one sealed sorted list; a missing slot raises."""
    slot = bisect_left(indices, index)
    if slot == len(indices) or indices[slot] != index:
        raise PatternError(
            f"position {where} is outside the universal symbolic sparsity pattern"
        )
    return slot
