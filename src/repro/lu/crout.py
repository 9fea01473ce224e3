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
  (:func:`~repro.lu.markowitz.markowitz_ordering` returns it) and is passed in
  as ``pattern``; for any other order
  :func:`~repro.lu.symbolic.symbolic_decomposition` computes it here;
* ND-phase — numeric values are computed row by row and written into an
  :class:`~repro.lu.factors.LUFactors` container (growable, or CLUDE's sealed
  USSP structure).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

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

    The container may be growable or sealed over a pattern that covers
    ``s̃p(matrix)`` (this is what CLUDE does for the first matrix of each
    cluster).

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
    if pattern is None:
        pattern = symbolic_decomposition(matrix.pattern())

    row_column_sets: List[set] = [set() for _ in range(n)]
    for i, j in pattern:
        row_column_sets[i].add(j)
    row_columns: List[List[int]] = []
    for i in range(n):
        row_column_sets[i].add(i)
        row_columns.append(sorted(row_column_sets[i]))

    # factor_rows[k] caches row k's strictly-upper U values for elimination.
    upper_rows: List[dict] = [dict() for _ in range(n)]

    for i in range(n):
        # One vectorized row extraction replaces a per-entry binary search.
        stored = matrix.row(i)
        work = {j: stored.get(j, 0.0) for j in row_columns[i]}
        for k in sorted(j for j in work if j < i):
            l_ik = work[k]
            if l_ik == 0.0:
                continue
            for j, u_kj in upper_rows[k].items():
                if j in work:
                    work[j] -= l_ik * u_kj
                else:
                    raise PatternError(
                        f"fill-in at ({i}, {j}) falls outside the symbolic pattern"
                    )
        pivot = work.get(i, 0.0)
        if abs(pivot) <= pivot_tolerance:
            raise SingularMatrixError(i, pivot)
        row_upper: dict = {}
        for j, value in work.items():
            if j < i:
                factors.l_set(i, j, value)
            elif j == i:
                factors.set_l_diagonal(i, pivot)
            else:
                scaled = value / pivot
                row_upper[j] = scaled
                factors.u_set(i, j, scaled)
        upper_rows[i] = row_upper


def crout_decompose_dense(
    dense: np.ndarray, pivot_tolerance: float = PIVOT_TOLERANCE
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense reference Crout decomposition, returning ``(L, U)`` arrays.

    ``L`` carries the pivots on its diagonal and ``U`` has a unit diagonal.
    Used by the test-suite to validate the sparse implementation.
    """
    array = np.array(dense, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise PatternError(f"expected a square 2-D array, got shape {array.shape}")
    n = array.shape[0]
    lower = np.zeros((n, n), dtype=float)
    upper = np.eye(n, dtype=float)
    for j in range(n):
        for i in range(j, n):
            lower[i, j] = array[i, j] - lower[i, :j] @ upper[:j, j]
        pivot = lower[j, j]
        if abs(pivot) <= pivot_tolerance:
            raise SingularMatrixError(j, pivot)
        for k in range(j + 1, n):
            upper[j, k] = (array[j, k] - lower[j, :j] @ upper[:j, k]) / pivot
    return lower, upper
