"""Triangular solves and the full reordered-system solve path.

Once a matrix is decomposed, any right-hand side is handled with one forward
and one backward substitution (paper Section 2.1/2.2):

    A x = b   ⇔   A^O (Q^{-1} x) = P b   ⇔   L (U x') = b'

so ``x' = backward(U, forward(L, P b))`` and ``x = Q x'``.

A whole block of right-hand sides (e.g. the 64 query vectors of a proximity
sweep) is handled by the ``*_many`` variants from
:mod:`repro.sparse.kernels`.  They read the factor container's sweep plan
(``sweep_plan()``: checked pivots and prebuilt layouts of ``L`` and ``U``,
built on the first solve after a write and dropped by the next write) and
choose the sweep from the block's width: a ``k``-column block is narrow
while ``k · (nnz(L) + nnz(U) + n) <= 128 · n``.  Narrow blocks are solved
column by column in Python float arithmetic, wide ones by one NumPy sweep
that updates every column at once.  Both sweeps perform the
same floating-point operations in the same order for every element, except
that the narrow forward sweep omits updates that are exact no-ops: it skips
``L``'s column ``j`` when ``y[j] == 0``, the block holds no ``-0.0`` and
every stored value of ``L`` is finite.  The narrow backward sweep runs over
``U``'s rows, the wide one over its columns, and each ``x[i]`` still
receives its updates in descending column order.  So both sweeps give
bitwise identical results.  The scalar routines here are one-column calls
of those kernels, so scalar and batched answers are bitwise identical
column for column by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import DimensionError
from repro.sparse.kernels import (
    PIVOT_TOLERANCE,
    backward_substitution_many,
    forward_substitution_many,
    solve_factored_many,
)
from repro.sparse.permutation import Ordering

__all__ = [
    "PIVOT_TOLERANCE",
    "forward_substitution",
    "backward_substitution",
    "forward_substitution_many",
    "backward_substitution_many",
    "solve_factored",
    "solve_factored_many",
    "solve_reordered_system",
    "solve_reordered_system_many",
]


def _one_column(kernel, factors, b: Sequence[float]) -> np.ndarray:
    """Run a batched kernel on one right-hand side and return its column."""
    vector = np.asarray(b, dtype=float)
    if vector.shape != (factors.n,):
        raise DimensionError(
            f"right-hand side of shape {vector.shape} incompatible with n={factors.n}"
        )
    return kernel(factors, vector[:, None])[:, 0]


def forward_substitution(factors, b: Sequence[float]) -> np.ndarray:
    """Solve ``L y = b`` where ``L`` is the lower factor of ``factors``."""
    return _one_column(forward_substitution_many, factors, b)


def backward_substitution(factors, y: Sequence[float]) -> np.ndarray:
    """Solve ``U x = y`` where ``U`` is the unit upper factor of ``factors``."""
    return _one_column(backward_substitution_many, factors, y)


def solve_factored(factors, b: Sequence[float]) -> np.ndarray:
    """Solve ``(L U) x = b`` given already-computed factors (no reordering)."""
    return _one_column(solve_factored_many, factors, b)


def solve_reordered_system(
    factors,
    ordering: Optional[Ordering],
    b: Sequence[float],
) -> np.ndarray:
    """Solve the original system ``A x = b`` given factors of ``A^O``.

    Parameters
    ----------
    factors:
        LU factors of the reordered matrix ``A^O``.
    ordering:
        The ordering ``O = (P, Q)`` that was applied before decomposition;
        ``None`` means the identity ordering.
    b:
        Right-hand side in original coordinates.

    Returns
    -------
    numpy.ndarray
        The solution ``x`` in original coordinates.
    """
    if ordering is None:
        return solve_factored(factors, b)
    b_prime = ordering.permute_rhs(b)
    x_prime = solve_factored(factors, b_prime)
    return ordering.unpermute_solution(x_prime)


def solve_reordered_system_many(
    factors,
    ordering: Optional[Ordering],
    block: Sequence[Sequence[float]],
) -> np.ndarray:
    """Solve ``A X = B`` for a dense ``(n, k)`` block of right-hand sides.

    The batched analogue of :func:`solve_reordered_system`: one forward and
    one backward sweep answer all ``k`` columns, and each column of the
    result is bitwise identical to a scalar solve of that column.
    """
    if ordering is None:
        return solve_factored_many(factors, block)
    b_prime = ordering.permute_rhs_many(block)
    x_prime = solve_factored_many(factors, b_prime)
    return ordering.unpermute_solution_many(x_prime)
