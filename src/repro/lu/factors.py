"""Containers for LU factors.

The paper stores the decomposed matrix ``Â = L + U`` in adjacency lists
(Figure 4).  The library uses Crout's convention throughout: ``L`` is lower
triangular and carries the pivots on its diagonal, ``U`` is *unit* upper
triangular (its unit diagonal is implicit and never stored).

Two interchangeable containers implement the same informal protocol:

* :class:`LUFactors` (this module) — the *dynamic* representation used by
  BF, INC and CINC.  ``L`` is held column-by-column and ``U`` row-by-row in
  :class:`~repro.sparse.lil.AdjacencyListMatrix` adjacency lists whose
  structure grows and shrinks as values appear and vanish.  Structural list
  operations are counted, which is how the benchmarks surface the paper's
  observation that restructuring dominates a naive incremental update.
* :class:`~repro.lu.static_structure.StaticLUFactors` — the CLUDE
  representation: one pre-allocated structure derived from a cluster's
  universal symbolic sparsity pattern, reused by every member matrix, with
  no structural operations at all.

The shared protocol (used by Crout, Bennett and the triangular solvers):

``l_get(i, j)``, ``l_set(i, j, v)``, ``u_get(i, j)``, ``u_set(i, j, v)``,
``l_column_entries(j)`` (strictly-below-diagonal entries of column ``j``),
``u_row_entries(i)`` (strictly-right-of-diagonal entries of row ``i``),
``l_diagonal(k)`` / ``set_l_diagonal(k, v)``, ``sweep_storage()`` (the
native storage read by the triangular sweeps), ``fill_size``,
``structural_ops``, ``decomposed_pattern()``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import DimensionError
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import SweepStorage, solve_factored_many
from repro.sparse.lil import AdjacencyListMatrix
from repro.sparse.pattern import SparsityPattern


class LUFactors:
    """LU factors stored in dynamic adjacency lists.

    ``L`` is stored column-major (the internal matrix ``_lower_t`` holds
    ``L[i, j]`` at position ``(j, i)``), because both Bennett's algorithm and
    the outer-product forward substitution sweep down columns of ``L``.
    ``U`` is stored row-major.
    """

    __slots__ = ("_n", "_lower_t", "_upper")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        self._n = n
        self._lower_t = AdjacencyListMatrix(n)
        self._upper = AdjacencyListMatrix(n)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    # ------------------------------------------------------------------ #
    # Element access
    # ------------------------------------------------------------------ #
    def l_get(self, i: int, j: int) -> float:
        """Return ``L[i, j]`` (zero above the diagonal)."""
        if j > i:
            return 0.0
        return self._lower_t.get(j, i)

    def l_set(self, i: int, j: int, value: float) -> None:
        """Set ``L[i, j]`` (requires ``j <= i``)."""
        if j > i:
            raise DimensionError(f"L is lower triangular; cannot set ({i}, {j})")
        self._lower_t.set(j, i, value)

    def u_get(self, i: int, j: int) -> float:
        """Return ``U[i, j]`` including the implicit unit diagonal."""
        if i == j:
            return 1.0
        if i > j:
            return 0.0
        return self._upper.get(i, j)

    def u_set(self, i: int, j: int, value: float) -> None:
        """Set ``U[i, j]`` for ``j > i`` (the unit diagonal is implicit)."""
        if j <= i:
            raise DimensionError(
                f"U stores strictly upper entries only; cannot set ({i}, {j})"
            )
        self._upper.set(i, j, value)

    def l_diagonal(self, k: int) -> float:
        """Return the pivot ``L[k, k]``."""
        return self._lower_t.get(k, k)

    def set_l_diagonal(self, k: int, value: float) -> None:
        """Set the pivot ``L[k, k]``."""
        self._lower_t.set(k, k, value)

    # ------------------------------------------------------------------ #
    # Structured iteration
    # ------------------------------------------------------------------ #
    def l_column_entries(self, j: int) -> List[Tuple[int, float]]:
        """Return ``[(i, L[i, j])]`` for stored entries strictly below the diagonal."""
        return [(i, value) for i, value in self._lower_t.row_items(j) if i > j]

    def u_row_entries(self, i: int) -> List[Tuple[int, float]]:
        """Return ``[(j, U[i, j])]`` for stored entries strictly right of the diagonal."""
        return [(j, value) for j, value in self._upper.row_items(i) if j > i]

    def l_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over stored entries of ``L`` as ``(row, column, value)``."""
        for j, i, value in self._lower_t.items():
            yield i, j, value

    def u_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over stored entries of ``U`` (excluding the unit diagonal)."""
        yield from self._upper.items()

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def sweep_storage(self) -> SweepStorage:
        """Return the adjacency lists as :class:`~repro.sparse.kernels.SweepStorage`.

        A stored pivot is the first entry of its ``_lower_t`` row, so ``L``'s
        entries start one past it; an absent (zero) pivot reads as 0.0.
        """
        rows, values = self._lower_t.row_lists()
        l_first = [1 if column and column[0] == j else 0 for j, column in enumerate(rows)]
        pivots = [head[0] if first else 0.0 for head, first in zip(values, l_first)]
        return SweepStorage(pivots, l_first, rows, values, *self._upper.row_lists())

    def solve_many(self, block) -> np.ndarray:
        """Solve ``(L U) X = B`` for a dense ``(n, k)`` block of right-hand sides.

        One forward and one backward sweep answer all ``k`` columns at once;
        each column is bitwise identical to a scalar
        :func:`repro.lu.solve.solve_factored` of that column.
        """
        return solve_factored_many(self, block)

    # ------------------------------------------------------------------ #
    # Aggregate views
    # ------------------------------------------------------------------ #
    @property
    def fill_size(self) -> int:
        """Number of stored entries of ``L`` plus ``U`` (size of ``sp(Â)``)."""
        return self._lower_t.nnz + self._upper.nnz

    @property
    def structural_ops(self) -> int:
        """Structural list operations performed on either factor since the last reset."""
        return self._lower_t.structural_ops + self._upper.structural_ops

    def reset_counters(self) -> None:
        """Reset structural operation counters on both factors."""
        self._lower_t.reset_counters()
        self._upper.reset_counters()

    def decomposed_pattern(self) -> SparsityPattern:
        """Return ``sp(Â)``: positions of stored entries of ``L`` and ``U``."""
        indices = {(i, j) for i, j, _ in self.l_items()}
        indices.update((i, j) for i, j, _ in self.u_items())
        return SparsityPattern(self._n, indices)

    # ------------------------------------------------------------------ #
    # Dense export / reconstruction (testing and validation helpers)
    # ------------------------------------------------------------------ #
    def l_dense(self) -> np.ndarray:
        """Return ``L`` as a dense array."""
        dense = np.zeros((self._n, self._n), dtype=float)
        for i, j, value in self.l_items():
            dense[i, j] = value
        return dense

    def u_dense(self) -> np.ndarray:
        """Return ``U`` (with its unit diagonal) as a dense array."""
        dense = np.eye(self._n, dtype=float)
        for i, j, value in self.u_items():
            dense[i, j] = value
        return dense

    def reconstruct(self) -> SparseMatrix:
        """Return ``L @ U`` as a :class:`SparseMatrix`."""
        return SparseMatrix.from_dense(self.l_dense() @ self.u_dense())

    def copy(self) -> "LUFactors":
        """Return a deep copy (structural counters reset)."""
        clone = LUFactors(self._n)
        clone._lower_t = self._lower_t.copy()
        clone._upper = self._upper.copy()
        return clone

    def __repr__(self) -> str:
        return f"LUFactors(n={self._n}, fill_size={self.fill_size})"
