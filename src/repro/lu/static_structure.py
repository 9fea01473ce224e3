"""The CLUDE static LU structure built from a universal symbolic sparsity pattern.

CLUDE (paper Section 4, Algorithm 3) performs one symbolic decomposition on
the cluster's union matrix ``A_∪`` to obtain a *universal symbolic sparsity
pattern* (USSP) that covers ``s̃p(A)`` of every member matrix (Theorem 1).
The USSP is turned into one pre-allocated data structure —
:class:`StaticLUFactors` — that is reused for the LU factors of every matrix
in the cluster.  Because its structure never changes, incremental updates are
purely numerical: no adjacency-list nodes are ever inserted or deleted, which
is exactly the cost the paper found to dominate a straightforward
implementation of Bennett's algorithm.

:class:`StaticLUFactors` implements the same informal protocol as
:class:`~repro.lu.factors.LUFactors`, so the Crout and Bennett routines work
on either container unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import DimensionError, PatternError
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import SweepStorage, solve_factored_many
from repro.sparse.pattern import SparsityPattern


class StaticLUFactors:
    """LU factors over a fixed admissible pattern (the cluster USSP).

    Parameters
    ----------
    pattern:
        The universal symbolic sparsity pattern.  Diagonal positions are
        always admitted even if absent from ``pattern``.

    Notes
    -----
    Values may be written only at admissible positions; writing elsewhere
    raises :class:`~repro.errors.PatternError`.  Reading any position is
    allowed (absent or zeroed positions read as 0.0, and ``U``'s diagonal
    reads as 1.0).
    """

    __slots__ = (
        "_n",
        "_pattern",
        "_l_col_rows",
        "_l_col_values",
        "_l_col_slot",
        "_u_row_cols",
        "_u_row_values",
        "_u_row_slot",
        "_diagonal",
    )

    def __init__(self, pattern: SparsityPattern) -> None:
        n = pattern.n
        self._n = n
        self._pattern = pattern.with_full_diagonal()

        # L stored column-major: for column j, rows strictly below the diagonal.
        self._l_col_rows: List[List[int]] = [[] for _ in range(n)]
        self._l_col_values: List[List[float]] = [[] for _ in range(n)]
        self._l_col_slot: List[Dict[int, int]] = [dict() for _ in range(n)]
        # U stored row-major: for row i, columns strictly right of the diagonal.
        self._u_row_cols: List[List[int]] = [[] for _ in range(n)]
        self._u_row_values: List[List[float]] = [[] for _ in range(n)]
        self._u_row_slot: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._diagonal = np.zeros(n, dtype=float)

        lower_positions: List[List[int]] = [[] for _ in range(n)]
        upper_positions: List[List[int]] = [[] for _ in range(n)]
        for i, j in self._pattern:
            if i > j:
                lower_positions[j].append(i)
            elif j > i:
                upper_positions[i].append(j)
        for j in range(n):
            rows = sorted(lower_positions[j])
            self._l_col_rows[j] = rows
            self._l_col_values[j] = [0.0] * len(rows)
            self._l_col_slot[j] = {row: slot for slot, row in enumerate(rows)}
        for i in range(n):
            cols = sorted(upper_positions[i])
            self._u_row_cols[i] = cols
            self._u_row_values[i] = [0.0] * len(cols)
            self._u_row_slot[i] = {col: slot for slot, col in enumerate(cols)}

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    @property
    def pattern(self) -> SparsityPattern:
        """The admissible (universal) pattern, diagonal included."""
        return self._pattern

    @property
    def capacity(self) -> int:
        """Number of allocated value slots (diagonal + strictly triangular)."""
        allocated = sum(len(rows) for rows in self._l_col_rows)
        allocated += sum(len(cols) for cols in self._u_row_cols)
        return allocated + self._n

    # ------------------------------------------------------------------ #
    # Element access (LUFactors protocol)
    # ------------------------------------------------------------------ #
    def l_get(self, i: int, j: int) -> float:
        """Return ``L[i, j]`` (zero above the diagonal or outside the pattern)."""
        if j > i:
            return 0.0
        if i == j:
            return float(self._diagonal[i])
        slot = self._l_col_slot[j].get(i)
        if slot is None:
            return 0.0
        return self._l_col_values[j][slot]

    def l_set(self, i: int, j: int, value: float) -> None:
        """Set ``L[i, j]``; the position must belong to the universal pattern."""
        if j > i:
            raise DimensionError(f"L is lower triangular; cannot set ({i}, {j})")
        if i == j:
            self._diagonal[i] = value
            return
        slot = self._l_col_slot[j].get(i)
        if slot is None:
            raise PatternError(
                f"position ({i}, {j}) is outside the universal symbolic sparsity pattern"
            )
        self._l_col_values[j][slot] = value

    def u_get(self, i: int, j: int) -> float:
        """Return ``U[i, j]`` including the implicit unit diagonal."""
        if i == j:
            return 1.0
        if i > j:
            return 0.0
        slot = self._u_row_slot[i].get(j)
        if slot is None:
            return 0.0
        return self._u_row_values[i][slot]

    def u_set(self, i: int, j: int, value: float) -> None:
        """Set ``U[i, j]`` for ``j > i``; the position must belong to the pattern."""
        if j <= i:
            raise DimensionError(
                f"U stores strictly upper entries only; cannot set ({i}, {j})"
            )
        slot = self._u_row_slot[i].get(j)
        if slot is None:
            raise PatternError(
                f"position ({i}, {j}) is outside the universal symbolic sparsity pattern"
            )
        self._u_row_values[i][slot] = value

    def l_diagonal(self, k: int) -> float:
        """Return the pivot ``L[k, k]``."""
        return float(self._diagonal[k])

    def set_l_diagonal(self, k: int, value: float) -> None:
        """Set the pivot ``L[k, k]``."""
        self._diagonal[k] = value

    # ------------------------------------------------------------------ #
    # Structured iteration (LUFactors protocol)
    # ------------------------------------------------------------------ #
    def l_column_entries(self, j: int) -> List[Tuple[int, float]]:
        """Return ``[(i, L[i, j])]`` over allocated slots strictly below the diagonal."""
        return list(zip(self._l_col_rows[j], self._l_col_values[j]))

    def u_row_entries(self, i: int) -> List[Tuple[int, float]]:
        """Return ``[(j, U[i, j])]`` over allocated slots strictly right of the diagonal."""
        return list(zip(self._u_row_cols[i], self._u_row_values[i]))

    def l_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over non-zero entries of ``L`` (diagonal included)."""
        for k in range(self._n):
            if self._diagonal[k] != 0.0:
                yield k, k, float(self._diagonal[k])
        for j in range(self._n):
            for i, value in zip(self._l_col_rows[j], self._l_col_values[j]):
                if value != 0.0:
                    yield i, j, value

    def u_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over non-zero entries of ``U`` (unit diagonal excluded)."""
        for i in range(self._n):
            for j, value in zip(self._u_row_cols[i], self._u_row_values[i]):
                if value != 0.0:
                    yield i, j, value

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def sweep_storage(self) -> SweepStorage:
        """Return the slot lists (uncopied) as :class:`~repro.sparse.kernels.SweepStorage`."""
        return SweepStorage(
            self._diagonal.tolist(),
            [0] * self._n,
            self._l_col_rows,
            self._l_col_values,
            self._u_row_cols,
            self._u_row_values,
        )

    def solve_many(self, block) -> np.ndarray:
        """Solve ``(L U) X = B`` for a dense ``(n, k)`` block of right-hand sides.

        Same batched sweeps as :meth:`repro.lu.factors.LUFactors.solve_many`;
        the static structure only changes how the factor entries are stored.
        """
        return solve_factored_many(self, block)

    # ------------------------------------------------------------------ #
    # Aggregate views
    # ------------------------------------------------------------------ #
    @property
    def fill_size(self) -> int:
        """Number of currently non-zero stored entries of ``L`` plus ``U``."""
        count = int(np.count_nonzero(self._diagonal))
        count += sum(
            1 for values in self._l_col_values for value in values if value != 0.0
        )
        count += sum(
            1 for values in self._u_row_values for value in values if value != 0.0
        )
        return count

    @property
    def structural_ops(self) -> int:
        """Always zero: the static structure never changes shape."""
        return 0

    def reset_counters(self) -> None:
        """No-op, provided for protocol compatibility."""

    def reset_values(self) -> None:
        """Zero every stored value, keeping the allocated structure."""
        self._diagonal[:] = 0.0
        for values in self._l_col_values:
            for slot in range(len(values)):
                values[slot] = 0.0
        for values in self._u_row_values:
            for slot in range(len(values)):
                values[slot] = 0.0

    def decomposed_pattern(self) -> SparsityPattern:
        """Return the pattern of currently non-zero stored entries."""
        indices = {(i, j) for i, j, _ in self.l_items()}
        indices.update((i, j) for i, j, _ in self.u_items())
        return SparsityPattern(self._n, indices)

    def copy(self) -> "StaticLUFactors":
        """Return a value copy sharing the (immutable-after-init) structure.

        The slot index lists and slot dictionaries never change after
        construction — the whole point of the static structure — so they are
        shared between copies; only the value storage is duplicated.
        """
        clone = StaticLUFactors.__new__(StaticLUFactors)
        clone._n = self._n
        clone._pattern = self._pattern
        clone._l_col_rows = self._l_col_rows
        clone._l_col_values = [list(values) for values in self._l_col_values]
        clone._l_col_slot = self._l_col_slot
        clone._u_row_cols = self._u_row_cols
        clone._u_row_values = [list(values) for values in self._u_row_values]
        clone._u_row_slot = self._u_row_slot
        clone._diagonal = self._diagonal.copy()
        return clone

    # ------------------------------------------------------------------ #
    # Dense export / reconstruction
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

    def __repr__(self) -> str:
        return (
            f"StaticLUFactors(n={self._n}, capacity={self.capacity}, "
            f"fill_size={self.fill_size})"
        )
