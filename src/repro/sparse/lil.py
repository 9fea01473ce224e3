"""A mutable adjacency-list sparse matrix.

The paper (Section 2.3, Figure 4) stores matrices and their LU factors as
per-row adjacency lists of non-zero entries.  :class:`AdjacencyListMatrix`
reproduces that representation: each row keeps a sorted list of
``(column, value)`` pairs, and structural changes (inserting or deleting a
node in the list) are explicit, countable operations.  The *structural
operation counter* lets the benchmarks demonstrate the paper's profiling
observation that roughly 70% of a straightforward incremental update is
spent restructuring these lists — the cost CLUDE's static USSP structure
eliminates.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DimensionError
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.types import Entries


class AdjacencyListMatrix:
    """A mutable sparse matrix backed by per-row sorted adjacency lists.

    Parameters
    ----------
    n:
        Matrix dimension.
    entries:
        Optional initial entries.
    """

    __slots__ = ("_n", "_columns", "_values", "structural_ops")

    def __init__(self, n: int, entries: Optional[Entries] = None) -> None:
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        self._n = n
        self._columns: List[List[int]] = [[] for _ in range(n)]
        self._values: List[List[float]] = [[] for _ in range(n)]
        #: Number of structural list modifications (node inserts/deletes)
        #: performed since construction or the last :meth:`reset_counters`.
        self.structural_ops = 0
        if entries:
            for (i, j), value in sorted(entries.items()):
                if value != 0.0:
                    self.set(i, j, float(value))
            # Initial population is not counted as incremental restructuring.
            self.structural_ops = 0

    # ------------------------------------------------------------------ #
    # Constructors / converters
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sparse(cls, matrix: SparseMatrix) -> "AdjacencyListMatrix":
        """Build an adjacency-list copy of a :class:`SparseMatrix`."""
        return cls(matrix.n, matrix.entries())

    def to_sparse(self) -> SparseMatrix:
        """Lower the builder to an immutable CSR :class:`SparseMatrix`.

        The per-row adjacency lists are kept sorted, duplicate-free and
        zero-free by :meth:`set`, so the concatenated arrays are already
        canonical CSR and can be adopted directly — no re-sort.
        """
        lengths = [len(row) for row in self._columns]
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.fromiter(
            (j for row in self._columns for j in row), dtype=np.int64, count=total
        )
        data = np.fromiter(
            (v for row in self._values for v in row), dtype=np.float64, count=total
        )
        return SparseMatrix._from_csr(self._n, indptr, indices, data)

    def copy(self) -> "AdjacencyListMatrix":
        """Return a deep copy (structural counter reset to zero)."""
        clone = AdjacencyListMatrix(self._n)
        clone._columns = [list(row) for row in self._columns]
        clone._values = [list(row) for row in self._values]
        return clone

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return sum(len(row) for row in self._columns)

    def get(self, i: int, j: int) -> float:
        """Return the value at ``(i, j)``; absent entries read as 0.0."""
        self._check_index(i, j)
        columns = self._columns[i]
        position = bisect.bisect_left(columns, j)
        if position < len(columns) and columns[position] == j:
            return self._values[i][position]
        return 0.0

    def __getitem__(self, index: Tuple[int, int]) -> float:
        i, j = index
        return self.get(i, j)

    def row_items(self, i: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(column, value)`` pairs of row ``i`` in column order."""
        return zip(self._columns[i], self._values[i])

    def row_lists(self) -> Tuple[List[List[int]], List[List[float]]]:
        """Return the per-row column and value lists themselves (no copy).

        The lists are the live storage: callers must treat them as read-only.
        """
        return self._columns, self._values

    def row_columns(self, i: int) -> List[int]:
        """Return the sorted column indices with stored entries in row ``i``."""
        return list(self._columns[i])

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all entries as ``(row, column, value)`` triples."""
        for i in range(self._n):
            for j, value in zip(self._columns[i], self._values[i]):
                yield i, j, value

    def entries(self) -> Entries:
        """Return all entries as a ``{(row, column): value}`` dict."""
        return {(i, j): v for i, j, v in self.items()}

    def pattern(self) -> SparsityPattern:
        """Return the sparsity pattern of the currently stored entries."""
        return SparsityPattern(self._n, ((i, j) for i, j, _ in self.items()))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def set(self, i: int, j: int, value: float) -> None:
        """Set entry ``(i, j)`` to ``value``.

        Setting an absent entry inserts a list node (one structural op);
        setting an existing entry to zero removes the node (one structural
        op); updating an existing entry in place is purely numerical.
        """
        self._check_index(i, j)
        columns = self._columns[i]
        values = self._values[i]
        position = bisect.bisect_left(columns, j)
        present = position < len(columns) and columns[position] == j
        if value == 0.0:
            if present:
                del columns[position]
                del values[position]
                self.structural_ops += 1
            return
        if present:
            values[position] = value
        else:
            columns.insert(position, j)
            values.insert(position, value)
            self.structural_ops += 1

    def add_to(self, i: int, j: int, delta: float) -> None:
        """Add ``delta`` to entry ``(i, j)`` (creating or deleting nodes as needed)."""
        self.set(i, j, self.get(i, j) + delta)

    def clear_row(self, i: int) -> None:
        """Remove every stored entry of row ``i``."""
        self._check_index(i, 0 if self._n else 0)
        self.structural_ops += len(self._columns[i])
        self._columns[i] = []
        self._values[i] = []

    def reset_counters(self) -> None:
        """Reset the structural operation counter to zero."""
        self.structural_ops = 0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise DimensionError(
                f"index ({i}, {j}) out of bounds for a {self._n}x{self._n} matrix"
            )

    def __repr__(self) -> str:
        return f"AdjacencyListMatrix(n={self._n}, nnz={self.nnz})"
