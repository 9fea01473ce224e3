"""Sparsity patterns and the matrix-edit-similarity measure.

A *sparsity pattern* (paper Definition 1) is the set of indices at which a
matrix holds non-zero values::

    sp(A) = {(i, j) | A(i, j) != 0}

Patterns support the set algebra the paper builds on: intersection and union
(used for the cluster bounding matrices ``A_cap`` / ``A_cup`` of Definition 7)
and the normalized *matrix edit similarity* ``mes`` of Definition 6.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import DimensionError
from repro.sparse.types import Index


class SparsityPattern:
    """An immutable set of non-zero positions of an ``n x n`` matrix.

    Parameters
    ----------
    n:
        Matrix dimension.
    indices:
        Iterable of ``(row, column)`` pairs with ``0 <= row, column < n``.

    A pattern made by :meth:`from_rows` keeps its sorted rows and builds the
    frozen set only when a caller first needs it; ``len()`` and
    :meth:`row_lists` never do.
    """

    __slots__ = ("_n", "_indices", "_rows")

    def __init__(self, n: int, indices: Iterable[Index] = ()) -> None:
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        self._n = n
        frozen: FrozenSet[Index] = frozenset((int(i), int(j)) for i, j in indices)
        for i, j in frozen:
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionError(
                    f"index ({i}, {j}) out of bounds for a {n}x{n} matrix"
                )
        self._indices: Optional[FrozenSet[Index]] = frozen
        self._rows: Optional[List[List[int]]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[List[int]]) -> "SparsityPattern":
        """Adopt per-row column lists (no copy) as the pattern of a ``len(rows)`` matrix.

        The caller guarantees the layout: every list ascends strictly and
        holds columns in ``range(len(rows))``.  Nobody may change the lists
        afterwards.
        """
        pattern = cls.__new__(cls)
        pattern._n = len(rows)
        pattern._indices = None
        pattern._rows = list(rows)
        return pattern

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    @property
    def indices(self) -> FrozenSet[Index]:
        """The underlying frozen set of ``(row, column)`` pairs."""
        frozen = self._indices
        if frozen is None:
            frozen = self._indices = frozenset(
                (i, j) for i, row in enumerate(self._rows) for j in row
            )
        return frozen

    def row_lists(self) -> List[List[int]]:
        """Each row's column indices, ascending (shared lists: do not modify)."""
        rows = self._rows
        if rows is None:
            rows = [[] for _ in range(self._n)]
            for i, j in sorted(self._indices):
                rows[i].append(j)
            self._rows = rows
        return rows

    def __len__(self) -> int:
        if self._indices is None:
            return sum(map(len, self._rows))
        return len(self._indices)

    def __iter__(self) -> Iterator[Index]:
        return iter(self.indices)

    def __contains__(self, index: Index) -> bool:
        return index in self.indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return self._n == other._n and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self._n, self.indices))

    def __repr__(self) -> str:
        return f"SparsityPattern(n={self._n}, nnz={len(self)})"

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "SparsityPattern") -> None:
        if self._n != other._n:
            raise DimensionError(
                f"patterns have different dimensions: {self._n} vs {other._n}"
            )

    def union(self, other: "SparsityPattern") -> "SparsityPattern":
        """Return the pattern containing positions non-zero in either matrix."""
        self._check_compatible(other)
        return SparsityPattern(self._n, self.indices | other.indices)

    def intersection(self, other: "SparsityPattern") -> "SparsityPattern":
        """Return the pattern containing positions non-zero in both matrices."""
        self._check_compatible(other)
        return SparsityPattern(self._n, self.indices & other.indices)

    def difference(self, other: "SparsityPattern") -> "SparsityPattern":
        """Return positions present here but absent from ``other``."""
        self._check_compatible(other)
        return SparsityPattern(self._n, self.indices - other.indices)

    def symmetric_difference(self, other: "SparsityPattern") -> "SparsityPattern":
        """Return positions present in exactly one of the two patterns."""
        self._check_compatible(other)
        return SparsityPattern(self._n, self.indices ^ other.indices)

    def issubset(self, other: "SparsityPattern") -> bool:
        """Return ``True`` if every position here also appears in ``other``."""
        self._check_compatible(other)
        return self.indices <= other.indices

    def issuperset(self, other: "SparsityPattern") -> bool:
        """Return ``True`` if this pattern contains every position of ``other``."""
        self._check_compatible(other)
        return self.indices >= other.indices

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference
    __le__ = issubset
    __ge__ = issuperset

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def row(self, i: int) -> Set[int]:
        """Return the set of column indices with a non-zero in row ``i``."""
        return {c for r, c in self.indices if r == i}

    def column(self, j: int) -> Set[int]:
        """Return the set of row indices with a non-zero in column ``j``."""
        return {r for r, c in self.indices if c == j}

    def transpose(self) -> "SparsityPattern":
        """Return the pattern of the transposed matrix."""
        return SparsityPattern(self._n, ((j, i) for i, j in self.indices))

    def is_symmetric(self) -> bool:
        """Return ``True`` if the pattern equals its transpose."""
        return all((j, i) in self.indices for i, j in self.indices)

    def with_full_diagonal(self) -> "SparsityPattern":
        """Return the pattern augmented with every diagonal position."""
        diag = {(i, i) for i in range(self._n)}
        return SparsityPattern(self._n, self.indices | diag)

    def density(self) -> float:
        """Fraction of positions that are non-zero (0.0 for the empty matrix)."""
        if self._n == 0:
            return 0.0
        return len(self.indices) / float(self._n * self._n)


def matrix_edit_similarity(a: SparsityPattern, b: SparsityPattern) -> float:
    """Normalized matrix edit similarity (paper Definition 6).

    ``mes(A, B) = 2 |sp(A) ∩ sp(B)| / (|sp(A)| + |sp(B)|)``

    Two empty patterns are defined to be identical (similarity ``1.0``).
    """
    if a.n != b.n:
        raise DimensionError(f"patterns have different dimensions: {a.n} vs {b.n}")
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * len(a.indices & b.indices) / total
