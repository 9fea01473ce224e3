"""Permutations and matrix orderings.

The paper (Definition 2) represents an *ordering* as a pair of permutation
matrices ``O = (P, Q)``; a matrix ``A`` is reordered as ``A^O = P A Q``.  Here
permutations are stored as integer sequences rather than explicit matrices:

* a :class:`Permutation` ``p`` maps *new* position ``k`` to *original* index
  ``p[k]``;
* an :class:`Ordering` stores a row permutation and a column permutation and
  knows how to reorder matrices and translate right-hand sides / solutions
  between the original and the reordered coordinate systems.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import DimensionError, OrderingError
from repro.sparse.csr import SparseMatrix


class Permutation:
    """A permutation of ``{0, …, n-1}`` stored as "new position -> original index"."""

    __slots__ = ("_order", "_index")

    def __init__(self, order: Sequence[int]) -> None:
        order_list = [int(x) for x in order]
        n = len(order_list)
        if sorted(order_list) != list(range(n)):
            raise OrderingError(f"not a permutation of 0..{n - 1}: {order_list}")
        self._order = order_list
        self._index = np.array(order_list, dtype=np.intp)
        self._index.flags.writeable = False

    def __reduce__(self):
        """Pickle the order list alone; loading rebuilds the read-only index."""
        return (Permutation, (self._order,))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """Return the identity permutation on ``n`` elements."""
        return cls(list(range(n)))

    @property
    def n(self) -> int:
        """Number of elements."""
        return len(self._order)

    @property
    def order(self) -> List[int]:
        """The "new -> original" index list (a copy)."""
        return list(self._order)

    @property
    def index(self) -> np.ndarray:
        """The "new -> original" indices as a read-only ``np.intp`` array."""
        return self._index

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)

    def __getitem__(self, new_position: int) -> int:
        return self._order[new_position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._order == other._order

    def __hash__(self) -> int:
        return hash(tuple(self._order))

    def __repr__(self) -> str:
        preview = self._order if len(self._order) <= 8 else self._order[:8] + ["..."]
        return f"Permutation({preview})"

    def inverse(self) -> "Permutation":
        """Return the inverse permutation ("original -> new" becomes "new -> original")."""
        inverse_order = [0] * len(self._order)
        for new_position, original in enumerate(self._order):
            inverse_order[original] = new_position
        return Permutation(inverse_order)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation that applies ``other`` first, then ``self``."""
        if len(self._order) != len(other._order):
            raise OrderingError("cannot compose permutations of different sizes")
        return Permutation([other._order[k] for k in self._order])

    def apply_to_vector(self, vector: Sequence[float]) -> np.ndarray:
        """Return the vector expressed in the permuted coordinate system.

        Output position ``k`` receives input position ``self[k]``.
        """
        array = np.asarray(vector, dtype=float)
        if array.shape != (len(self._order),):
            raise DimensionError(
                f"vector of shape {array.shape} incompatible with permutation size {len(self._order)}"
            )
        return array[self._index]

    def to_matrix(self) -> SparseMatrix:
        """Return the explicit permutation matrix ``P`` with ``P[k, self[k]] = 1``."""
        return SparseMatrix(
            len(self._order), {(k, original): 1.0 for k, original in enumerate(self._order)}
        )


class Ordering:
    """A matrix ordering ``O = (P, Q)`` (paper Definition 2).

    ``row`` plays the role of ``P`` and ``column`` the role of ``Q``:
    ``A^O[r, c] = A[row[r], column[c]]``.
    """

    __slots__ = ("_row", "_column")

    def __init__(self, row: Permutation, column: Permutation) -> None:
        if row.n != column.n:
            raise OrderingError("row and column permutations must have equal size")
        self._row = row
        self._column = column

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        """Return the identity ordering on ``n`` elements."""
        return cls(Permutation.identity(n), Permutation.identity(n))

    @classmethod
    def symmetric(cls, order: Sequence[int]) -> "Ordering":
        """Return the symmetric ordering that applies ``order`` to rows and columns."""
        permutation = Permutation(order)
        return cls(permutation, permutation)

    @classmethod
    def from_sequences(cls, row: Sequence[int], column: Sequence[int]) -> "Ordering":
        """Build an ordering from two "new -> original" index sequences."""
        return cls(Permutation(row), Permutation(column))

    @property
    def n(self) -> int:
        """Matrix dimension the ordering applies to."""
        return self._row.n

    @property
    def row(self) -> Permutation:
        """The row permutation ``P``."""
        return self._row

    @property
    def column(self) -> Permutation:
        """The column permutation ``Q``."""
        return self._column

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self._row == other._row and self._column == other._column

    def __hash__(self) -> int:
        return hash((self._row, self._column))

    def __repr__(self) -> str:
        return f"Ordering(n={self.n})"

    def is_symmetric(self) -> bool:
        """Return ``True`` when the same permutation is applied to rows and columns."""
        return self._row == self._column

    # ------------------------------------------------------------------ #
    # Applying the ordering
    # ------------------------------------------------------------------ #
    def apply(self, matrix: SparseMatrix) -> SparseMatrix:
        """Return the reordered matrix ``A^O = P A Q``."""
        if matrix.n != self.n:
            raise DimensionError(
                f"matrix dimension {matrix.n} incompatible with ordering size {self.n}"
            )
        return matrix.permuted(self._row.index, self._column.index)

    def map_entries(self, entries) -> dict:
        """Map sparse entries given in original coordinates into reordered coordinates.

        ``entries`` is a ``{(row, column): value}`` mapping (e.g. a sparse
        update matrix ``ΔA``); the result indexes the same values at their
        positions in ``A^O``.  This avoids materializing whole reordered
        matrices when only a small delta is needed.
        """
        new_row_of = {original: new for new, original in enumerate(self._row.order)}
        new_col_of = {original: new for new, original in enumerate(self._column.order)}
        return {
            (new_row_of[i], new_col_of[j]): value for (i, j), value in entries.items()
        }

    def permute_rhs(self, b: Sequence[float]) -> np.ndarray:
        """Map a right-hand side ``b`` of ``A x = b`` into ``b' = P b``."""
        return self._row.apply_to_vector(b)

    def permute_rhs_many(self, block) -> np.ndarray:
        """Map an ``(n, k)`` block of right-hand sides into ``B' = P B``."""
        array = np.asarray(block, dtype=float)
        if array.ndim != 2 or array.shape[0] != self.n:
            raise DimensionError(
                f"block of shape {array.shape} incompatible with ordering size {self.n}"
            )
        return array[self._row.index, :]

    def unpermute_solution(self, x_prime: Sequence[float]) -> np.ndarray:
        """Map a solution of ``A^O x' = P b`` back to the original ``x = Q x'``.

        With ``Q`` stored as "new -> original" on columns, original index
        ``column[c]`` receives reordered position ``c``.
        """
        array = np.asarray(x_prime, dtype=float)
        if array.shape != (self.n,):
            raise DimensionError(
                f"vector of shape {array.shape} incompatible with ordering size {self.n}"
            )
        x = np.zeros(self.n, dtype=float)
        x[self._column.index] = array
        return x

    def unpermute_solution_many(self, block) -> np.ndarray:
        """Map an ``(n, k)`` block of reordered solutions back via ``X = Q X'``."""
        array = np.asarray(block, dtype=float)
        if array.ndim != 2 or array.shape[0] != self.n:
            raise DimensionError(
                f"block of shape {array.shape} incompatible with ordering size {self.n}"
            )
        x = np.empty_like(array)
        x[self._column.index, :] = array
        return x


def random_ordering(n: int, rng: np.random.Generator) -> Ordering:
    """Return a uniformly random symmetric ordering (useful for tests)."""
    order = list(rng.permutation(n))
    return Ordering.symmetric([int(x) for x in order])


def natural_ordering(n: int) -> Ordering:
    """Alias for the identity ordering, matching sparse-direct-solver jargon."""
    return Ordering.identity(n)
