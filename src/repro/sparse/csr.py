"""An immutable sparse matrix stored in true compressed-sparse-row form.

:class:`SparseMatrix` is the exchange format used throughout the library:
evolving matrix sequences hold one per snapshot, orderings produce reordered
copies, and the LU engines consume it when building their own working
structures.  It deliberately supports only the operations the algorithms in
the paper need (element access, row/column iteration, matrix-vector products,
pattern extraction, reordering, and element-wise deltas between snapshots).

Storage layout
--------------
Entries live in three parallel NumPy arrays — the classic CSR triple:

* ``indptr``  — ``int64[n + 1]``; row ``i`` occupies slots
  ``indptr[i]:indptr[i + 1]``,
* ``indices`` — ``int64[nnz]``; column indices, strictly increasing inside
  each row,
* ``data``    — ``float64[nnz]``; the values, exact zeros never stored.

All three arrays are marked read-only, so the container is immutable down to
the buffer level: every transformation returns a new matrix, and the hot
paths (``matvec``, ``rmatvec``, ``delta_entries``, ``permuted``) are
vectorized kernels from :mod:`repro.sparse.kernels` rather than Python loops.
Iteration (``items()``) is therefore deterministic: row-major, ascending
column within each row.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionError
from repro.sparse import kernels
from repro.sparse.pattern import SparsityPattern
from repro.sparse.types import Entries, Index, Triples

_DEFAULT_TOLERANCE = 0.0


def _check_bounds(n: int, rows: np.ndarray, cols: np.ndarray) -> None:
    """Raise :class:`DimensionError` naming the first out-of-bounds index."""
    bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    if np.any(bad):
        position = int(np.argmax(bad))
        raise DimensionError(
            f"index ({int(rows[position])}, {int(cols[position])}) "
            f"out of bounds for a {n}x{n} matrix"
        )


class SparseMatrix:
    """An ``n x n`` sparse matrix with float64 values in CSR storage.

    Instances are immutable: the backing ``indptr`` / ``indices`` / ``data``
    arrays are read-only and every transformation returns a new matrix.

    Parameters
    ----------
    n:
        Matrix dimension.
    entries:
        Mapping from ``(row, column)`` to value.  Exact zeros are dropped.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_data", "_row_ids")

    def __init__(self, n: int, entries: Optional[Entries] = None) -> None:
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        self._n = int(n)
        if entries:
            keys = np.array([(int(i), int(j)) for i, j in entries.keys()], dtype=np.int64)
            rows = keys[:, 0]
            cols = keys[:, 1]
            vals = np.fromiter(
                (float(v) for v in entries.values()), dtype=np.float64, count=len(entries)
            )
            _check_bounds(n, rows, cols)
            # Dict keys are unique, so no duplicate summing is needed.
            arrays = kernels.csr_from_coo(n, rows, cols, vals, sum_duplicates=False)
        else:
            arrays = kernels.csr_from_coo(
                n, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.float64)
            )
        self._adopt(*arrays)

    def _adopt(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> None:
        """Install canonical CSR arrays and freeze them."""
        for array in (indptr, indices, data):
            array.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._data = data
        row_ids = kernels.expand_row_ids(self._n, indptr)
        row_ids.setflags(write=False)
        self._row_ids = row_ids

    @classmethod
    def _from_csr(
        cls, n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> "SparseMatrix":
        """Wrap already-canonical CSR arrays (internal fast path)."""
        matrix = cls.__new__(cls)
        matrix._n = n
        matrix._adopt(indptr, indices, data)
        return matrix

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(cls, n: int, triples: Triples) -> "SparseMatrix":
        """Build a matrix from ``(row, column, value)`` triples.

        Duplicate indices are summed, mirroring COO-format semantics.
        """
        rows_list: List[int] = []
        cols_list: List[int] = []
        vals_list: List[float] = []
        for i, j, value in triples:
            rows_list.append(int(i))
            cols_list.append(int(j))
            vals_list.append(float(value))
        return cls.from_coo(n, rows_list, cols_list, vals_list)

    @classmethod
    def from_coo(
        cls,
        n: int,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
    ) -> "SparseMatrix":
        """Build a matrix from parallel COO arrays (duplicates are summed)."""
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        vals_arr = np.asarray(values, dtype=np.float64)
        if not (rows_arr.shape == cols_arr.shape == vals_arr.shape):
            raise DimensionError(
                f"COO arrays have mismatched lengths: "
                f"{rows_arr.size}, {cols_arr.size}, {vals_arr.size}"
            )
        _check_bounds(n, rows_arr, cols_arr)
        return cls._from_csr(
            n, *kernels.csr_from_coo(n, rows_arr, cols_arr, vals_arr)
        )

    @classmethod
    def from_csr_arrays(
        cls,
        n: int,
        indptr: Sequence[int],
        indices: Sequence[int],
        data: Sequence[float],
    ) -> "SparseMatrix":
        """Build a matrix directly from CSR arrays (the builder lowering path).

        Rows may hold unsorted or duplicate columns; the input is
        canonicalized (sorted, duplicates summed, zeros dropped).
        """
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        indptr_arr = np.asarray(indptr, dtype=np.int64)
        indices_arr = np.asarray(indices, dtype=np.int64)
        data_arr = np.asarray(data, dtype=np.float64)
        if indptr_arr.shape != (n + 1,) or indptr_arr[0] != 0:
            raise DimensionError(f"indptr must have shape ({n + 1},) and start at 0")
        if np.any(np.diff(indptr_arr) < 0) or indptr_arr[-1] != indices_arr.size:
            raise DimensionError("indptr must be non-decreasing and end at nnz")
        if indices_arr.shape != data_arr.shape:
            raise DimensionError(
                f"indices/data length mismatch: {indices_arr.size} vs {data_arr.size}"
            )
        rows = kernels.expand_row_ids(n, indptr_arr)
        _check_bounds(n, rows, indices_arr)
        return cls._from_csr(n, *kernels.csr_from_coo(n, rows, indices_arr, data_arr))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[float]]) -> "SparseMatrix":
        """Build a matrix from a dense 2-D array-like (must be square)."""
        array = np.asarray(dense, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise DimensionError(f"expected a square 2-D array, got shape {array.shape}")
        n = array.shape[0]
        rows, cols = np.nonzero(array)
        return cls._from_csr(
            n,
            *kernels.csr_from_coo(
                n, rows.astype(np.int64), cols.astype(np.int64), array[rows, cols]
            ),
        )

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        """Return the ``n x n`` identity matrix."""
        diag = np.arange(n, dtype=np.int64)
        return cls._from_csr(
            n,
            np.arange(n + 1, dtype=np.int64),
            diag,
            np.ones(n, dtype=np.float64),
        )

    @classmethod
    def zeros(cls, n: int) -> "SparseMatrix":
        """Return the ``n x n`` all-zero matrix."""
        return cls(n, {})

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    @property
    def shape(self) -> Tuple[int, int]:
        """Matrix shape as a ``(rows, columns)`` tuple."""
        return (self._n, self._n)

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries: the length of ``data``."""
        return int(self._data.size)

    @property
    def indptr(self) -> np.ndarray:
        """Row pointer array (read-only view, length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Column index array (read-only view, length ``nnz``)."""
        return self._indices

    @property
    def data(self) -> np.ndarray:
        """Value array (read-only view, length ``nnz``)."""
        return self._data

    def csr_arrays(self) -> kernels.CSRArrays:
        """Return the ``(indptr, indices, data)`` triple (read-only views)."""
        return self._indptr, self._indices, self._data

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` COO views in row-major order."""
        return self._row_ids, self._indices, self._data

    def get(self, i: int, j: int) -> float:
        """Return the value at ``(i, j)`` (0.0 when the entry is absent)."""
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise DimensionError(
                f"index ({i}, {j}) out of bounds for a {self._n}x{self._n} matrix"
            )
        start, end = int(self._indptr[i]), int(self._indptr[i + 1])
        position = int(np.searchsorted(self._indices[start:end], j)) + start
        if position < end and self._indices[position] == j:
            return float(self._data[position])
        return 0.0

    def __getitem__(self, index: Index) -> float:
        i, j = index
        return self.get(i, j)

    def _row_bounds(self, i: int) -> Tuple[int, int]:
        if not 0 <= i < self._n:
            raise DimensionError(
                f"row index {i} out of bounds for a {self._n}x{self._n} matrix"
            )
        return int(self._indptr[i]), int(self._indptr[i + 1])

    def row(self, i: int) -> Dict[int, float]:
        """Return row ``i`` as a ``{column: value}`` mapping (ascending columns)."""
        start, end = self._row_bounds(i)
        return dict(zip(self._indices[start:end].tolist(), self._data[start:end].tolist()))

    def row_items(self, i: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(column, value)`` pairs of row ``i`` in column order."""
        start, end = self._row_bounds(i)
        return zip(self._indices[start:end].tolist(), self._data[start:end].tolist())

    def column(self, j: int) -> Dict[int, float]:
        """Return column ``j`` as a ``{row: value}`` mapping (O(nnz) scan)."""
        mask = self._indices == j
        return dict(zip(self._row_ids[mask].tolist(), self._data[mask].tolist()))

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all stored entries as ``(row, column, value)`` triples.

        Order is deterministic: row-major, ascending column within each row.
        """
        return zip(
            self._row_ids.tolist(), self._indices.tolist(), self._data.tolist()
        )

    def entries(self) -> Entries:
        """Return all stored entries as a ``{(row, column): value}`` dict."""
        return {(i, j): value for i, j, value in self.items()}

    def pattern(self) -> SparsityPattern:
        """Return the sparsity pattern ``sp(A)`` of this matrix."""
        return SparsityPattern(
            self._n, zip(self._row_ids.tolist(), self._indices.tolist())
        )

    def to_dense(self) -> np.ndarray:
        """Return a dense float64 copy of the matrix."""
        dense = np.zeros((self._n, self._n), dtype=float)
        dense[self._row_ids, self._indices] = self._data
        return dense

    # ------------------------------------------------------------------ #
    # Structure / numeric predicates
    # ------------------------------------------------------------------ #
    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        """Return ``True`` when ``A`` equals its transpose within ``tolerance``."""
        transposed = kernels.csr_transpose(self._n, *self.csr_arrays())
        _, _, own, other = kernels.csr_aligned_values(
            self._n, self.csr_arrays(), transposed
        )
        if own.size == 0:
            return True
        return bool(np.max(np.abs(own - other)) <= tolerance)

    def is_diagonally_dominant(self) -> bool:
        """Return ``True`` when every row is weakly diagonally dominant."""
        on_diagonal = self._row_ids == self._indices
        diagonal = np.zeros(self._n, dtype=np.float64)
        diagonal[self._row_ids[on_diagonal]] = self._data[on_diagonal]
        off = np.bincount(
            self._row_ids[~on_diagonal],
            weights=np.abs(self._data[~on_diagonal]),
            minlength=self._n,
        )[: self._n]
        return bool(np.all(np.abs(diagonal) + 1e-15 >= off))

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def matvec(self, x: Sequence[float]) -> np.ndarray:
        """Return ``A @ x`` for a dense vector ``x``."""
        vector = np.asarray(x, dtype=float)
        if vector.shape != (self._n,):
            raise DimensionError(
                f"vector of length {vector.shape} incompatible with n={self._n}"
            )
        return kernels.csr_matvec(
            self._n, self._indptr, self._indices, self._data, vector,
            row_ids=self._row_ids,
        )

    def rmatvec(self, x: Sequence[float]) -> np.ndarray:
        """Return ``A.T @ x`` for a dense vector ``x``."""
        vector = np.asarray(x, dtype=float)
        if vector.shape != (self._n,):
            raise DimensionError(
                f"vector of length {vector.shape} incompatible with n={self._n}"
            )
        return kernels.csr_rmatvec(self._n, self._indptr, self._indices, self._data, vector)

    def multiply(self, other: "SparseMatrix") -> "SparseMatrix":
        """Return the sparse-sparse product ``A @ B`` as a new matrix.

        Runs on the vectorized :func:`~repro.sparse.kernels.csr_spgemm`
        kernel: deterministic (identical inputs give identical bits) with
        the same structure as the historical dict-of-dicts product and
        values equal to it up to the rounding of the pairwise reduction.
        """
        self._check_compatible(other)
        return SparseMatrix._from_csr(
            self._n,
            *kernels.csr_spgemm(
                self._n,
                self._indptr,
                self._indices,
                self._data,
                other._indptr,
                other._indices,
                other._data,
            ),
        )

    def __matmul__(self, other: object):
        if isinstance(other, SparseMatrix):
            return self.multiply(other)
        return NotImplemented

    def transpose(self) -> "SparseMatrix":
        """Return the transposed matrix."""
        return SparseMatrix._from_csr(
            self._n, *kernels.csr_transpose(self._n, *self.csr_arrays())
        )

    def scale(self, factor: float) -> "SparseMatrix":
        """Return ``factor * A`` (products that are exactly zero are dropped)."""
        scaled = self._data * float(factor)
        keep = scaled != 0.0
        if np.all(keep):
            # Structure unchanged: share the (read-only) index arrays.
            return SparseMatrix._from_csr(self._n, self._indptr, self._indices, scaled)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._row_ids[keep], minlength=self._n)[: self._n],
            out=indptr[1:],
        )
        return SparseMatrix._from_csr(
            self._n, indptr, self._indices[keep], scaled[keep]
        )

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        """Return ``A + B`` (entries that cancel exactly are dropped)."""
        self._check_compatible(other)
        return SparseMatrix._from_csr(
            self._n,
            *kernels.csr_from_coo(
                self._n,
                np.concatenate([self._row_ids, other._row_ids]),
                np.concatenate([self._indices, other._indices]),
                np.concatenate([self._data, other._data]),
            ),
        )

    def subtract(self, other: "SparseMatrix") -> "SparseMatrix":
        """Return ``A - B``."""
        return self.add(other.scale(-1.0))

    __add__ = add
    __sub__ = subtract

    def delta_entries(self, other: "SparseMatrix", tolerance: float = _DEFAULT_TOLERANCE) -> Entries:
        """Return the entries of ``other - self`` whose magnitude exceeds ``tolerance``.

        This is the sparse "update matrix" ``ΔA`` that incremental decomposition
        algorithms consume when moving from one snapshot to the next.  The
        mapping iterates deterministically in row-major order.
        """
        self._check_compatible(other)
        rows, cols, vals = kernels.csr_delta(
            self._n, self.csr_arrays(), other.csr_arrays(), tolerance=tolerance
        )
        return {
            (i, j): value
            for i, j, value in zip(rows.tolist(), cols.tolist(), vals.tolist())
        }

    def _check_compatible(self, other: "SparseMatrix") -> None:
        if self._n != other._n:
            raise DimensionError(
                f"matrices have different dimensions: {self._n} vs {other._n}"
            )

    # ------------------------------------------------------------------ #
    # Reordering
    # ------------------------------------------------------------------ #
    def permuted(self, row_perm: Sequence[int], col_perm: Sequence[int]) -> "SparseMatrix":
        """Return the matrix reordered so that ``B[r, c] = A[row_perm[r], col_perm[c]]``.

        ``row_perm[r]`` is the original row placed at new position ``r`` and
        ``col_perm[c]`` the original column placed at new position ``c``.  This
        is exactly ``B = P A Q`` for the permutation matrices implied by the
        two sequences (see :mod:`repro.sparse.permutation`).
        """
        if len(row_perm) != self._n or len(col_perm) != self._n:
            raise DimensionError("permutation length does not match matrix dimension")
        for name, perm in (("row", row_perm), ("column", col_perm)):
            perm_arr = np.asarray(perm, dtype=np.int64)
            if perm_arr.size and (perm_arr.min() < 0 or perm_arr.max() >= self._n):
                raise DimensionError(f"{name} permutation is not a permutation of 0..n-1")
            counts = np.bincount(perm_arr, minlength=self._n)
            if counts.size != self._n or np.any(counts != 1):
                raise DimensionError(f"{name} permutation is not a permutation of 0..n-1")
        return SparseMatrix._from_csr(
            self._n,
            *kernels.csr_permute(
                self._n, self._indptr, self._indices, self._data, row_perm, col_perm
            ),
        )

    # ------------------------------------------------------------------ #
    # Comparisons / dunder helpers
    # ------------------------------------------------------------------ #
    def allclose(self, other: "SparseMatrix", tolerance: float = 1e-9) -> bool:
        """Return ``True`` when both matrices agree entry-wise within ``tolerance``."""
        self._check_compatible(other)
        _, _, own, theirs = kernels.csr_aligned_values(
            self._n, self.csr_arrays(), other.csr_arrays()
        )
        if own.size == 0:
            return True
        limit = np.maximum(
            tolerance * np.maximum(np.abs(own), np.abs(theirs)), tolerance
        )
        return bool(np.all(np.abs(own - theirs) <= limit))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices are rarely hashed
        return hash((self._n, frozenset(self.entries().items())))

    def __repr__(self) -> str:
        return f"SparseMatrix(n={self._n}, nnz={self.nnz})"
