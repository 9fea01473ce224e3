"""The LU factor container.

The paper stores the decomposed matrix ``Â = L + U`` in adjacency lists
(Figure 4).  The library uses Crout's convention throughout: ``L`` is lower
triangular and carries the pivots on its diagonal, ``U`` is *unit* upper
triangular (its unit diagonal is implicit and never stored).

:class:`LUFactors` keeps the pivots in their own list, ``L`` strictly below
the diagonal as sorted per-column ``(rows, values)`` lists and ``U`` strictly
right of the diagonal as sorted per-row ``(cols, values)`` lists — the layout
the triangular sweeps read (:class:`~repro.sparse.kernels.SweepStorage`) and
Bennett's sweep (:mod:`repro.lu.bennett`) writes in place.  Its constructor
sets one of two modes:

* **growable** — ``LUFactors(n)``, used by BF, INC, CINC and the serving
  caches.  Only non-zeros are stored: a value that becomes zero leaves its
  list, a new non-zero is merged in, and each insert or removal counts in
  :attr:`LUFactors.structural_ops` — how the benchmarks surface the paper's
  observation that restructuring dominates a naive incremental update.
* **sealed** — ``LUFactors.sealed(pattern)``, CLUDE's structure: one slot
  per position of a cluster's universal symbolic sparsity pattern (USSP),
  reused by every member matrix.  Slots keep their position when their
  value is zero, a write outside the pattern raises
  :class:`~repro.errors.PatternError`, and ``structural_ops`` stays 0.

Element access (``l_get``/``l_set``/``u_get``/``u_set``,
``l_diagonal``/``set_l_diagonal``) and the entry views
(``l_column_entries``/``u_row_entries``) serve the tests; Crout
(:mod:`repro.lu.crout`) and Bennett take the lists directly through
:meth:`LUFactors.sweep_storage`.

The triangular sweeps and the store read a
:class:`~repro.sparse.kernels.SweepPlan` instead
(:meth:`LUFactors.sweep_plan`): checked pivots, the stored count
and prebuilt layouts of ``L`` and ``U``.  It is built on the first solve
and kept until the next write.  Every write drops it: ``sweep_storage()``
(the door Crout, Bennett in both modes and direct list edits go through),
``l_set``, ``u_set`` and ``set_l_diagonal``.  Containers made by
:meth:`LUFactors.copy`, a store restore or unpickling start without one,
and a pickled container carries none.  Memory, by ``tracemalloc`` on an
``n = 400`` RWR factor holding 6,381 entries (486 kB): the narrow layout
adds 172 kB (about 54 bytes per stored ``U`` entry), the wide one 121 kB.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import DimensionError, PatternError
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import SweepPlan, SweepStorage, solve_factored_many
from repro.sparse.pattern import SparsityPattern


class LUFactors:
    """LU factors in per-column (``L``) and per-row (``U``) sorted lists.

    ``LUFactors(n)`` is an empty growable container; :meth:`sealed` builds
    the fixed slot structure of a USSP.  Reading any position is allowed
    (absent positions read as 0.0, ``U``'s diagonal as 1.0).
    """

    __slots__ = ("_n", "_sealed", "_pivots", "_l_rows", "_l_values",
                 "_u_cols", "_u_values", "structural_ops", "_plan")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise DimensionError(f"matrix dimension must be non-negative, got {n}")
        self._n = n
        self._sealed = False
        self._pivots: List[float] = [0.0] * n
        self._l_rows: List[List[int]] = [[] for _ in range(n)]
        self._l_values: List[List[float]] = [[] for _ in range(n)]
        self._u_cols: List[List[int]] = [[] for _ in range(n)]
        self._u_values: List[List[float]] = [[] for _ in range(n)]
        #: Inserts plus removals of list entries since construction or the
        #: last :meth:`reset_counters` (always 0 for sealed factors).
        self.structural_ops = 0
        self._plan: Optional[SweepPlan] = None

    @classmethod
    def sealed(cls, pattern: SparsityPattern) -> "LUFactors":
        """The fixed structure of ``pattern`` (the cluster USSP), all values zero.

        Reads the pattern's sorted rows, so a Markowitz pattern is never
        turned into its frozen set.
        """
        n = pattern.n
        l_rows: List[List[int]] = [[] for _ in range(n)]
        u_cols: List[List[int]] = [[] for _ in range(n)]
        for i, columns in enumerate(pattern.row_lists()):
            for j in columns:
                if i > j:
                    l_rows[j].append(i)
                elif j > i:
                    u_cols[i].append(j)
        storage = SweepStorage(
            [0.0] * n,
            l_rows,
            [[0.0] * len(rows) for rows in l_rows],
            u_cols,
            [[0.0] * len(cols) for cols in u_cols],
        )
        return cls.from_storage(storage, sealed=True)

    @classmethod
    def from_storage(cls, storage: SweepStorage, sealed: bool) -> "LUFactors":
        """Adopt ready-made lists (no copy) as growable or sealed factors.

        The caller guarantees the layout: indices ascend in every list, ``L``
        rows lie below and ``U`` columns right of the diagonal, and growable
        lists hold no zeros.
        """
        factors = cls.__new__(cls)
        factors._n = len(storage.pivots)
        factors._sealed = sealed
        (factors._pivots, factors._l_rows, factors._l_values,
         factors._u_cols, factors._u_values) = storage
        factors.structural_ops = 0
        factors._plan = None
        return factors

    def __getstate__(self):
        # A pickled container (a shipped work unit's result) carries no plan;
        # the state is the one the slots alone would give.
        return None, {name: getattr(self, name) for name in self.__slots__ if name != "_plan"}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._plan = None

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self._n

    @property
    def is_sealed(self) -> bool:
        """Whether the structure is fixed (CLUDE) rather than growable."""
        return self._sealed

    @property
    def capacity(self) -> int:
        """Number of stored positions (pivots + strictly triangular entries)."""
        return self._n + sum(map(len, self._l_rows)) + sum(map(len, self._u_cols))

    # ------------------------------------------------------------------ #
    # Element access
    # ------------------------------------------------------------------ #
    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise DimensionError(
                f"index ({i}, {j}) out of bounds for a {self._n}x{self._n} matrix"
            )

    def _write(self, indices: List[int], values: List[float], index: int,
               value: float, where: Tuple[int, int]) -> None:
        """Store ``value`` at ``index`` of one sorted list under the mode's rule."""
        position = bisect_left(indices, index)
        present = position < len(indices) and indices[position] == index
        if self._sealed:
            if not present:
                raise PatternError(
                    f"position {where} is outside the universal symbolic sparsity pattern"
                )
            values[position] = value
        elif value == 0.0:
            if present:
                del indices[position]
                del values[position]
                self.structural_ops += 1
        elif present:
            values[position] = value
        else:
            indices.insert(position, index)
            values.insert(position, value)
            self.structural_ops += 1

    @staticmethod
    def _read(indices: List[int], values: List[float], index: int) -> float:
        position = bisect_left(indices, index)
        if position < len(indices) and indices[position] == index:
            return values[position]
        return 0.0

    def l_get(self, i: int, j: int) -> float:
        """Return ``L[i, j]`` (zero above the diagonal)."""
        self._check(i, j)
        if j > i:
            return 0.0
        if i == j:
            return self._pivots[i]
        return self._read(self._l_rows[j], self._l_values[j], i)

    def l_set(self, i: int, j: int, value: float) -> None:
        """Set ``L[i, j]`` (requires ``j <= i``)."""
        self._check(i, j)
        if j > i:
            raise DimensionError(f"L is lower triangular; cannot set ({i}, {j})")
        self._plan = None
        if i == j:
            self._pivots[i] = value
        else:
            self._write(self._l_rows[j], self._l_values[j], i, value, (i, j))

    def u_get(self, i: int, j: int) -> float:
        """Return ``U[i, j]`` including the implicit unit diagonal."""
        self._check(i, j)
        if i == j:
            return 1.0
        if i > j:
            return 0.0
        return self._read(self._u_cols[i], self._u_values[i], j)

    def u_set(self, i: int, j: int, value: float) -> None:
        """Set ``U[i, j]`` for ``j > i`` (the unit diagonal is implicit)."""
        self._check(i, j)
        if j <= i:
            raise DimensionError(
                f"U stores strictly upper entries only; cannot set ({i}, {j})"
            )
        self._plan = None
        self._write(self._u_cols[i], self._u_values[i], j, value, (i, j))

    def l_diagonal(self, k: int) -> float:
        """Return the pivot ``L[k, k]``."""
        return self._pivots[k]

    def set_l_diagonal(self, k: int, value: float) -> None:
        """Set the pivot ``L[k, k]``."""
        self._plan = None
        self._pivots[k] = value

    # ------------------------------------------------------------------ #
    # Structured iteration
    # ------------------------------------------------------------------ #
    def l_column_entries(self, j: int) -> List[Tuple[int, float]]:
        """Return ``[(i, L[i, j])]`` for stored positions strictly below the diagonal."""
        return list(zip(self._l_rows[j], self._l_values[j]))

    def u_row_entries(self, i: int) -> List[Tuple[int, float]]:
        """Return ``[(j, U[i, j])]`` for stored positions strictly right of the diagonal."""
        return list(zip(self._u_cols[i], self._u_values[i]))

    def l_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over non-zero entries of ``L`` (pivots first) as ``(row, column, value)``."""
        for k, pivot in enumerate(self._pivots):
            if pivot != 0.0:
                yield k, k, pivot
        for j in range(self._n):
            for i, value in zip(self._l_rows[j], self._l_values[j]):
                if value != 0.0:
                    yield i, j, value

    def u_items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over non-zero entries of ``U`` (unit diagonal excluded)."""
        for i in range(self._n):
            for j, value in zip(self._u_cols[i], self._u_values[i]):
                if value != 0.0:
                    yield i, j, value

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def sweep_storage(self) -> SweepStorage:
        """Return the live lists (uncopied) as :class:`~repro.sparse.kernels.SweepStorage`.

        The caller may write them (Crout and Bennett do), so handing them out
        drops the sweep plan.
        """
        self._plan = None
        return SweepStorage(self._pivots, self._l_rows, self._l_values,
                            self._u_cols, self._u_values)

    def sweep_plan(self) -> SweepPlan:
        """The :class:`~repro.sparse.kernels.SweepPlan` of the current values.

        Built on the first solve after a write and kept until the next one.
        Two threads that solve a planless container at once may each build
        one; the plans are equal, and either may stay.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = SweepPlan(SweepStorage(
                self._pivots, self._l_rows, self._l_values, self._u_cols, self._u_values
            ))
        return plan

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
        """Number of non-zero entries of ``L`` plus ``U`` (size of ``sp(Â)``)."""
        count = self._n - self._pivots.count(0.0)
        for lists in (self._l_values, self._u_values):
            count += sum(map(len, lists))
            if self._sealed:
                count -= sum(values.count(0.0) for values in lists)
        return count

    def reset_counters(self) -> None:
        """Reset :attr:`structural_ops` to zero."""
        self.structural_ops = 0

    def decomposed_pattern(self) -> SparsityPattern:
        """Return ``sp(Â)``: positions of non-zero entries of ``L`` and ``U``."""
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
        """Return a value copy (structural counter reset).

        Growable copies own every list.  A sealed structure never changes
        shape, so sealed copies share the index lists and copy only values.
        """
        l_rows, u_cols = self._l_rows, self._u_cols
        if not self._sealed:
            l_rows = [list(rows) for rows in l_rows]
            u_cols = [list(cols) for cols in u_cols]
        storage = SweepStorage(
            list(self._pivots),
            l_rows,
            [list(values) for values in self._l_values],
            u_cols,
            [list(values) for values in self._u_values],
        )
        return LUFactors.from_storage(storage, self._sealed)

    def __repr__(self) -> str:
        mode = "sealed" if self._sealed else "growable"
        return f"LUFactors(n={self._n}, {mode}, fill_size={self.fill_size})"
