"""Markowitz fill-reducing ordering and the SD-phase it performs.

The Markowitz strategy (referenced throughout the paper as the quality
baseline ``O*(A)``) selects, at each elimination step, the pivot whose
Markowitz cost ``(r_i - 1)(c_j - 1)`` is smallest, where ``r_i`` and ``c_j``
are the numbers of remaining non-zeros in the pivot's row and column of the
active submatrix.  Eliminating the chosen pivot then adds the symbolic fill
of the outer product of its row and column to the active pattern.

That elimination *is* the SD-phase of Section 2.3: the pivot's remaining row
is U's row and its remaining column is L's column of ``s̃p(A^O)``.  So
:func:`markowitz_ordering` returns the symbolic sparsity pattern of the
reordered matrix together with the order, and no Markowitz-ordered
factorization runs a second symbolic elimination.  The pattern comes as the
sorted column list of every row in the new coordinates
(:meth:`~repro.sparse.pattern.SparsityPattern.from_rows`), which is the
layout Crout (:mod:`repro.lu.crout`) and CLUDE's sealed structure
(:meth:`~repro.lu.factors.LUFactors.sealed`) read; the pattern's frozen set
is built only if a caller asks for the set itself, so a serving cold
factorization builds none.

This implementation restricts pivot choices to diagonal positions of the
active submatrix.  For the matrices this library targets (``A = I - dW``,
strictly diagonally dominant, and symmetric co-authorship matrices) every
diagonal position is structurally present and numerically the safest pivot,
so the restriction preserves both quality and stability while producing a
*symmetric* ordering ``O = (P, P)`` — which is also what makes the ordering
reusable across the matrices of a cluster.  On symmetric patterns the
criterion degenerates to classical minimum degree.
"""

from __future__ import annotations

import heapq
from typing import List, Set, Tuple, Union

from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering


def markowitz_ordering(
    matrix_or_pattern: Union[SparseMatrix, SparsityPattern],
) -> Tuple[Ordering, SparsityPattern]:
    """Return the Markowitz ordering ``O*(A)`` and ``s̃p(A^{O*})``.

    Equal Markowitz costs resolve to the smallest original index, which keeps
    the ordering deterministic.

    Parameters
    ----------
    matrix_or_pattern:
        The matrix (or just its sparsity pattern) to order.

    Returns
    -------
    (Ordering, SparsityPattern)
        A symmetric ordering (the same permutation applied to rows and
        columns) and the symbolic sparsity pattern of the reordered matrix,
        diagonal included — exactly
        ``symbolic_decomposition(ordering.apply(A).pattern())``, held as its
        sorted rows.
    """
    n = matrix_or_pattern.n
    entries = matrix_or_pattern
    if isinstance(matrix_or_pattern, SparseMatrix):
        entry_rows, entry_cols, _ = matrix_or_pattern.coo()
        entries = zip(entry_rows.tolist(), entry_cols.tolist())

    # Active structure: row_sets[i] = columns with entries in row i (diagonal
    # excluded), column_sets[j] = rows with entries in column j.  A live
    # vertex's sets only ever hold live vertices: eliminating a pivot removes
    # it from every set it was in.
    row_sets: List[Set[int]] = [set() for _ in range(n)]
    column_sets: List[Set[int]] = [set() for _ in range(n)]
    for i, j in entries:
        if i != j:
            row_sets[i].add(j)
            column_sets[j].add(i)

    order: List[int] = []
    # Step k's pivot row (U's row k) and pivot column (L's column k), in
    # original indices.
    upper: List[Set[int]] = []
    lower: List[Set[int]] = []

    # Lazy-deletion heap of (markowitz_cost, index).  queued[v] is the cost
    # of v's latest entry and never exceeds v's live cost (-1 once v is
    # eliminated).  A touched vertex is pushed only when its live cost drops
    # below queued[v]; popping v's queued entry while it is stale re-pushes
    # the live cost, and every other popped entry of v is dropped.  So each
    # live vertex keeps an entry at or below its live cost, and the first
    # pop whose cost equals the live cost is the argmin of (cost, index).
    queued = [len(row_sets[v]) * len(column_sets[v]) for v in range(n)]
    heap = list(zip(queued, range(n)))
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    for _ in range(n):
        while True:
            cost, pivot = heappop(heap)
            if cost != queued[pivot]:
                continue
            live = len(row_sets[pivot]) * len(column_sets[pivot])
            if cost == live:
                break
            queued[pivot] = live
            heappush(heap, (live, pivot))
        order.append(pivot)
        queued[pivot] = -1

        # Symbolic elimination of the pivot: every remaining row with an entry
        # in the pivot column inherits the pivot row's remaining columns.
        pivot_row = row_sets[pivot]
        pivot_column = column_sets[pivot]
        upper.append(pivot_row)
        lower.append(pivot_column)
        for i in pivot_column:
            row = row_sets[i]
            row.discard(pivot)
            fill = pivot_row - row
            fill.discard(i)
            row |= fill
            for j in fill:
                column_sets[j].add(i)
        for j in pivot_row:
            column_sets[j].discard(pivot)
        # Queue the touched vertices whose cost fell below their queued entry.
        for v in pivot_row | pivot_column:
            cost = len(row_sets[v]) * len(column_sets[v])
            if cost < queued[v]:
                queued[v] = cost
                heappush(heap, (cost, v))

    position = [0] * n
    for k, original in enumerate(order):
        position[original] = k
    # Row k in new coordinates: its L columns (appended by the earlier steps
    # in ascending k), the diagonal, then U's columns sorted.
    rows: List[List[int]] = [[] for _ in range(n)]
    for k in range(n):
        row = rows[k]
        row.append(k)
        row.extend(sorted([position[j] for j in upper[k]]))
        for i in lower[k]:
            rows[position[i]].append(k)
    return Ordering.symmetric(order), SparsityPattern.from_rows(rows)
