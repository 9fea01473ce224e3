"""Minimum-degree ordering for symmetric sparsity patterns.

The paper (Section 3) notes that for *symmetric* matrices the Markowitz
ordering and the size of the symbolic sparsity pattern ``|s̃p(A*)|`` can be
determined efficiently without actually decomposing the matrix — this is what
makes the quality-constrained LUDEM-QC problem tractable.  The classical tool
for this is the minimum-degree family of orderings (AMD being the best-known
member).  This module provides a straightforward minimum-degree ordering on
the undirected elimination graph together with a fill counter that returns
``|s̃p|`` for a symmetric pattern under a given elimination order.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Union

from repro.errors import NotSymmetricError, OrderingError
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering


def _symmetric_adjacency(pattern: SparsityPattern) -> List[Set[int]]:
    """Return the undirected adjacency lists of a symmetric pattern."""
    if not pattern.is_symmetric():
        raise NotSymmetricError("minimum-degree ordering requires a symmetric pattern")
    n = pattern.n
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for i, j in pattern:
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency


def minimum_degree_ordering(
    matrix_or_pattern: Union[SparseMatrix, SparsityPattern],
) -> Ordering:
    """Return a minimum-degree (symmetric Markowitz) ordering of a symmetric matrix.

    At each step the vertex with the fewest remaining neighbours is
    eliminated; its neighbours are connected into a clique (the symbolic fill)
    before the next selection.  Ties are broken by the smallest vertex index
    so the ordering is deterministic.
    """
    pattern = (
        matrix_or_pattern.pattern()
        if isinstance(matrix_or_pattern, SparseMatrix)
        else matrix_or_pattern
    )
    n = pattern.n
    if n == 0:
        return Ordering.identity(0)
    adjacency = _symmetric_adjacency(pattern)
    eliminated = [False] * n
    order: List[int] = []

    heap = [(len(adjacency[v]), v) for v in range(n)]
    heapq.heapify(heap)

    for _ in range(n):
        while True:
            degree, vertex = heapq.heappop(heap)
            if eliminated[vertex]:
                continue
            live_degree = sum(1 for w in adjacency[vertex] if not eliminated[w])
            if degree != live_degree:
                heapq.heappush(heap, (live_degree, vertex))
                continue
            break
        order.append(vertex)
        eliminated[vertex] = True
        neighbours = [w for w in adjacency[vertex] if not eliminated[w]]
        for position, u in enumerate(neighbours):
            adjacency[u].discard(vertex)
            for w in neighbours[position + 1:]:
                if w not in adjacency[u]:
                    adjacency[u].add(w)
                    adjacency[w].add(u)
        for u in neighbours:
            heapq.heappush(
                heap, (sum(1 for w in adjacency[u] if not eliminated[w]), u)
            )

    return Ordering.symmetric(order)


def symmetric_symbolic_size(
    pattern: SparsityPattern, order: Sequence[int]
) -> int:
    """Return ``|s̃p(A^O)|`` for a symmetric pattern under a symmetric ordering.

    The computation runs the elimination-graph simulation directly (never
    materializing the reordered matrix), which is the "efficient" evaluation
    path the paper relies on for LUDEM-QC.  Diagonal positions are included
    in the count, matching :func:`repro.lu.symbolic.symbolic_decomposition`.
    """
    n = pattern.n
    if sorted(order) != list(range(n)):
        raise OrderingError("order must be a permutation of 0..n-1")
    adjacency = _symmetric_adjacency(pattern)
    eliminated = [False] * n
    # Each eliminated vertex contributes: its diagonal, plus one L entry and
    # one U entry for every live neighbour at elimination time.
    total = 0
    for vertex in order:
        neighbours = [w for w in adjacency[vertex] if not eliminated[w]]
        total += 1 + 2 * len(neighbours)
        eliminated[vertex] = True
        for position, u in enumerate(neighbours):
            adjacency[u].discard(vertex)
            for w in neighbours[position + 1:]:
                if w not in adjacency[u]:
                    adjacency[u].add(w)
                    adjacency[w].add(u)
    return total
