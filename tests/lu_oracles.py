"""Slow reference implementations the LU tests cross-check the library against.

Each oracle computes, by the most direct route, a quantity the library gets
through its fast path: a dense Crout factorization, the fill-in pattern of
Equation 2 straight from its path definition, ``|s̃p(A*)|`` under a
minimum-degree order, and the reconstruction and solve residuals of a set
of factors.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import DimensionError, PatternError, SingularMatrixError
from repro.lu.crout import PIVOT_TOLERANCE
from repro.lu.mindegree import minimum_degree_ordering, symmetric_symbolic_size
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering


def crout_decompose_dense(
    dense: np.ndarray, pivot_tolerance: float = PIVOT_TOLERANCE
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense reference Crout decomposition, returning ``(L, U)`` arrays.

    ``L`` carries the pivots on its diagonal and ``U`` has a unit diagonal.
    """
    array = np.array(dense, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise PatternError(f"expected a square 2-D array, got shape {array.shape}")
    n = array.shape[0]
    lower = np.zeros((n, n), dtype=float)
    upper = np.eye(n, dtype=float)
    for j in range(n):
        for i in range(j, n):
            lower[i, j] = array[i, j] - lower[i, :j] @ upper[:j, j]
        pivot = lower[j, j]
        if abs(pivot) <= pivot_tolerance:
            raise SingularMatrixError(j, pivot)
        for k in range(j + 1, n):
            upper[j, k] = (array[j, k] - lower[j, :j] @ upper[:j, k]) / pivot
    return lower, upper


def fill_path_exists(pattern: SparsityPattern, u: int, v: int) -> bool:
    """Check Equation 2 directly: is there a fill path from ``u`` to ``v``?

    A fill path is a path ``u -> u_1 -> … -> u_k -> v`` of length at least two
    whose intermediate vertices all have indices smaller than ``min(u, v)``.
    BFS over the restricted vertex set.
    """
    n = pattern.n
    if not (0 <= u < n and 0 <= v < n):
        raise DimensionError(f"vertices ({u}, {v}) out of bounds for n={n}")
    limit = min(u, v)
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for i, j in pattern:
        adjacency[i].add(j)
    # BFS from u through vertices with index < limit, looking for v, with at
    # least one intermediate vertex.
    frontier = [w for w in adjacency[u] if w < limit]
    visited = set(frontier)
    while frontier:
        next_frontier: List[int] = []
        for w in frontier:
            if v in adjacency[w]:
                return True
            for x in adjacency[w]:
                if x < limit and x not in visited:
                    visited.add(x)
                    next_frontier.append(x)
        frontier = next_frontier
    return False


def fill_in_pattern_reference(pattern: SparsityPattern) -> SparsityPattern:
    """Equation 2 by its definition: every zero position with a fill path."""
    n = pattern.n
    present = pattern.indices
    fills = set()
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in present:
                continue
            if fill_path_exists(pattern, u, v):
                fills.add((u, v))
    return SparsityPattern(n, fills)


def symmetric_markowitz_reference(pattern: SparsityPattern) -> int:
    """Return ``|s̃p(A*)|`` where ``A*`` is minimum-degree ordered.

    This is the denominator of the quality-loss measure (Definition 4) in
    the symmetric/LUDEM-QC setting.
    """
    ordering = minimum_degree_ordering(pattern)
    return symmetric_symbolic_size(pattern, ordering.row.order)


def reconstruction_error(
    factors, matrix: SparseMatrix, ordering: Optional[Ordering] = None
) -> float:
    """Return ``max |L U - A^O|`` over all positions.

    ``matrix`` is the *original* ``A``; ``ordering`` is the ordering applied
    before decomposition (``None`` for identity).
    """
    target = ordering.apply(matrix) if ordering is not None else matrix
    product = factors.l_dense() @ factors.u_dense()
    return float(np.max(np.abs(product - target.to_dense()))) if matrix.n else 0.0


def factors_are_valid(
    factors,
    matrix: SparseMatrix,
    ordering: Optional[Ordering] = None,
    tolerance: float = 1e-8,
) -> bool:
    """Return ``True`` when the factors reproduce ``A^O`` within ``tolerance``."""
    return reconstruction_error(factors, matrix, ordering) <= tolerance


def solve_residual(matrix: SparseMatrix, x, b) -> float:
    """Return the infinity norm of ``A x - b`` in original coordinates."""
    ax = matrix.matvec(np.asarray(x, dtype=float))
    rhs = np.asarray(b, dtype=float)
    if ax.size == 0:
        return 0.0
    return float(np.max(np.abs(ax - rhs)))
