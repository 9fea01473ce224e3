"""Power-iteration approximation of random-walk measures.

The paper's related work (Section 8) contrasts exact LU-based query answering
with two approximation families.  This module implements the first — power
iteration (PI) — which refines ``x`` through the recurrence
``x^(k+1) = d W x^(k) + (1 - d) q`` until convergence.  PI must be run once
per query vector ``q``, which is the cost the decomposition approach avoids.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.errors import MeasureError
from repro.graphs.matrixkind import DEFAULT_DAMPING, column_normalized_matrix
from repro.graphs.snapshot import GraphSnapshot
from repro.sparse.csr import SparseMatrix


@dataclasses.dataclass
class PowerIterationResult:
    """Outcome of a power-iteration run."""

    scores: np.ndarray
    iterations: int
    converged: bool
    residual: float


def power_iteration_solve(
    walk_matrix: SparseMatrix,
    q: Sequence[float],
    damping: float = DEFAULT_DAMPING,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> PowerIterationResult:
    """Iterate ``x <- d W x + (1 - d) q`` until the update is below ``tolerance``.

    The fixed point is exactly the solution of ``(I - d W) x = (1 - d) q``,
    so results are directly comparable with the LU-based path.
    """
    if not 0.0 < damping < 1.0:
        raise MeasureError(f"damping factor must lie in (0, 1), got {damping}")
    query = np.asarray(q, dtype=float)
    if query.shape != (walk_matrix.n,):
        raise MeasureError(
            f"query vector of shape {query.shape} incompatible with n={walk_matrix.n}"
        )
    x = (1.0 - damping) * query.copy()
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iterations + 1):
        updated = damping * walk_matrix.matvec(x) + (1.0 - damping) * query
        residual = float(np.max(np.abs(updated - x)))
        x = updated
        if residual < tolerance:
            return PowerIterationResult(x, iterations, True, residual)
    return PowerIterationResult(x, iterations, False, residual)


def rwr_power_iteration(
    snapshot: GraphSnapshot,
    start_node: int,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    walk_matrix: Optional[SparseMatrix] = None,
) -> PowerIterationResult:
    """Approximate RWR scores for one start node with power iteration."""
    walk = walk_matrix if walk_matrix is not None else column_normalized_matrix(snapshot)
    q = np.zeros(snapshot.n, dtype=float)
    q[start_node] = 1.0
    return power_iteration_solve(
        walk, q, damping=damping, tolerance=tolerance, max_iterations=max_iterations
    )
