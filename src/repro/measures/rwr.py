"""Random Walk with Restart (RWR).

RWR from a starting node ``u`` (paper Section 1, Equation 1): with
probability ``d`` the walk follows an out-edge, with probability ``1 - d`` it
restarts at ``u``.  The stationary distribution ``x_u`` solves::

    (I - d W) x_u = (1 - d) q_u

where ``W`` is the column-normalized adjacency matrix and ``q_u`` the unit
vector at ``u``.  Large ``x_u(v)`` means ``v`` is close to ``u``.

The measure is registered declaratively as the ``"rwr"``
:class:`~repro.query.spec.MeasureSpec`; this module is a thin driver over
the generic engine (:func:`~repro.query.spec.evaluate`), kept for its
established entry points and RHS helpers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.matrixkind import DEFAULT_DAMPING
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.base import SnapshotMeasureSolver
from repro.query.spec import evaluate, evaluate_block, make_query
from repro.query.spec import rwr_rhs as _canonical_rwr_rhs


def rwr_rhs(n: int, start_node: int, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Return the right-hand side ``(1 - d) q_u`` for a start node.

    Delegates to the canonical builder the ``"rwr"`` spec registers, so this
    helper and the planner can never drift apart.
    """
    return _canonical_rwr_rhs(n, start_node, damping)


def rwr_scores(
    snapshot: GraphSnapshot,
    start_node: int,
    damping: float = DEFAULT_DAMPING,
    solver: SnapshotMeasureSolver | None = None,
) -> np.ndarray:
    """Return the RWR stationary distribution for one start node.

    Parameters
    ----------
    snapshot:
        The graph snapshot.
    start_node:
        The restart node ``u``.
    damping:
        The damping factor ``d``.
    solver:
        Optional pre-built solver for the snapshot (reused across queries).
    """
    query = make_query("rwr", snapshot, damping=damping, start_node=int(start_node))
    return evaluate(query, system=solver)


def rwr_scores_many(
    snapshot: GraphSnapshot,
    start_nodes: Sequence[int],
    damping: float = DEFAULT_DAMPING,
    solver: SnapshotMeasureSolver | None = None,
) -> np.ndarray:
    """Return RWR distributions for many start nodes in one batched solve.

    Column ``c`` of the ``(n, k)`` result is bitwise identical to
    ``rwr_scores(snapshot, start_nodes[c], ...)`` against the same solver —
    the decomposition is reused and a single forward/backward sweep answers
    every start node.
    """
    return evaluate_block(
        "rwr",
        snapshot,
        [{"start_node": int(node)} for node in start_nodes],
        damping=damping,
        system=solver,
    )
