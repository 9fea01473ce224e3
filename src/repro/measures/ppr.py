"""Personalized PageRank (PPR).

PPR restricts teleportation to a set of seed nodes: the score vector solves
``(I - d W) x = (1 - d) s`` where ``s`` spreads unit mass over the seeds.
The paper's patent case study (Section 7) sums the PPR scores of one
company's patents using another company's patents as the seed set to measure
inter-company proximity.

The measure is registered declaratively as the ``"ppr"``
:class:`~repro.query.spec.MeasureSpec`; this module is a thin driver over
the generic engine, kept for its established entry points and RHS helpers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.graphs.matrixkind import DEFAULT_DAMPING
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.base import SnapshotMeasureSolver
from repro.query.spec import evaluate, evaluate_block, make_query
from repro.query.spec import ppr_rhs as _canonical_ppr_rhs


def ppr_rhs(n: int, seeds: Iterable[int], damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Return the right-hand side ``(1 - d) s`` for a seed set.

    Delegates to the canonical builder the ``"ppr"`` spec registers, so this
    helper and the planner can never drift apart.
    """
    return _canonical_ppr_rhs(n, seeds, damping)


def ppr_scores(
    snapshot: GraphSnapshot,
    seeds: Iterable[int],
    damping: float = DEFAULT_DAMPING,
    solver: Optional[SnapshotMeasureSolver] = None,
) -> np.ndarray:
    """Return the Personalized PageRank vector for a seed set."""
    query = make_query(
        "ppr", snapshot, damping=damping, seeds=tuple(int(s) for s in seeds)
    )
    return evaluate(query, system=solver)


def ppr_scores_many(
    snapshot: GraphSnapshot,
    seed_sets: Sequence[Iterable[int]],
    damping: float = DEFAULT_DAMPING,
    solver: Optional[SnapshotMeasureSolver] = None,
) -> np.ndarray:
    """Return PPR vectors for many seed sets in one batched solve.

    Column ``c`` of the ``(n, k)`` result is bitwise identical to
    ``ppr_scores(snapshot, seed_sets[c], ...)`` against the same solver.
    This is the access pattern of the patent case study: one decomposition,
    one batched sweep, one column per company seed set.
    """
    return evaluate_block(
        "ppr",
        snapshot,
        [{"seeds": tuple(int(s) for s in seeds)} for seeds in seed_sets],
        damping=damping,
        system=solver,
    )
