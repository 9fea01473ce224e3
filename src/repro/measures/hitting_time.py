"""Discounted Hitting Time (DHT).

The discounted hitting time from node ``u`` to a target node ``t`` measures
how quickly a random walk started at ``u`` reaches ``t``, with each step
discounted by a factor ``d``.  Writing ``h(v)`` for the expected discounted
reward of hitting ``t`` starting from ``v`` (``h(t) = 1``), the vector ``h``
satisfies a linear system over the non-target nodes::

    h(v) = d * sum_w P(v, w) h(w)      for v != t,   h(t) = 1

where ``P`` is the row-stochastic transition matrix.  Rearranged over all
nodes it becomes ``(I - d P_masked) h = e_t`` with the target row masked to
the identity (composed by
:func:`~repro.graphs.matrixkind.hitting_time_matrix`), which again has the
strictly-diagonally-dominant ``I - d M`` shape used throughout the library.
Larger ``h(v)`` means ``t`` is easier to reach from ``v`` (a proximity
measure, like RWR).

The measure is registered declaratively as the ``"hitting_time"``
:class:`~repro.query.spec.MeasureSpec`; because the target masks a matrix
row, ``target`` is a *matrix parameter* — the planner never shares a
factorization between different targets.

Many-target workloads do not need to pay that per-target factorization,
though: the masked system is a **rank-1 update** of the target-independent
unmasked system ``A = I - d P`` (masking row ``t`` removes exactly the
``-d p_t`` row, i.e. ``A_t = A + e_t (d p_t)ᵀ``), and Sherman–Morrison
collapses the masked solve to ``h = y / y[t]`` with ``y = A⁻¹ e_t``.  The
``"hitting_time_shared"`` spec encodes that identity, so one factorization
of ``A`` serves *every* target with one batched substitution sweep —
:func:`discounted_hitting_scores_many` below is the driver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.matrixkind import DEFAULT_DAMPING
from repro.graphs.snapshot import GraphSnapshot
from repro.query.spec import evaluate, evaluate_block, make_query


def discounted_hitting_scores(
    snapshot: GraphSnapshot,
    target: int,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Return the discounted-hitting score of every node towards ``target``.

    The returned vector ``h`` satisfies ``h[target] = 1`` and for other nodes
    the discounted expectation recursion above.  Nodes that cannot reach the
    target get score 0.
    """
    query = make_query("hitting_time", snapshot, damping=damping, target=int(target))
    return evaluate(query)


def discounted_hitting_scores_many(
    snapshot: GraphSnapshot,
    targets: Sequence[int],
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Return discounted-hitting scores for many targets, shape ``(n, k)``.

    Column ``c`` matches :func:`discounted_hitting_scores` of
    ``targets[c]`` to numerical tolerance, but the whole block costs **one**
    factorization of the unmasked system ``I - d P`` plus one batched
    multi-RHS sweep, instead of one factorization per target: per target the
    masked system is a rank-1 update of the shared one, and Sherman–Morrison
    reduces its solve to a column rescale (``h = y / y[target]``, see the
    module docstring).  The per-target path remains the bitwise reference —
    the two differ only in floating-point round-off.
    """
    target_list = [int(t) for t in targets]
    if not target_list:
        return np.zeros((snapshot.n, 0), dtype=float)
    return evaluate_block(
        "hitting_time_shared",
        snapshot,
        [{"target": target} for target in target_list],
        damping=damping,
    )
