"""Deterministic Bennett-sweep chains pinned bit for bit.

This module is imported by ``tests/test_bennett_golden.py`` and by the
golden generator (``python -m tests.bennett_chain_workload`` from the repo
root with ``PYTHONPATH=src``).  It replays two chains of Bennett updates and
records, after every update, the exact factor state:

* ``growable`` — a serve-like chain: Markowitz-ordered ``RANDOM_WALK``
  system matrices of a directed graph evolving by +3/-2 edges per step,
  Crout-factored once and then refreshed by :func:`bennett_update` with the
  localized system delta, exactly as a serving refresh does.  This pins the
  drop rule (values below ``DROP_TOLERANCE`` leave the lists) and the fill
  rule (new non-zeros are inserted), through ``structural_ops``.
* ``sealed`` — one CLUDE cluster: :func:`decompose_cluster_clude` factors
  the first member into the cluster's USSP structure, then the same member
  deltas are replayed through :func:`bennett_update` on a copy.  Stored
  zeros stay in their slots, so every slot is recorded.

Factor values are written as :meth:`float.hex` strings, so ``-0.0`` and the
last bit of every value are compared.  Only the container protocol that
every factor container keeps (``l_diagonal``, ``l_column_entries``,
``u_row_entries``, ``fill_size``, ``structural_ops``) is read.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

from repro.core.clude import decompose_cluster_clude
from repro.core.result import Stopwatch
from repro.graphs.matrixkind import MatrixKind, measure_matrix, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.bennett import bennett_update
from repro.query.spec import FactorizedSystem

GOLDEN_RELPATH = "data/bennett_chain_golden.json"

NODES = 120
REFRESHES = 12
CLUSTER_MEMBERS = 8
DAMPING = 0.85


def evolving_chain(seed: int, length: int) -> List[GraphSnapshot]:
    """A directed graph with 3 out-edges per node on average, +3/-2 edges a step."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < NODES * 3:
        u, v = (int(x) for x in rng.integers(0, NODES, size=2))
        if u != v:
            edges.add((u, v))
    current = GraphSnapshot(NODES, edges)
    chain = [current]
    for _ in range(length - 1):
        existing = sorted(current.edges)
        dropped = {existing[int(rng.integers(0, len(existing)))] for _ in range(2)}
        fresh = set()
        while len(fresh) < 3:
            u, v = (int(x) for x in rng.integers(0, NODES, size=2))
            if u != v and (u, v) not in current.edges:
                fresh.add((u, v))
        current = current.with_edges(added=fresh, removed=dropped)
        chain.append(current)
    return chain


def factor_state(factors) -> Dict[str, object]:
    """The stored pivots, ``L`` columns and ``U`` rows, values as float hex."""
    n = factors.n
    lower = []
    upper = []
    for k in range(n):
        column = factors.l_column_entries(k)
        lower.append([[i for i, _ in column], [value.hex() for _, value in column]])
        row = factors.u_row_entries(k)
        upper.append([[j for j, _ in row], [value.hex() for _, value in row]])
    return {
        "pivots": [float(factors.l_diagonal(k)).hex() for k in range(n)],
        "l_columns": lower,
        "u_rows": upper,
    }


def _digest(state: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def _step_record(factors, active_steps: int) -> Dict[str, object]:
    record = {
        "active_steps": active_steps,
        "structural_ops": factors.structural_ops,
        "fill_size": factors.fill_size,
        "state_sha256": _digest(factor_state(factors)),
    }
    factors.reset_counters()
    return record


def growable_chain() -> Dict[str, object]:
    """Replay the serve-like refresh chain through growable factors."""
    chain = evolving_chain(seed=20161, length=REFRESHES + 1)
    matrix = measure_matrix(chain[0], MatrixKind.RANDOM_WALK, DAMPING)
    system = FactorizedSystem.factorize(matrix)
    factors = system.factors
    steps = [_step_record(factors, 0)]
    for before, after in zip(chain, chain[1:]):
        delta = system_delta(before, after, MatrixKind.RANDOM_WALK, DAMPING)
        active = bennett_update(factors, system.ordering.map_entries(delta))
        steps.append(_step_record(factors, active))
    return {"steps": steps, "final": factor_state(factors)}


def sealed_chain() -> Dict[str, object]:
    """Replay one CLUDE cluster through the sealed USSP structure."""
    chain = evolving_chain(seed=7349, length=CLUSTER_MEMBERS)
    members = [measure_matrix(s, MatrixKind.RANDOM_WALK, DAMPING) for s in chain]
    decompositions = decompose_cluster_clude(members, 0, 0, Stopwatch())
    ordering = decompositions[0].ordering
    factors = decompositions[0].factors.copy()
    steps = [_step_record(factors, 0)]
    for offset in range(1, len(members)):
        delta = ordering.map_entries(members[offset - 1].delta_entries(members[offset]))
        active = bennett_update(factors, delta)
        steps.append(_step_record(factors, active))
        steps[-1]["clude_state_sha256"] = _digest(
            factor_state(decompositions[offset].factors)
        )
    return {"steps": steps, "final": factor_state(factors)}


def run_chains() -> Dict[str, object]:
    """Both chains as one JSON-serialisable transcript."""
    return {"growable": growable_chain(), "sealed": sealed_chain()}


def save_golden(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run_chains(), handle, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import os

    save_golden(os.path.join(os.path.dirname(os.path.abspath(__file__)), GOLDEN_RELPATH))
