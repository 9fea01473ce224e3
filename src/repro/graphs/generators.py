"""Synthetic evolving-graph generators.

The paper's synthetic experiments (Section 6, "Synthetic") build an EGS as
follows: generate a scale-free *base graph* with the Barabási–Albert model,
collect its edges into an *edge pool* ``EP``, draw the first snapshot's edges
from the pool, and then evolve each snapshot by removing ``ΔE⁻`` random edges
and adding ``ΔE⁺`` random pool edges, with ``k = ΔE⁺ / ΔE⁻`` and
``ΔE = ΔE⁺ + ΔE⁻``.  :class:`SyntheticEGSConfig` exposes exactly those
parameters (with laptop-scale defaults; the paper's defaults are recorded in
:data:`PAPER_DEFAULTS`).

Every generator in this module is deterministic given its seed: the
top-level entry points (:func:`generate_synthetic_egs`, :func:`growing_egs`,
:func:`evolving_chain`) take an explicit seed, and the building blocks
(:func:`barabasi_albert_edges`, :func:`generate_edge_pool`) require either a
caller-supplied :class:`numpy.random.Generator` or an explicit ``seed`` —
there is no fallback to global/unseeded randomness anywhere, which the
determinism regression tests pin.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set

import numpy as np

from repro.errors import DatasetError
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.snapshot import Edge, GraphSnapshot

#: The parameter defaults reported in the paper (Section 6, "Synthetic").
PAPER_DEFAULTS = {
    "nodes": 50_000,
    "edge_pool_size": 450_000,
    "average_degree": 5,
    "add_remove_ratio": 4,
    "delta_edges": 500,
    "snapshots": 500,
}


@dataclasses.dataclass(frozen=True)
class SyntheticEGSConfig:
    """Parameters of the synthetic EGS generator.

    Attributes
    ----------
    nodes:
        Number of vertices ``V``.
    edge_pool_size:
        Number of edges in the edge pool ``|EP|``.
    average_degree:
        Average vertex degree ``d`` of the first snapshot; the first snapshot
        contains ``d * V`` edges drawn from the pool.
    add_remove_ratio:
        The ratio ``k = ΔE⁺ / ΔE⁻``.
    delta_edges:
        Total number of edge changes per transition ``ΔE = ΔE⁺ + ΔE⁻``.
    snapshots:
        Number of snapshots ``T``.
    directed:
        Whether generated snapshots are directed.
    seed:
        Seed for the pseudo-random generator (generation is deterministic
        given the seed).
    """

    nodes: int = 300
    edge_pool_size: int = 2700
    average_degree: int = 5
    add_remove_ratio: int = 4
    delta_edges: int = 40
    snapshots: int = 30
    directed: bool = True
    seed: int = 7

    def validate(self) -> None:
        """Raise :class:`~repro.errors.DatasetError` on inconsistent parameters."""
        if self.nodes < 2:
            raise DatasetError("need at least two nodes")
        if self.edge_pool_size < self.nodes:
            raise DatasetError("edge pool must contain at least `nodes` edges")
        first_snapshot_edges = self.average_degree * self.nodes
        if first_snapshot_edges > self.edge_pool_size:
            raise DatasetError(
                "average_degree * nodes exceeds the edge pool size; "
                "increase edge_pool_size or lower average_degree"
            )
        if self.add_remove_ratio < 1:
            raise DatasetError("add_remove_ratio (k) must be at least 1")
        if self.delta_edges < 0:
            raise DatasetError("delta_edges must be non-negative")
        if self.snapshots < 1:
            raise DatasetError("need at least one snapshot")


def _resolve_rng(
    rng: Optional[np.random.Generator], seed: Optional[int]
) -> np.random.Generator:
    """Return the generator to use, refusing unseeded (non-reproducible) use."""
    if rng is not None:
        if seed is not None:
            raise DatasetError("pass either rng or seed, not both")
        return rng
    if seed is None:
        raise DatasetError(
            "unseeded generation is not allowed: pass an explicit rng or seed"
        )
    return np.random.default_rng(seed)


def barabasi_albert_edges(
    nodes: int,
    edges_per_node: int,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> List[Edge]:
    """Generate the edge list of a Barabási–Albert preferential-attachment graph.

    Each arriving node attaches to ``edges_per_node`` existing nodes chosen
    with probability proportional to their current degree, yielding the
    scale-free degree distribution the paper assumes for its base graph.
    Edges are oriented from the new node to its chosen targets.  Exactly one
    of ``rng`` / ``seed`` must be supplied.
    """
    rng = _resolve_rng(rng, seed)
    if nodes < 2:
        raise DatasetError("Barabási–Albert generation needs at least two nodes")
    edges_per_node = max(1, min(edges_per_node, nodes - 1))
    # Start from a small seed clique.
    targets = list(range(edges_per_node))
    repeated_nodes: List[int] = []
    edges: List[Edge] = []
    for source in range(edges_per_node, nodes):
        chosen: Set[int] = set()
        while len(chosen) < edges_per_node:
            if repeated_nodes and rng.random() > 0.2:
                candidate = int(repeated_nodes[rng.integers(0, len(repeated_nodes))])
            else:
                candidate = int(rng.integers(0, source))
            if candidate != source:
                chosen.add(candidate)
        for target in chosen:
            edges.append((source, target))
            repeated_nodes.append(source)
            repeated_nodes.append(target)
        targets.append(source)
    return edges


def generate_edge_pool(
    config: SyntheticEGSConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> List[Edge]:
    """Generate the edge pool ``EP`` from a Barabási–Albert base graph.

    The base graph is generated with enough edges per node to reach (at
    least) ``edge_pool_size`` edges; extra random edges between high-degree
    nodes pad any shortfall caused by duplicate removal.  Exactly one of
    ``rng`` / ``seed`` must be supplied.
    """
    rng = _resolve_rng(rng, seed)
    per_node = max(1, config.edge_pool_size // max(1, config.nodes - 1))
    pool: Set[Edge] = set(barabasi_albert_edges(config.nodes, per_node, rng))
    # Pad with additional preferential edges until the pool is large enough.
    attempts = 0
    degree_weighted = [u for edge in pool for u in edge]
    while len(pool) < config.edge_pool_size and attempts < 50 * config.edge_pool_size:
        attempts += 1
        u = int(degree_weighted[rng.integers(0, len(degree_weighted))])
        v = int(rng.integers(0, config.nodes))
        if u != v and (u, v) not in pool:
            pool.add((u, v))
            degree_weighted.append(u)
            degree_weighted.append(v)
    return sorted(pool)


def generate_synthetic_egs(config: Optional[SyntheticEGSConfig] = None) -> EvolvingGraphSequence:
    """Generate a synthetic EGS following the paper's procedure (Section 6).

    1. Build a scale-free base graph and collect its edges into the pool ``EP``.
    2. Draw ``average_degree * nodes`` pool edges as the first snapshot.
    3. For every subsequent snapshot remove ``ΔE⁻ = ΔE / (k + 1)`` random
       current edges and add ``ΔE⁺ = k ΔE / (k + 1)`` random pool edges that
       are not currently present.
    """
    config = config or SyntheticEGSConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    pool = generate_edge_pool(config, rng)
    pool_set = set(pool)

    first_count = min(config.average_degree * config.nodes, len(pool))
    first_indices = rng.choice(len(pool), size=first_count, replace=False)
    current: Set[Edge] = {pool[int(index)] for index in first_indices}

    removals_per_step = config.delta_edges // (config.add_remove_ratio + 1)
    additions_per_step = config.delta_edges - removals_per_step

    snapshots = [GraphSnapshot(config.nodes, current, directed=config.directed)]
    for _ in range(config.snapshots - 1):
        current = _evolve_edge_set(
            current, pool_set, additions_per_step, removals_per_step, rng
        )
        snapshots.append(GraphSnapshot(config.nodes, current, directed=config.directed))
    return EvolvingGraphSequence(snapshots)


def _evolve_edge_set(
    current: Set[Edge],
    pool: Set[Edge],
    additions: int,
    removals: int,
    rng: np.random.Generator,
) -> Set[Edge]:
    """Return a new edge set with random removals and pool additions applied."""
    updated = set(current)
    if removals and updated:
        current_list = sorted(updated)
        removal_count = min(removals, len(current_list))
        removal_indices = rng.choice(len(current_list), size=removal_count, replace=False)
        for index in removal_indices:
            updated.discard(current_list[int(index)])
    available = sorted(pool - updated)
    if additions and available:
        addition_count = min(additions, len(available))
        addition_indices = rng.choice(len(available), size=addition_count, replace=False)
        for index in addition_indices:
            updated.add(available[int(index)])
    return updated


def growing_egs(
    nodes: int,
    snapshots: int,
    initial_edges: int,
    edges_per_step: int,
    seed: int = 11,
    directed: bool = True,
) -> EvolvingGraphSequence:
    """Generate an EGS whose edge set only grows (DBLP-style accumulation).

    New edges attach preferentially to already well-connected nodes, giving
    the heavy-tailed degree distribution of co-authorship networks.
    """
    if nodes < 2:
        raise DatasetError("need at least two nodes")
    rng = np.random.default_rng(seed)
    edges: Set[Edge] = set()
    endpoints: List[int] = list(range(nodes))

    def add_random_edges(count: int) -> None:
        attempts = 0
        added = 0
        while added < count and attempts < 60 * count + 100:
            attempts += 1
            u = int(endpoints[rng.integers(0, len(endpoints))])
            v = int(rng.integers(0, nodes))
            if u == v or (u, v) in edges:
                continue
            edges.add((u, v))
            if not directed:
                edges.add((v, u))
            endpoints.append(u)
            endpoints.append(v)
            added += 1

    add_random_edges(initial_edges)
    snapshots_list = [GraphSnapshot(nodes, edges, directed=directed)]
    for _ in range(snapshots - 1):
        add_random_edges(edges_per_step)
        snapshots_list.append(GraphSnapshot(nodes, edges, directed=directed))
    return EvolvingGraphSequence(snapshots_list)


def evolving_chain(
    nodes: int, length: int, added: int, removed: int, seed: int
) -> List[GraphSnapshot]:
    """A directed random graph evolving by small edge deltas (a serving chain).

    The first snapshot holds ``3 * nodes`` distinct random edges (3 out-edges
    per node on average).  Each later snapshot removes ``removed`` random
    edges of its predecessor (drawn with replacement, so occasionally fewer)
    and adds ``added`` new ones — the small per-step deltas a delta-refresh
    serving path is built for.
    """
    rng = np.random.default_rng(seed)
    edges: Set[Edge] = set()
    while len(edges) < nodes * 3:
        u, v = (int(x) for x in rng.integers(0, nodes, size=2))
        if u != v:
            edges.add((u, v))
    current = GraphSnapshot(nodes, edges)
    chain = [current]
    for _ in range(length - 1):
        existing = sorted(current.edges)
        dropped = {existing[int(rng.integers(0, len(existing)))] for _ in range(removed)}
        fresh: Set[Edge] = set()
        while len(fresh) < added:
            u, v = (int(x) for x in rng.integers(0, nodes, size=2))
            if u != v and (u, v) not in current.edges:
                fresh.add((u, v))
        current = current.with_edges(added=fresh, removed=dropped)
        chain.append(current)
    return chain
