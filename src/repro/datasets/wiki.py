"""Simulated Wikipedia hyperlink EGS.

The paper's Wiki dataset is 1000 daily snapshots of 20,000 pages whose
hyperlink count grows from 56,181 to 138,072 (roughly 2.5x) with an average
successive similarity of 99.88%.  That raw data is not available offline, so
this module generates a synthetic stand-in that preserves the properties the
algorithms actually interact with:

* heavy-tailed in/out-degree distribution (preferential attachment),
* strong edge growth across the sequence (so a fixed ordering — INC — becomes
  progressively unfit, as in the paper's Figure 5),
* very high successive-snapshot similarity (small per-step churn),
* occasional "events": a high-PageRank page gaining links to a tracked page,
  and a prominent page suddenly adding many outgoing links — mirroring the
  episodes the paper narrates around snapshots #197 and #247 (Example 1).

The scale defaults are laptop-sized; pass a custom :class:`WikiConfig` to
grow towards the paper's dimensions.
"""

from __future__ import annotations

import dataclasses
from typing import List, Set

import numpy as np

from repro.errors import DatasetError
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.snapshot import Edge, GraphSnapshot


@dataclasses.dataclass(frozen=True)
class WikiConfig:
    """Parameters of the simulated Wikipedia EGS.

    Attributes
    ----------
    pages:
        Number of pages (nodes).
    snapshots:
        Number of daily snapshots ``T``.
    initial_links:
        Hyperlink count of the first snapshot.
    final_links:
        Approximate hyperlink count of the last snapshot (growth is linear).
    churn_per_day:
        Links removed per day (an equal-sized batch plus the growth quota is
        added, keeping successive similarity high).
    tracked_page:
        A designated page whose PageRank story mimics the paper's Page 152:
        it receives links from two high-degree pages at ``event_gain_day`` and
        its main endorser dilutes its outgoing links at ``event_dilute_day``.
    event_gain_day, event_dilute_day:
        Snapshot indices of the two scripted events (clamped to the sequence).
    seed:
        PRNG seed.
    """

    pages: int = 300
    snapshots: int = 60
    initial_links: int = 1600
    final_links: int = 3600
    churn_per_day: int = 6
    tracked_page: int = 17
    event_gain_day: int = 12
    event_dilute_day: int = 30
    seed: int = 42

    def validate(self) -> None:
        """Raise :class:`~repro.errors.DatasetError` on inconsistent parameters."""
        if self.pages < 10:
            raise DatasetError("the simulated Wiki EGS needs at least 10 pages")
        if self.snapshots < 2:
            raise DatasetError("need at least two snapshots")
        if self.initial_links < self.pages:
            raise DatasetError("initial_links should be at least the number of pages")
        if self.final_links < self.initial_links:
            raise DatasetError("final_links must be >= initial_links")
        if not 0 <= self.tracked_page < self.pages:
            raise DatasetError("tracked_page out of range")


def _preferential_edges(
    count: int,
    pages: int,
    rng: np.random.Generator,
    existing: Set[Edge],
    endpoint_pool: List[int],
) -> List[Edge]:
    """Draw ``count`` new preferential-attachment edges avoiding ``existing``."""
    created: List[Edge] = []
    attempts = 0
    while len(created) < count and attempts < 80 * count + 200:
        attempts += 1
        if endpoint_pool and rng.random() < 0.7:
            source = int(endpoint_pool[rng.integers(0, len(endpoint_pool))])
        else:
            source = int(rng.integers(0, pages))
        if endpoint_pool and rng.random() < 0.7:
            target = int(endpoint_pool[rng.integers(0, len(endpoint_pool))])
        else:
            target = int(rng.integers(0, pages))
        if source == target:
            continue
        edge = (source, target)
        if edge in existing:
            continue
        existing.add(edge)
        created.append(edge)
        endpoint_pool.append(source)
        endpoint_pool.append(target)
    return created


def generate_wiki_egs(config: WikiConfig | None = None) -> EvolvingGraphSequence:
    """Generate the simulated Wikipedia hyperlink EGS."""
    config = config or WikiConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)

    edges: Set[Edge] = set()
    endpoint_pool: List[int] = list(range(config.pages))
    _preferential_edges(config.initial_links, config.pages, rng, edges, endpoint_pool)

    growth_per_day = max(
        0, (config.final_links - len(edges)) // max(1, config.snapshots - 1)
    )
    hubs = _top_sources(edges, count=8)
    tracked = config.tracked_page

    snapshots = [GraphSnapshot(config.pages, edges, directed=True)]
    for day in range(1, config.snapshots):
        # Routine churn: drop a few links, add churn + growth quota.
        edges = set(edges)
        if config.churn_per_day and edges:
            candidates = sorted(edges)
            removal_indices = rng.choice(
                len(candidates), size=min(config.churn_per_day, len(candidates)), replace=False
            )
            for index in removal_indices:
                edges.discard(candidates[int(index)])
        _preferential_edges(
            config.churn_per_day + growth_per_day, config.pages, rng, edges, endpoint_pool
        )

        # Scripted event 1: two prominent pages start linking to the tracked page.
        if day == min(config.event_gain_day, config.snapshots - 1):
            for hub in hubs[:2]:
                if hub != tracked:
                    edges.add((hub, tracked))
        # Scripted event 2: the tracked page's main endorser adds many new
        # outgoing links, diluting its contribution.
        if day == min(config.event_dilute_day, config.snapshots - 1):
            endorser = hubs[0] if hubs and hubs[0] != tracked else (hubs[1] if len(hubs) > 1 else 0)
            targets = rng.choice(config.pages, size=min(30, config.pages - 1), replace=False)
            for target in targets:
                target = int(target)
                if target not in (endorser, ):
                    edges.add((endorser, target))
        snapshots.append(GraphSnapshot(config.pages, edges, directed=True))
    return EvolvingGraphSequence(snapshots)


def _top_sources(edges: Set[Edge], count: int) -> List[int]:
    """Return the ``count`` nodes with the highest in-degree (popular pages)."""
    in_degree = {}
    for _, target in edges:
        in_degree[target] = in_degree.get(target, 0) + 1
    ranked = sorted(in_degree, key=lambda node: (-in_degree[node], node))
    return ranked[:count]
