"""Sharded multi-process serving.

Layering::

    arena.py    shared-memory segments for immutable graph snapshots
    router.py   content-stable SystemKey -> shard assignment
    worker.py   persistent ShardWorker process (owns one cache shard)
    planner.py  ShardedPlanner front-end (plan, route, merge)

`ShardedPlanner` is a drop-in for `QueryPlanner` on the serving surface
(`run` / `register_evolution` / `bind_snapshot` / `checkpoint` /
`cache_info`) and is proven bitwise identical to it across all six
resolution tiers.
"""

from repro.shard.arena import (
    SharedMemoryArena,
    SnapshotHandle,
    attach_snapshot,
)
from repro.shard.planner import ShardedPlanner
from repro.shard.router import ShardRouter, routing_digest
from repro.shard.worker import ShardConfig

__all__ = [
    "SharedMemoryArena",
    "ShardConfig",
    "ShardRouter",
    "ShardedPlanner",
    "SnapshotHandle",
    "attach_snapshot",
    "routing_digest",
]
