"""Fast sharded-planner smoke: bitwise answers, no member objects in tasks."""

from __future__ import annotations

import pytest

from repro.errors import MeasureError
from repro.graphs.snapshot import GraphSnapshot
from repro.query import QueryBatch, QueryPlanner
from repro.query.resolution import TIER_NAMES
from repro.query.spec import make_query
from repro.shard import ShardedPlanner
from repro.shard.arena import leaked_segments

from shard_workload import member_objects, record_dispatches


def _snapshot() -> GraphSnapshot:
    edges = [(i, (i + 3) % 11) for i in range(11)] + [(0, 7), (4, 9), (2, 6)]
    return GraphSnapshot(11, edges)


def _batch(snapshot: GraphSnapshot) -> QueryBatch:
    return QueryBatch([
        make_query("rwr", snapshot, start_node=2),
        make_query("ppr", snapshot, seeds=(1, 4)),
        make_query("pagerank", snapshot),
        make_query("hitting_time", snapshot, target=5),
        make_query("salsa_authority", snapshot),
    ])


def test_small_batch_matches_serial_and_ships_no_members():
    snapshot = _snapshot()
    serial = QueryPlanner().run(_batch(snapshot))
    with ShardedPlanner(shards=2) as planner:
        messages = record_dispatches(planner)
        sharded = planner.run(_batch(snapshot))
        assert [a.tobytes() for a in sharded.results] == [
            a.tobytes() for a in serial.results
        ]
        assert dict(sharded.stats.resolutions) == dict(serial.stats.resolutions)
        assert tuple(sharded.stats.resolutions) == TIER_NAMES
        assert sharded.stats.groups == serial.stats.groups

        assert messages and member_objects(messages) == []
        info = planner.dispatch_info()
        assert info["tasks_dispatched"] >= 1
        assert info["task_bytes_shipped"] > 0
        # Tasks carry descriptors + handles, never CSR payloads: a batch
        # task stays well under one snapshot's serialized member size.
        assert info["task_bytes_shipped"] < 8192
        assert info["segments_live"] == 1  # one snapshot, shipped once

        names = planner.arena.segment_names()
        assert leaked_segments(names) == (names[0],)
    # close() (via the context manager) unlinks everything ...
    assert leaked_segments(names) == ()
    # ... and further use raises cleanly.
    with pytest.raises(MeasureError):
        planner.run(_batch(snapshot))
    planner.close()  # idempotent


def test_constructor_validation_needs_no_workers():
    with pytest.raises(MeasureError):
        ShardedPlanner(shards=0)
    from repro.query import ResultCache

    with pytest.raises(TypeError):
        ShardedPlanner(shards=2, result_cache=ResultCache(8))
