"""MeasureServer(shards=N): sharded serving equals serial serving."""

from __future__ import annotations

import pytest

from repro.errors import MeasureError
from repro.graphs.snapshot import GraphSnapshot
from repro.query import QueryPlanner
from repro.serve import MeasureServer

from shard_workload import member_objects, record_dispatches


def _snapshots():
    base = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9), (5, 11)]
    first = GraphSnapshot(12, base)
    second = GraphSnapshot(12, base[:-1] + [(2, 8), (7, 1)])
    return first, second


def _serve_stream(server):
    """One fixed request stream: queries, a streamed update, more queries."""
    first, second = _snapshots()
    futures = [
        server.submit_measure("rwr", first, start_node=2),
        server.submit_measure("ppr", first, seeds=(1, 4, 7)),
        server.submit_measure("pagerank", first),
        server.submit_measure("hitting_time", first, target=5),
    ]
    server.admit_update(first).result(timeout=120)
    server.admit_update(second).result(timeout=120)
    futures += [
        server.submit_measure("rwr", second, start_node=2),
        server.submit_measure("pagerank", None),  # head-deferred → second
        server.submit_measure("salsa_hub", second),
    ]
    return [future.result(timeout=120).tobytes() for future in futures]


# --------------------------------------------------------------------- #
# Constructor validation (no worker pool is ever spawned)
# --------------------------------------------------------------------- #
def test_explicit_planner_conflicts_with_shards():
    planner = QueryPlanner()
    with pytest.raises(MeasureError):
        MeasureServer(planner, shards=2)


def test_sharded_server_rejects_nonpositive_shards():
    with pytest.raises(MeasureError):
        MeasureServer(shards=0)


# --------------------------------------------------------------------- #
# Differential + lifecycle (spawns worker pools → slow)
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_sharded_server_answers_bitwise_equal_to_serial():
    serial_server = MeasureServer()
    try:
        reference = _serve_stream(serial_server)
    finally:
        serial_server.close()

    server = MeasureServer(shards=2)
    try:
        messages = record_dispatches(server.planner)
        assert _serve_stream(server) == reference
        assert messages and member_objects(messages) == []
        names = server.planner.arena.segment_names()
        assert len(names) == 2  # both snapshots shipped exactly once
    finally:
        server.close()
    from repro.shard.arena import leaked_segments

    assert leaked_segments(names) == ()


@pytest.mark.slow
def test_sharded_server_close_without_drain_leaks_nothing():
    first, _ = _snapshots()
    server = MeasureServer(shards=2)
    server.submit_measure("pagerank", first).result(timeout=120)
    names = server.planner.arena.segment_names()
    assert names
    planner = server.planner
    server.close(drain=False)
    from repro.shard.arena import leaked_segments

    assert leaked_segments(names) == ()
    with pytest.raises(MeasureError):
        planner.run([])
