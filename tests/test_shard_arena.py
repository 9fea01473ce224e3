"""Shared-memory arena lifecycle: refcounts, closes, attaches, crashes."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.graphs.snapshot import GraphSnapshot
from repro.shard.arena import (
    SharedMemoryArena,
    attach_snapshot,
    leaked_segments,
)


def _snapshot(seed: int = 0) -> GraphSnapshot:
    edges = [(i, (i + 1 + seed) % 9) for i in range(9)] + [(0, 4), (2, 7)]
    return GraphSnapshot(9, edges)


# --------------------------------------------------------------------- #
# Refcounting and close semantics
# --------------------------------------------------------------------- #
def test_put_snapshot_dedups_by_content_and_refcounts():
    arena = SharedMemoryArena()
    snapshot = _snapshot()
    same_content = GraphSnapshot(snapshot.n, sorted(snapshot.edges, reverse=True))
    first = arena.put_snapshot(snapshot)
    second = arena.put_snapshot(same_content)
    assert second == first
    assert arena.refcount(first) == 2
    assert len(arena) == 1
    arena.release(first)
    assert arena.refcount(first) == 1
    assert leaked_segments([first.segment]) == (first.segment,)
    arena.release(first)
    assert arena.refcount(first) == 0
    assert leaked_segments([first.segment]) == ()
    arena.close()


def test_release_past_zero_and_unknown_handle_are_noops():
    arena = SharedMemoryArena()
    handle = arena.put_snapshot(_snapshot())
    arena.release(handle)
    arena.release(handle)  # already unlinked; must not raise
    assert arena.refcount(handle) == 0
    arena.close()


def test_close_unlinks_everything_and_double_close_is_noop():
    arena = SharedMemoryArena()
    for seed in range(4):
        arena.put_snapshot(_snapshot(seed))
    names = arena.segment_names()
    assert len(names) == 4
    arena.close()
    assert leaked_segments(names) == ()
    arena.close()  # double close: no-op, no raise
    with pytest.raises(ValueError):
        arena.put_snapshot(_snapshot())


def test_context_manager_closes():
    with SharedMemoryArena() as arena:
        handle = arena.put_snapshot(_snapshot())
        names = arena.segment_names()
        assert leaked_segments(names) == (handle.segment,)
    assert leaked_segments(names) == ()


# --------------------------------------------------------------------- #
# Attach fidelity
# --------------------------------------------------------------------- #
def test_attach_snapshot_reconstructs_equal_graph():
    arena = SharedMemoryArena()
    for directed in (True, False):
        snapshot = GraphSnapshot(7, [(0, 1), (1, 2), (2, 5), (6, 3)], directed=directed)
        handle = arena.put_snapshot(snapshot)
        rebuilt, shm = attach_snapshot(handle)
        assert rebuilt == snapshot
        assert rebuilt.directed == snapshot.directed
        shm.close()
    arena.close()


# --------------------------------------------------------------------- #
# Crash cleanup
# --------------------------------------------------------------------- #
def _hold_segment(handle, started) -> None:
    _, shm = attach_snapshot(handle)
    started.set()
    time.sleep(60)  # killed long before this returns
    shm.close()


def test_killed_attacher_leaks_no_segments():
    """SIGKILL on a worker holding an attached segment leaks nothing.

    Only the parent ever unlinks; the kernel reclaims the dead worker's
    mapping, so after ``arena.close()`` the name is gone from /dev/shm.
    """
    ctx = multiprocessing.get_context("spawn")
    arena = SharedMemoryArena()
    handle = arena.put_snapshot(_snapshot())
    started = ctx.Event()
    worker = ctx.Process(target=_hold_segment, args=(handle, started), daemon=True)
    worker.start()
    assert started.wait(timeout=60), "attacher never started"
    worker.kill()
    worker.join(timeout=30)
    assert not worker.is_alive()
    # The segment survives the worker's death (the parent still owns it)...
    assert leaked_segments([handle.segment]) == (handle.segment,)
    # ...and close() removes it for good.
    arena.close()
    assert leaked_segments([handle.segment]) == ()


def test_leaked_segments_probe_is_tracker_neutral():
    names = [f"psm_repro_test_missing_{os.getpid()}"]
    assert leaked_segments(names) == ()
