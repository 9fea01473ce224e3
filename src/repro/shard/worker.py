"""Persistent shard worker process.

Each worker is spawned once, owns one shard of the factor/result cache
universe (a full :class:`~repro.query.planner.QueryPlanner` over the
keys routed to it), and serves tasks from its own queue until told to
stop.  Snapshots arrive as shared-memory handles (see
:mod:`repro.shard.arena`) and are reconstructed once per segment, then
cached — so per-task payloads carry only measure names, floats, small
param tuples and segment names, never CSR members.

Replies go to one shared result queue as
``(op, shard_id, task_id, payload, error)`` tuples; errors ship as
pickled exception objects and are re-raised by the front-end.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import MeasureError
from repro.graphs.snapshot import GraphSnapshot
from repro.query.cache import FactorCache
from repro.query.planner import QueryPlanner
from repro.query.spec import Query
from repro.shard.arena import SnapshotHandle, attach_snapshot

#: One dispatched query: ``(measure, damping, params, handle, system_token)``.
QueryDescriptor = Tuple[str, float, tuple, SnapshotHandle, Optional[Hashable]]


@dataclasses.dataclass
class ShardConfig:
    """Picklable planner settings replicated into every shard worker."""

    policy: Optional[object] = None
    result_cache: Optional[object] = None
    store_root: Optional[str] = None


def describe_query(query: Query, handle: SnapshotHandle) -> QueryDescriptor:
    """The lightweight wire form of ``query`` (no snapshot payload)."""
    return (query.measure, query.damping, query.params, handle, query.system_token)


def _encode_error(error: BaseException) -> bytes:
    try:
        return pickle.dumps(error)
    except Exception:
        fallback = MeasureError(f"{type(error).__name__}: {error}")
        return pickle.dumps(fallback)


def _build_planner(config: ShardConfig) -> QueryPlanner:
    store = None
    if config.store_root is not None:
        from repro.store.factorstore import FactorStore

        store = FactorStore(config.store_root)
    return QueryPlanner(
        cache=FactorCache(store=store),
        policy=config.policy,
        result_cache=config.result_cache,
    )


def _run_batch(
    planner: QueryPlanner,
    resolve: Callable[[SnapshotHandle], GraphSnapshot],
    descriptors: List[QueryDescriptor],
) -> Dict[str, object]:
    queries = [
        Query(
            measure=measure,
            snapshot=resolve(handle),
            damping=damping,
            params=params,
            system_token=token,
        )
        for measure, damping, params, handle, token in descriptors
    ]
    result = planner.run(queries)
    stats = result.stats
    return {
        "results": result.results,
        "groups": stats.groups,
        "result_hits": stats.result_hits,
        "resolutions": dict(stats.resolutions),
        "records": result.approximations,
    }


def shard_worker_main(shard_id: int, task_queue, result_queue, config: ShardConfig) -> None:
    """Worker entry point (module-level so ``spawn`` can import it)."""
    planner = _build_planner(config)
    segments: Dict[str, Tuple[GraphSnapshot, object]] = {}

    def resolve(handle: SnapshotHandle) -> GraphSnapshot:
        entry = segments.get(handle.segment)
        if entry is None:
            entry = attach_snapshot(handle)
            segments[handle.segment] = entry
        return entry[0]

    result_queue.put(("ready", shard_id, None, None, None))
    while True:
        message = task_queue.get()
        op, task_id = message[0], message[1]
        payload: object = None
        error: Optional[bytes] = None
        try:
            if op == "batch":
                payload = _run_batch(planner, resolve, message[2])
            elif op == "evolve":
                _, _, old_handle, new_handle, old_system, new_system = message
                planner.register_evolution(
                    resolve(old_handle),
                    resolve(new_handle),
                    old_system=old_system,
                    new_system=new_system,
                )
            elif op == "bind":
                _, _, system, handle = message
                planner.bind_snapshot(system, resolve(handle))
            elif op == "checkpoint":
                payload = planner.checkpoint()
            elif op == "cache_info":
                payload = planner.cache_info()
            elif op == "stop":
                pass
            else:
                raise MeasureError(f"unknown shard op: {op!r}")
        except BaseException as exc:  # ship it; the front-end re-raises
            error = _encode_error(exc)
        result_queue.put((op, shard_id, task_id, payload, error))
        if op == "stop":
            break
    # Drop every reference into the shared segments (cached factors hold
    # matrix views only for arena-attached *matrices*; snapshots are
    # copies — but be uniformly careful) before closing the mappings, or
    # close() raises BufferError on exported pointers.
    del planner
    entries = list(segments.values())
    segments.clear()
    gc.collect()
    for _, shm in entries:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view leaked; kernel reclaims
            pass
