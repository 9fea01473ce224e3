"""Sharded planner front-end.

``ShardedPlanner`` plans exactly like :class:`~repro.query.planner.
QueryPlanner` (it calls the same :func:`~repro.query.planner.plan_batch`),
routes each planned group to the shard that owns its factor family
(:mod:`repro.shard.router`), ships only lightweight query descriptors
plus shared-memory snapshot handles to persistent workers
(:mod:`repro.shard.worker`), and merges the per-shard answers back into
one :class:`~repro.query.planner.BatchResult` that is bitwise identical
to what the serial planner would have produced:

- answers scatter back to their global batch positions;
- per-tier ``resolutions`` counts sum in canonical tier order
  (shape-stable: every tier name present, zeros included);
- approximation records merge tier-major (verbatim tier before
  corrected tier, group order within each) exactly as the serial audit
  trail accumulates them;
- updates (``register_evolution`` / ``bind_snapshot`` / ``checkpoint``)
  broadcast to every shard in stream order, so each shard sees the same
  FIFO update sequence the serial planner would.

Dispatch is counted: ``tasks_dispatched`` / ``task_bytes_shipped`` /
``member_bytes_shipped`` make "no CSR members cross the process
boundary" a measurable invariant (the benchmark gates it at zero).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue as queue_module
import time
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import MeasureError
from repro.graphs.snapshot import GraphSnapshot
from repro.query.planner import (
    BatchResult,
    PlannerStats,
    QueryPlan,
    plan_batch,
)
from repro.query.batch import QueryBatch
from repro.query.resolution import TIER_NAMES, ApproximationRecord
from repro.query.spec import Query
from repro.shard.arena import SharedMemoryArena, SnapshotHandle
from repro.shard.router import ShardRouter
from repro.shard.worker import ShardConfig, describe_query, shard_worker_main

_PICKLE = pickle.HIGHEST_PROTOCOL
_POLL_SECONDS = 0.25


def _store_root(store) -> Optional[str]:
    if store is None:
        return None
    root = getattr(store, "root", None)
    if root is not None:
        return os.fspath(root)
    return os.fspath(store)


def _finalize(workers, arena) -> None:
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    arena.close()


class ShardedPlanner:
    """A drop-in serving planner that shards factor ownership by digest.

    Parameters mirror :class:`~repro.query.planner.QueryPlanner` where
    they make sense for replicated workers: ``policy`` / ``auto_refresh``
    / ``result_cache`` configure every shard's planner identically;
    ``store`` may be a :class:`~repro.store.factorstore.FactorStore` or a
    directory path — shards share the one directory safely because
    routing makes their key sets disjoint and files are digest-named and
    atomically replaced.

    ``result_cache`` accepts ``None`` / ``bool`` / ``int`` (an instance
    cannot be replicated across processes).

    Workers are spawned (not forked), so like any spawn-based pool a
    *script* must construct the planner from under
    ``if __name__ == "__main__":`` — module top level re-executes in
    every child and trips Python's bootstrapping guard.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        auto_refresh: bool = False,
        policy=None,
        result_cache=None,
        store=None,
        start_timeout: float = 120.0,
    ) -> None:
        if shards < 1:
            raise MeasureError(f"shard count must be positive, got {shards}")
        if result_cache is not None and not isinstance(result_cache, (bool, int)):
            raise TypeError(
                "ShardedPlanner(result_cache=...) takes None, a bool or an int "
                "bound — per-process caches cannot share one instance"
            )
        policy_exact = policy is None or bool(getattr(policy, "is_exact", False))
        self._shards = int(shards)
        self._router = ShardRouter(self._shards, policy_exact=policy_exact)
        self._arena = SharedMemoryArena()
        self._handles: Dict[GraphSnapshot, SnapshotHandle] = {}
        self._closed = False
        self._next_task = 0
        self.tasks_dispatched = 0
        self.task_bytes_shipped = 0
        #: Serialized snapshot/factor member bytes crossing the process
        #: boundary per task.  The design makes this identically zero —
        #: members travel once through the shared-memory arena — and the
        #: benchmark gates on it staying zero.
        self.member_bytes_shipped = 0

        config = ShardConfig(
            auto_refresh=auto_refresh,
            policy=policy,
            result_cache=result_cache,
            store_root=_store_root(store),
        )
        ctx = multiprocessing.get_context("spawn")
        self._tasks = [ctx.SimpleQueue() for _ in range(self._shards)]
        self._results = ctx.Queue()
        self._workers = [
            ctx.Process(
                target=shard_worker_main,
                args=(shard, self._tasks[shard], self._results, config),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            for shard in range(self._shards)
        ]
        for worker in self._workers:
            worker.start()
        self._finalizer = weakref.finalize(
            self, _finalize, list(self._workers), self._arena
        )
        self._await_ready(start_timeout)

    # ------------------------------------------------------------------ #
    # Worker plumbing
    # ------------------------------------------------------------------ #
    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < self._shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise MeasureError(
                    f"shard workers failed to start within {timeout:.0f}s"
                )
            try:
                op = self._results.get(timeout=min(_POLL_SECONDS, remaining))[0]
            except queue_module.Empty:
                self._check_workers()
                continue
            if op == "ready":
                ready += 1

    def _check_workers(self) -> None:
        for worker in self._workers:
            if not worker.is_alive():
                self.close()
                raise MeasureError(
                    f"shard worker {worker.name} died (exit code "
                    f"{worker.exitcode}); sharded planner closed"
                )

    def _dispatch(self, shard: int, message: tuple) -> int:
        self._check_open()
        task_id = message[1]
        blob = pickle.dumps(message, protocol=_PICKLE)
        self.tasks_dispatched += 1
        self.task_bytes_shipped += len(blob)
        self._tasks[shard].put(message)
        return task_id

    def _new_task(self) -> int:
        self._next_task += 1
        return self._next_task

    def _collect(self, expected: Dict[int, int]) -> Dict[int, object]:
        """Gather one reply per expected task id; re-raise worker errors."""
        payloads: Dict[int, object] = {}
        errors: List[bytes] = []
        pending = dict(expected)
        while pending:
            try:
                reply = self._results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                self._check_workers()
                continue
            op, _shard_id, task_id, payload, error = reply
            if op == "ready" or task_id not in pending:
                continue
            del pending[task_id]
            if error is not None:
                errors.append(error)
            else:
                payloads[task_id] = payload
        if errors:
            raise pickle.loads(errors[0])
        return payloads

    def _broadcast(self, build_message) -> Dict[int, object]:
        """Send one message per shard (FIFO per queue) and collect acks."""
        expected: Dict[int, int] = {}
        for shard in range(self._shards):
            task_id = self._new_task()
            self._dispatch(shard, build_message(task_id))
            expected[task_id] = shard
        return self._collect(expected)

    def _handle_for(self, snapshot: GraphSnapshot) -> SnapshotHandle:
        handle = self._handles.get(snapshot)
        if handle is None:
            handle = self._arena.put_snapshot(snapshot)
            self._handles[snapshot] = handle
        return handle

    def _check_open(self) -> None:
        if self._closed:
            raise MeasureError("sharded planner is closed")

    # ------------------------------------------------------------------ #
    # Planner surface
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return self._shards

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def arena(self) -> SharedMemoryArena:
        return self._arena

    def plan(self, batch: Union[QueryBatch, Sequence[Query]]) -> QueryPlan:
        """Plan exactly like the serial planner (same function)."""
        return plan_batch(batch)

    def execute(self, plan: QueryPlan) -> BatchResult:
        """Route groups to owning shards, collect, and merge canonically."""
        self._check_open()
        shard_order: List[int] = []
        shard_groups: Dict[int, list] = {}
        for group in plan.groups:
            shard = self._router.shard_of(group.key)
            if shard not in shard_groups:
                shard_groups[shard] = []
                shard_order.append(shard)
            shard_groups[shard].append(group)

        expected: Dict[int, int] = {}
        position_maps: Dict[int, List[int]] = {}
        for shard in shard_order:
            groups = shard_groups[shard]
            positions = [p for g in groups for p in g.positions]
            descriptors = [
                describe_query(query, self._handle_for(query.snapshot))
                for g in groups
                for query in g.queries
            ]
            task_id = self._new_task()
            self._dispatch(shard, ("batch", task_id, descriptors))
            expected[task_id] = shard
            position_maps[task_id] = positions

        payloads = self._collect(expected)

        results: List[Optional[np.ndarray]] = [None] * len(plan.batch)
        resolutions: Dict[str, int] = {name: 0 for name in TIER_NAMES}
        result_hits = 0
        records: List[ApproximationRecord] = []
        for task_id in expected:
            payload = payloads[task_id]
            positions = position_maps[task_id]
            for local, answer in enumerate(payload["results"]):
                results[positions[local]] = answer
            for name, count in payload["resolutions"].items():
                resolutions[name] = resolutions.get(name, 0) + count
            result_hits += payload["result_hits"]
            for record in payload["records"]:
                records.append(dataclasses.replace(
                    record,
                    positions=tuple(positions[p] for p in record.positions),
                ))
        for direct in plan.direct:
            results[direct.position] = direct.answer.copy()

        # Serial audit order is tier-major: every verbatim-tier record
        # (group order) precedes every corrected-tier record.  Group order
        # is recovered from the first (minimum) global position.
        verbatim = [r for r in records if r.mode == "verbatim"]
        corrected = [r for r in records if r.mode != "verbatim"]
        verbatim.sort(key=lambda r: r.positions[0])
        corrected.sort(key=lambda r: r.positions[0])

        stats = PlannerStats(
            queries=len(plan.batch),
            groups=len(plan.groups),
            direct_answers=len(plan.direct),
            result_hits=result_hits,
            resolutions=resolutions,
        )
        return BatchResult(
            results=results,
            stats=stats,
            approximations=tuple(verbatim + corrected),
        )

    def run(self, batch: Union[QueryBatch, Sequence[Query]]) -> BatchResult:
        """Plan and execute a batch in one call."""
        return self.execute(self.plan(batch))

    # ------------------------------------------------------------------ #
    # Updates (broadcast in stream order)
    # ------------------------------------------------------------------ #
    def register_evolution(
        self,
        old: GraphSnapshot,
        new: GraphSnapshot,
        *,
        old_system: Optional[Hashable] = None,
        new_system: Optional[Hashable] = None,
    ) -> None:
        """Register lineage on every shard (same validation as serial)."""
        if not isinstance(old, GraphSnapshot) or not isinstance(new, GraphSnapshot):
            raise MeasureError(
                "register_evolution takes two GraphSnapshots (the delta is "
                "computed from their edge sets)"
            )
        if old.n != new.n:
            raise MeasureError(
                f"evolution must preserve the node count: {old.n} vs {new.n}"
            )
        old_handle = self._handle_for(old)
        new_handle = self._handle_for(new)
        self._broadcast(
            lambda task_id: (
                "evolve", task_id, old_handle, new_handle, old_system, new_system
            )
        )

    def bind_snapshot(self, system: Hashable, snapshot: GraphSnapshot) -> None:
        """Bind a token identity to its snapshot on every shard."""
        handle = self._handle_for(snapshot)
        self._broadcast(lambda task_id: ("bind", task_id, system, handle))

    def checkpoint(self) -> int:
        """Flush every shard's cache to its store; total systems flushed."""
        payloads = self._broadcast(lambda task_id: ("checkpoint", task_id))
        return sum(payloads.values())

    def cache_info(self) -> Dict[str, int]:
        """Aggregate counters, key order preserved from shard 0."""
        payloads = self._broadcast(lambda task_id: ("cache_info", task_id))
        merged: Dict[str, int] = {}
        for task_id in sorted(payloads):
            for name, value in payloads[task_id].items():
                merged[name] = merged.get(name, 0) + value
        return merged

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 10.0) -> None:
        """Stop workers, join, and unlink every arena segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard, worker in enumerate(self._workers):
            if worker.is_alive():
                try:
                    self._tasks[shard].put(("stop", self._new_task()))
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)
        self._results.close()
        self._results.cancel_join_thread()
        self._arena.close()
        self._handles.clear()
        self._finalizer.detach()

    def __enter__(self) -> "ShardedPlanner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def dispatch_info(self) -> Dict[str, int]:
        """Shipping counters for benchmarks and tests."""
        return {
            "tasks_dispatched": self.tasks_dispatched,
            "task_bytes_shipped": self.task_bytes_shipped,
            "member_bytes_shipped": self.member_bytes_shipped,
            "segments_live": len(self._arena),
        }
