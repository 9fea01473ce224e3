"""Deterministic differential workload for sharded vs. serial serving.

The PR-9 golden harness (``tests/ladder_workload.py``) pinned the serial
planner's exact bytes per resolution tier.  This module re-expresses that
scenario sweep against a *planner factory*, so the identical code drives
both a serial :class:`~repro.query.planner.QueryPlanner` and a
:class:`~repro.shard.planner.ShardedPlanner` with any shard count — the
transcripts (answer digests, legacy stats, per-tier resolution counts,
approximation records, cache counters) must compare equal, which is the
bitwise sharded == serial contract across all six tiers:

- ``cold`` / ``hit``: first and second identical batch on a planner with
  the result cache disabled (second run hits the factor cache);
- ``result_hit``: second identical batch with the result cache on;
- ``verbatim_seed`` / ``verbatim_reuse``: QC policy answers a sibling
  snapshot from the seeded factors verbatim;
- ``corrected_seed`` / ``corrected_reuse``: rank-k SMW-corrected reuse
  under a bound too tight for verbatim;
- ``refresh_seed`` / ``refresh``: registered evolution Bennett-refreshes
  the parent factors;
- ``store_seed`` / ``store_restore``: checkpoint to a factor store, then
  a fresh planner over the same directory restores from disk.

Factories only receive settings that replicate across worker processes
(``policy`` / ``result_cache`` / ``store`` as a directory path) —
instance sharing like ``cache=`` is exactly what sharding replaces; the
serial factory attaches the store as ``cache=FactorCache(store=...)``.
"""

from __future__ import annotations

import io
import pickle
from typing import Callable, Dict, Iterable, List

from ladder_workload import (
    _digest,
    _records_dict,
    _stats_dict,
    all_measure_batch,
    workload_snapshots,
)

from repro.graphs.snapshot import GraphSnapshot
from repro.lu.factors import LUFactors
from repro.query import FactorCache, QueryBatch, QueryPlanner
from repro.sparse.csr import SparseMatrix

PlannerFactory = Callable[..., object]

#: Objects no shard task message may carry: snapshots and matrices travel
#: once through the shared-memory arena, factors stay in their worker.
MEMBER_TYPES = (GraphSnapshot, SparseMatrix, LUFactors)


def record_dispatches(planner) -> List[tuple]:
    """Collect every task message a ``ShardedPlanner`` dispatches from now on."""
    messages: List[tuple] = []
    dispatch = planner._dispatch

    def recording(shard: int, message: tuple) -> int:
        messages.append(message)
        return dispatch(shard, message)

    planner._dispatch = recording
    return messages


def member_objects(messages: Iterable[tuple]) -> List[str]:
    """Type names of the snapshot, matrix or factor objects in ``messages``.

    The messages are pickled the way the task queue ships them; the
    pickler's ``persistent_id`` hook sees every object written, however
    deeply nested.
    """
    found: List[str] = []

    class _Walker(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, MEMBER_TYPES):
                found.append(type(obj).__name__)
            return None

    _Walker(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(list(messages))
    return found


def serial_factory(**kwargs) -> QueryPlanner:
    """The reference planner; ``store`` arrives as a directory path."""
    store_dir = kwargs.pop("store", None)
    if store_dir is not None:
        from repro.store import FactorStore

        kwargs["cache"] = FactorCache(store=FactorStore(store_dir))
    return QueryPlanner(**kwargs)


def sharded_factory(shards: int) -> PlannerFactory:
    """A factory producing ``ShardedPlanner(shards=shards, ...)``."""
    from repro.shard import ShardedPlanner

    def factory(**kwargs) -> object:
        return ShardedPlanner(shards=shards, **kwargs)

    return factory


def _close(planner: object) -> None:
    close = getattr(planner, "close", None)
    if close is not None:
        close()


def _run(planner, batch: QueryBatch) -> Dict[str, object]:
    outcome = planner.run(batch)
    return {
        "answers": [_digest(answer) for answer in outcome.results],
        "stats": _stats_dict(outcome.stats),
        "resolutions": dict(outcome.stats.resolutions),
        "records": _records_dict(outcome),
    }


def run_workload(factory: PlannerFactory, store_dir: str) -> Dict[str, object]:
    """Run every tier scenario; return the comparable transcript."""
    snaps = workload_snapshots()
    transcript: Dict[str, object] = {}

    # --- cold then hit: same batch twice, factor cache only ---------------
    planner = factory(result_cache=0)
    try:
        transcript["cold"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["hit"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["hit_cache_info"] = planner.cache_info()
    finally:
        _close(planner)

    # --- result hit: same batch twice through the result cache ------------
    planner = factory()
    try:
        transcript["result_seed"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["result_hit"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["result_cache_info"] = planner.cache_info()
    finally:
        _close(planner)

    # --- verbatim (QC policy) reuse: similar sibling snapshot -------------
    from repro.policy import CorrectedPolicy, QCPolicy

    planner = factory(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
    try:
        transcript["verbatim_seed"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["verbatim_reuse"] = _run(planner, all_measure_batch(snaps[1]))
    finally:
        _close(planner)

    # --- corrected (rank-k SMW) reuse: bound too tight for verbatim -------
    planner = factory(policy=CorrectedPolicy(alpha=0.0, loss_bound=1e-3, max_rank=8))
    try:
        transcript["corrected_seed"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["corrected_reuse"] = _run(planner, all_measure_batch(snaps[1]))
    finally:
        _close(planner)

    # --- delta refresh: registered evolution ------------------------------
    planner = factory()
    try:
        transcript["refresh_seed"] = _run(planner, all_measure_batch(snaps[0]))
        planner.register_evolution(snaps[0], snaps[1])
        transcript["refresh"] = _run(planner, all_measure_batch(snaps[1]))
        transcript["refresh_cache_info"] = planner.cache_info()
    finally:
        _close(planner)

    # --- store restore: checkpoint, then a fresh planner over the store ---
    planner = factory(store=store_dir)
    try:
        transcript["store_seed"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["checkpointed"] = planner.checkpoint()
    finally:
        _close(planner)
    planner = factory(store=store_dir)
    try:
        transcript["store_restore"] = _run(planner, all_measure_batch(snaps[0]))
        transcript["store_cache_info"] = planner.cache_info()
    finally:
        _close(planner)

    return transcript
