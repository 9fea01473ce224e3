"""Deterministic differential workload for the resolution-ladder refactor.

This module is imported by ``tests/test_resolution_ladder.py`` and by the
one-shot golden generator.  It runs a fixed serving scenario per resolution
tier — cold, hit, store restore, verbatim reuse, corrected reuse, delta
refresh — across **every registered measure**, and digests each answer's
exact bytes.  The digests captured from the pre-refactor planner are
committed as ``tests/data/ladder_golden.json``; the refactored planner must
reproduce them bit for bit.

Nothing here may depend on planner internals beyond the public surface
(``QueryPlanner``, ``QueryBatch``, ``FactorCache``, stats attribute names)
so the identical code runs against both the monolithic and the ladder
planner.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import CorrectedPolicy, QCPolicy
from repro.query import QueryBatch, QueryPlanner
from repro.query.cache import FactorCache

GOLDEN_RELPATH = "data/ladder_golden.json"

_CONFIG = SyntheticEGSConfig(
    nodes=36,
    edge_pool_size=240,
    average_degree=3,
    add_remove_ratio=2,
    delta_edges=6,
    snapshots=4,
    directed=True,
    seed=90214,
)


def workload_snapshots() -> List[GraphSnapshot]:
    """The fixed evolving chain every scenario draws from."""
    return list(generate_synthetic_egs(_CONFIG).snapshots)


def all_measure_batch(snapshot: GraphSnapshot, damping: float = 0.85) -> QueryBatch:
    """One query per registered measure spec against ``snapshot``."""
    return (
        QueryBatch()
        .add_rwr(snapshot, start_node=3, damping=damping)
        .add_ppr(snapshot, seeds=(1, 5, 9), damping=damping)
        .add_pagerank(snapshot, damping=damping)
        .add_hitting_time(snapshot, target=4, damping=damping)
        .add_hitting_time(snapshot, target=7, damping=damping, shared=True)
        .add_salsa_authority(snapshot, damping=damping)
        .add_salsa_hub(snapshot, damping=damping)
    )


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _stats_dict(stats) -> Dict[str, int]:
    """Legacy-named counters — the refactor keeps these as derived properties."""
    return {
        "queries": stats.queries,
        "groups": stats.groups,
        "factorizations": stats.factorizations,
        "cache_hits": stats.cache_hits,
        "direct_answers": stats.direct_answers,
        "refreshes": stats.refreshes,
        "qc_reuses": stats.qc_reuses,
        "corrected_reuses": stats.corrected_reuses,
        "result_hits": stats.result_hits,
    }


def _records_dict(outcome) -> List[Dict[str, object]]:
    return [
        {
            "positions": list(record.positions),
            "similarity": record.similarity.hex(),
            "loss_estimate": record.loss_estimate.hex(),
            "rank": record.rank,
            "mode": record.mode,
        }
        for record in outcome.approximations
    ]


def _run(planner: QueryPlanner, batch: QueryBatch) -> Dict[str, object]:
    outcome = planner.run(batch)
    return {
        "answers": [_digest(answer) for answer in outcome.results],
        "stats": _stats_dict(outcome.stats),
        "records": _records_dict(outcome),
    }


def run_workload(store_dir: str) -> Dict[str, object]:
    """Run every tier scenario; return the JSON-serialisable transcript.

    ``store_dir`` is a fresh directory for the store-restore scenario's
    :class:`~repro.store.FactorStore`.
    """
    snaps = workload_snapshots()
    transcript: Dict[str, object] = {}

    # --- cold then hit: exact planner, same batch twice -------------------
    planner = QueryPlanner()
    transcript["cold"] = _run(planner, all_measure_batch(snaps[0]))
    hit_planner = QueryPlanner(cache=planner.cache, result_cache=0)
    transcript["hit"] = _run(hit_planner, all_measure_batch(snaps[0]))
    # Same batch through the result cache instead: direct answers.
    transcript["result_hit"] = _run(planner, all_measure_batch(snaps[0]))
    transcript["final_cache_info"] = planner.cache.cache_info()

    # --- verbatim (QC policy) reuse: similar sibling snapshot -------------
    qc = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
    transcript["verbatim_seed"] = _run(qc, all_measure_batch(snaps[0]))
    transcript["verbatim_reuse"] = _run(qc, all_measure_batch(snaps[1]))

    # --- corrected (rank-k SMW) reuse: bound too tight for verbatim -------
    corrected = QueryPlanner(
        policy=CorrectedPolicy(alpha=0.0, loss_bound=1e-3, max_rank=8)
    )
    transcript["corrected_seed"] = _run(corrected, all_measure_batch(snaps[0]))
    transcript["corrected_reuse"] = _run(corrected, all_measure_batch(snaps[1]))

    # --- delta refresh: registered evolution ------------------------------
    refresher = QueryPlanner()
    transcript["refresh_seed"] = _run(refresher, all_measure_batch(snaps[0]))
    refresher.register_evolution(snaps[0], snaps[1])
    transcript["refresh"] = _run(refresher, all_measure_batch(snaps[1]))
    transcript["refresh_cache_info"] = refresher.cache.cache_info()

    # --- store restore: checkpoint, then a cold cache over the same store -
    from repro.store import FactorStore

    store = FactorStore(store_dir)
    writer = QueryPlanner(cache=FactorCache(store=store))
    transcript["store_seed"] = _run(writer, all_measure_batch(snaps[0]))
    writer.cache.checkpoint()
    warm = QueryPlanner(cache=FactorCache(store=store))
    transcript["store_restore"] = _run(warm, all_measure_batch(snaps[0]))
    transcript["store_cache_info"] = warm.cache.cache_info()

    return transcript


def save_golden(path: str, store_dir: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run_workload(store_dir), handle, indent=1, sort_keys=True)
        handle.write("\n")
