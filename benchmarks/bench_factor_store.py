"""Persistent factor store: delta compression and crash-safe warm restart.

The scenario the disk tier exists for: a serving planner answers batches
against an evolving snapshot chain, checkpoints its factor cache, and is
then restarted (crash, deploy, scale-out).  Without the store every cached
system cold-factorizes again on the first post-restart batch; with it the
warm boot restores every system from disk — bitwise-identically — with
zero factorizations.

Three measurements, each with an asserted acceptance floor:

* **delta compression** — refresh-produced systems spill as delta
  checkpoints (matrix + recorded Bennett delta, no factor payload); their
  files must be smaller than full checkpoints of the same systems;
* **restore vs cold** — restoring every checkpointed system (including
  delta replay) must be faster than cold-factorizing the same systems;
* **warm restart** — a fresh planner over the checkpoint directory must
  answer the whole chain's batches bitwise-identically to the pre-restart
  planner with zero factorizations.

Runs standalone in a few seconds::

    PYTHONPATH=src python benchmarks/bench_factor_store.py
    PYTHONPATH=src python benchmarks/bench_factor_store.py --nodes 150 --snapshots 12
"""

from __future__ import annotations

import argparse
import tempfile
import time
from typing import List

from repro.graphs.generators import evolving_chain
from repro.graphs.matrixkind import MatrixKind, measure_matrix
from repro.graphs.snapshot import GraphSnapshot
from repro.query import FactorCache, QueryBatch, QueryPlanner
from repro.query.spec import FactorizedSystem, SystemKey
from repro.store import FactorStore

from _shared import host_info_line

DAMPING = 0.85


def serve(chain: List[GraphSnapshot], planner: QueryPlanner) -> List:
    """Answer one 3-query batch per snapshot, registering lineage."""
    outcomes = []
    previous = None
    for snapshot in chain:
        if previous is not None:
            planner.register_evolution(previous, snapshot)
        batch = (
            QueryBatch()
            .add_pagerank(snapshot)
            .add_rwr(snapshot, 1)
            .add_rwr(snapshot, 2)
        )
        outcomes.append(planner.run(batch))
        previous = snapshot
    return outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=300, help="graph size")
    parser.add_argument("--snapshots", type=int, default=24, help="chain length")
    parser.add_argument("--added", type=int, default=3, help="edges added per step")
    parser.add_argument("--removed", type=int, default=2, help="edges removed per step")
    parser.add_argument("--seed", type=int, default=42, help="chain seed")
    args = parser.parse_args()
    print(host_info_line())

    chain = evolving_chain(args.nodes, args.snapshots, args.added, args.removed, args.seed)
    keys = [SystemKey(s, MatrixKind.RANDOM_WALK, DAMPING) for s in chain]

    with tempfile.TemporaryDirectory() as checkpoint_dir, \
            tempfile.TemporaryDirectory() as reference_dir:
        store = FactorStore(checkpoint_dir)
        planner = QueryPlanner(cache=FactorCache(store=store))
        outcomes = serve(chain, planner)
        refreshes = sum(o.stats.refreshes for o in outcomes)
        spilled = planner.checkpoint()
        if spilled != len(chain):
            raise SystemExit(f"FAIL: checkpointed {spilled}/{len(chain)} systems")

        # --- delta compression: compare against full checkpoints of the
        # same systems (written to a reference store).
        reference = FactorStore(reference_dir)
        for key in keys:
            reference.save_full(key, planner.cache.peek(key))
        delta_keys = [k for k in keys if store.path_for(k).endswith(".delta")]
        if len(delta_keys) != refreshes:
            raise SystemExit(
                f"FAIL: {refreshes} refreshes but {len(delta_keys)} delta files"
            )
        delta_bytes = [store.file_bytes(k) for k in delta_keys]
        full_bytes = [reference.file_bytes(k) for k in delta_keys]
        if not delta_keys or sum(delta_bytes) >= sum(full_bytes):
            raise SystemExit("FAIL: delta checkpoints not smaller than full")

        # --- restore vs cold on the identical set of systems.
        started = time.perf_counter()
        restorer = FactorStore(checkpoint_dir)
        restored = [restorer.load(k) for k in keys]
        restore_time = time.perf_counter() - started
        if any(system is None for system in restored):
            raise SystemExit("FAIL: a checkpointed system failed to restore")

        started = time.perf_counter()
        for snapshot in chain:
            FactorizedSystem.factorize(
                measure_matrix(snapshot, kind=MatrixKind.RANDOM_WALK, damping=DAMPING)
            )
        cold_time = time.perf_counter() - started

        # --- warm restart: a fresh planner over the checkpoint directory.
        warm_planner = QueryPlanner(cache=FactorCache(store=FactorStore(checkpoint_dir)))
        started = time.perf_counter()
        warm_outcomes = serve(chain, warm_planner)
        warm_time = time.perf_counter() - started
        warm_factorizations = sum(o.stats.factorizations for o in warm_outcomes)
        mismatches = sum(
            a.tobytes() != b.tobytes()
            for cold_batch, warm_batch in zip(outcomes, warm_outcomes)
            for a, b in zip(cold_batch, warm_batch)
        )

    speedup = cold_time / restore_time
    compression = sum(full_bytes) / sum(delta_bytes)
    info = warm_planner.cache_info()
    print(f"evolving chain: {args.snapshots} snapshots x "
          f"(+{args.added}/-{args.removed} edges), n={args.nodes}, "
          f"{refreshes} refreshes, {spilled} systems checkpointed")
    print(f"full checkpoint bytes/system : {sum(full_bytes) / len(delta_keys):9.0f}")
    print(f"delta checkpoint bytes/system: {sum(delta_bytes) / len(delta_keys):9.0f} "
          f"({compression:.2f}x smaller)")
    print(f"cold factorization           : {cold_time * 1e3:9.2f} ms "
          f"({len(chain)} systems)")
    print(f"store restore (incl. deltas) : {restore_time * 1e3:9.2f} ms "
          f"({speedup:.2f}x faster)")
    print(f"warm-restart serving         : {warm_time * 1e3:9.2f} ms, "
          f"{warm_factorizations} factorizations, "
          f"{info['store_hits']} store hits, {mismatches} bitwise mismatches")
    if warm_factorizations != 0:
        raise SystemExit("FAIL: warm restart still factorized cold")
    if mismatches != 0:
        raise SystemExit(f"FAIL: {mismatches} answers not bitwise identical")
    if speedup <= 1.0:
        raise SystemExit(f"FAIL: restore ({restore_time * 1e3:.1f} ms) not faster "
                         f"than cold ({cold_time * 1e3:.1f} ms)")
    print("PASS")


if __name__ == "__main__":
    main()
