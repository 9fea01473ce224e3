"""Sharded serving vs. the serial planner on a cold-dominated workload.

Replays an evolving-snapshot query stream — every batch mixes measures and
damping factors so it spans many distinct system keys, and every run starts
from an empty factor cache, so wall-clock is dominated by the Markowitz +
Crout factorizations that sharding distributes — once through the serial
:class:`~repro.query.planner.QueryPlanner` and once per shard count through
:class:`~repro.shard.planner.ShardedPlanner`.

Three properties are **gated**, not just reported (a non-zero exit fails CI):

1. every sharded answer is bitwise identical to the serial answer;
2. no dispatched task message contains a ``GraphSnapshot``, ``SparseMatrix``
   or ``LUFactors`` — snapshot/factor members never cross the process
   boundary (they travel once through the shared-memory arena; tasks carry
   only descriptors and handles);
3. sharded wall-clock stays within ``--tolerance`` of serial (pool spawn is
   excluded — the constructor's ready handshake completes before timing
   starts — so this measures steady-state dispatch overhead, which is what
   a persistent server pays).

On this container's single usable core sharding cannot be *faster*; the
benchmark records dispatch overhead and the per-task byte economics (actual
task bytes vs. what naively pickling the member-bearing queries would ship).
Re-running on a multi-core host to capture real speedup is a standing
ROADMAP task.

Runs standalone (and as the ~30s CI smoke)::

    PYTHONPATH=src python benchmarks/bench_shard_serving.py \
        [--nodes 72] [--snapshots 4] [--shards 1 2] [--tolerance 1.35] \
        [--output results/shard_serving.md]
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import sys
import time
from typing import Dict, List, Tuple

from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.factors import LUFactors
from repro.query import QueryBatch, QueryPlanner
from repro.shard import ShardedPlanner
from repro.sparse.csr import SparseMatrix

from _shared import host_info_line

DAMPINGS = (0.85, 0.6)

#: Objects no task message may carry (they travel through the arena).
MEMBER_TYPES = (GraphSnapshot, SparseMatrix, LUFactors)


def build_stream(nodes: int, snapshots: int) -> List[QueryBatch]:
    """One mixed-measure batch per snapshot of a synthetic evolving chain."""
    config = SyntheticEGSConfig(
        nodes=nodes,
        edge_pool_size=nodes * 7,
        average_degree=4,
        add_remove_ratio=2,
        delta_edges=max(4, nodes // 12),
        snapshots=snapshots,
        directed=True,
        seed=47,
    )
    stream = []
    for snapshot in generate_synthetic_egs(config).snapshots:
        batch = QueryBatch()
        for damping in DAMPINGS:
            batch = (
                batch
                .add_rwr(snapshot, start_node=3, damping=damping)
                .add_ppr(snapshot, seeds=(1, 5, 9), damping=damping)
                .add_pagerank(snapshot, damping=damping)
                .add_hitting_time(snapshot, target=4, damping=damping)
                .add_hitting_time(snapshot, target=7, damping=damping, shared=True)
                .add_salsa_authority(snapshot, damping=damping)
                .add_salsa_hub(snapshot, damping=damping)
            )
        stream.append(batch)
    return stream


def naive_member_bytes(stream: List[QueryBatch]) -> int:
    """Bytes a naive dispatcher would ship: the member-bearing queries."""
    return sum(
        len(pickle.dumps(list(batch), protocol=pickle.HIGHEST_PROTOCOL))
        for batch in stream
    )


def member_objects(messages: List[tuple]) -> List[str]:
    """Type names of the member objects anywhere inside ``messages``.

    The pickler's ``persistent_id`` hook sees every object it writes.
    """
    found: List[str] = []

    class _Walker(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, MEMBER_TYPES):
                found.append(type(obj).__name__)
            return None

    _Walker(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(messages)
    return found


def run_serial(stream: List[QueryBatch]) -> Tuple[List[bytes], float]:
    planner = QueryPlanner()
    started = time.perf_counter()
    answers = [a.tobytes() for batch in stream for a in planner.run(batch).results]
    return answers, time.perf_counter() - started


def run_sharded(
    stream: List[QueryBatch], shards: int
) -> Tuple[List[bytes], float, Dict[str, int], List[str]]:
    with ShardedPlanner(shards=shards) as planner:  # spawn excluded from timing
        messages: List[tuple] = []
        dispatch = planner._dispatch

        def recording(shard: int, message: tuple) -> int:
            messages.append(message)
            return dispatch(shard, message)

        planner._dispatch = recording
        started = time.perf_counter()
        answers = [
            a.tobytes() for batch in stream for a in planner.run(batch).results
        ]
        wall = time.perf_counter() - started
        info = planner.dispatch_info()
    return answers, wall, info, member_objects(messages)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=72)
    parser.add_argument("--snapshots", type=int, default=4)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tolerance", type=float, default=1.35,
                        help="max allowed sharded/serial wall-clock ratio")
    parser.add_argument("--output", type=str, default=None,
                        help="optional markdown file to record the results in")
    args = parser.parse_args()

    print(host_info_line())
    stream = build_stream(args.nodes, args.snapshots)
    queries = sum(len(batch) for batch in stream)
    naive_total = naive_member_bytes(stream)
    print(f"shard serving benchmark: n={args.nodes}, {len(stream)} batches, "
          f"{queries} queries, shards={args.shards}")

    serial_answers, serial_wall = run_serial(stream)
    print(f"  serial: {serial_wall:.3f}s")

    failures: List[str] = []
    rows: List[List[str]] = [[
        "serial", f"{serial_wall:.3f}", "1.00x", "-", "-", "-", "-",
    ]]
    for shards in args.shards:
        answers, wall, info, members = run_sharded(stream, shards)
        bitwise = answers == serial_answers
        tasks = info["tasks_dispatched"]
        task_bytes = info["task_bytes_shipped"] / max(tasks, 1)
        ratio = wall / serial_wall
        print(f"  shards={shards}: {wall:.3f}s ({ratio:.2f}x serial), "
              f"{tasks} tasks, {task_bytes:.0f} task B/task, "
              f"{len(members)} member objects, "
              f"bitwise={'ok' if bitwise else 'FAILED'}")
        if not bitwise:
            failures.append(f"shards={shards}: answers diverge from serial")
        if members:
            failures.append(
                f"shards={shards}: task messages carried {sorted(set(members))} "
                f"across the process boundary (must carry none)"
            )
        if ratio > args.tolerance:
            failures.append(
                f"shards={shards}: wall-clock {ratio:.2f}x serial exceeds the "
                f"{args.tolerance:.2f}x no-regression tolerance"
            )
        rows.append([
            f"sharded ({shards})",
            f"{wall:.3f}",
            f"{ratio:.2f}x",
            str(tasks),
            f"{task_bytes:.0f}",
            str(len(members)),
            "yes" if bitwise else "NO — INVALID RUN",
        ])

    naive_per_task = naive_total / max(len(stream), 1)
    header = ["configuration", "wall (s)", "vs serial", "tasks",
              "task bytes/task", "member objects", "bitwise"]
    lines = [
        "# Sharded serving: worker pool with shared-memory CSR",
        "",
        f"- date: {time.strftime('%Y-%m-%d')}",
        host_info_line(),
        f"- workload: {len(stream)} cold batches on an evolving chain "
        f"(n={args.nodes}), {queries} queries across all measures and "
        f"dampings {DAMPINGS} — factorization-dominated",
        "- pool spawn excluded (constructor ready-handshake completes before "
        "timing); gates: bitwise equality, no member objects in any task, "
        f"wall-clock within {args.tolerance:.2f}x of serial",
        f"- naive dispatch baseline: pickling the member-bearing queries "
        f"would ship {naive_per_task:.0f} bytes per batch task; descriptor "
        f"routing ships the arena handle instead",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines += [
        "",
        "On a single usable core the sharded rows measure steady-state "
        "dispatch overhead, not speedup — factor ownership is disjoint by "
        "digest routing, so a multi-core host splits the dominant "
        "factorization work ~evenly across shards; re-running there is a "
        "standing ROADMAP task.",
        "",
    ]
    markdown = "\n".join(lines)
    print()
    print(markdown)
    if args.output:
        output_path = args.output if os.path.isabs(args.output) else os.path.join(
            os.path.dirname(os.path.abspath(__file__)), args.output
        )
        os.makedirs(os.path.dirname(output_path), exist_ok=True)
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"recorded: {output_path}")

    if failures:
        print("\nGATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
