"""The benchmark's three workloads: inputs, one timed pass, output checks.

Every workload is built from a seed alone (the program receives only the
generated inputs), runs in one process with at most two threads (the
client/generator and the server's serving thread), and uses the serial
executor.  Each pass starts from cold program state -- a fresh solver or a
fresh server -- so passes over the same instance do identical work.

* ``ludem_wiki`` -- the paper's offline use: CLUDE-decompose a Wikipedia-like
  random-walk sequence, then answer a PageRank + RWR batch per snapshot from
  the seeded planner.  Static-pattern Bennett updates dominate.
* ``serve_refresh`` -- open loop: a Zipf-skewed query mix at a fixed offered
  rate against a ``MeasureServer`` that admits a small-delta update every few
  queries (exact policy, lineage on), so every head costs one Bennett refresh
  and repeats hit the result cache.
* ``serve_corrected`` -- closed loop: one caller per snapshot sends a burst at
  d=0.85 then at d=0.84 to a server under ``CorrectedPolicy`` without lineage,
  waiting for each burst; cached parents are read (rank-k SMW corrections,
  cross-damping shares) and about a third of systems are cold anchors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.solver import EMSSolver
from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.graphs.matrixkind import MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import CorrectedPolicy
from repro.query import QueryBatch, QueryPlanner, make_query
from repro.query.spec import Query
from repro.serve import MeasureServer

#: Relative-L1 tolerance of a refreshed or decomposed answer against a cold
#: factorization of the same system.
EXACT_TOLERANCE = 1e-8

#: Float slack on "actual deviation <= certified estimate": the cross-damping
#: bound is attained exactly on dangling-free graphs, up to roundoff.
BOUND_SLACK = 1e-9

#: Interpreter switch interval (seconds) while the open-loop generator runs.
GENERATOR_SWITCH_INTERVAL = 0.0005


def relative_l1(answer: np.ndarray, truth: np.ndarray) -> float:
    """Relative L1 deviation of ``answer`` from ``truth``."""
    return float(np.sum(np.abs(answer - truth)) / np.sum(np.abs(truth)))


@dataclasses.dataclass
class PassResult:
    """What one pass over one instance produced and measured."""

    #: seconds the pass took to process the whole sequence: wall time from
    #: the first request to the last answer for the closed loops, the
    #: server's busy time for the open loop (whose wall time is its schedule)
    sequence: float
    #: per-query latency in seconds, in input order
    latencies: List[float]
    #: per-query answers, in input order (``None`` for a failed query)
    answers: List[Optional[np.ndarray]]
    #: queries whose future failed or was cancelled
    failed: int
    #: mean stored L+U entries per factored system of the pass
    fill: float
    #: planned groups served per resolution tier
    tiers: Dict[str, int]
    #: seconds the program was busy serving (server batches, or the round)
    busy: float
    #: open loop: how late the generator submitted each query, in seconds
    lateness: List[float] = dataclasses.field(default_factory=list)
    #: serving passes: per-request queue seconds, and batch sizes
    queue: List[float] = dataclasses.field(default_factory=list)
    batch_sizes: List[int] = dataclasses.field(default_factory=list)
    #: result/factor cache lookups: hits and misses
    cache_info: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: approximate answers: position -> certified loss estimate
    estimates: Dict[int, float] = dataclasses.field(default_factory=dict)
    #: ludem_wiki: the solver's residual self-check (``None`` when it failed)
    verify_residual: Optional[float] = None
    #: reference host speed over the speed measured around the pass
    scale: float = 1.0


@dataclasses.dataclass
class CheckResult:
    """Outcome of checking one pass against its instance's reference."""

    wrong: int
    checked: int
    max_rel_dev: float


def _root(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _mean_fill(planner: QueryPlanner) -> float:
    cache = planner.cache
    sizes = [cache.peek(key).factors.fill_size for key in list(cache.keys())]
    return float(np.mean(sizes)) if sizes else 0.0


def _sum_tiers(into: Dict[str, int], resolutions: Dict[str, int]) -> None:
    for tier, count in resolutions.items():
        into[tier] = into.get(tier, 0) + count


def evolving_chain(
    rng: np.random.Generator, nodes: int, length: int, added: int, removed: int
) -> List[GraphSnapshot]:
    """A directed random graph (3 out-edges per node on average) evolving by
    ``+added/-removed`` edges per step."""
    edges = set()
    while len(edges) < nodes * 3:
        u, v = (int(x) for x in rng.integers(0, nodes, size=2))
        if u != v:
            edges.add((u, v))
    current = GraphSnapshot(nodes, edges)
    chain = [current]
    for _ in range(length - 1):
        existing = sorted(current.edges)
        dropped = {existing[int(rng.integers(0, len(existing)))] for _ in range(removed)}
        fresh = set()
        while len(fresh) < added:
            u, v = (int(x) for x in rng.integers(0, nodes, size=2))
            if u != v and (u, v) not in current.edges:
                fresh.add((u, v))
        current = current.with_edges(added=fresh, removed=dropped)
        chain.append(current)
    return chain


def _done_times(futures: Sequence, stamps: List[float], offset: int = 0) -> None:
    """Record each future's completion time into ``stamps`` (by position)."""
    for position, future in enumerate(futures):
        future.add_done_callback(
            lambda _f, i=offset + position: stamps.__setitem__(i, time.perf_counter())
        )


def _collect(futures: Sequence) -> Tuple[List[Optional[np.ndarray]], int]:
    answers: List[Optional[np.ndarray]] = []
    failed = 0
    for future in futures:
        try:
            answers.append(future.result())
        except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
            answers.append(None)
            failed += 1
    return answers, failed


def _server_observations(server: MeasureServer, result: PassResult) -> None:
    """Copy the server's own per-request records and counters into a pass."""
    records = server.request_records()
    stats = server.stats()
    result.queue = [record.queue for record in records]
    result.busy = sum(record.solve / record.batch_size for record in records)
    result.batch_sizes = [
        size for size, count in sorted(stats.batch_size_histogram.items())
        for _ in range(count)
    ]
    result.tiers = dict(stats.resolutions)
    result.cache_info = dict(stats.planner_cache_info)


# ---------------------------------------------------------------------- #
# ludem_wiki
# ---------------------------------------------------------------------- #
class LudemWiki:
    """Offline CLUDE over a Wikipedia-like sequence, then a series batch per
    snapshot through the seeded planner (the paper's LUDEM use)."""

    name = "ludem_wiki"
    instances = 4
    config = {
        "pages": 300, "snapshots": 40, "initial_links": 1500, "final_links": 1875,
        "churn_per_day": 2, "kind": "RANDOM_WALK", "algorithm": "CLUDE",
        "alpha": 0.95, "rwr_per_snapshot": 3, "checked_snapshots": 4,
        "loop": "closed, one caller",
    }

    @dataclasses.dataclass
    class Instance:
        egs: object
        batches: List[QueryBatch]
        sampled: List[int]
        spare: List[EMSSolver]
        reference: Optional[Dict[int, List[np.ndarray]]] = None

        def solver(self) -> EMSSolver:
            if self.spare:
                return self.spare.pop()
            return _compose(self.egs)

    def build(self, seed: int) -> "LudemWiki.Instance":
        c = self.config
        egs = generate_wiki_egs(WikiConfig(
            pages=c["pages"], snapshots=c["snapshots"],
            initial_links=c["initial_links"], final_links=c["final_links"],
            churn_per_day=c["churn_per_day"], tracked_page=17,
            event_gain_day=12, event_dilute_day=30, seed=seed,
        ))
        rng = np.random.default_rng(seed)
        batches = []
        for snapshot in egs:
            batch = QueryBatch().add_pagerank(snapshot)
            for node in rng.choice(c["pages"], size=c["rwr_per_snapshot"], replace=False):
                batch.add_rwr(snapshot, int(node))
            batches.append(batch)
        inner = rng.choice(np.arange(1, len(batches) - 1), size=c["checked_snapshots"] - 2,
                           replace=False)
        sampled = sorted({0, len(batches) - 1, *(int(i) for i in inner)})
        return self.Instance(egs=egs, batches=batches, sampled=sampled,
                             spare=[_compose(egs)])

    def run_pass(self, instance: "LudemWiki.Instance", tracer=None) -> PassResult:
        solver = instance.solver()
        latencies: List[float] = []
        answers: List[Optional[np.ndarray]] = []
        tiers: Dict[str, int] = {}
        started = time.perf_counter()
        with _root(tracer, "bench.round"):
            solver.decompose()
            for batch in instance.batches:
                issued = time.perf_counter()
                outcome = solver.run_batch(batch)
                latency = time.perf_counter() - issued
                latencies.extend([latency] * len(batch))
                answers.extend(outcome.results)
                _sum_tiers(tiers, outcome.stats.resolutions)
        wall = time.perf_counter() - started
        result = PassResult(
            sequence=wall, latencies=latencies, answers=answers, failed=0,
            fill=float(solver.result.summary()["mean_fill_size"]), tiers=tiers,
            busy=wall, cache_info=solver.planner_cache_info(),
            verify_residual=_verify(solver),
        )
        return result

    def check(self, instance: "LudemWiki.Instance", result: PassResult) -> CheckResult:
        if instance.reference is None:
            planner = QueryPlanner()
            instance.reference = {
                index: planner.run(instance.batches[index]).results
                for index in instance.sampled
            }
        wrong = 0 if result.verify_residual is not None else len(result.answers)
        checked = 0
        worst = 0.0
        per_batch = len(instance.batches[0])
        for index, truths in instance.reference.items():
            for offset, truth in enumerate(truths):
                answer = result.answers[index * per_batch + offset]
                checked += 1
                deviation = relative_l1(answer, truth) if answer is not None else np.inf
                worst = max(worst, deviation)
                wrong += int(not deviation <= EXACT_TOLERANCE)
        return CheckResult(wrong=wrong, checked=checked, max_rel_dev=worst)


def _compose(egs) -> EMSSolver:
    return EMSSolver.from_graphs(
        egs, kind=MatrixKind.RANDOM_WALK, algorithm=LudemWiki.config["algorithm"],
        alpha=LudemWiki.config["alpha"],
    )


def _verify(solver: EMSSolver) -> Optional[float]:
    """The solver's own residual self-check; ``None`` when it fails."""
    try:
        return solver.verify()
    except Exception:  # noqa: BLE001 - a failed check is counted, not fatal
        return None


# ---------------------------------------------------------------------- #
# serve_refresh
# ---------------------------------------------------------------------- #
def zipf_mix(
    rng: np.random.Generator, snapshot: GraphSnapshot, count: int,
    pool: np.ndarray, weights: np.ndarray,
) -> List[Query]:
    """``count`` queries: 60% rwr, 30% ppr, 10% pagerank over a hot-key pool."""
    queries = []
    keys = rng.choice(pool, size=count, p=weights)
    kinds = rng.random(count)
    for key, kind in zip(keys, kinds):
        node = int(key)
        if kind < 0.6:
            queries.append(make_query("rwr", snapshot, start_node=node))
        elif kind < 0.9:
            other = int(pool[int(rng.integers(0, len(pool)))])
            queries.append(make_query("ppr", snapshot, seeds=(node, other)))
        else:
            queries.append(make_query("pagerank", snapshot))
    return queries


class ServeRefresh:
    """Open-loop Zipf traffic at a fixed rate with a small-delta update every
    ``queries_per_head`` queries; exact policy with lineage (Bennett refresh)."""

    name = "serve_refresh"
    instances = 4
    config = {
        "nodes": 400, "heads": 20, "queries_per_head": 40, "added": 3, "removed": 2,
        "rate_qps": 200.0, "hot_keys": 12, "zipf": 1.1, "policy": "exact",
        "register_lineage": True, "max_batch": 32, "max_wait_ms": 2.0,
        "loop": "open, one generator thread",
    }

    @dataclasses.dataclass
    class Instance:
        chain: List[GraphSnapshot]
        queries: List[Query]
        reference: Optional[List[np.ndarray]] = None

    def build(self, seed: int) -> "ServeRefresh.Instance":
        c = self.config
        rng = np.random.default_rng(seed)
        chain = evolving_chain(rng, c["nodes"], c["heads"], c["added"], c["removed"])
        pool = rng.choice(c["nodes"], size=c["hot_keys"], replace=False)
        ranks = np.arange(c["hot_keys"], dtype=float)
        weights = 1.0 / np.power(ranks + 1.0, c["zipf"])
        weights /= weights.sum()
        queries = []
        for snapshot in chain:
            queries.extend(zipf_mix(rng, snapshot, c["queries_per_head"], pool, weights))
        return self.Instance(chain=chain, queries=queries)

    def run_pass(self, instance: "ServeRefresh.Instance", tracer=None) -> PassResult:
        c = self.config
        per_head = c["queries_per_head"]
        interval = 1.0 / c["rate_qps"]
        count = len(instance.queries)
        done = [0.0] * count
        futures = []
        lateness = []
        server = MeasureServer(max_batch=c["max_batch"], max_wait_ms=c["max_wait_ms"],
                               register_lineage=c["register_lineage"])
        # The generator must keep its schedule while the serving thread runs
        # Python code: a shorter switch interval bounds how long its wake-up
        # waits for the interpreter lock (the default is 5 ms, one interval).
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL)
        try:
            start = time.perf_counter() + 0.005
            for index, query in enumerate(instance.queries):
                due = start + index * interval
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                if index % per_head == 0:
                    server.admit_update(instance.chain[index // per_head])
                lateness.append(time.perf_counter() - due)
                future = server.submit(query)
                _done_times([future], done, index)
                futures.append(future)
            server.flush()
            answers, failed = _collect(futures)
            result = PassResult(
                sequence=0.0,
                latencies=[done[i] - (start + i * interval) for i in range(count)],
                answers=answers, failed=failed, fill=_mean_fill(server.planner),
                tiers={}, busy=0.0, lateness=lateness,
            )
            _server_observations(server, result)
            result.sequence = result.busy
        finally:
            sys.setswitchinterval(switch_interval)
            server.close()
        return result

    def check(self, instance: "ServeRefresh.Instance", result: PassResult) -> CheckResult:
        if instance.reference is None:
            planner = QueryPlanner()
            per_head = self.config["queries_per_head"]
            instance.reference = []
            for start in range(0, len(instance.queries), per_head):
                batch = QueryBatch(instance.queries[start:start + per_head])
                instance.reference.extend(planner.run(batch).results)
        wrong = 0
        worst = 0.0
        for answer, truth in zip(result.answers, instance.reference):
            deviation = relative_l1(answer, truth) if answer is not None else np.inf
            worst = max(worst, deviation)
            wrong += int(not deviation <= EXACT_TOLERANCE)
        return CheckResult(wrong=wrong, checked=len(result.answers), max_rel_dev=worst)


# ---------------------------------------------------------------------- #
# serve_corrected
# ---------------------------------------------------------------------- #
class ServeCorrected:
    """Closed loop: per snapshot, a burst at d=0.85 then the same at d=0.84,
    each awaited, against a server under ``CorrectedPolicy`` without lineage."""

    name = "serve_corrected"
    instances = 4
    config = {
        "nodes": 300, "snapshots": 24, "added": 3, "removed": 2, "rwr_per_burst": 3,
        "dampings": [0.85, 0.84], "policy": "CorrectedPolicy", "alpha": 0.8,
        "loss_bound": 1.0, "max_rank": 10, "register_lineage": False,
        "max_batch": 64, "max_wait_ms": 1000.0, "loop": "closed, one caller",
    }

    @dataclasses.dataclass
    class Instance:
        chain: List[GraphSnapshot]
        bursts: List[List[Query]]
        reference: Optional[List[np.ndarray]] = None

    def build(self, seed: int) -> "ServeCorrected.Instance":
        c = self.config
        rng = np.random.default_rng(seed)
        chain = evolving_chain(rng, c["nodes"], c["snapshots"], c["added"], c["removed"])
        bursts = []
        for snapshot in chain:
            nodes = [int(x) for x in rng.choice(c["nodes"], size=c["rwr_per_burst"],
                                                replace=False)]
            for damping in c["dampings"]:
                burst = [make_query("pagerank", snapshot, damping=damping)]
                burst += [make_query("rwr", snapshot, damping=damping, start_node=node)
                          for node in nodes]
                bursts.append(burst)
        return self.Instance(chain=chain, bursts=bursts)

    def _policy(self) -> CorrectedPolicy:
        c = self.config
        return CorrectedPolicy(alpha=c["alpha"], loss_bound=c["loss_bound"],
                               max_rank=c["max_rank"])

    def run_pass(self, instance: "ServeCorrected.Instance", tracer=None) -> PassResult:
        c = self.config
        per_snapshot = len(c["dampings"])
        count = sum(len(burst) for burst in instance.bursts)
        done = [0.0] * count
        latencies: List[float] = []
        answers: List[Optional[np.ndarray]] = []
        failed = 0
        server = MeasureServer(policy=self._policy(), max_batch=c["max_batch"],
                               max_wait_ms=c["max_wait_ms"],
                               register_lineage=c["register_lineage"])
        try:
            started = time.perf_counter()
            position = 0
            for index, burst in enumerate(instance.bursts):
                if index % per_snapshot == 0:
                    server.admit_update(instance.chain[index // per_snapshot]).result()
                issued = time.perf_counter()
                futures = [server.submit(query) for query in burst]
                _done_times(futures, done, position)
                server.flush()
                burst_answers, burst_failed = _collect(futures)
                answers.extend(burst_answers)
                failed += burst_failed
                latencies.extend(done[position + i] - issued for i in range(len(burst)))
                position += len(burst)
            wall = time.perf_counter() - started
            result = PassResult(
                sequence=wall, latencies=latencies, answers=answers, failed=failed,
                fill=_mean_fill(server.planner), tiers={}, busy=0.0,
            )
            _server_observations(server, result)
            result.estimates = _approximate_estimates(server, instance.bursts)
        finally:
            server.close()
        return result

    def check(self, instance: "ServeCorrected.Instance", result: PassResult) -> CheckResult:
        if instance.reference is None:
            planner = QueryPlanner()
            instance.reference = []
            for burst in instance.bursts:
                instance.reference.extend(planner.run(QueryBatch(burst)).results)
        wrong = 0
        worst = 0.0
        for position, (answer, truth) in enumerate(zip(result.answers, instance.reference)):
            if answer is None:
                wrong += 1
                continue
            estimate = result.estimates.get(position)
            if estimate is None:
                wrong += int(answer.tobytes() != truth.tobytes())
                continue
            deviation = relative_l1(answer, truth)
            worst = max(worst, deviation)
            wrong += int(not deviation <= estimate * (1.0 + BOUND_SLACK) + 1e-12)
        return CheckResult(wrong=wrong, checked=len(result.answers), max_rel_dev=worst)


def _approximate_estimates(
    server: MeasureServer, bursts: List[List[Query]]
) -> Dict[int, float]:
    """Map each approximately answered position to its certified estimate.

    Every burst is one batch (the caller flushes and waits), and a burst's
    queries share one system, so each approximate batch carries exactly one
    audit record; records arrive in batch order.  The server keeps its latest
    64 records, more than a pass's 48 batches.
    """
    records = server.request_records()
    audit = list(server.stats().recent_approximations)
    estimates: Dict[int, float] = {}
    position = 0
    for burst in bursts:
        flags = [record.approximate for record in records[position:position + len(burst)]]
        if any(flags):
            record = audit.pop(0)
            for offset in record.positions:
                estimates[position + offset] = record.loss_estimate
        position += len(burst)
    return estimates


WORKLOADS: Dict[str, Callable[[], object]] = {
    LudemWiki.name: LudemWiki,
    ServeRefresh.name: ServeRefresh,
    ServeCorrected.name: ServeCorrected,
}


def threads_alive() -> int:
    """Threads other than the main one still running (must be 0 at exit)."""
    return sum(1 for thread in threading.enumerate()
               if thread is not threading.main_thread() and thread.is_alive())
