"""Serving gates on fixed small workloads: reuse pays, and stays exact or certified.

The paper's case for CLUDE is reuse: factors built once serve many
snapshots.  Each group of tests below replays one serving scenario at a
fixed size and holds it to fixed gates:

* **Planner amortization** -- a mixed RWR/PPR/PageRank batch answered by
  one planner against per-query solving.
* **Delta refresh and QC reuse** -- one batch per snapshot of an evolving
  chain, served exactly (cold), with Bennett refresh along the lineage, and
  under a :class:`~repro.policy.qc.QCPolicy`.
* **Corrected reuse** -- the same chain with a second damping, served
  exactly, under verbatim-only QC and under
  :class:`~repro.policy.corrected.CorrectedPolicy`.
* **Serving replay** -- a Zipf-skewed query stream through a
  :class:`~repro.serve.MeasureServer`.

Speed floors compare the wall time of two runs in this process.  On a 2-core
container the planner measured 10-13x against its 2x floor, refresh
2.1-2.4x and QC 8.6-11x against their 1.2x floors.  ``perfbench/`` is where serving speed is
measured and recorded.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, List, Tuple

import numpy as np
import pytest

from repro.core.quality import reuse_loss_bound
from repro.graphs.generators import evolving_chain, growing_egs
from repro.graphs.matrixkind import MatrixKind, damping_delta, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.pagerank import pagerank_scores
from repro.measures.ppr import ppr_scores
from repro.measures.rwr import rwr_scores
from repro.policy import CorrectedPolicy, QCPolicy
from repro.query import BatchResult, QueryBatch, QueryPlanner, make_query
from repro.serve import MeasureServer

SEED = 42

#: Float slack on "actual deviation <= certified estimate": the cross-damping
#: bound is attained exactly on dangling-free chains, up to roundoff.
BOUND_SLACK = 1e-9

Run = Tuple[List[float], List[Tuple[QueryBatch, BatchResult]]]


def serve(
    chain: List[GraphSnapshot],
    planner: QueryPlanner,
    batches: Callable[[GraphSnapshot], List[QueryBatch]],
    lineage: bool = False,
) -> Run:
    """Run each snapshot's ``batches`` in turn; return the seconds spent per
    snapshot and every ``(batch, result)`` pair in order."""
    times: List[float] = []
    served: List[Tuple[QueryBatch, BatchResult]] = []
    for position, snapshot in enumerate(chain):
        if lineage and position:
            planner.register_evolution(chain[position - 1], snapshot)
        started = time.perf_counter()
        served.extend((batch, planner.run(batch)) for batch in batches(snapshot))
        times.append(time.perf_counter() - started)
    return times, served


def three_queries(snapshot: GraphSnapshot) -> List[QueryBatch]:
    return [QueryBatch().add_pagerank(snapshot).add_rwr(snapshot, 1).add_rwr(snapshot, 2)]


def two_dampings(snapshot: GraphSnapshot) -> List[QueryBatch]:
    """The d=0.85 pair, then PageRank at d=0.84 as its own batch, so a system
    the first batch cold-anchored is visible to the cross-damping scan."""
    return [
        QueryBatch().add_pagerank(snapshot).add_rwr(snapshot, 1),
        QueryBatch().add_pagerank(snapshot, damping=0.84),
    ]


def total(run: Run, counter: str) -> int:
    return sum(getattr(result.stats, counter) for _, result in run[1])


def steady_speedup(baseline: Run, run: Run) -> float:
    """Speedup over ``baseline`` with snapshot 0, a cold start for both, left out."""
    return sum(baseline[0][1:]) / sum(run[0][1:])


def relative_l1(answer: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum(np.abs(answer - truth)) / np.sum(np.abs(truth)))


def approximate_answers(run: Run, exact: Run):
    """Yield ``(record, batch, [actual deviation of each answered position])``."""
    for (batch, result), (_, truth) in zip(run[1], exact[1]):
        for record in result.approximations:
            deviations = [
                relative_l1(result[position], truth[position])
                for position in record.positions
            ]
            yield record, batch, deviations


# ---------------------------------------------------------------------- #
# Planner amortization: n=120, 64 queries, 2 snapshots x 2 dampings
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def planner_runs():
    """64 queries cycling RWR/PPR/PageRank, snapshot and damping, so the batch
    holds 4 distinct systems.  Per-query solving builds a fresh solver (and
    factorization) per query; each planner run starts from a cold cache.
    Returns the best of 3 runs of each, and their answers."""
    egs = growing_egs(nodes=120, snapshots=2, initial_edges=360, edges_per_step=30, seed=SEED)
    batch = QueryBatch()
    naive = []
    rng = np.random.default_rng(7)
    for position in range(64):
        snapshot = egs[position % 2]
        damping = (0.85, 0.6)[(position // 2) % 2]
        if position % 3 == 0:
            start = int(rng.integers(0, 120))
            batch.add_rwr(snapshot, start, damping=damping)
            naive.append(lambda s=snapshot, u=start, d=damping: rwr_scores(s, u, damping=d))
        elif position % 3 == 1:
            seeds = tuple(int(x) for x in rng.choice(120, size=3, replace=False))
            batch.add_ppr(snapshot, seeds, damping=damping)
            naive.append(lambda s=snapshot, q=seeds, d=damping: ppr_scores(s, q, damping=d))
        else:
            batch.add_pagerank(snapshot, damping=damping)
            naive.append(lambda s=snapshot, d=damping: pagerank_scores(s, damping=d))
    naive_times, planner_times = [], []
    for _ in range(3):
        started = time.perf_counter()
        expected = [thunk() for thunk in naive]
        naive_times.append(time.perf_counter() - started)
    for _ in range(3):
        planner = QueryPlanner()
        started = time.perf_counter()
        outcome = planner.run(batch)
        planner_times.append(time.perf_counter() - started)
    return SimpleNamespace(
        expected=expected, outcome=outcome, speedup=min(naive_times) / min(planner_times)
    )


def test_planner_answers_like_per_query_solves(planner_runs):
    """Bitwise equal answers, and one factorization per distinct system."""
    for answer, reference in zip(planner_runs.outcome, planner_runs.expected):
        assert answer.tobytes() == reference.tobytes()
    stats = planner_runs.outcome.stats
    assert stats.factorizations == stats.groups


def test_planner_beats_per_query_solves_twofold(planner_runs):
    assert planner_runs.speedup >= 2.0


# ---------------------------------------------------------------------- #
# Delta refresh and QC reuse: n=150, 16 snapshots, +3/-2 edges per step
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def chain_runs():
    """PageRank + two RWR queries per snapshot, served three ways over one chain:
    cold (a fresh factorization per snapshot), with refresh (each snapshot
    registered as an evolution of the previous one, so it Bennett-updates the
    previous factors) and under ``QCPolicy(alpha=0.9, loss_bound=6.0)``."""
    chain = evolving_chain(150, 16, 3, 2, SEED)
    return SimpleNamespace(
        exact=serve(chain, QueryPlanner(), three_queries),
        refresh=serve(chain, QueryPlanner(), three_queries, lineage=True),
        qc=serve(chain, QueryPlanner(policy=QCPolicy(alpha=0.9, loss_bound=6.0)), three_queries),
        snapshots=len(chain),
    )


def test_refresh_matches_cold_and_refreshes_every_step(chain_runs):
    """Refreshed answers within 1e-8 (max abs) of cold ones, and every
    snapshot after the first is refreshed unless it was factorized."""
    for (_, refreshed), (_, cold) in zip(chain_runs.refresh[1], chain_runs.exact[1]):
        for answer, reference in zip(refreshed, cold):
            assert float(np.max(np.abs(answer - reference))) <= 1e-8
    refactorizations = total(chain_runs.refresh, "factorizations")
    assert total(chain_runs.refresh, "refreshes") >= chain_runs.snapshots - 1 - refactorizations


def test_refresh_beats_cold_serving(chain_runs):
    assert steady_speedup(chain_runs.exact, chain_runs.refresh) >= 1.2


def test_qc_answers_stay_within_their_certified_estimates(chain_runs):
    """Every QC reuse reports an estimate within the policy's bound, and the
    actual relative L1 deviation of each answer stays within that estimate."""
    for record, _, deviations in approximate_answers(chain_runs.qc, chain_runs.exact):
        assert record.loss_estimate <= 6.0
        assert all(deviation <= record.loss_estimate for deviation in deviations)


def test_qc_factorizes_less_and_beats_exact_serving(chain_runs):
    assert total(chain_runs.qc, "factorizations") < total(chain_runs.exact, "factorizations")
    assert steady_speedup(chain_runs.exact, chain_runs.qc) >= 1.2


# ---------------------------------------------------------------------- #
# Corrected reuse: n=150, 12 snapshots, a second damping per snapshot
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corrected_runs():
    """The chain served exactly, under verbatim-only ``QCPolicy`` and under
    ``CorrectedPolicy`` (alpha=0.8, loss_bound=1.0, max_rank=10).  The bound
    is too tight for most verbatim reuse; the corrected tier applies the
    delta's dominant columns exactly and certifies only the rest."""
    chain = evolving_chain(150, 12, 3, 2, SEED)
    return SimpleNamespace(
        exact=serve(chain, QueryPlanner(), two_dampings),
        qc=serve(chain, QueryPlanner(policy=QCPolicy(alpha=0.8, loss_bound=1.0)), two_dampings),
        corrected=serve(chain, QueryPlanner(policy=CorrectedPolicy(
            alpha=0.8, loss_bound=1.0, max_rank=10
        )), two_dampings),
    )


def test_corrected_and_cross_damping_tiers_trigger(corrected_runs):
    assert total(corrected_runs.corrected, "corrected_reuses") > 0
    modes = {
        record.mode
        for record, _, _ in approximate_answers(corrected_runs.corrected, corrected_runs.exact)
    }
    assert "cross-damping" in modes


def test_corrected_answers_stay_within_their_certified_estimates(corrected_runs):
    for record, _, deviations in approximate_answers(corrected_runs.corrected, corrected_runs.exact):
        assert record.loss_estimate <= 1.0
        for deviation in deviations:
            assert deviation <= record.loss_estimate * (1.0 + BOUND_SLACK) + 1e-12


def test_rank_k_bounds_beat_the_verbatim_bound(corrected_runs):
    """An applied correction buys a strictly tighter bound than answering
    verbatim from the same parent would have."""
    tighter = 0
    for record, batch, _ in approximate_answers(corrected_runs.corrected, corrected_runs.exact):
        if record.rank < 1:
            continue
        damping = batch[record.positions[0]].damping
        if record.mode == "corrected":
            entries = system_delta(
                record.parent_system, record.system,
                kind=MatrixKind.RANDOM_WALK, damping=damping,
            )
            verbatim = reuse_loss_bound(entries, damping)
        else:
            entries = damping_delta(
                record.system, MatrixKind.RANDOM_WALK, from_damping=0.85, to_damping=damping
            )
            verbatim = reuse_loss_bound(entries, 0.85)
        assert record.loss_estimate < verbatim
        tighter += 1
    assert tighter > 0


def test_corrected_factorizes_less_and_serves_twice_the_qc_groups(corrected_runs):
    """Corrected serving cold-factorizes less than exact serving, and serves
    at least twice as many groups without a factorization as verbatim QC."""
    corrected = corrected_runs.corrected
    assert total(corrected, "factorizations") < total(corrected_runs.exact, "factorizations")
    served = total(corrected, "qc_reuses") + total(corrected, "corrected_reuses")
    assert served / max(total(corrected_runs.qc, "qc_reuses"), 1) >= 2.0


# ---------------------------------------------------------------------- #
# Serving replay: n=120, 6 snapshots x 25 queries, windows of 8
# ---------------------------------------------------------------------- #
def replay(chain, bursts, lineage: bool):
    """Admit each snapshot, submit its burst and flush; return answers and stats."""
    answers = []
    with MeasureServer(max_batch=8, max_wait_ms=5.0, register_lineage=lineage) as server:
        for snapshot, burst in zip(chain, bursts):
            server.admit_update(snapshot)
            futures = [server.submit(query) for query in burst]
            server.flush()
            answers.extend(future.result() for future in futures)
        return answers, server.stats()


@pytest.fixture(scope="module")
def replay_runs():
    """A Zipf(1.1) mix of RWR/PPR/PageRank over 12 hot keys, 25 queries per
    snapshot.  The window (8) is smaller than the burst, so repeats cross
    batch boundaries.  The run without lineage is compared with one-shot
    planner runs; the run with lineage refreshes each new head."""
    chain = evolving_chain(120, 6, 3, 2, SEED)
    rng = np.random.default_rng(SEED)
    pool = rng.choice(120, size=12, replace=False)
    weights = 1.0 / np.power(np.arange(12, dtype=float) + 1.0, 1.1)
    weights /= weights.sum()
    bursts = []
    for snapshot in chain:
        burst = []
        keys = rng.choice(pool, size=25, p=weights)
        for key, kind in zip(keys, rng.random(25)):
            node = int(key)
            if kind < 0.6:
                burst.append(make_query("rwr", snapshot, start_node=node))
            elif kind < 0.9:
                other = int(pool[int(rng.integers(0, 12))])
                burst.append(make_query("ppr", snapshot, seeds=(node, other)))
            else:
                burst.append(make_query("pagerank", snapshot))
        bursts.append(burst)
    reference_planner = QueryPlanner()
    reference = [
        answer for burst in bursts for answer in reference_planner.run(QueryBatch(burst))
    ]
    gated, _ = replay(chain, bursts, lineage=False)
    _, stats = replay(chain, bursts, lineage=True)
    return SimpleNamespace(
        reference=reference, gated=gated, stats=stats, queries=sum(map(len, bursts))
    )


def test_replay_equals_one_shot_planner_bitwise(replay_runs):
    """The server only re-partitions the stream, so without lineage its
    answers equal one-shot ``QueryPlanner.run`` answers bit for bit."""
    assert len(replay_runs.gated) == len(replay_runs.reference)
    for mine, reference in zip(replay_runs.gated, replay_runs.reference):
        assert mine.tobytes() == reference.tobytes()


def test_replay_answers_everything_with_finite_p99(replay_runs):
    assert replay_runs.stats.answered == replay_runs.queries
    assert np.isfinite(replay_runs.stats.total_latency.p99)


def test_replay_hits_the_result_cache(replay_runs):
    assert replay_runs.stats.hit_rate > 0.0
