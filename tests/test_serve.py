"""The online serving front-end: MeasureServer and its observability.

The load-bearing contract, pinned by the differential tests at the bottom:
**micro-batching is invisible to answers**.  However the stream is cut into
admission windows (``max_batch`` 1, a few, or effectively unbounded), every
server answer is bitwise identical to a direct one-shot
:meth:`QueryPlanner.run` of the same query under an exact policy — batching
changes latency and cost, never values.

Also covered: window semantics (size flush, flush(), update-at-boundary
ordering), head-deferred queries, per-request latency accounting, the
per-query isolation fallback for poisoned batches (a singular custom system
fails only its own future, annotated with the factor unit), and the
approximation audit passthrough under a QC policy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import FactorizationError, MeasureError
from repro.graphs.matrixkind import MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import ExactPolicy, QCPolicy
from repro.query import (
    QueryBatch,
    QueryPlanner,
    evaluate,
    get_spec,
    make_query,
)
from repro.query import spec as spec_module
from repro.query.spec import MeasureSpec
from repro.serve import (
    LatencySummary,
    MeasureServer,
    RequestRecord,
    StatsCollector,
    percentile,
)
from repro.sparse.csr import SparseMatrix

# Generous admission window for tests that control flushing explicitly:
# long enough that a window never times out on its own, so batch shapes
# are decided by max_batch / flush() / updates alone.
LONG_WAIT_MS = 30_000.0
RESULT_TIMEOUT = 30.0


def answers(futures):
    return [future.result(timeout=RESULT_TIMEOUT) for future in futures]


# ---------------------------------------------------------------------- #
# Stats primitives
# ---------------------------------------------------------------------- #
class TestPercentile:
    def test_nearest_rank_basics(self):
        xs = list(range(1, 101))
        assert percentile(xs, 50) == 50.0
        assert percentile(xs, 99) == 99.0
        assert percentile(xs, 100) == 100.0
        assert percentile(xs, 0) == 1.0

    def test_reported_value_is_an_observed_sample(self):
        xs = [0.4, 1.9, 7.2]
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(xs, q) in xs

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_summary_of_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert math.isnan(summary.p99)


class TestStatsCollector:
    def _record(self, total=1.0, batch_size=2):
        return RequestRecord(measure="rwr", queue=0.1, solve=0.5,
                             total=total, batch_size=batch_size,
                             approximate=False)

    def test_histogram_and_latency(self):
        stats = StatsCollector()
        stats.record_batch([self._record(total=1.0), self._record(total=3.0)])
        stats.record_batch([self._record(total=2.0, batch_size=1)])
        snap = stats.snapshot({"result_hits": 3, "result_misses": 1})
        assert snap.batches == 2
        assert snap.batch_size_histogram == {2: 1, 1: 1}
        assert snap.total_latency.count == 3
        assert snap.total_latency.max == 3.0
        assert snap.hit_rate == pytest.approx(0.75)

    def test_hit_rate_nan_before_any_lookup(self):
        assert math.isnan(StatsCollector().snapshot().hit_rate)

    def test_history_bound(self):
        stats = StatsCollector(history=3)
        stats.record_batch([self._record(total=float(i)) for i in range(10)])
        kept = stats.records()
        assert len(kept) == 3
        assert [r.total for r in kept] == [7.0, 8.0, 9.0]

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            StatsCollector(history=0)


# ---------------------------------------------------------------------- #
# Server construction / lifecycle
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_is_idempotent(self):
        server = MeasureServer()
        server.close()
        server.close()

    def test_rejects_submissions_after_close(self, tiny_graph):
        server = MeasureServer()
        server.close()
        with pytest.raises(MeasureError):
            server.submit_measure("pagerank", tiny_graph)
        with pytest.raises(MeasureError):
            server.admit_update(tiny_graph)

    def test_close_drains_pending_work(self, tiny_graph):
        server = MeasureServer(max_batch=64, max_wait_ms=LONG_WAIT_MS)
        futures = [server.submit_measure("rwr", tiny_graph, start_node=i)
                   for i in range(5)]
        server.close(drain=True)  # no flush(): close itself must drain
        for future, expected in zip(
            futures, (evaluate(make_query("rwr", tiny_graph, start_node=i))
                      for i in range(5))
        ):
            assert future.result(timeout=0).tobytes() == expected.tobytes()

    def test_close_without_drain_resolves_everything(self, tiny_graph):
        server = MeasureServer(max_batch=2, max_wait_ms=LONG_WAIT_MS)
        futures = [server.submit_measure("rwr", tiny_graph, start_node=i % 7)
                   for i in range(20)]
        server.close(drain=False)
        done = sum(1 for f in futures if not f.cancelled())
        cancelled = sum(1 for f in futures if f.cancelled())
        assert done + cancelled == 20
        stats = server.stats()
        assert stats.answered == done
        assert stats.cancelled == cancelled

    def test_validation_errors(self, tiny_graph):
        with pytest.raises(MeasureError):
            MeasureServer(max_batch=0)
        with pytest.raises(MeasureError):
            MeasureServer(max_wait_ms=-1.0)
        with pytest.raises(MeasureError):
            MeasureServer(planner=QueryPlanner(), policy=ExactPolicy())
        with MeasureServer() as server:
            with pytest.raises(MeasureError):
                server.submit("not a query")
            with pytest.raises(MeasureError):
                server.submit_measure("no_such_measure", tiny_graph)
            with pytest.raises(MeasureError):
                server.submit_measure("rwr")  # missing start_node, eagerly
            with pytest.raises(MeasureError):
                server.submit_measure("pagerank", damping=1.5)

    def test_head_deferred_query_without_head_fails_its_future(self):
        with MeasureServer(max_wait_ms=0.0) as server:
            future = server.submit_measure("pagerank")
            with pytest.raises(MeasureError, match="no update has been admitted"):
                future.result(timeout=RESULT_TIMEOUT)
        assert server.stats().failed == 1


# ---------------------------------------------------------------------- #
# Admission-window semantics
# ---------------------------------------------------------------------- #
class TestAdmissionWindow:
    def test_concurrent_submissions_coalesce_into_one_batch(self, tiny_graph):
        with MeasureServer(max_batch=64, max_wait_ms=LONG_WAIT_MS) as server:
            futures = [server.submit_measure("rwr", tiny_graph, start_node=i)
                       for i in range(5)]
            server.flush()
            answers(futures)
            stats = server.stats()
        assert stats.batches == 1
        assert stats.batch_size_histogram == {5: 1}
        assert stats.answered == 5

    def test_full_window_flushes_on_max_batch(self, tiny_graph):
        with MeasureServer(max_batch=3, max_wait_ms=LONG_WAIT_MS) as server:
            futures = [server.submit_measure("rwr", tiny_graph, start_node=i % 7)
                       for i in range(7)]
            answers(futures[:6])  # two full windows complete unprompted
            server.flush()        # release the trailing partial window
            answers(futures)
            stats = server.stats()
        assert stats.batch_size_histogram == {3: 2, 1: 1}
        assert stats.answered == 7

    def test_window_times_out_after_max_wait(self, tiny_graph):
        with MeasureServer(max_batch=100, max_wait_ms=50.0) as server:
            future = server.submit_measure("pagerank", tiny_graph)
            answer = future.result(timeout=RESULT_TIMEOUT)  # no flush needed
        assert answer.tobytes() == evaluate(
            make_query("pagerank", tiny_graph)
        ).tobytes()

    def test_requests_record_latency_decomposition(self, tiny_graph):
        with MeasureServer(max_batch=4, max_wait_ms=20.0) as server:
            futures = [server.submit_measure("rwr", tiny_graph, start_node=i)
                       for i in range(4)]
            answers(futures)
            records = server.request_records()
            stats = server.stats()
        assert len(records) == 4
        for record in records:
            assert record.queue >= 0.0
            assert record.solve >= 0.0
            assert record.total + 1e-9 >= record.queue + record.solve
            assert 1 <= record.batch_size <= 4
        assert stats.total_latency.count == 4
        assert stats.total_latency.p99 >= stats.total_latency.p50 > 0.0
        assert math.isfinite(stats.total_latency.p99)

    def test_result_cache_hits_surface_in_stats(self, tiny_graph):
        with MeasureServer(max_wait_ms=0.0) as server:
            first = server.submit_measure("rwr", tiny_graph, start_node=2)
            first.result(timeout=RESULT_TIMEOUT)
            second = server.submit_measure("rwr", tiny_graph, start_node=2)
            second.result(timeout=RESULT_TIMEOUT)
            stats = server.stats()
        assert stats.planner_cache_info["result_hits"] >= 1
        assert stats.hit_rate > 0.0
        assert first.result().tobytes() == second.result().tobytes()


# ---------------------------------------------------------------------- #
# Streaming updates
# ---------------------------------------------------------------------- #
class TestStreamingUpdates:
    def test_update_applies_at_batch_boundary_in_fifo_order(self, tiny_graph):
        evolved = tiny_graph.with_edges(added=[(0, 5)])
        # register_lineage=False keeps every head cold-factorized, so the
        # which-graph-answered-what assertions below can be bitwise.
        with MeasureServer(
            max_batch=64, max_wait_ms=LONG_WAIT_MS, register_lineage=False
        ) as server:
            server.admit_update(tiny_graph)
            before = server.submit_measure("pagerank")
            update = server.admit_update(evolved)
            after = server.submit_measure("pagerank")
            server.flush()
            assert update.result(timeout=RESULT_TIMEOUT) == evolved
            # The pre-update query sees the graph it was submitted against,
            # the post-update query the new head.
            assert before.result(timeout=RESULT_TIMEOUT).tobytes() == evaluate(
                make_query("pagerank", tiny_graph)
            ).tobytes()
            assert after.result(timeout=RESULT_TIMEOUT).tobytes() == evaluate(
                make_query("pagerank", evolved)
            ).tobytes()
            assert server.head == evolved
            assert server.stats().updates_admitted == 2

    def test_update_registers_lineage_for_delta_refresh(self, tiny_graph):
        evolved = tiny_graph.with_edges(added=[(0, 5)], removed=[(1, 2)])
        with MeasureServer(max_wait_ms=0.0) as server:
            server.admit_update(tiny_graph)
            server.submit_measure("pagerank").result(timeout=RESULT_TIMEOUT)
            server.admit_update(evolved)
            refreshed = server.submit_measure("pagerank").result(
                timeout=RESULT_TIMEOUT
            )
            info = server.planner.cache_info()
        # The evolved head was served by Bennett refresh of the parent's
        # factors, not a cold factorization — numerically the same answer
        # (refresh reuses the parent's ordering, so not necessarily bitwise).
        assert info["refreshes"] == 1
        assert np.allclose(refreshed, evaluate(make_query("pagerank", evolved)))

    def test_lineage_can_be_disabled(self, tiny_graph):
        evolved = tiny_graph.with_edges(added=[(0, 5)])
        with MeasureServer(max_wait_ms=0.0, register_lineage=False) as server:
            server.admit_update(tiny_graph)
            server.submit_measure("pagerank").result(timeout=RESULT_TIMEOUT)
            server.admit_update(evolved)
            server.submit_measure("pagerank").result(timeout=RESULT_TIMEOUT)
            info = server.planner.cache_info()
        assert info["refreshes"] == 0

    def test_node_count_change_advances_head_without_lineage(self, tiny_graph):
        grown = GraphSnapshot(
            tiny_graph.n + 1,
            list(tiny_graph.edges) + [(tiny_graph.n, 0)],
            directed=True,
        )
        with MeasureServer(max_wait_ms=0.0) as server:
            server.admit_update(tiny_graph)
            server.admit_update(grown).result(timeout=RESULT_TIMEOUT)
            answer = server.submit_measure("pagerank").result(timeout=RESULT_TIMEOUT)
        assert answer.shape == (tiny_graph.n + 1,)

    def test_update_rejects_non_snapshot(self):
        with MeasureServer() as server:
            with pytest.raises(MeasureError):
                server.admit_update("not a snapshot")


# ---------------------------------------------------------------------- #
# Failure isolation: one poisoned query must not sink its batch-mates
# ---------------------------------------------------------------------- #
class TestFailureIsolation:
    @pytest.fixture()
    def singular_spec(self, monkeypatch):
        spec = MeasureSpec(
            name="singular_system_test",
            kind=MatrixKind.RANDOM_WALK,
            build_rhs=get_spec("pagerank").build_rhs,
            # Rank-deficient on purpose: only the (0, 0) pivot exists.
            build_matrix=lambda snapshot, damping, params: SparseMatrix(
                snapshot.n, {(0, 0): 1.0}
            ),
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        return spec

    def test_poisoned_query_fails_alone(self, tiny_graph, singular_spec):
        with MeasureServer(max_batch=8, max_wait_ms=LONG_WAIT_MS) as server:
            good = [server.submit_measure("rwr", tiny_graph, start_node=i)
                    for i in range(2)]
            bad = server.submit_measure("singular_system_test", tiny_graph)
            more = server.submit_measure("pagerank", tiny_graph)
            server.flush()
            # Innocent batch-mates are answered exactly despite the shared
            # batch raising on its first pass.
            for future, start in zip(good, range(2)):
                expected = evaluate(make_query("rwr", tiny_graph, start_node=start))
                assert future.result(timeout=RESULT_TIMEOUT).tobytes() == expected.tobytes()
            assert more.result(timeout=RESULT_TIMEOUT).tobytes() == evaluate(
                make_query("pagerank", tiny_graph)
            ).tobytes()
            with pytest.raises(FactorizationError) as excinfo:
                bad.result(timeout=RESULT_TIMEOUT)
            stats = server.stats()
        # The error names the failing work unit and its system group.
        message = str(excinfo.value)
        assert "factor unit" in message
        assert "singular_system_test" in message
        assert stats.batch_failures == 1
        assert stats.answered == 3
        assert stats.failed == 1

    def test_degraded_pass_still_records_latency(self, tiny_graph, singular_spec):
        with MeasureServer(max_batch=8, max_wait_ms=LONG_WAIT_MS) as server:
            good = server.submit_measure("pagerank", tiny_graph)
            bad = server.submit_measure("singular_system_test", tiny_graph)
            server.flush()
            good.result(timeout=RESULT_TIMEOUT)
            with pytest.raises(FactorizationError):
                bad.result(timeout=RESULT_TIMEOUT)
            records = server.request_records()
        assert len(records) == 1  # only the answered request is recorded
        assert records[0].measure == "pagerank"
        assert records[0].batch_size == 1  # answered by the isolation pass


# ---------------------------------------------------------------------- #
# QC policy passthrough
# ---------------------------------------------------------------------- #
class TestApproximationPassthrough:
    def test_qc_approximations_surface_in_stats(self, tiny_graph):
        evolved = tiny_graph.with_edges(added=[(0, 5)])
        policy = QCPolicy(alpha=0.0, loss_bound=1e12)
        with MeasureServer(policy=policy, max_wait_ms=0.0) as server:
            server.submit_measure("pagerank", tiny_graph).result(
                timeout=RESULT_TIMEOUT
            )
            future = server.submit_measure("pagerank", evolved)
            future.result(timeout=RESULT_TIMEOUT)
            stats = server.stats()
            records = server.request_records()
        assert stats.approximations_served == 1
        assert len(stats.recent_approximations) == 1
        record = stats.recent_approximations[0]
        assert record.policy == "qc"
        assert record.parent_system == tiny_graph
        assert record.system == evolved
        assert [r.approximate for r in records] == [False, True]


# ---------------------------------------------------------------------- #
# Differential: micro-batching is invisible to answers (satellite 5)
# ---------------------------------------------------------------------- #
class TestBatchingInvisibility:
    def _query_stream(self, tiny_graph):
        evolved = tiny_graph.with_edges(added=[(0, 5)], removed=[(1, 2)])
        queries = []
        for graph in (tiny_graph, evolved):
            queries.append(make_query("pagerank", graph))
            queries.extend(
                make_query("rwr", graph, start_node=i) for i in range(4)
            )
            queries.append(make_query("ppr", graph, seeds=(1, 3)))
            queries.append(make_query("hitting_time", graph, target=2))
        return queries

    @pytest.mark.parametrize("max_batch", [1, 3, 100])
    def test_answers_bitwise_equal_across_flush_boundaries(
        self, tiny_graph, max_batch
    ):
        queries = self._query_stream(tiny_graph)
        direct = QueryPlanner(policy=ExactPolicy()).run(QueryBatch(queries))
        with MeasureServer(
            policy=ExactPolicy(), max_batch=max_batch, max_wait_ms=LONG_WAIT_MS
        ) as server:
            futures = [server.submit(query) for query in queries]
            server.flush()
            served = answers(futures)
            stats = server.stats()
        for mine, reference in zip(served, direct.results):
            assert mine.tobytes() == reference.tobytes()
        # The partitioning actually differed per parametrization.
        if max_batch == 1:
            assert set(stats.batch_size_histogram) == {1}
        assert sum(
            size * count for size, count in stats.batch_size_histogram.items()
        ) == len(queries)

    def test_interleaved_updates_preserve_exactness(self, tiny_graph):
        # Stream queries against an evolving head through the server and
        # compare with direct one-shot execution of the resolved queries.
        chain = [tiny_graph]
        for step in range(3):
            chain.append(chain[-1].with_edges(added=[(step, (step + 4) % 7)]))
        expected = []
        with MeasureServer(
            max_batch=4, max_wait_ms=LONG_WAIT_MS, register_lineage=False
        ) as server:
            futures = []
            for graph in chain:
                server.admit_update(graph)
                for start in (0, 3):
                    futures.append(server.submit_measure("rwr", start_node=start))
                    expected.append(make_query("rwr", graph, start_node=start))
            server.flush()
            served = answers(futures)
        for mine, query in zip(served, expected):
            assert mine.tobytes() == evaluate(query).tobytes()
