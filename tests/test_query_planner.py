"""Differential and property tests for the measure IR and query planner.

Two contracts are pinned here:

* **Bitwise equivalence** — for every registered measure spec, the planner's
  answer to a query is byte-for-byte identical to the legacy per-measure
  entry point, and series-level batches are byte-for-byte identical to the
  established series APIs.
* **Amortization** — a batch costs exactly one factorization per distinct
  ``(snapshot, kind, damping, matrix-params)`` system, never more, asserted
  through the factor-cache counters; every query is answered exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import EMSSolver
from repro.errors import MeasureError
from repro.exec.executors import SerialExecutor
from repro.graphs.generators import growing_egs
from repro.graphs.matrixkind import MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.base import SnapshotMeasureSolver
from repro.measures.hitting_time import discounted_hitting_scores
from repro.measures.pagerank import pagerank_scores
from repro.measures.ppr import ppr_scores, ppr_scores_many
from repro.measures.rwr import rwr_scores, rwr_scores_many
from repro.measures.salsa import salsa_scores
from repro.measures.timeseries import MeasureSeries
from repro.query import (
    FactorCache,
    MeasureSpec,
    Query,
    QueryBatch,
    QueryPlanner,
    evaluate,
    evaluate_block,
    get_spec,
    make_query,
    registered_measures,
    system_key,
)
from repro.query import spec as spec_module


@pytest.fixture
def second_graph() -> GraphSnapshot:
    """A second small graph so batches can mix snapshots."""
    edges = [(0, 3), (3, 1), (1, 0), (1, 4), (4, 2), (2, 3), (2, 5), (5, 0), (4, 5)]
    return GraphSnapshot(6, edges, directed=True)


class TestSpecRegistry:
    def test_builtin_measures_registered(self):
        names = registered_measures()
        for expected in (
            "rwr", "ppr", "pagerank", "hitting_time", "salsa_authority", "salsa_hub",
        ):
            assert expected in names

    def test_unknown_measure_raises(self):
        with pytest.raises(MeasureError):
            get_spec("betweenness")
        with pytest.raises(MeasureError):
            make_query("betweenness", GraphSnapshot(2, [(0, 1)]))

    def test_register_unregister_custom_spec(self, tiny_graph, monkeypatch):
        spec = MeasureSpec(
            name="normalized_rwr_test",
            kind=MatrixKind.RANDOM_WALK,
            build_rhs=get_spec("rwr").build_rhs,
            normalize=True,
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        scores = evaluate(make_query("normalized_rwr_test", tiny_graph, start_node=0))
        assert np.isclose(float(np.sum(scores)), 1.0)
        raw = rwr_scores(tiny_graph, 0)
        assert np.array_equal(scores, raw / np.sum(raw))

    def test_missing_matrix_param_raises(self, tiny_graph):
        with pytest.raises(MeasureError):
            system_key(Query(measure="hitting_time", snapshot=tiny_graph))

    def test_invalid_damping_rejected_at_query_construction(self, tiny_graph):
        with pytest.raises(MeasureError):
            make_query("rwr", tiny_graph, damping=1.5, start_node=0)


class TestDifferentialPlannerVsLegacy:
    """Planner answers == legacy per-measure entry points, bitwise."""

    def test_every_registered_measure_bitwise(self, tiny_graph):
        batch = (
            QueryBatch()
            .add_rwr(tiny_graph, 2)
            .add_ppr(tiny_graph, [1, 4])
            .add_pagerank(tiny_graph)
            .add_hitting_time(tiny_graph, 3)
            .add_salsa_authority(tiny_graph)
            .add_salsa_hub(tiny_graph)
        )
        outcome = QueryPlanner().run(batch)
        authority, hub = salsa_scores(tiny_graph)
        expected = [
            rwr_scores(tiny_graph, 2),
            ppr_scores(tiny_graph, [1, 4]),
            pagerank_scores(tiny_graph),
            discounted_hitting_scores(tiny_graph, 3),
            authority,
            hub,
        ]
        assert len(outcome) == len(expected)
        for answer, reference in zip(outcome, expected):
            assert answer.tobytes() == reference.tobytes()

    def test_mixed_snapshots_and_dampings(self, tiny_graph, second_graph):
        batch = QueryBatch()
        legacy = []
        for snapshot in (tiny_graph, second_graph):
            for damping in (0.85, 0.6):
                for start in (0, 1):
                    batch.add_rwr(snapshot, start, damping=damping)
                    legacy.append(rwr_scores(snapshot, start, damping=damping))
                batch.add_pagerank(snapshot, damping=damping)
                legacy.append(pagerank_scores(snapshot, damping=damping))
        outcome = QueryPlanner().run(batch)
        for answer, reference in zip(outcome, legacy):
            assert answer.tobytes() == reference.tobytes()
        # 2 snapshots x 2 dampings share RWR+PageRank: 4 distinct systems.
        assert outcome.stats.groups == 4
        assert outcome.stats.factorizations == 4

    def test_solver_reuse_matches_planner(self, tiny_graph):
        solver = SnapshotMeasureSolver(tiny_graph)
        starts = [0, 2, 5]
        block = rwr_scores_many(tiny_graph, starts, solver=solver)
        outcome = QueryPlanner().run(
            QueryBatch().extend(
                make_query("rwr", tiny_graph, start_node=s) for s in starts
            )
        )
        for column, answer in enumerate(outcome):
            assert answer.tobytes() == block[:, column].tobytes()

    def test_salsa_empty_graph_direct_answer(self):
        empty = GraphSnapshot(4, [])
        outcome = QueryPlanner().run(
            QueryBatch().add_salsa_authority(empty).add_salsa_hub(empty)
        )
        authority, hub = salsa_scores(empty)
        assert outcome[0].tobytes() == authority.tobytes()
        assert outcome[1].tobytes() == hub.tobytes()
        assert outcome.stats.direct_answers == 2
        assert outcome.stats.factorizations == 0
        assert outcome.stats.groups == 0

    def test_evaluate_block_matches_scalar(self, tiny_graph):
        seed_sets = [(0, 3), (1,), (2, 4, 6)]
        block = evaluate_block(
            "ppr", tiny_graph, [{"seeds": seeds} for seeds in seed_sets]
        )
        legacy = ppr_scores_many(tiny_graph, seed_sets)
        assert block.tobytes() == legacy.tobytes()
        with pytest.raises(MeasureError):
            evaluate_block(
                "hitting_time", tiny_graph, [{"target": 0}, {"target": 1}]
            )


class TestGroupingAndCache:
    def test_one_factorization_per_distinct_system(self, tiny_graph, second_graph):
        planner = QueryPlanner()
        batch = (
            QueryBatch()
            .add_rwr(tiny_graph, 0)
            .add_rwr(tiny_graph, 1)
            .add_ppr(tiny_graph, [2, 3])
            .add_pagerank(tiny_graph)
            .add_pagerank(second_graph)
            .add_hitting_time(tiny_graph, 0)
            .add_hitting_time(tiny_graph, 1)
            .add_salsa_authority(tiny_graph)
        )
        plan = planner.plan(batch)
        distinct = {system_key(query) for query in batch}
        assert plan.group_count == len(distinct) == 5
        outcome = planner.execute(plan)
        assert outcome.stats.factorizations == 5
        assert outcome.stats.cache_hits == 0
        assert planner.cache_info() == {
            "hits": 0, "misses": 5, "evictions": 0,
            "refreshes": 0, "refresh_fallbacks": 0, "size": 5,
            "result_hits": 0, "result_misses": 8, "result_evictions": 0,
            "result_invalidations": 0, "result_size": 8,
        }
        # Second run: pure cache hits, zero factorizations, and every query
        # short-circuits through the result cache.
        again = planner.run(batch)
        assert again.stats.factorizations == 0
        assert again.stats.cache_hits == 5
        assert again.stats.result_hits == 8
        assert planner.cache_info()["misses"] == 5
        for first, second in zip(outcome, again):
            assert first.tobytes() == second.tobytes()

    def test_content_equal_snapshots_share_factors(self, tiny_graph):
        clone = GraphSnapshot(tiny_graph.n, tiny_graph.edges)
        outcome = QueryPlanner().run(
            QueryBatch().add_pagerank(tiny_graph).add_pagerank(clone)
        )
        assert outcome.stats.groups == 1
        assert outcome.stats.factorizations == 1
        assert outcome[0].tobytes() == outcome[1].tobytes()

    def test_shared_cache_across_planners(self, tiny_graph):
        cache = FactorCache()
        first = QueryPlanner(cache=cache).run(QueryBatch().add_pagerank(tiny_graph))
        second = QueryPlanner(cache=cache).run(QueryBatch().add_pagerank(tiny_graph))
        assert first.stats.factorizations == 1
        assert second.stats.factorizations == 0
        assert cache.cache_info() == {
            "hits": 1, "misses": 1, "evictions": 0,
            "refreshes": 0, "refresh_fallbacks": 0, "size": 1,
        }

    def test_empty_batch(self):
        outcome = QueryPlanner().run(QueryBatch())
        assert len(outcome) == 0
        assert outcome.stats.groups == 0
        assert outcome.stats.factorizations == 0

    def test_bounded_cache_evicts_lru(self, tiny_graph, second_graph):
        planner = QueryPlanner(cache=FactorCache(max_systems=1))
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        planner.run(QueryBatch().add_pagerank(second_graph))  # evicts tiny
        outcome = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert outcome.stats.factorizations == 1
        info = planner.cache_info()
        assert info["evictions"] == 2
        assert info["size"] == 1
        with pytest.raises(MeasureError):
            FactorCache(max_systems=0)

    def test_bounded_cache_smaller_than_one_batch_still_answers(
        self, tiny_graph, second_graph
    ):
        # More miss groups in one batch than the cache holds: the batch must
        # still be answered from the freshly factorized systems, bitwise
        # equal to an unbounded planner's answers.
        planner = QueryPlanner(cache=FactorCache(max_systems=1))
        batch = (
            QueryBatch()
            .add_pagerank(tiny_graph)
            .add_pagerank(second_graph)
            .add_rwr(tiny_graph, 0, damping=0.6)
        )
        outcome = planner.run(batch)
        reference = QueryPlanner().run(batch)
        assert outcome.stats.factorizations == 3
        for answer, expected in zip(outcome, reference):
            assert answer.tobytes() == expected.tobytes()
        assert planner.cache_info()["size"] == 1

    def test_custom_matrix_builder_never_shares_kind_group(self, tiny_graph, monkeypatch):
        # A spec that overrides build_matrix must not share factors with a
        # kind-equal spec, even with no matrix params.
        from repro.graphs.matrixkind import measure_matrix

        spec = MeasureSpec(
            name="doubled_system_test",
            kind=MatrixKind.RANDOM_WALK,
            build_rhs=get_spec("pagerank").build_rhs,
            build_matrix=lambda snapshot, damping, params: measure_matrix(
                snapshot, MatrixKind.RANDOM_WALK, damping
            ).scale(2.0),
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        batch = QueryBatch().add_pagerank(tiny_graph).add(
            make_query("doubled_system_test", tiny_graph)
        )
        outcome = QueryPlanner().run(batch)
        assert outcome.stats.groups == 2
        assert np.allclose(outcome[1], outcome[0] / 2.0)
        assert outcome[1].tobytes() == evaluate(batch[1]).tobytes()

    def test_repeated_execute_of_shortcut_plan_returns_fresh_arrays(self):
        empty = GraphSnapshot(3, [])
        planner = QueryPlanner()
        plan = planner.plan(QueryBatch().add_salsa_authority(empty))
        first = planner.execute(plan)
        first[0][:] = 0.0  # caller mutates its result in place
        second = planner.execute(plan)
        assert np.allclose(second[0], 1.0 / 3.0)

    @settings(max_examples=25, deadline=None)
    @given(
        choices=st.lists(
            st.tuples(
                st.sampled_from(["rwr", "ppr", "pagerank", "hitting_time"]),
                st.integers(min_value=0, max_value=6),
                st.sampled_from([0.85, 0.5]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_batch_grouping_properties(self, choices):
        """Every query answered exactly once; groups == distinct systems."""
        graph_a = GraphSnapshot(
            7,
            [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0),
             (4, 5), (5, 6), (6, 4), (6, 0), (1, 5), (3, 1)],
        )
        graph_b = GraphSnapshot(
            7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (2, 6)]
        )
        batch = QueryBatch()
        for measure, node, damping, use_b in choices:
            snapshot = graph_b if use_b else graph_a
            if measure == "rwr":
                batch.add_rwr(snapshot, node, damping=damping)
            elif measure == "ppr":
                batch.add_ppr(snapshot, [node, (node + 1) % 7], damping=damping)
            elif measure == "pagerank":
                batch.add_pagerank(snapshot, damping=damping)
            else:
                batch.add_hitting_time(snapshot, node, damping=damping)
        planner = QueryPlanner()
        plan = planner.plan(batch)
        distinct = {system_key(query) for query in batch}
        assert plan.group_count == len(distinct)
        positions = sorted(p for group in plan.groups for p in group.positions)
        assert positions == list(range(len(batch)))
        outcome = planner.execute(plan)
        assert outcome.stats.factorizations == len(distinct)
        assert len(outcome) == len(batch)
        for query, answer in zip(batch, outcome):
            assert answer is not None
            assert answer.shape == (query.snapshot.n,)
            assert answer.tobytes() == evaluate(query).tobytes()


class TestSeriesOnPlanner:
    def test_series_batch_bitwise_vs_series_methods(self):
        egs = growing_egs(nodes=20, snapshots=4, initial_edges=40, edges_per_step=5)
        series = MeasureSeries(egs, algorithm="CLUDE", alpha=0.9)
        pr = series.pagerank(list(range(egs.n)))
        rwr0 = series.rwr(0)
        batch = QueryBatch()
        for index in range(len(egs)):
            batch.add_pagerank(egs[index])
            batch.add_rwr(egs[index], 0)
        outcome = series.run_batch(batch)
        for index in range(len(egs)):
            assert outcome[2 * index].tobytes() == pr[index].tobytes()
            assert outcome[2 * index + 1].tobytes() == rwr0[index].tobytes()

    def test_series_rides_on_seeded_factors(self):
        egs = growing_egs(nodes=18, snapshots=3, initial_edges=35, edges_per_step=4)
        series = MeasureSeries(egs, algorithm="CINC", alpha=0.9)
        series.pagerank([0, 1])
        series.rwr_many([0, 2, 5])
        series.ppr([1, 2])
        info = series.cache_info()
        # Every snapshot group is a seeded hit: the whole series workload
        # adds zero factorizations beyond the sequence decomposition.
        assert info["misses"] == 0
        assert info["hits"] == 3 * len(egs)
        assert info["size"] == len(egs)

    def test_series_decomposition_solves_match_ems_solver(self):
        egs = growing_egs(nodes=16, snapshots=3, initial_edges=30, edges_per_step=4)
        series = MeasureSeries(egs, algorithm="CLUDE", alpha=0.9)
        from repro.measures.pagerank import pagerank_rhs

        expected = series.solver.solve_series(pagerank_rhs(egs.n))
        assert series.pagerank(list(range(egs.n))).tobytes() == expected.tobytes()

    def test_ems_solver_plan_attaches_tokens(self):
        egs = growing_egs(nodes=15, snapshots=3, initial_edges=28, edges_per_step=4)
        solver = EMSSolver.from_graphs(egs, algorithm="CLUDE", alpha=0.9)
        batch = (
            QueryBatch()
            .add_pagerank(egs[0])
            .add_rwr(egs[1], 2)
            .add_rwr(egs[1], 4)
            .add_ppr(egs[2], [0, 3])
        )
        plan = solver.plan(batch)
        assert all(
            query.system_token is not None
            for group in plan.groups
            for query in group.queries
        )
        outcome = solver.execute(plan)
        assert outcome.stats.factorizations == 0
        assert outcome.stats.cache_hits == plan.group_count == 3
        result = solver.decompose()
        from repro.measures.rwr import rwr_rhs

        expected = result.solve(1, rwr_rhs(egs.n, 2))
        assert outcome[1].tobytes() == expected.tobytes()

    def test_ems_solver_plan_foreign_snapshot_factorizes(self, tiny_graph):
        egs = growing_egs(nodes=7, snapshots=2, initial_edges=10, edges_per_step=2)
        solver = EMSSolver.from_graphs(egs, algorithm="BF")
        outcome = solver.run_batch(QueryBatch().add_pagerank(tiny_graph))
        assert outcome.stats.factorizations == 1
        assert outcome[0].tobytes() == pagerank_scores(tiny_graph).tobytes()

    def test_ems_solver_without_graph_context_refuses_planning(self, tiny_ems):
        solver = EMSSolver(tiny_ems, algorithm="BF")
        with pytest.raises(MeasureError):
            solver.plan(QueryBatch())
        with pytest.raises(MeasureError):
            solver.seed_planner()

    def test_seed_planner_rejects_executor_with_existing_planner(self):
        egs = growing_egs(nodes=10, snapshots=2, initial_edges=16, edges_per_step=2)
        solver = EMSSolver.from_graphs(egs, algorithm="BF")
        with pytest.raises(MeasureError):
            solver.seed_planner(planner=QueryPlanner(), executor=2)

    def test_graph_context_only_via_from_graphs(self, tiny_ems):
        # Direct construction cannot attach (possibly inconsistent) graph
        # context; from_graphs composes the EMS from the context itself.
        egs = growing_egs(nodes=40, snapshots=2, initial_edges=60, edges_per_step=5)
        with pytest.raises(TypeError):
            EMSSolver(tiny_ems, egs=egs)

    def test_from_graphs_non_default_kind_answers_match_engine(self):
        egs = growing_egs(
            nodes=14, snapshots=2, initial_edges=26, edges_per_step=3, directed=False
        )
        solver = EMSSolver.from_graphs(
            egs, kind=MatrixKind.SYMMETRIC_WALK, algorithm="BF"
        )
        # A RANDOM_WALK-kind query must NOT be pinned to the symmetric-walk
        # factors: it is factorized on demand and matches the legacy driver.
        outcome = solver.run_batch(QueryBatch().add_pagerank(egs[0]))
        assert outcome.stats.factorizations == 1
        assert outcome.stats.cache_hits == 0
        assert outcome[0].tobytes() == pagerank_scores(egs[0]).tobytes()


class TestRhsBlockBuilders:
    """Vectorized per-group RHS assembly is bitwise-invisible (warm path)."""

    CASES = {
        "rwr": [{"start_node": s} for s in (0, 3, 6, 3, 1)],
        "ppr": [{"seeds": seeds} for seeds in ((0, 2), (4,), (1, 1, 5), (6, 0, 3))],
        "pagerank": [{} for _ in range(4)],
        "hitting_time": [{"target": t} for t in (0, 2, 5)],
        "hitting_time_shared": [{"target": t} for t in (1, 4, 4)],
        "salsa_authority": [{} for _ in range(3)],
        "salsa_hub": [{} for _ in range(2)],
    }

    @pytest.mark.parametrize("measure", sorted(CASES))
    def test_block_builder_bitwise_equals_scalar(self, tiny_graph, measure):
        spec = get_spec(measure)
        assert spec.build_rhs_block is not None
        params_list = self.CASES[measure]
        for damping in (0.85, 0.5):
            block = spec.build_rhs_block(tiny_graph, damping, params_list)
            scalar = np.column_stack([
                spec.build_rhs(tiny_graph, damping, params) for params in params_list
            ])
            assert block.tobytes() == scalar.tobytes()

    def test_block_builders_propagate_bounds_errors(self, tiny_graph):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            get_spec("rwr").build_rhs_block(
                tiny_graph, 0.85, [{"start_node": tiny_graph.n}]
            )
        with pytest.raises(DimensionError):
            get_spec("ppr").build_rhs_block(tiny_graph, 0.85, [{"seeds": ()}])
        with pytest.raises(MeasureError):
            get_spec("hitting_time").build_rhs_block(
                tiny_graph, 0.85, [{"target": -1}]
            )

    def test_interleaved_measures_in_one_group_stay_bitwise(self, tiny_graph):
        # rwr/ppr/pagerank share one system key; interleaving them exercises
        # the run segmentation of the group RHS assembly.
        batch = (
            QueryBatch()
            .add_rwr(tiny_graph, 0)
            .add_ppr(tiny_graph, [1, 3])
            .add_rwr(tiny_graph, 4)
            .add_pagerank(tiny_graph)
            .add_rwr(tiny_graph, 2)
            .add_rwr(tiny_graph, 6)
            .add_ppr(tiny_graph, [5])
        )
        outcome = QueryPlanner(result_cache=0).run(batch)
        assert outcome.stats.groups == 1
        for query, answer in zip(batch, outcome):
            assert answer.tobytes() == evaluate(query).tobytes()

    def test_large_single_measure_group_bitwise(self, tiny_graph):
        batch = QueryBatch()
        for start in range(tiny_graph.n):
            batch.add_rwr(tiny_graph, start)
        outcome = QueryPlanner(result_cache=0).run(batch)
        block = rwr_scores_many(tiny_graph, list(range(tiny_graph.n)))
        for column, answer in enumerate(outcome):
            assert answer.tobytes() == block[:, column].tobytes()


@pytest.mark.slow
class TestPlannerExecutors:
    def test_parallel_factorization_bitwise_equal_serial(self, tiny_graph, second_graph):
        batch = (
            QueryBatch()
            .add_pagerank(tiny_graph)
            .add_pagerank(second_graph)
            .add_rwr(tiny_graph, 0, damping=0.6)
            .add_hitting_time(second_graph, 1)
        )
        serial = QueryPlanner(executor=SerialExecutor()).run(batch)
        parallel = QueryPlanner(executor=2).run(batch)
        assert serial.stats.factorizations == parallel.stats.factorizations == 4
        for left, right in zip(serial, parallel):
            assert left.tobytes() == right.tobytes()


class TestFactorizationFailures:
    """One unsolvable system must fail diagnosably, not sink the batch.

    Regression: a singular custom system raised out of the factor work unit
    and aborted the whole parallel batch with a bare worker traceback.  The
    planner now collects per-unit failure reports, caches every *healthy*
    sibling's factors first, and raises one :class:`FactorizationError`
    naming each failing unit and its system group.
    """

    @pytest.fixture()
    def singular_spec(self, monkeypatch):
        from repro.sparse.csr import SparseMatrix

        spec = MeasureSpec(
            name="singular_system_test",
            kind=MatrixKind.RANDOM_WALK,
            build_rhs=get_spec("pagerank").build_rhs,
            build_matrix=lambda snapshot, damping, params: SparseMatrix(
                snapshot.n, {(0, 0): 1.0}
            ),
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        return spec

    @pytest.mark.parametrize("executor", [None, 2])
    def test_error_names_the_failing_unit(self, tiny_graph, singular_spec, executor):
        from repro.errors import FactorizationError

        planner = QueryPlanner(executor=executor)
        batch = (QueryBatch()
                 .add_pagerank(tiny_graph)
                 .add(make_query("singular_system_test", tiny_graph))
                 .add_rwr(tiny_graph, 1))
        with pytest.raises(FactorizationError) as excinfo:
            planner.run(batch)
        message = str(excinfo.value)
        assert "factor unit" in message
        assert "singular_system_test" in message
        assert len(excinfo.value.failures) == 1

    def test_healthy_siblings_are_cached_before_the_raise(self, tiny_graph, singular_spec):
        from repro.errors import FactorizationError

        planner = QueryPlanner()
        poisoned = (QueryBatch()
                    .add_pagerank(tiny_graph)
                    .add(make_query("singular_system_test", tiny_graph))
                    .add_rwr(tiny_graph, 1))
        with pytest.raises(FactorizationError):
            planner.run(poisoned)
        # The healthy group's factors survived the failed run: retrying
        # without the poisoned query costs no new factorization.
        retry = planner.run(QueryBatch().add_pagerank(tiny_graph).add_rwr(tiny_graph, 1))
        assert retry.stats.factorizations == 0
        reference = QueryPlanner().run(
            QueryBatch().add_pagerank(tiny_graph).add_rwr(tiny_graph, 1)
        )
        for answer, expected in zip(retry, reference):
            assert answer.tobytes() == expected.tobytes()

    def test_all_groups_failing_reports_each(self, tiny_graph, second_graph, singular_spec):
        from repro.errors import FactorizationError

        planner = QueryPlanner()
        batch = (QueryBatch()
                 .add(make_query("singular_system_test", tiny_graph))
                 .add(make_query("singular_system_test", second_graph)))
        with pytest.raises(FactorizationError) as excinfo:
            planner.run(batch)
        assert len(excinfo.value.failures) == 2
