"""Delta-refresh suite: system deltas, Bennett cache refresh, planner lineage.

Three contracts are pinned here:

* **System deltas** — for every registered
  :class:`~repro.graphs.matrixkind.MatrixKind`, the localized
  :func:`~repro.graphs.matrixkind.system_delta` equals the full-matrix diff
  ``measure_matrix(after) - measure_matrix(before)``.
* **Refresh correctness** — a Bennett-refreshed cached system answers every
  registered measure within numerical tolerance of a cold factorization,
  across random small deltas (added *and* removed edges), and every failure
  mode (oversized delta, pattern violation, pivot breakdown, missing parent)
  falls back to a cold factorization with a counted ``refresh_fallbacks``.
* **Cache contracts** — seeding never silently evicts
  (:class:`~repro.errors.MeasureError` instead), hit/miss counters tick
  exactly once per group per execute, refresh installs never double-count as
  misses, and ``peek`` is counter- and recency-neutral.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import EMSSolver
from repro.errors import MeasureError, PatternError, SingularMatrixError
from repro.graphs.delta import GraphDelta, touched_nodes, touched_sources
from repro.graphs.generators import growing_egs
from repro.graphs.matrixkind import (
    MatrixKind,
    measure_matrix,
    system_delta,
)
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.bennett import bennett_update
from repro.lu.factors import LUFactors
from repro.measures.timeseries import MeasureSeries
from repro.query import (
    FactorCache,
    FactorizedSystem,
    QueryBatch,
    QueryPlanner,
    make_query,
    system_key,
)
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern

#: Refreshed answers agree with cold factorization to this tolerance.
TOLERANCE = 1e-8


@pytest.fixture
def second_graph() -> GraphSnapshot:
    """A second small graph so caches can hold distinct snapshot keys."""
    edges = [(0, 3), (3, 1), (1, 0), (1, 4), (4, 2), (2, 3), (2, 5), (5, 0), (4, 5)]
    return GraphSnapshot(6, edges, directed=True)

#: Per-measure query parameters for differential sweeps.
MEASURE_PARAMS = {
    "rwr": {"start_node": 0},
    "ppr": {"seeds": (0, 1)},
    "hitting_time": {"target": 0},
    "hitting_time_shared": {"target": 0},
}


def random_snapshot(rng: np.random.Generator, n: int, edges: int,
                    directed: bool = True) -> GraphSnapshot:
    pairs = set()
    for _ in range(edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    return GraphSnapshot(n, pairs, directed=directed)


def evolve(rng: np.random.Generator, snapshot: GraphSnapshot,
           additions: int, removals: int) -> GraphSnapshot:
    """Return a snapshot evolved by a few random edge changes."""
    existing = sorted(snapshot.edges)
    removed = set()
    for _ in range(removals):
        if existing:
            removed.add(existing[int(rng.integers(0, len(existing)))])
    added = set()
    for _ in range(additions):
        u, v = rng.integers(0, snapshot.n, size=2)
        if u != v and (int(u), int(v)) not in snapshot.edges:
            added.add((int(u), int(v)))
    return snapshot.with_edges(added=added, removed=removed)


def assert_entries_match(got, want, tolerance: float = 1e-12) -> None:
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < tolerance, key


def full_diff(before: GraphSnapshot, after: GraphSnapshot, kind: MatrixKind,
              damping: float = 0.85):
    return measure_matrix(before, kind=kind, damping=damping).delta_entries(
        measure_matrix(after, kind=kind, damping=damping)
    )


# ---------------------------------------------------------------------- #
# System deltas
# ---------------------------------------------------------------------- #
class TestSystemDelta:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_full_matrix_diff(self, kind, directed):
        rng = np.random.default_rng(11)
        before = random_snapshot(rng, 18, 54, directed=directed)
        after = evolve(rng, before, additions=3, removals=3)
        got = system_delta(before, after, kind=kind, damping=0.85)
        assert_entries_match(got, full_diff(before, after, kind))

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_empty_delta_is_empty(self, kind, tiny_graph):
        assert system_delta(tiny_graph, tiny_graph, kind=kind) == {}

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_removed_only_delta(self, kind, tiny_graph):
        removed = sorted(tiny_graph.edges)[:3]
        after = tiny_graph.with_edges(removed=removed)
        got = system_delta(tiny_graph, after, kind=kind)
        assert got
        assert_entries_match(got, full_diff(tiny_graph, after, kind))

    def test_node_losing_every_out_edge(self, tiny_graph):
        victim = 2
        removed = [(u, v) for u, v in tiny_graph.edges if u == victim]
        after = tiny_graph.with_edges(removed=removed)
        got = system_delta(tiny_graph, after, kind=MatrixKind.RANDOM_WALK)
        # The whole column of the victim vanishes from A = I - dW.
        assert all(j == victim for (_, j) in got)
        assert_entries_match(got, full_diff(tiny_graph, after, MatrixKind.RANDOM_WALK))

    def test_random_walk_delta_is_bitwise(self, tiny_graph):
        after = tiny_graph.with_edges(added=[(5, 3)], removed=[(0, 1)])
        got = system_delta(tiny_graph, after, kind=MatrixKind.RANDOM_WALK)
        want = full_diff(tiny_graph, after, MatrixKind.RANDOM_WALK)
        assert got == want  # identical float expressions, not just close

    def test_accepts_precomputed_graph_delta(self, tiny_graph):
        after = tiny_graph.with_edges(added=[(5, 3)])
        delta = GraphDelta.between(tiny_graph, after)
        got = system_delta(tiny_graph, after, delta=delta)
        assert got == system_delta(tiny_graph, after)

    def test_dimension_mismatch_raises(self, tiny_graph):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            system_delta(tiny_graph, GraphSnapshot(3, [(0, 1)]))

    def test_invalid_damping_raises(self, tiny_graph):
        with pytest.raises(MeasureError):
            system_delta(tiny_graph, tiny_graph, damping=1.5)

    def test_touched_helpers(self):
        delta = GraphDelta(added=[(1, 2)], removed=[(4, 3), (4, 1)])
        assert touched_nodes(delta) == (1, 2, 3, 4)
        assert touched_sources(delta) == (1, 4)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_walk_differential_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 36))
        before = random_snapshot(rng, n, int(rng.integers(n, 4 * n)))
        after = evolve(rng, before, additions=int(rng.integers(0, 4)),
                       removals=int(rng.integers(0, 4)))
        got = system_delta(before, after, kind=MatrixKind.RANDOM_WALK)
        assert_entries_match(got, full_diff(before, after, MatrixKind.RANDOM_WALK))


# ---------------------------------------------------------------------- #
# FactorCache.refresh (the direct one-pair API)
# ---------------------------------------------------------------------- #
def _cached_pair(rng=None, nodes=40, edges=140, additions=2, removals=2):
    """Return (cache, old_key, new_key, old/new snapshots) with old cached."""
    rng = rng if rng is not None else np.random.default_rng(5)
    before = random_snapshot(rng, nodes, edges)
    after = evolve(rng, before, additions=additions, removals=removals)
    cache = FactorCache()
    old_key = system_key(make_query("pagerank", before))
    new_key = system_key(make_query("pagerank", after))
    cache.seed(old_key, FactorizedSystem.factorize(measure_matrix(before)))
    return cache, old_key, new_key, before, after


class TestFactorCacheRefresh:
    def test_refresh_matches_cold_factorization(self):
        cache, old_key, new_key, before, after = _cached_pair()
        delta = system_delta(before, after)
        system = cache.refresh(old_key, new_key, delta,
                               new_matrix=measure_matrix(after))
        assert system is not None
        assert new_key in cache and old_key in cache
        cold = FactorizedSystem.factorize(measure_matrix(after))
        b = np.ones(before.n)
        assert np.max(np.abs(system.solve(b) - cold.solve(b))) < TOLERANCE
        info = cache.cache_info()
        assert info["refreshes"] == 1
        assert info["refresh_fallbacks"] == 0
        assert info["hits"] == 0 and info["misses"] == 0  # refresh is lookup-neutral

    def test_refresh_default_matrix_is_old_plus_delta(self):
        cache, old_key, new_key, before, after = _cached_pair()
        delta = system_delta(before, after)
        system = cache.refresh(old_key, new_key, delta)
        want = measure_matrix(after)
        assert system.matrix.n == want.n
        assert np.max(np.abs(system.matrix.to_dense() - want.to_dense())) < 1e-12

    def test_refresh_leaves_parent_factors_untouched(self):
        cache, old_key, new_key, before, after = _cached_pair()
        b = np.ones(before.n)
        parent_before = cache.peek(old_key).solve(b)
        cache.refresh(old_key, new_key, system_delta(before, after))
        parent_after = cache.peek(old_key).solve(b)
        assert parent_before.tobytes() == parent_after.tobytes()

    def test_steal_removes_parent_entry(self):
        cache, old_key, new_key, before, after = _cached_pair()
        system = cache.refresh(old_key, new_key, system_delta(before, after),
                               steal=True)
        assert system is not None
        assert old_key not in cache and new_key in cache

    def test_steal_keeps_parent_on_breakdown(self, monkeypatch):
        # steal only takes effect on success: a mid-sweep failure must leave
        # the parent entry cached and answering.
        cache, old_key, new_key, before, after = _cached_pair()
        monkeypatch.setattr(
            "repro.query.cache.bennett_update",
            lambda *a, **k: (_ for _ in ()).throw(SingularMatrixError(0, 0.0)),
        )
        assert cache.refresh(old_key, new_key, system_delta(before, after),
                             steal=True) is None
        assert old_key in cache and new_key not in cache
        assert cache.cache_info()["refresh_fallbacks"] == 1

    def test_threshold_fallback(self):
        rng = np.random.default_rng(5)
        before = random_snapshot(rng, 40, 140)
        after = evolve(rng, before, additions=2, removals=2)
        cache = FactorCache(refresh_threshold=0.0)
        old_key = system_key(make_query("pagerank", before))
        new_key = system_key(make_query("pagerank", after))
        cache.seed(old_key, FactorizedSystem.factorize(measure_matrix(before)))
        assert cache.refresh(old_key, new_key, system_delta(before, after)) is None
        assert cache.cache_info()["refresh_fallbacks"] == 1
        assert new_key not in cache

    def test_missing_parent_fallback(self):
        cache, old_key, new_key, before, after = _cached_pair()
        cache.clear()
        assert cache.refresh(old_key, new_key, system_delta(before, after)) is None
        assert cache.cache_info()["refresh_fallbacks"] == 1

    def test_pivot_breakdown_fallback(self, monkeypatch):
        cache, old_key, new_key, before, after = _cached_pair()
        monkeypatch.setattr(
            "repro.query.cache.bennett_update",
            lambda *a, **k: (_ for _ in ()).throw(SingularMatrixError(0, 0.0)),
        )
        assert cache.refresh(old_key, new_key, system_delta(before, after)) is None
        info = cache.cache_info()
        assert info["refresh_fallbacks"] == 1 and info["refreshes"] == 0
        assert old_key in cache  # clone path: parent entry survives the breakdown

    def test_negative_threshold_rejected(self):
        with pytest.raises(MeasureError):
            FactorCache(refresh_threshold=-0.1)

    def test_refresh_unit_reports_pattern_violation_as_none(self):
        # A diagonal-only static pattern cannot absorb off-diagonal fill, so
        # the REFRESH work-unit body must surface factors=None, not raise.
        from repro.exec.executors import SerialExecutor
        from repro.exec.plan import plan_refresh_batch

        factors = LUFactors.sealed(SparsityPattern(3, set()))
        for k in range(3):
            factors.set_l_diagonal(k, 1.0)
        with pytest.raises(PatternError):
            bennett_update(factors.copy(), {(1, 0): 0.5})
        matrix = measure_matrix(GraphSnapshot(3, [(0, 1)]))
        plan = plan_refresh_batch([(matrix, factors, None, {(1, 0): 0.5})])
        outcome = SerialExecutor().execute(plan)
        assert outcome.decompositions[0].factors is None


class TestCloneSemantics:
    def test_static_copy_isolates_values(self, tiny_graph):
        solver = EMSSolver.from_graphs(
            growing_egs(nodes=30, snapshots=3, initial_edges=90,
                        edges_per_step=5, seed=2),
            algorithm="CLUDE", alpha=0.5,
        )
        factors = solver.decompose()[0].factors
        assert isinstance(factors, LUFactors) and factors.is_sealed
        clone = factors.copy()
        clone.set_l_diagonal(0, 123.0)
        assert factors.l_diagonal(0) != 123.0
        # structure is shared, values are not
        assert clone.sweep_storage().l_rows is factors.sweep_storage().l_rows
        assert clone.sweep_storage().l_values is not factors.sweep_storage().l_values

    def test_factorized_system_clone_isolates_solves(self, tiny_graph):
        system = FactorizedSystem.factorize(measure_matrix(tiny_graph))
        b = np.ones(tiny_graph.n)
        reference = system.solve(b)
        clone = system.clone()
        bennett_update(clone.factors, {(0, 0): 0.25})
        assert system.solve(b).tobytes() == reference.tobytes()
        assert clone.solve(b).tobytes() != reference.tobytes()

    @staticmethod
    def _parent_system() -> FactorizedSystem:
        # L[1, 0] = 1 is stored; column 0 holds nothing at row 2.
        matrix = SparseMatrix.from_dense(
            np.array([[2.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        )
        return FactorizedSystem.factorize(matrix, reorder=False)

    @staticmethod
    def _state(factors):
        return (
            [(i, j, v.hex()) for i, j, v in factors.l_items()],
            [(i, j, v.hex()) for i, j, v in factors.u_items()],
            factors.fill_size,
        )

    # Cancels L[1, 0] (a node removal) and fills L[2, 0] (an insert).
    RESHAPING_DELTA = {(1, 0): -1.0, (2, 0): 1.0}

    def test_growable_clone_owns_its_lists(self):
        parent = self._parent_system()
        before = self._state(parent.factors)
        clone = parent.clone()
        bennett_update(clone.factors, self.RESHAPING_DELTA)
        assert clone.factors.structural_ops == 2
        assert clone.factors.l_column_entries(0) == [(2, 1.0)]
        assert self._state(parent.factors) == before
        assert parent.factors.l_column_entries(0) == [(1, 1.0)]
        ours, theirs = parent.factors.sweep_storage(), clone.factors.sweep_storage()
        for name in ("l_rows", "l_values", "u_cols", "u_values"):
            assert all(a is not b for a, b in zip(getattr(ours, name), getattr(theirs, name)))

    def test_failed_prepared_refresh_leaves_parent_intact(self):
        cache = FactorCache(refresh_threshold=10.0)  # a 3-entry delta on nnz 4
        key = system_key(make_query("pagerank", GraphSnapshot(3, [(0, 1)])))
        cache.seed(key, self._parent_system())
        before = self._state(cache.peek(key).factors)
        # The first rank-1 sweep reshapes column 0; the second zeroes pivot 2.
        delta = dict(self.RESHAPING_DELTA)
        delta[(2, 2)] = -2.0
        working = cache.prepare_refresh(key, delta)
        with pytest.raises(SingularMatrixError):
            bennett_update(working.factors, delta)
        assert working.factors.structural_ops == 2
        assert self._state(cache.peek(key).factors) == before


# ---------------------------------------------------------------------- #
# Satellite bugfix: seeding must never silently evict
# ---------------------------------------------------------------------- #
class TestSeedOverflowContract:
    def test_seed_overflow_raises(self, tiny_graph, second_graph):
        cache = FactorCache(max_systems=1)
        key_a = system_key(make_query("pagerank", tiny_graph))
        key_b = system_key(make_query("pagerank", second_graph))
        cache.seed(key_a, FactorizedSystem.factorize(measure_matrix(tiny_graph)))
        with pytest.raises(MeasureError, match="seeding would overflow"):
            cache.seed(key_b, FactorizedSystem.factorize(measure_matrix(second_graph)))
        assert cache.cache_info()["evictions"] == 0
        assert key_a in cache and key_b not in cache

    def test_reseeding_existing_key_at_bound_is_fine(self, tiny_graph):
        cache = FactorCache(max_systems=1)
        key = system_key(make_query("pagerank", tiny_graph))
        system = FactorizedSystem.factorize(measure_matrix(tiny_graph))
        cache.seed(key, system)
        cache.seed(key, system)  # same key: no growth, no eviction, no error
        assert len(cache) == 1

    def test_seed_planner_bounded_cache_raises(self):
        egs = growing_egs(nodes=25, snapshots=4, initial_edges=75,
                          edges_per_step=5, seed=6)
        solver = EMSSolver.from_graphs(egs, algorithm="BF")
        bounded = QueryPlanner(cache=FactorCache(max_systems=2))
        with pytest.raises(MeasureError, match="seeding would overflow"):
            solver.seed_planner(bounded)
        # A bound covering the whole sequence seeds fine.
        roomy = QueryPlanner(cache=FactorCache(max_systems=len(egs)))
        solver.seed_planner(roomy)
        assert len(roomy.cache) == len(egs)

    def test_store_path_still_evicts(self, tiny_graph, second_graph):
        cache = FactorCache(max_systems=1)
        key_a = system_key(make_query("pagerank", tiny_graph))
        key_b = system_key(make_query("pagerank", second_graph))
        cache.store(key_a, FactorizedSystem.factorize(measure_matrix(tiny_graph)))
        cache.store(key_b, FactorizedSystem.factorize(measure_matrix(second_graph)))
        assert cache.cache_info()["evictions"] == 1
        assert key_a not in cache and key_b in cache


# ---------------------------------------------------------------------- #
# Satellite bugfix: hit/miss accounting at group granularity
# ---------------------------------------------------------------------- #
class TestCounterAccounting:
    def test_one_lookup_per_group_per_execute(self, tiny_graph, second_graph):
        planner = QueryPlanner()
        batch = (QueryBatch()
                 .add_pagerank(tiny_graph)
                 .add_rwr(tiny_graph, 1)       # same group as pagerank
                 .add_pagerank(second_graph))  # second group
        plan = planner.plan(batch)
        assert plan.group_count == 2
        # Planning alone must not touch the cache.
        info = planner.cache_info()
        assert info["hits"] == info["misses"] == 0
        planner.execute(plan)
        info = planner.cache_info()
        assert (info["hits"], info["misses"]) == (0, 2)
        planner.execute(plan)
        info = planner.cache_info()
        assert (info["hits"], info["misses"]) == (2, 2)

    def test_peek_is_counter_and_recency_neutral(self, tiny_graph, second_graph):
        cache = FactorCache(max_systems=2)
        key_a = system_key(make_query("pagerank", tiny_graph))
        key_b = system_key(make_query("pagerank", second_graph))
        key_c = system_key(make_query("pagerank", tiny_graph, damping=0.6))
        cache.store(key_a, FactorizedSystem.factorize(measure_matrix(tiny_graph)))
        cache.store(key_b, FactorizedSystem.factorize(measure_matrix(second_graph)))
        before = cache.cache_info()
        assert cache.peek(key_a) is not None
        assert cache.peek(key_c) is None
        assert cache.cache_info() == before
        # peek(key_a) did not freshen key_a: it is still the LRU victim.
        cache.store(key_c, FactorizedSystem.factorize(
            measure_matrix(tiny_graph, damping=0.6)))
        assert key_a not in cache and key_b in cache

    def test_refresh_install_does_not_count_as_miss(self):
        rng = np.random.default_rng(8)
        before = random_snapshot(rng, 30, 100)
        after = evolve(rng, before, additions=2, removals=1)
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before))
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 1
        assert outcome.stats.factorizations == 0
        info = planner.cache_info()
        # one counted miss per execute-group, nothing extra from the install
        assert (info["hits"], info["misses"], info["refreshes"]) == (0, 2, 1)
        # the refreshed key now serves hits
        planner.run(QueryBatch().add_pagerank(after))
        info = planner.cache_info()
        assert (info["hits"], info["misses"], info["refreshes"]) == (1, 2, 1)

    def test_shortcut_answers_touch_no_counters(self):
        empty = GraphSnapshot(4, [])
        planner = QueryPlanner()
        planner.run(QueryBatch().add_salsa_authority(empty).add_salsa_hub(empty))
        info = planner.cache_info()
        assert info["hits"] == info["misses"] == info["size"] == 0


# ---------------------------------------------------------------------- #
# Planner-level refresh
# ---------------------------------------------------------------------- #
def _evolved_pair(seed=3, nodes=60, snapshots=2):
    egs = growing_egs(nodes=nodes, snapshots=snapshots,
                      initial_edges=nodes * 3, edges_per_step=6, seed=seed)
    return egs[0], egs[-1]


class TestPlannerRefresh:
    def test_explicit_lineage_refreshes(self):
        before, after = _evolved_pair()
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before).add_rwr(before, 4))
        planner.register_evolution(before, after)
        batch = QueryBatch().add_pagerank(after).add_rwr(after, 4)
        outcome = planner.run(batch)
        assert outcome.stats.refreshes == 1
        assert outcome.stats.factorizations == 0
        cold = QueryPlanner().run(batch)
        for answer, reference in zip(outcome, cold):
            assert np.max(np.abs(answer - reference)) < TOLERANCE

    def test_no_lineage_no_auto_refresh_goes_cold(self):
        before, after = _evolved_pair()
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before))
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 0
        assert outcome.stats.factorizations == 1

    def test_auto_refresh_scans_cached_snapshots(self):
        before, after = _evolved_pair()
        planner = QueryPlanner(auto_refresh=True)
        planner.run(QueryBatch().add_pagerank(before))
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(after))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_auto_refresh_picks_nearest_parent(self):
        before, after = _evolved_pair()
        near = after.with_edges(added=[(0, after.n - 1)])
        planner = QueryPlanner(auto_refresh=True)
        planner.run(QueryBatch().add_pagerank(before))
        planner.run(QueryBatch().add_pagerank(after))
        # `near` differs from `after` by one edge but from `before` by many.
        outcome = planner.run(QueryBatch().add_pagerank(near))
        assert outcome.stats.refreshes == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(near))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_custom_matrix_builder_never_refreshes(self):
        before, after = _evolved_pair()
        planner = QueryPlanner(auto_refresh=True)
        planner.run(QueryBatch().add_hitting_time(before, 0))
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_hitting_time(after, 0))
        assert outcome.stats.refreshes == 0
        assert outcome.stats.factorizations == 1
        cold = QueryPlanner().run(QueryBatch().add_hitting_time(after, 0))
        assert outcome[0].tobytes() == cold[0].tobytes()

    def test_removed_edge_evolution_refreshes(self):
        before, _ = _evolved_pair()
        after = before.with_edges(removed=sorted(before.edges)[:3])
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before))
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(after))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_refresh_chain_stays_accurate(self):
        rng = np.random.default_rng(17)
        snapshot = random_snapshot(rng, 50, 200)
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(snapshot))
        for _ in range(5):
            evolved = evolve(rng, snapshot, additions=2, removals=2)
            if evolved == snapshot:
                continue
            planner.register_evolution(snapshot, evolved)
            outcome = planner.run(QueryBatch().add_pagerank(evolved))
            assert outcome.stats.factorizations == 0
            cold = QueryPlanner().run(QueryBatch().add_pagerank(evolved))
            assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE
            snapshot = evolved

    def test_oversized_delta_falls_back_cold(self):
        before, _ = _evolved_pair()
        planner = QueryPlanner(cache=FactorCache(refresh_threshold=0.0))
        planner.run(QueryBatch().add_pagerank(before))
        after = before.with_edges(added=[(0, before.n - 1)])
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 0
        assert outcome.stats.factorizations == 1
        assert planner.cache_info()["refresh_fallbacks"] == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(after))
        assert outcome[0].tobytes() == cold[0].tobytes()

    def test_same_batch_lineage_chain_refreshes_every_link(self):
        # g -> g2 -> g3 registered; g2 and g3 queried in ONE batch: g3's
        # parent only exists after g2's refresh commits, so the planner must
        # resolve the chain in waves instead of cold-factorizing g3.
        before, _ = _evolved_pair(seed=23)
        g2 = before.with_edges(added=[(0, before.n - 1)])
        g3 = g2.with_edges(removed=[sorted(g2.edges)[0]])
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before))
        planner.register_evolution(before, g2)
        planner.register_evolution(g2, g3)
        outcome = planner.run(QueryBatch().add_pagerank(g2).add_pagerank(g3))
        assert outcome.stats.refreshes == 2
        assert outcome.stats.factorizations == 0
        cold = QueryPlanner().run(QueryBatch().add_pagerank(g2).add_pagerank(g3))
        for answer, reference in zip(outcome, cold):
            assert np.max(np.abs(answer - reference)) < TOLERANCE

    def test_lineage_with_missing_parent_counts_fallback(self):
        # Lineage registered but the parent system was never cached (or was
        # evicted): the group cold-factorizes AND the fallback is counted,
        # matching FactorCache.refresh on a missing parent.
        before, after = _evolved_pair(seed=24)
        planner = QueryPlanner()
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.refreshes == 0
        assert outcome.stats.factorizations == 1
        assert planner.cache_info()["refresh_fallbacks"] == 1

    def test_register_evolution_validates(self, tiny_graph):
        planner = QueryPlanner()
        with pytest.raises(MeasureError):
            planner.register_evolution(tiny_graph, GraphSnapshot(3, [(0, 1)]))
        with pytest.raises(MeasureError):
            planner.register_evolution("not a snapshot", tiny_graph)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_differential_refresh_all_measures_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 48))
        before = random_snapshot(rng, n, 4 * n)
        after = evolve(rng, before, additions=2, removals=2)
        params = dict(MEASURE_PARAMS)
        from repro.query.spec import registered_measures

        def batch_for(snapshot):
            batch = QueryBatch()
            for name in registered_measures():
                batch.add(make_query(name, snapshot, **params.get(name, {})))
            return batch

        planner = QueryPlanner()
        planner.run(batch_for(before))
        planner.register_evolution(before, after)
        outcome = planner.run(batch_for(after))
        cold = QueryPlanner().run(batch_for(after))
        for answer, reference in zip(outcome, cold):
            assert np.max(np.abs(answer - reference)) < TOLERANCE
        # every miss group was either refreshed or cold-factorized
        assert (outcome.stats.refreshes + outcome.stats.factorizations
                == outcome.stats.groups - outcome.stats.cache_hits)

    @pytest.mark.slow
    def test_parallel_refresh_bitwise_equals_serial(self):
        before, after = _evolved_pair(seed=21)
        batch = QueryBatch().add_pagerank(after).add_rwr(after, 3)
        answers = {}
        for name, executor in (("serial", None), ("parallel", 2)):
            planner = QueryPlanner(executor=executor)
            planner.run(QueryBatch().add_pagerank(before).add_rwr(before, 3))
            planner.register_evolution(before, after)
            outcome = planner.run(batch)
            assert outcome.stats.refreshes == 1
            answers[name] = outcome
        for serial, parallel in zip(answers["serial"], answers["parallel"]):
            assert serial.tobytes() == parallel.tobytes()


# ---------------------------------------------------------------------- #
# EMSSolver / MeasureSeries ride-along
# ---------------------------------------------------------------------- #
class TestEvolutionRideAlong:
    @pytest.mark.parametrize("algorithm", ["BF", "INC", "CINC"])
    def test_emssolver_refreshes_evolved_head(self, algorithm):
        egs = growing_egs(nodes=50, snapshots=4, initial_edges=150,
                          edges_per_step=6, seed=13)
        solver = EMSSolver.from_graphs(egs, algorithm=algorithm, alpha=0.8)
        head = egs[len(egs) - 1]
        evolved = head.with_edges(added=[(0, 9)], removed=[sorted(head.edges)[0]])
        solver.register_evolution(evolved)
        outcome = solver.run_batch(QueryBatch().add_pagerank(evolved))
        assert outcome.stats.refreshes == 1
        assert outcome.stats.factorizations == 0
        cold = QueryPlanner().run(QueryBatch().add_pagerank(evolved))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_emssolver_refresh_from_explicit_index(self):
        egs = growing_egs(nodes=40, snapshots=3, initial_edges=120,
                          edges_per_step=5, seed=14)
        solver = EMSSolver.from_graphs(egs, algorithm="BF")
        base = egs[0]
        evolved = base.with_edges(added=[(1, 7)])
        solver.register_evolution(evolved, from_index=0)
        outcome = solver.run_batch(QueryBatch().add_pagerank(evolved))
        assert outcome.stats.refreshes == 1

    def test_clude_static_pattern_fallback_is_correct(self):
        # CLUDE seeds sealed LUFactors; an evolution that needs out-of-pattern
        # fill must fall back to a cold factorization and still be right.
        egs = growing_egs(nodes=60, snapshots=4, initial_edges=180,
                          edges_per_step=8, seed=9)
        solver = EMSSolver.from_graphs(egs, algorithm="CLUDE", alpha=0.8)
        head = egs[len(egs) - 1]
        evolved = head.with_edges(added=[(0, 7), (3, 11)],
                                  removed=[sorted(head.edges)[0]])
        solver.register_evolution(evolved)
        outcome = solver.run_batch(QueryBatch().add_pagerank(evolved))
        info = solver.planner_cache_info()
        assert info["refreshes"] + info["refresh_fallbacks"] == 1
        assert outcome.stats.refreshes + outcome.stats.factorizations == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(evolved))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_measure_series_register_evolution(self):
        egs = growing_egs(nodes=40, snapshots=3, initial_edges=120,
                          edges_per_step=5, seed=15)
        series = MeasureSeries(egs, algorithm="CINC", alpha=0.8)
        head = egs[len(egs) - 1]
        evolved = head.with_edges(added=[(2, 9)])
        series.register_evolution(evolved)
        outcome = series.run_batch(QueryBatch().add_pagerank(evolved))
        assert outcome.stats.refreshes == 1
        cold = QueryPlanner().run(QueryBatch().add_pagerank(evolved))
        assert np.max(np.abs(outcome[0] - cold[0])) < TOLERANCE

    def test_register_evolution_requires_graph_context(self, tiny_ems, tiny_graph):
        solver = EMSSolver(tiny_ems, algorithm="BF")
        with pytest.raises(MeasureError, match="graph context"):
            solver.register_evolution(tiny_graph)

    def test_register_evolution_index_bounds(self):
        egs = growing_egs(nodes=20, snapshots=2, initial_edges=60,
                          edges_per_step=4, seed=16)
        solver = EMSSolver.from_graphs(egs, algorithm="BF")
        with pytest.raises(MeasureError, match="out of bounds"):
            solver.register_evolution(egs[0], from_index=7)


class TestLineageBounding:
    """A bounded factor cache must bound the planner's lineage state too.

    Regression: ``register_evolution`` over a long chain accumulated one
    lineage entry (holding two full snapshots) per step forever, even with a
    small ``max_systems`` factor cache — the planner leaked memory linearly
    in chain length.  The cache now fires an eviction listener exactly when a
    key leaves it, and the planner drops lineage entries (and snapshot
    bindings) whose parent system no longer backs any cached key.
    """

    def _chain(self, length, seed=21):
        rng = np.random.default_rng(seed)
        chain = [random_snapshot(rng, 30, 120)]
        for _ in range(length - 1):
            chain.append(evolve(rng, chain[-1], additions=2, removals=1))
        return chain

    def test_long_chain_keeps_lineage_near_cache_size(self):
        chain = self._chain(12)
        planner = QueryPlanner(cache=FactorCache(max_systems=2))
        planner.run(QueryBatch().add_pagerank(chain[0]))
        for old, new in zip(chain, chain[1:]):
            planner.register_evolution(old, new)
            outcome = planner.run(QueryBatch().add_pagerank(new))
            # Refresh chains stay warm: each head refreshes its predecessor.
            assert outcome.stats.refreshes + outcome.stats.factorizations == 1
        # Every entry whose parent's factors were evicted is gone; what
        # remains is bounded by the cache, not by the chain length.
        assert len(planner._lineage) <= 2
        assert planner.cache_info()["size"] <= 2

    def test_unbounded_cache_keeps_all_lineage(self):
        chain = self._chain(5)
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(chain[0]))
        for old, new in zip(chain, chain[1:]):
            planner.register_evolution(old, new)
            planner.run(QueryBatch().add_pagerank(new))
        assert len(planner._lineage) == len(chain) - 1

    def test_clear_prunes_every_lineage_entry(self):
        chain = self._chain(4)
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(chain[0]))
        for old, new in zip(chain, chain[1:]):
            planner.register_evolution(old, new)
            planner.run(QueryBatch().add_pagerank(new))
        planner.cache.clear()
        assert planner._lineage == {}

    def test_answers_stay_correct_under_eviction_pruning(self):
        chain = self._chain(8, seed=22)
        bounded = QueryPlanner(cache=FactorCache(max_systems=2))
        for old, new in zip(chain, chain[1:]):
            bounded.register_evolution(old, new)
        for snapshot in chain:
            answer = bounded.run(QueryBatch().add_pagerank(snapshot))[0]
            cold = QueryPlanner().run(QueryBatch().add_pagerank(snapshot))[0]
            assert np.max(np.abs(answer - cold)) < TOLERANCE


class TestEvictionListeners:
    """The eviction channel fires exactly when a key leaves the cache."""

    def test_install_does_not_fire_eviction(self):
        rng = np.random.default_rng(31)
        cache = FactorCache()
        evicted = []
        cache.add_eviction_listener(evicted.append)
        planner = QueryPlanner(cache=cache)
        planner.run(QueryBatch().add_pagerank(random_snapshot(rng, 20, 60)))
        assert evicted == []

    def test_lru_eviction_and_clear_fire(self):
        rng = np.random.default_rng(32)
        cache = FactorCache(max_systems=1)
        evicted = []
        cache.add_eviction_listener(evicted.append)
        planner = QueryPlanner(cache=cache)
        first = random_snapshot(rng, 20, 60)
        second = random_snapshot(rng, 20, 60)
        planner.run(QueryBatch().add_pagerank(first))
        planner.run(QueryBatch().add_pagerank(second))
        assert [key.system for key in evicted] == [first]
        cache.clear()
        assert [key.system for key in evicted] == [first, second]

    def test_listener_sees_key_already_removed(self):
        # Listeners that scan cache.keys() (the planner's pruning does) must
        # not observe the departing key as still present.
        rng = np.random.default_rng(33)
        cache = FactorCache(max_systems=1)
        observed = []
        cache.add_eviction_listener(
            lambda key: observed.append(key in set(cache.keys()))
        )
        planner = QueryPlanner(cache=cache)
        planner.run(QueryBatch().add_pagerank(random_snapshot(rng, 20, 60)))
        planner.run(QueryBatch().add_pagerank(random_snapshot(rng, 20, 60)))
        cache.clear()
        assert observed == [False, False]
