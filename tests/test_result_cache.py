"""The planner-level result cache: answer reuse with strict invalidation.

Contracts pinned here:

* a repeated identical query never re-runs the substitution sweep, and the
  cached answer is byte-for-byte the freshly computed one;
* cached arrays are value-isolated in both directions (caller mutation never
  corrupts the cache, cache eviction never corrupts a caller);
* answers never outlive the factors they came from — factor-cache evictions
  and refresh installs both drop the derived entries;
* approximate (policy-reused) answers are never cached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasureError
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import QCPolicy
from repro.query import FactorCache, QueryBatch, QueryPlanner, ResultCache, make_query


@pytest.fixture
def second_graph() -> GraphSnapshot:
    edges = [(0, 3), (3, 1), (1, 0), (1, 4), (4, 2), (2, 3), (2, 5), (5, 0), (4, 5)]
    return GraphSnapshot(6, edges, directed=True)


def evolved(snapshot: GraphSnapshot) -> GraphSnapshot:
    (u, v) = sorted(snapshot.edges)[0]
    return snapshot.with_edges(added=[(v, u)] if (v, u) not in snapshot.edges else [],
                               removed=[(u, v)])


class TestResultReuse:
    def test_repeat_batch_hits_and_matches_bitwise(self, tiny_graph):
        planner = QueryPlanner()
        batch = (QueryBatch()
                 .add_pagerank(tiny_graph)
                 .add_rwr(tiny_graph, 2)
                 .add_ppr(tiny_graph, [0, 4]))
        first = planner.run(batch)
        assert first.stats.result_hits == 0
        second = planner.run(batch)
        assert second.stats.result_hits == 3
        info = planner.cache_info()
        assert info["result_hits"] == 3
        assert info["result_misses"] == 3
        assert info["result_size"] == 3
        for left, right in zip(first, second):
            assert left.tobytes() == right.tobytes()

    def test_pure_specs_share_entries_across_measures(self, tiny_graph):
        # RWR from u and single-seed PPR at u build the same RHS against the
        # same system and apply no transform: one entry serves both.
        planner = QueryPlanner()
        first = planner.run(QueryBatch().add_rwr(tiny_graph, 3))
        second = planner.run(QueryBatch().add_ppr(tiny_graph, [3]))
        assert second.stats.result_hits == 1
        assert first[0].tobytes() == second[0].tobytes()

    def test_transform_specs_key_on_params(self, tiny_graph):
        # hitting_time_shared shares one system and one RHS shape, but its
        # transform depends on the target: different targets are distinct
        # entries (and different answers).
        planner = QueryPlanner()
        planner.run(QueryBatch().add_hitting_time(tiny_graph, 0, shared=True))
        outcome = planner.run(QueryBatch().add_hitting_time(tiny_graph, 0, shared=True))
        assert outcome.stats.result_hits == 1
        other = planner.run(QueryBatch().add_hitting_time(tiny_graph, 1, shared=True))
        assert other.stats.result_hits == 0

    def test_caller_mutation_does_not_corrupt_cache(self, tiny_graph):
        planner = QueryPlanner()
        first = planner.run(QueryBatch().add_pagerank(tiny_graph))
        pristine = first[0].copy()
        first[0][:] = -1.0
        second = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert second.stats.result_hits == 1
        assert second[0].tobytes() == pristine.tobytes()
        second[0][:] = 7.0
        third = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert third[0].tobytes() == pristine.tobytes()

    def test_disabled_result_cache(self, tiny_graph):
        planner = QueryPlanner(result_cache=0)
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        outcome = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert planner.result_cache is None
        assert outcome.stats.result_hits == 0
        assert planner.cache_info()["result_size"] == 0

    def test_explicit_instance_and_int_bounds(self, tiny_graph, second_graph):
        cache = ResultCache(max_entries=1)
        planner = QueryPlanner(result_cache=cache)
        assert planner.result_cache is cache
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        planner.run(QueryBatch().add_pagerank(second_graph))  # evicts the first
        info = cache.cache_info()
        assert info["evictions"] == 1
        assert info["size"] == 1
        outcome = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert outcome.stats.result_hits == 0
        with pytest.raises(MeasureError):
            ResultCache(max_entries=0)
        bounded = QueryPlanner(result_cache=4)
        assert bounded.result_cache is not None

    def test_bool_result_cache_means_default_or_disabled(self):
        # bools are ints: True must not build a degenerate 1-entry cache.
        from repro.query.cache import DEFAULT_RESULT_CACHE_SIZE

        enabled = QueryPlanner(result_cache=True)
        assert enabled.result_cache is not None
        assert enabled.result_cache._max_entries == DEFAULT_RESULT_CACHE_SIZE
        assert QueryPlanner(result_cache=False).result_cache is None
        with pytest.raises(MeasureError):
            QueryPlanner(result_cache=-100)


class TestInvalidation:
    def test_factor_eviction_drops_derived_answers(self, tiny_graph, second_graph):
        planner = QueryPlanner(cache=FactorCache(max_systems=1))
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        planner.run(QueryBatch().add_pagerank(second_graph))  # evicts tiny's factors
        info = planner.cache_info()
        assert info["result_invalidations"] == 1
        # Re-answering tiny is a fresh factorization AND a fresh solve.
        outcome = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert outcome.stats.result_hits == 0
        assert outcome.stats.factorizations == 1

    def test_refresh_install_drops_stale_answers_for_key(self, tiny_graph):
        # Answer `after` cold; then commit a *refresh* under the same key on
        # the shared cache through the refresh protocol: the refreshed
        # factors must invalidate the previously cached answers for that key.
        from repro.graphs.matrixkind import measure_matrix, system_delta
        from repro.query.cache import apply_refresh
        from repro.query.spec import FactorizedSystem, make_query, system_key

        after = evolved(tiny_graph)
        cache = FactorCache()
        planner = QueryPlanner(cache=cache)
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        baseline = planner.run(QueryBatch().add_pagerank(after))
        assert baseline.stats.factorizations == 1
        size_before = planner.cache_info()["result_size"]
        old_key = system_key(make_query("pagerank", tiny_graph))
        new_key = system_key(make_query("pagerank", after))
        working, delta = cache.prepare_refresh(
            old_key, system_delta(tiny_graph, after)
        )
        factors = apply_refresh(working.factors, delta)
        assert factors is not None
        cache.commit_refresh(
            new_key,
            FactorizedSystem(measure_matrix(after), working.ordering, factors),
            old_key,
            delta,
        )
        info = planner.cache_info()
        assert info["result_size"] < size_before
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.result_hits == 0  # recomputed from new factors

    def test_clear_invalidates_everything(self, tiny_graph):
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        planner.cache.clear()
        assert planner.cache_info()["result_size"] == 0

    def test_approximate_answers_cache_under_the_parent_key(self, tiny_graph):
        # A pure spec's approximate answer IS the parent system's answer for
        # that RHS, so it is cached under the PARENT's key (never the miss
        # key): repeated approximate traffic skips the solve, entries die
        # with the parent's factors, and a later exact answer for the miss
        # key is never shadowed.
        after = evolved(tiny_graph)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
        planner.run(QueryBatch().add_rwr(tiny_graph, 0))
        approx = planner.run(QueryBatch().add_rwr(after, 2))
        assert approx.stats.qc_reuses == 1
        again = planner.run(QueryBatch().add_rwr(after, 2))
        assert again.stats.qc_reuses == 1
        assert again.stats.result_hits == 1  # repeated approximate batch: no solve
        assert again[0].tobytes() == approx[0].tobytes()
        # The parent's own query for the same RHS shares the entry — and it
        # is byte-identical, because it is literally the same system + RHS.
        parent_same_rhs = planner.run(QueryBatch().add_rwr(tiny_graph, 2))
        assert parent_same_rhs.stats.result_hits == 1
        assert parent_same_rhs[0].tobytes() == approx[0].tobytes()


class TestReviewRegressions:
    def test_policy_reused_groups_bypass_result_cache_even_after_orphaned_store(
        self, tiny_graph, second_graph
    ):
        # Bounded factor cache smaller than the batch: tiny's factors are
        # evicted before its answers are computed, so those answers must not
        # be stored (they would outlive their factors) — and a later
        # policy-reused group for tiny must not consult the result cache at
        # all (its approximate answer would otherwise be silently replaced
        # by a stale exact one, double-counted as qc_reuse + result_hit).
        from repro.query import FactorCache

        planner = QueryPlanner(
            cache=FactorCache(max_systems=1),
            policy=QCPolicy(alpha=0.0, loss_bound=1e12),
        )
        first = planner.run(
            QueryBatch().add_pagerank(tiny_graph).add_pagerank(second_graph)
        )
        assert first.stats.factorizations == 2
        # Only the surviving key's answers may be cached.
        assert planner.cache_info()["result_size"] == 1
        # tiny_graph's system differs in size from second_graph's, so no QC
        # candidate exists for it: re-answering is a cold start with zero
        # stale result hits.
        again = planner.run(QueryBatch().add_pagerank(tiny_graph))
        assert again.stats.result_hits == 0
        assert again.stats.factorizations == 1

    def test_qc_reuse_and_result_hits_never_double_count(self, tiny_graph):
        from repro.query import FactorCache

        after = evolved(tiny_graph)
        planner = QueryPlanner(
            cache=FactorCache(max_systems=1),
            policy=QCPolicy(alpha=0.0, loss_bound=1e12),
        )
        # Cache `after`'s exact answer, then churn the single-slot factor
        # cache through two different-damping systems (different damping =
        # never a QC candidate, so each run cold-factorizes and evicts the
        # previous key), landing on tiny_graph@0.85 as the only cached
        # system.  `after`'s factors are long gone; its results must be too.
        planner.run(QueryBatch().add_pagerank(after))
        planner.run(QueryBatch().add_pagerank(tiny_graph, damping=0.6))
        assert planner.cache_info()["result_invalidations"] == 1
        third = planner.run(QueryBatch().add_pagerank(tiny_graph))
        # `after` is now a miss answered by policy reuse from tiny_graph's
        # factors.  The stale `after` entries are long invalidated; the
        # lookup happens under the PARENT's key, where the uniform-teleport
        # RHS legitimately hits tiny_graph's own answer — which is exactly,
        # byte for byte, what the reuse solve would have produced.
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.qc_reuses == 1
        assert outcome.stats.factorizations == 0
        assert outcome.stats.result_hits == 1
        assert outcome[0].tobytes() == third[0].tobytes()
        exact = QueryPlanner().run(QueryBatch().add_pagerank(after))
        assert outcome[0].tobytes() != exact[0].tobytes()  # genuinely approximate

    def test_dead_planner_listeners_are_pruned_from_shared_cache(self, tiny_graph):
        import gc

        from repro.query import FactorCache

        shared = FactorCache()
        for _ in range(3):
            planner = QueryPlanner(cache=shared)
            planner.run(QueryBatch().add_pagerank(tiny_graph))
        del planner
        gc.collect()
        assert len(shared._invalidation_listeners) == 3
        # The next install fires invalidation, which prunes dead resolvers.
        survivor = QueryPlanner(cache=shared)
        survivor.run(QueryBatch().add_pagerank(tiny_graph, damping=0.6))
        assert len(shared._invalidation_listeners) == 1
        assert shared._invalidation_listeners[0]() is not None


class TestResultCacheUnit:
    def test_lookup_store_counters(self):
        cache = ResultCache(max_entries=2)
        key = ("system", None, b"fp")
        assert cache.lookup(key) is None
        cache.store(key, np.arange(3.0))
        hit = cache.lookup(key)
        assert np.array_equal(hit, np.arange(3.0))
        info = cache.cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        cache.clear()
        assert cache.cache_info()["size"] == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        a, b, c = (("s", None, bytes([i])) for i in range(3))
        cache.store(a, np.zeros(2))
        cache.store(b, np.ones(2))
        assert cache.lookup(a) is not None  # freshen a; b becomes the victim
        cache.store(c, np.full(2, 2.0))
        assert cache.lookup(b) is None
        assert cache.lookup(a) is not None
        assert cache.cache_info()["evictions"] == 1

    def test_invalidate_system_scopes_to_one_key(self):
        cache = ResultCache()
        cache.store(("sys1", None, b"x"), np.zeros(2))
        cache.store(("sys1", None, b"y"), np.ones(2))
        cache.store(("sys2", None, b"x"), np.full(2, 3.0))
        cache.invalidate_system("sys1")
        assert cache.lookup(("sys1", None, b"x")) is None
        assert cache.lookup(("sys2", None, b"x")) is not None
        assert cache.cache_info()["invalidations"] == 2


class TestParamCanonicalization:
    """Equivalent parameter spellings must map to one cache entry.

    Regression: the result-cache key carried ``query.params`` verbatim, so a
    seed set passed as a list vs a tuple vs a frozenset (or node ids as
    ``np.int64`` vs ``int``) produced distinct keys and re-solved answers the
    cache already held.  ``make_query`` now canonicalizes values — numpy
    scalars to Python scalars, sequences to tuples (order preserved: it is
    the RHS accumulation order), sets to *sorted* tuples — and the planner
    re-canonicalizes defensively when keying results.
    """

    def _hits_for_respelling(self, tiny_graph, first_params, second_params):
        planner = QueryPlanner()
        planner.run(QueryBatch().add(make_query("ppr", tiny_graph, **first_params)))
        outcome = planner.run(
            QueryBatch().add(make_query("ppr", tiny_graph, **second_params))
        )
        return outcome.stats

    def test_list_tuple_and_array_seed_spellings_share_one_entry(self, tiny_graph):
        for respelling in (
            {"seeds": (1, 4, 2)},
            {"seeds": [1, 4, 2]},
            {"seeds": np.array([1, 4, 2])},
            {"seeds": [np.int64(1), np.int64(4), np.int64(2)]},
        ):
            stats = self._hits_for_respelling(
                tiny_graph, {"seeds": [1, 4, 2]}, respelling
            )
            assert stats.result_hits == 1, respelling
            assert stats.factorizations == 0, respelling

    def test_set_spellings_are_order_insensitive(self, tiny_graph):
        # Unordered collections canonicalize to a sorted tuple, so the
        # accident of hash iteration order cannot split cache entries.
        stats = self._hits_for_respelling(
            tiny_graph, {"seeds": frozenset({4, 1, 2})}, {"seeds": {2, 4, 1}}
        )
        assert stats.result_hits == 1

    def test_numpy_scalar_node_id_matches_python_int(self, tiny_graph):
        planner = QueryPlanner()
        planner.run(QueryBatch().add(make_query("rwr", tiny_graph, start_node=3)))
        outcome = planner.run(
            QueryBatch().add(
                make_query("rwr", tiny_graph, start_node=np.int64(3))
            )
        )
        assert outcome.stats.result_hits == 1

    def test_equivalent_spellings_are_equal_queries(self, tiny_graph):
        a = make_query("ppr", tiny_graph, seeds=[1, 4])
        b = make_query("ppr", tiny_graph, seeds=(np.int64(1), np.int64(4)))
        assert a == b
        assert hash(a) == hash(b)

    def test_ordered_seed_spellings_preserve_order(self, tiny_graph):
        # Order of an explicit sequence is semantic (RHS accumulation order);
        # canonicalization must not sort it into a different query.
        a = make_query("ppr", tiny_graph, seeds=[4, 1])
        b = make_query("ppr", tiny_graph, seeds=[1, 4])
        assert a.params != b.params

    def test_array_params_are_hashable(self, tiny_graph):
        query = make_query("ppr", tiny_graph, seeds=np.array([0, 2]))
        hash(query)  # np.ndarray params used to make the query unhashable
        outcome = QueryPlanner().run(QueryBatch().add(query))
        reference = QueryPlanner().run(
            QueryBatch().add(make_query("ppr", tiny_graph, seeds=[0, 2]))
        )
        assert outcome[0].tobytes() == reference[0].tobytes()
