"""The resolution-ladder refactor's contract, pinned four ways.

1. **Differential golden**: the refactored planner reproduces, bit for bit,
   the answers / stats / audit records / cache counters the pre-refactor
   monolithic planner produced on a fixed all-measure workload exercising
   every tier (``tests/ladder_workload.py``; golden captured from the
   monolith before the split and committed as
   ``tests/data/ladder_golden.json``).
2. **Tier semantics**: each tier serves in isolation and is counted under
   its own name in ``PlannerStats.resolutions``; the ladder's precedence
   order and group-major hit/store-restore walk, the legacy derived
   counters, and the ``ServerStats`` passthrough.
3. **Localized system deltas**: property test that every kind's localized
   provider equals the full composed-matrix diff *exactly* on random
   digraph evolutions, plus the closed per-kind dispatch.
4. **Layering**: the split modules import standalone, without cycles, and
   every historical import path still resolves to the same objects.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeasureError
from repro.graphs.matrixkind import MatrixKind, measure_matrix, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import CorrectedPolicy, QCPolicy
from repro.query import QueryPlanner
from repro.query.cache import FactorCache
from repro.query.resolution import TIER_NAMES
from repro.serve import StatsCollector

from ladder_workload import GOLDEN_RELPATH, all_measure_batch, run_workload, workload_snapshots


@pytest.fixture()
def snap0():
    """First snapshot of the fixed workload chain (large enough for every
    measure in ``all_measure_batch``)."""
    return workload_snapshots()[0]


# ---------------------------------------------------------------------- #
# 1. Differential golden: refactored == pre-refactor, bitwise
# ---------------------------------------------------------------------- #
class TestDifferentialGolden:
    def test_workload_matches_pre_refactor_golden(self, tmp_path):
        """Every tier scenario, every measure: answers, stats, audit records
        and cache counters are byte-identical to the monolithic planner's."""
        golden_path = Path(__file__).parent / GOLDEN_RELPATH
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        fresh = json.loads(json.dumps(run_workload(str(tmp_path / "store"))))
        assert set(fresh) == set(golden)
        for scenario in golden:
            assert fresh[scenario] == golden[scenario], scenario

    def test_golden_covers_every_tier(self):
        """The committed golden actually exercised all six tiers."""
        golden_path = Path(__file__).parent / GOLDEN_RELPATH
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        assert golden["cold"]["stats"]["factorizations"] > 0
        assert golden["hit"]["stats"]["cache_hits"] > 0
        assert golden["result_hit"]["stats"]["result_hits"] > 0
        assert golden["verbatim_reuse"]["stats"]["qc_reuses"] > 0
        assert golden["corrected_reuse"]["stats"]["corrected_reuses"] > 0
        assert golden["refresh"]["stats"]["refreshes"] > 0
        assert golden["store_cache_info"]["store_hits"] > 0


# ---------------------------------------------------------------------- #
# 2. Tier semantics: isolation, precedence, counters
# ---------------------------------------------------------------------- #
class TestTierCounting:
    def test_default_ladder_order(self):
        assert TIER_NAMES == (
            "hit", "store_restore", "verbatim_reuse", "corrected_reuse",
            "refresh", "cold",
        )

    def test_hit_and_store_restore_run_group_major(self, snap0, tmp_path):
        """Each group tries its memory lookup, then its store restore, before
        the next group starts: a restore's install must land between the
        neighbouring groups' lookups (LRU order is part of the bitwise
        contract)."""
        from repro.store import FactorStore

        store = FactorStore(str(tmp_path / "factors"))
        writer = QueryPlanner(cache=FactorCache(store=store))
        writer.run(all_measure_batch(snap0))
        writer.cache.checkpoint()
        cache = FactorCache(store=store)
        calls = []
        for name in ("lookup_memory", "restore_from_store"):
            original = getattr(cache, name)

            def traced(key, _name=name, _original=original):
                calls.append((_name, key))
                return _original(key)

            setattr(cache, name, traced)
        planner = QueryPlanner(cache=cache)
        plan = planner.plan(all_measure_batch(snap0))
        stats = planner.execute(plan).stats
        assert stats.resolutions["store_restore"] == len(plan.groups)
        assert calls == [
            (name, group.key)
            for group in plan.groups
            for name in ("lookup_memory", "restore_from_store")
        ]

    def test_resolutions_mapping_is_shape_stable(self, snap0):
        """Every tier name appears in every batch's mapping, zeros included."""
        planner = QueryPlanner()
        stats = planner.run(all_measure_batch(snap0)).stats
        assert tuple(stats.resolutions) == TIER_NAMES
        assert stats.resolutions["cold"] == stats.groups
        assert sum(stats.resolutions.values()) == stats.groups

    def test_cold_then_hit(self, snap0):
        planner = QueryPlanner(result_cache=0)
        first = planner.run(all_measure_batch(snap0)).stats
        again = planner.run(all_measure_batch(snap0)).stats
        assert first.resolutions["cold"] == first.groups
        assert again.resolutions["hit"] == again.groups
        assert again.resolutions["cold"] == 0
        # Legacy derived counters read the mapping.
        assert again.cache_hits == again.groups
        assert again.factorizations == 0

    def test_store_restore_counts_under_its_own_name(self, snap0, tmp_path):
        from repro.store import FactorStore

        store = FactorStore(str(tmp_path / "factors"))
        writer = QueryPlanner(cache=FactorCache(store=store))
        writer.run(all_measure_batch(snap0))
        writer.cache.checkpoint()
        warm = QueryPlanner(cache=FactorCache(store=store))
        stats = warm.run(all_measure_batch(snap0)).stats
        assert stats.resolutions["store_restore"] == stats.groups
        assert stats.resolutions["hit"] == 0
        assert stats.resolutions["cold"] == 0
        # Historically a disk restore reported as a cache hit; the derived
        # property keeps that view.
        assert stats.cache_hits == stats.groups

    def test_verbatim_reuse_counts(self):
        snaps = workload_snapshots()
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
        planner.run(all_measure_batch(snaps[0]))
        stats = planner.run(all_measure_batch(snaps[1])).stats
        assert stats.resolutions["verbatim_reuse"] > 0
        assert stats.qc_reuses == stats.resolutions["verbatim_reuse"]

    def test_corrected_reuse_counts(self):
        snaps = workload_snapshots()
        planner = QueryPlanner(
            policy=CorrectedPolicy(alpha=0.0, loss_bound=1e-3, max_rank=8)
        )
        planner.run(all_measure_batch(snaps[0]))
        stats = planner.run(all_measure_batch(snaps[1])).stats
        assert stats.resolutions["corrected_reuse"] > 0
        assert stats.corrected_reuses == stats.resolutions["corrected_reuse"]

    def test_one_scan_per_miss_group(self, monkeypatch):
        """Both reuse tiers read one scan: each candidate's ΔA is built once
        per miss group, not once per tier."""
        import repro.graphs.matrixkind as matrixkind
        import repro.query.resolution as resolution

        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(resolution, "system_delta", counted(resolution.system_delta))
        monkeypatch.setattr(matrixkind, "system_delta", counted(matrixkind.system_delta))
        snaps = workload_snapshots()
        planner = QueryPlanner(
            policy=CorrectedPolicy(alpha=0.0, loss_bound=1e-3, max_rank=8)
        )
        planner.run(all_measure_batch(snaps[0]))
        assert calls == []
        stats = planner.run(all_measure_batch(snaps[1])).stats
        assert stats.resolutions["corrected_reuse"] == 1
        # Three miss groups have a same-damping candidate to score.
        assert len(calls) == 3

    def test_refresh_counts(self):
        snaps = workload_snapshots()
        planner = QueryPlanner()
        planner.run(all_measure_batch(snaps[0]))
        planner.register_evolution(snaps[0], snaps[1])
        stats = planner.run(all_measure_batch(snaps[1])).stats
        assert stats.resolutions["refresh"] > 0
        assert stats.refreshes == stats.resolutions["refresh"]


class TestServerResolutions:
    def test_stats_collector_accumulates_per_tier(self):
        collector = StatsCollector()
        collector.record_batch((), (), {"hit": 2, "cold": 1})
        collector.record_batch((), (), {"hit": 1, "refresh": 3})
        snapshot = collector.snapshot()
        assert snapshot.resolutions == {"hit": 3, "cold": 1, "refresh": 3}

    def test_server_surfaces_lifetime_resolutions(self, tiny_graph):
        from repro.serve import MeasureServer

        server = MeasureServer()
        try:
            server.submit_measure("pagerank", tiny_graph).result(timeout=30)
            server.submit_measure("pagerank", tiny_graph).result(timeout=30)
            stats = server.stats()
        finally:
            server.close()
        assert stats.resolutions.get("cold", 0) >= 1
        total = stats.resolutions.get("cold", 0) + stats.resolutions.get("hit", 0)
        assert total >= 1
        # The mapping coexists with the historical counter surfaces.
        assert "result_hits" in stats.planner_cache_info


class TestCounterSurfaces:
    """The exact cache_info shapes are API: store counters only with a store."""

    STORELESS_KEYS = (
        "hits", "misses", "evictions", "refreshes", "refresh_fallbacks", "size",
    )
    STORE_KEYS = STORELESS_KEYS + (
        "store_hits", "store_misses", "spills", "restore_fallbacks",
    )

    def test_storeless_factor_cache_shape(self):
        assert tuple(FactorCache().cache_info()) == self.STORELESS_KEYS

    def test_store_backed_factor_cache_shape(self, tmp_path):
        from repro.store import FactorStore

        cache = FactorCache(store=FactorStore(str(tmp_path / "factors")))
        assert tuple(cache.cache_info()) == self.STORE_KEYS

    def test_planner_cache_info_merges_result_counters(self, snap0):
        planner = QueryPlanner()
        planner.run(all_measure_batch(snap0))
        info = planner.cache_info()
        for key in self.STORELESS_KEYS:
            assert key in info
        for key in ("result_hits", "result_misses", "result_evictions",
                    "result_invalidations", "result_size"):
            assert key in info
        disabled = QueryPlanner(result_cache=0).cache_info()
        assert disabled["result_hits"] == 0
        assert disabled["result_size"] == 0


# ---------------------------------------------------------------------- #
# 3. Localized system deltas == full composed-matrix diff, exactly
# ---------------------------------------------------------------------- #
def _edges(n, seed_edges):
    """Normalize a raw hypothesis edge draw into a valid directed edge set."""
    return {(u % n, v % n) for u, v in seed_edges if u % n != v % n}


@st.composite
def digraph_evolutions(draw):
    """Two same-``n`` directed snapshots differing in a handful of edges."""
    n = draw(st.integers(min_value=4, max_value=12))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    before = _edges(n, draw(st.sets(pairs, min_size=2, max_size=3 * n)))
    added = _edges(n, draw(st.sets(pairs, min_size=0, max_size=4))) - before
    removed = set(draw(st.permutations(sorted(before)))[: draw(
        st.integers(min_value=0, max_value=min(3, len(before)))
    )])
    after = (before - removed) | added
    # Degenerate graphs (no edges) can't be normalized; keep both sides live.
    if not before or not after:
        before = before or {(0, 1)}
        after = after or {(1, 2)}
    return (
        GraphSnapshot(n, sorted(before), directed=True),
        GraphSnapshot(n, sorted(after), directed=True),
    )


def _assert_bitwise_full_diff(before, after, kind, damping):
    localized = system_delta(before, after, kind, damping)
    full = measure_matrix(before, kind, damping).delta_entries(
        measure_matrix(after, kind, damping)
    )
    assert set(localized) == set(full)
    for position, value in full.items():
        assert localized[position].hex() == value.hex(), position


class TestLocalizedSalsaDelta:
    @settings(max_examples=60, deadline=None)
    @given(evolution=digraph_evolutions(), damping=st.sampled_from([0.3, 0.85]),
           kind=st.sampled_from(list(MatrixKind)))
    def test_localized_equals_full_diff_bitwise(self, evolution, damping, kind):
        before, after = evolution
        _assert_bitwise_full_diff(before, after, kind, damping)

    def test_empty_delta_short_circuits(self, tiny_graph):
        assert system_delta(tiny_graph, tiny_graph, MatrixKind.SALSA_AUTHORITY) == {}

    def test_registry_covers_all_refreshable_kinds(self):
        """The per-kind dispatch is closed: every MatrixKind has a provider,
        so a new enum member without one fails here."""
        before = GraphSnapshot(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
        after = GraphSnapshot(4, [(0, 1), (1, 2), (2, 0), (3, 0)], directed=True)
        for kind in MatrixKind:
            _assert_bitwise_full_diff(before, after, kind, 0.5)

    def test_register_rejects_non_kind(self):
        """A kind from outside the enum is rejected, not silently dispatched."""
        before = GraphSnapshot(3, [(0, 1)], directed=True)
        after = GraphSnapshot(3, [(0, 2)], directed=True)
        with pytest.raises(MeasureError):
            system_delta(before, after, "random_walk", 0.5)


# ---------------------------------------------------------------------- #
# 4. Layering: standalone imports, no cycles, historical paths
# ---------------------------------------------------------------------- #
class TestLayering:
    @pytest.mark.parametrize("module", [
        "repro.query.cache",
        "repro.query.resolution",
        "repro.query.planner",
        "repro.query",
        "repro.exec.units",
        "repro.store.factorstore",
        "repro",
    ])
    def test_module_imports_standalone(self, module):
        """Each split module loads in a fresh interpreter (no import cycle)."""
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            check=True, capture_output=True, timeout=120,
        )

    @staticmethod
    def _imported_modules(relpath):
        """Runtime imports of a module: everything except TYPE_CHECKING blocks."""
        import ast

        source = (Path(__file__).parents[1] / relpath).read_text(encoding="utf-8")
        modules = set()

        def visit(node):
            for child in ast.iter_child_nodes(node):
                if (
                    isinstance(child, ast.If)
                    and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"
                ):
                    continue
                if isinstance(child, ast.Import):
                    modules.update(alias.name for alias in child.names)
                elif isinstance(child, ast.ImportFrom) and child.module:
                    modules.add(child.module)
                visit(child)

        visit(ast.parse(source))
        return modules

    def test_layering_is_acyclic(self):
        """cache.py is the bottom layer, resolution.py sits on it, planner.py
        on both — never the reverse at runtime (TYPE_CHECKING-only hints are
        exempt: they never execute)."""
        cache_imports = self._imported_modules("src/repro/query/cache.py")
        assert "repro.query.resolution" not in cache_imports
        assert "repro.query.planner" not in cache_imports
        resolution_imports = self._imported_modules("src/repro/query/resolution.py")
        assert "repro.query.planner" not in resolution_imports
        assert "repro.query.cache" in resolution_imports

    def test_historical_import_paths_still_resolve(self):
        """The package surfaces name the same objects as their home modules."""
        import repro
        import repro.query
        import repro.query.cache as cache_mod
        import repro.query.planner as planner_mod
        import repro.query.resolution as resolution_mod

        homes = {"ApproximationRecord": resolution_mod, "FactorCache": cache_mod,
                 "ResultCache": cache_mod}
        for name in ("ApproximationRecord", "BatchResult", "DirectAnswer",
                     "FactorCache", "PlannedGroup", "PlannerStats", "QueryPlan",
                     "QueryPlanner", "ResultCache"):
            home = homes.get(name, planner_mod)
            assert getattr(repro.query, name) is getattr(home, name), name
        # Top-level package surface.
        for name in ("FactorCache", "ResultCache", "ApproximationRecord",
                     "QueryPlanner", "ResolutionLadder", "ResolutionTier",
                     "system_delta"):
            assert hasattr(repro, name), name
