"""The sweep plan's lifetime: built on the first solve, dropped on every write.

``LUFactors.sweep_plan()`` caches what the triangular sweeps read (checked
pivots, the stored count, the narrow and wide layouts).  Each write path
must drop it.  Every test here solves once so the plan and both layouts
exist, writes through one path, solves again, and compares the second
answers bit for bit with the same solves on a freshly built container
holding the same values.  A stale plan answers with the old values, so a
write path that kept it fails here.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.similarity import cluster_union_matrix
from repro.errors import SingularMatrixError
from repro.exec.plan import plan_refresh_batch
from repro.graphs.matrixkind import MatrixKind, measure_matrix
from repro.lu.bennett import bennett_update
from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.markowitz import markowitz_ordering
from repro.query.batch import QueryBatch
from repro.query.planner import QueryPlanner
from repro.query.spec import FactorizedSystem, SystemKey, make_query, system_key
from repro.sparse.kernels import SweepStorage, narrow_sweep, wide_sweep
from repro.store.factorstore import FactorStore
from tests.conftest import evolve, perturb_matrix, random_dd_matrix, random_snapshot

N = 40


def _blocks(n: int) -> list:
    """A one-hot column (the zero skip), a dense column and a dense block."""
    rng = np.random.default_rng(n)
    one_hot = np.zeros((n, 1))
    one_hot[n // 3, 0] = 0.15
    return [one_hot, rng.random((n, 1)), rng.random((n, 6))]


def _solves(factors) -> list:
    """Bytes of the narrow, wide and auto-selected solves of every block."""
    return [
        sweep(factors, block).tobytes()
        for block in _blocks(factors.n)
        for sweep in (narrow_sweep, wide_sweep, lambda f, b: f.solve_many(b))
    ]


def _fresh(factors) -> LUFactors:
    """A new container holding copies of ``factors``' lists (no plan)."""
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    storage = SweepStorage(
        list(pivots),
        [list(rows) for rows in l_rows],
        [list(values) for values in l_values],
        [list(cols) for cols in u_cols],
        [list(values) for values in u_values],
    )
    return LUFactors.from_storage(storage, factors.is_sealed)


def _assert_write_drops_the_plan(factors, write) -> None:
    """Solve, ``write(factors)``, solve again: equal to a fresh container's bits."""
    before = _solves(factors)
    write(factors)
    after = _solves(factors)
    assert after == _solves(_fresh(factors))
    assert after != before  # the write changed the answers a stale plan gives


def _growable(seed: int = 0):
    rng = np.random.default_rng(seed)
    matrix = random_dd_matrix(N, 4 * N, rng)
    ordering, pattern = markowitz_ordering(matrix)
    return crout_decompose(ordering.apply(matrix), pattern=pattern), ordering, matrix, rng


def _sealed_pair(seed: int = 0):
    """Sealed factors of ``a`` over the USSP of ``a`` and ``b``, and their delta."""
    rng = np.random.default_rng(seed)
    a = random_dd_matrix(N, 4 * N, rng)
    b = perturb_matrix(a, 6, rng)
    ordering, ussp = markowitz_ordering(cluster_union_matrix([a, b]))
    factors = LUFactors.sealed(ussp)
    crout_decompose_into(ordering.apply(a), factors, pattern=ussp)
    return factors, ordering, a, b, ussp


class TestWritePaths:
    def test_crout_into_a_sealed_container(self):
        factors, ordering, _, b, ussp = _sealed_pair()
        _assert_write_drops_the_plan(
            factors, lambda f: crout_decompose_into(ordering.apply(b), f, pattern=ussp)
        )

    def test_bennett_on_growable_factors(self):
        factors, ordering, matrix, rng = _growable()
        delta = ordering.map_entries(matrix.delta_entries(perturb_matrix(matrix, 6, rng)))
        assert not factors.is_sealed
        _assert_write_drops_the_plan(factors, lambda f: bennett_update(f, delta))

    def test_bennett_on_sealed_factors(self):
        factors, ordering, a, b, _ = _sealed_pair()
        delta = ordering.map_entries(a.delta_entries(b))
        _assert_write_drops_the_plan(factors, lambda f: bennett_update(f, delta))

    @pytest.mark.parametrize("sealed", [False, True])
    def test_element_writers(self, sealed):
        factors = _sealed_pair()[0] if sealed else _growable()[0]
        pivots, l_rows, _, u_cols, _ = factors.sweep_storage()
        j = next(j for j, rows in enumerate(l_rows) if rows)
        i = next(i for i, cols in enumerate(u_cols) if cols)
        _assert_write_drops_the_plan(factors, lambda f: f.l_set(l_rows[j][0], j, 0.125))
        _assert_write_drops_the_plan(factors, lambda f: f.u_set(i, u_cols[i][0], -0.25))
        _assert_write_drops_the_plan(factors, lambda f: f.set_l_diagonal(0, 2 * pivots[0]))

    @pytest.mark.parametrize("sealed", [False, True])
    def test_copy_gets_its_own_plan(self, sealed):
        original = _sealed_pair()[0] if sealed else _growable()[0]
        answers = _solves(original)
        clone = original.copy()
        _assert_write_drops_the_plan(clone, lambda f: f.set_l_diagonal(1, 3.0))
        assert _solves(original) == answers

    def test_store_restore(self, tmp_path):
        rng = np.random.default_rng(2)
        snapshot = random_snapshot(rng, N, 4 * N)
        key = SystemKey(snapshot, MatrixKind.RANDOM_WALK, 0.85)
        matrix = measure_matrix(snapshot, MatrixKind.RANDOM_WALK, 0.85)
        unsolved = FactorizedSystem.factorize(matrix)
        solved = unsolved.clone()
        answers = _solves(solved.factors)
        plan = solved.factors.sweep_plan()
        stores = [FactorStore(str(tmp_path / name)) for name in ("unsolved", "solved")]
        stores[0].save_full(key, unsolved)
        stores[1].save_full(key, solved)
        assert solved.factors.sweep_plan() is plan  # saving only reads the factor
        # A stored factor carries no plan: the files are the same bytes.
        files = [Path(store.path_for(key)).read_bytes() for store in stores]
        assert files[0] == files[1]
        restored = stores[1].load(key).factors
        assert _solves(restored) == answers
        _assert_write_drops_the_plan(restored, lambda f: f.set_l_diagonal(2, 5.0))

    def test_committed_refresh(self):
        rng = np.random.default_rng(5)
        before = random_snapshot(rng, N, 4 * N)
        after = evolve(rng, before, additions=2, removals=2)
        planner = QueryPlanner()
        planner.run(QueryBatch().add_pagerank(before))  # builds the parent's plan
        parent = planner.cache.peek(system_key(make_query("pagerank", before))).factors
        answers = _solves(parent)
        planner.register_evolution(before, after)
        assert planner.run(QueryBatch().add_pagerank(after)).stats.refreshes == 1
        child = planner.cache.peek(system_key(make_query("pagerank", after))).factors
        assert _solves(child) == _solves(_fresh(child))
        assert _solves(parent) == answers


class TestPlanContents:
    @pytest.mark.parametrize("sweep", [narrow_sweep, wide_sweep])
    def test_zero_pivot_raises_on_every_call(self, sweep):
        factors = LUFactors(3)
        factors.set_l_diagonal(0, 2.0)
        factors.set_l_diagonal(2, 1.0)
        for _ in range(2):
            with pytest.raises(SingularMatrixError) as raised:
                sweep(factors, np.ones((3, 1)))
            assert (raised.value.pivot_index, raised.value.value) == (1, 0.0)
        # Backward sweeps never divide by a pivot and still run.
        assert sweep(factors, np.ones((3, 1)), False, True).tolist() == [[1.0]] * 3
        factors.set_l_diagonal(1, 4.0)
        assert sweep(factors, np.ones((3, 1)))[:, 0].tolist() == [0.5, 0.25, 1.0]

    def test_plan_is_kept_between_writes(self):
        factors = _growable()[0]
        plan = factors.sweep_plan()
        _solves(factors)
        assert factors.sweep_plan() is plan
        factors.set_l_diagonal(0, 1.5)
        assert factors.sweep_plan() is not plan

    @pytest.mark.parametrize("sealed", [False, True])
    def test_narrow_equals_wide_on_both_sides_of_the_width_rule(self, sealed):
        factors = _sealed_pair(4)[0] if sealed else _growable(4)[0]
        plan = factors.sweep_plan()
        n = factors.n
        widest = 128 * n // (plan.stored + n)
        assert plan.is_narrow(widest) and not plan.is_narrow(widest + 1)
        rng = np.random.default_rng(9)
        for k in (widest, widest + 1):
            one_hot = np.zeros((n, k))
            one_hot[rng.integers(n, size=k), np.arange(k)] = 0.15
            for block in (rng.random((n, k)), one_hot):
                narrow = narrow_sweep(factors, block).tobytes()
                assert narrow == wide_sweep(factors, block).tobytes()
                assert narrow == factors.solve_many(block).tobytes()

    @pytest.mark.parametrize("sealed", [False, True])
    def test_pickled_factors_and_units_carry_no_plan(self, sealed):
        factors, ordering, matrix = (
            _sealed_pair()[:3] if sealed else _growable()[:3]
        )
        unsolved = factors.copy()
        _solves(factors)
        assert pickle.dumps(factors) == pickle.dumps(unsolved)
        units = [
            plan_refresh_batch([(matrix, f, ordering, {(0, 0): 0.5})]).units[0]
            for f in (factors, unsolved)
        ]
        assert pickle.dumps(units[0]) == pickle.dumps(units[1])
        restored = pickle.loads(pickle.dumps(factors))
        assert _solves(restored) == _solves(factors)
