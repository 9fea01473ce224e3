"""Unit tests for the execution-plan and executor layer (repro.exec)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.clustering import alpha_clustering
from repro.core.result import MatrixDecomposition
from repro.errors import EmptySequenceError, MeasureError
from repro.exec.executors import (
    ParallelExecutor,
    SerialExecutor,
    merge_unit_results,
    reduce_timings,
    resolve_executor,
)
from repro.exec.plan import ExecutionPlan, WorkUnit, plan_bf, plan_clustered, plan_inc
from repro.exec.units import UnitResult, execute_unit
from repro.sparse.permutation import Ordering


class TestPlanBuilders:
    def test_bf_plan_has_one_unit_per_snapshot(self, tiny_ems):
        matrices = list(tiny_ems)
        plan = plan_bf(matrices)
        assert plan.algorithm == "BF"
        assert len(plan) == len(matrices)
        for index, unit in enumerate(plan.units):
            assert unit.unit_id == index
            assert unit.start == index
            assert unit.size == 1
            assert unit.cluster_id == index
            assert unit.members[0] is matrices[index]

    def test_inc_plan_is_a_single_chain(self, tiny_ems):
        matrices = list(tiny_ems)
        plan = plan_inc(matrices)
        assert len(plan) == 1
        unit = plan.units[0]
        assert unit.algorithm == "INC"
        assert unit.start == 0
        assert unit.size == len(matrices)
        assert unit.cluster_id == -1

    def test_clustered_plan_mirrors_the_clustering(self, tiny_ems):
        matrices = list(tiny_ems)
        clusters = alpha_clustering(matrices, 0.9)
        plan = plan_clustered("CLUDE", matrices, clusters)
        assert len(plan) == len(clusters)
        for cluster_id, (cluster, unit) in enumerate(zip(clusters, plan.units)):
            assert unit.start == cluster.start
            assert unit.stop == cluster.stop
            assert unit.cluster_id == cluster_id
            assert unit.options == ()
            assert list(unit.members) == [matrices[i] for i in cluster.indices]

    def test_clustered_plan_rejects_unknown_algorithm(self, tiny_ems):
        matrices = list(tiny_ems)
        clusters = alpha_clustering(matrices, 0.9)
        with pytest.raises(MeasureError):
            plan_clustered("BF", matrices, clusters)

    def test_empty_sequences_are_rejected(self):
        with pytest.raises(EmptySequenceError):
            plan_bf([])
        with pytest.raises(EmptySequenceError):
            plan_inc([])

    def test_plan_validation_rejects_gaps_and_bad_ids(self, small_dd_matrix):
        unit0 = WorkUnit(0, "BF", 0, (small_dd_matrix,), 0)
        gap = WorkUnit(1, "BF", 2, (small_dd_matrix,), 1)
        with pytest.raises(MeasureError):
            ExecutionPlan(algorithm="BF", sequence_length=3, units=(unit0, gap))
        misnumbered = WorkUnit(5, "BF", 1, (small_dd_matrix,), 1)
        with pytest.raises(MeasureError):
            ExecutionPlan(algorithm="BF", sequence_length=2, units=(unit0, misnumbered))
        with pytest.raises(MeasureError):
            ExecutionPlan(algorithm="BF", sequence_length=7, units=(unit0,))

    def test_work_unit_rejects_bad_inputs(self, small_dd_matrix):
        with pytest.raises(MeasureError):
            WorkUnit(0, "NOPE", 0, (small_dd_matrix,), 0)
        with pytest.raises(EmptySequenceError):
            WorkUnit(0, "BF", 0, (), 0)
        with pytest.raises(MeasureError):
            WorkUnit(0, "BF", -1, (small_dd_matrix,), 0)

    def test_work_unit_pickles(self, small_dd_matrix):
        unit = WorkUnit(0, "CLUDE", 0, (small_dd_matrix,), 0, (("share_factors", False),))
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.unit_id == unit.unit_id
        assert clone.option_dict == {"share_factors": False}
        assert list(clone.members[0].items()) == list(small_dd_matrix.items())


class TestReduction:
    def test_reduce_timings_sums_buckets_in_order(self):
        merged = reduce_timings(
            [{"ordering": 1.0, "bennett": 0.5}, {"ordering": 2.0, "clustering": 0.25}]
        )
        assert merged == {"bennett": 0.5, "clustering": 0.25, "ordering": 3.0}
        assert list(merged) == sorted(merged)

    def test_merge_reorders_shuffled_unit_results(self, tiny_ems):
        matrices = list(tiny_ems)
        plan = plan_bf(matrices)
        results = [execute_unit(unit) for unit in plan.units]
        shuffled = list(reversed(results))
        outcome = merge_unit_results(plan, shuffled, wall_time=0.5)
        assert [d.index for d in outcome.decompositions] == list(range(len(matrices)))
        assert outcome.wall_time == 0.5
        assert outcome.unit_count == len(matrices)

    def test_merge_detects_missing_and_duplicate_units(self, tiny_ems):
        matrices = list(tiny_ems)
        plan = plan_bf(matrices)
        results = [execute_unit(unit) for unit in plan.units]
        with pytest.raises(MeasureError):
            merge_unit_results(plan, results[:-1], wall_time=0.0)
        with pytest.raises(MeasureError):
            merge_unit_results(plan, results + [results[0]], wall_time=0.0)


class TestExecutors:
    def test_resolve_executor_conventions(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(0), SerialExecutor)
        parallel = resolve_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3
        serial = SerialExecutor()
        assert resolve_executor(serial) is serial
        with pytest.raises(MeasureError):
            resolve_executor("four")

    def test_parallel_executor_needs_a_positive_worker_count(self):
        with pytest.raises(MeasureError):
            ParallelExecutor(workers=0)
        assert ParallelExecutor().workers >= 1

    def test_serial_executor_produces_canonical_order(self, tiny_ems):
        matrices = list(tiny_ems)
        plan = plan_bf(matrices)
        outcome = SerialExecutor().execute(plan)
        assert [d.index for d in outcome.decompositions] == list(range(len(matrices)))
        assert outcome.wall_time > 0.0
        assert set(outcome.timings) == {"ordering", "decomposition"}

    def test_execute_unit_returns_timed_result(self, tiny_ems):
        matrices = list(tiny_ems)
        unit = plan_bf(matrices).units[0]
        result = execute_unit(unit)
        assert isinstance(result, UnitResult)
        assert result.unit_id == 0
        assert len(result.decompositions) == 1
        decomposition = result.decompositions[0]
        assert isinstance(decomposition, MatrixDecomposition)
        assert isinstance(decomposition.ordering, Ordering)
        assert result.timings["ordering"] >= 0.0


class TestFactorUnits:
    """FACTOR units: the planner's cold-start fan-out, report-don't-raise.

    Regression: a raised exception inside a factor work unit aborted the
    whole parallel batch with a bare worker traceback.  Failures are now
    reported on the decomposition (``factors=None`` + an ``error`` naming
    the ``unit_id`` and the unit's label), matching REFRESH units, so one
    poisoned system cannot sink its batch siblings undiagnosably.
    """

    def _singular(self, n=3):
        from repro.sparse.csr import SparseMatrix

        return SparseMatrix(n, {(0, 0): 1.0, (1, 1): 1.0})  # zero (2,2) pivot

    def test_plan_builds_one_labelled_unit_per_matrix(self, tiny_ems):
        from repro.exec.plan import plan_factor_batch

        matrices = list(tiny_ems)[:2]
        plan = plan_factor_batch(matrices, labels=["first", "second"])
        assert plan.algorithm == "FACTOR"
        assert len(plan) == 2
        assert [unit.option_dict.get("label") for unit in plan.units] == [
            "first", "second",
        ]
        for unit in plan.units:
            assert unit.algorithm == "FACTOR"
            assert len(unit.members) == 1

    def test_plan_validation(self, tiny_ems):
        from repro.exec.plan import plan_factor_batch

        with pytest.raises(EmptySequenceError):
            plan_factor_batch([])
        with pytest.raises(MeasureError):
            plan_factor_batch(list(tiny_ems)[:2], labels=["only one"])

    def test_factor_unit_matches_bf_body_bitwise(self, tiny_ems):
        from repro.exec.plan import plan_factor_batch

        matrices = list(tiny_ems)
        factor = SerialExecutor().execute(plan_factor_batch(matrices))
        reference = SerialExecutor().execute(plan_bf(matrices))
        for mine, bf in zip(factor.decompositions, reference.decompositions):
            assert mine.error is None
            assert mine.ordering == bf.ordering
            assert mine.fill_size == bf.fill_size
            for row in range(mine.factors.n):
                assert mine.factors.l_column_entries(row) == \
                    bf.factors.l_column_entries(row)
                assert mine.factors.u_row_entries(row) == \
                    bf.factors.u_row_entries(row)

    def test_singular_unit_reports_instead_of_raising(self):
        from repro.exec.plan import plan_factor_batch

        plan = plan_factor_batch([self._singular()], labels=["measure='bad'"])
        result = execute_unit(plan.units[0])
        (decomposition,) = result.decompositions
        assert decomposition.factors is None
        assert decomposition.error is not None
        assert "factor unit 0" in decomposition.error
        assert "measure='bad'" in decomposition.error
        assert "Singular" in decomposition.error

    def test_poisoned_sibling_does_not_abort_the_batch(self, tiny_ems):
        from repro.exec.plan import plan_factor_batch

        healthy = list(tiny_ems)[0]
        plan = plan_factor_batch(
            [healthy, self._singular(), healthy],
            labels=["good", "bad", "good"],
        )
        for executor in (SerialExecutor(), ParallelExecutor(workers=2)):
            outcome = executor.execute(plan)
            errors = [d.error for d in outcome.decompositions]
            assert errors[0] is None and errors[2] is None
            assert "factor unit 1 [bad]" in errors[1]
            assert outcome.decompositions[0].factors is not None

    def test_factor_unit_pickles(self, tiny_ems):
        from repro.exec.plan import plan_factor_batch

        unit = plan_factor_batch(list(tiny_ems)[:1], labels=["l"]).units[0]
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
