"""Corrected reuse: rank-k SMW correction and cross-damping sharing.

Four differentials pin the new planner tier end to end:

* **The residual bound is a real bound** — for every certified kind, the
  actual relative L1 deviation of a corrected answer from the exact answer
  never exceeds the certified residual estimate.
* **The bound is monotone in the rank** — applying more delta columns never
  loosens the certificate (``residual_loss_bound`` is non-increasing along
  the mass ranking, reaching exactly ``0.0`` at full rank), and
  :meth:`CorrectedPolicy.correct` returns the *smallest* sufficient rank
  with a float-identical estimate.
* **Rank 0 is verbatim** — a rank-0 :class:`WoodburyCorrector` is a bitwise
  pass-through of the base factors, and wherever plain QC reuse succeeds a
  planner under :class:`CorrectedPolicy` answers bitwise like one under
  :class:`QCPolicy` (the corrected tier only ever runs where verbatim
  failed).
* **Cross-damping sharing is certified, and exact when the delta vanishes**
  — a Laplacian system answers across damping factors bitwise-exactly
  (its ``damping_delta`` is empty), while a walk system pays the
  ``|d' - d| / (1 - max(d, d'))`` certificate.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality import residual_loss_bound, reuse_loss_bound
from repro.errors import (
    ClusteringError,
    DimensionError,
    MeasureError,
    SingularMatrixError,
)
from repro.graphs.matrixkind import (
    MatrixKind,
    damping_delta,
    measure_matrix,
    system_delta,
)
from repro.lu import (
    WoodburyCorrector,
    crout_decompose,
    markowitz_ordering,
    solve_reordered_system_many,
)
from repro.policy import CorrectedPolicy, CorrectionDecision, QCPolicy
from repro.policy.qc import ranked_update_columns
from repro.query import QueryBatch, QueryPlanner
from repro.query import spec as spec_module
from repro.query.resolution import ApproximationRecord
from repro.query.spec import MeasureSpec, get_spec, make_query
from repro.serve.stats import StatsCollector
from repro.sparse.csr import SparseMatrix
from tests.conftest import evolve, random_snapshot

#: Deviation-vs-bound comparisons allow this relative slack: the
#: cross-damping certificate is *exactly attained* in real arithmetic on
#: dangling-free graphs, so the inequality holds with equality up to
#: roundoff; full-rank corrections certify 0.0 against ~1e-15 float noise.
SLACK = 1e-9
ABS_SLACK = 1e-12


def relative_l1_deviation(approx: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum(np.abs(approx - truth)) / np.sum(np.abs(truth)))


# ---------------------------------------------------------------------- #
# The SMW kernel
# ---------------------------------------------------------------------- #
class TestWoodburyCorrector:
    def _factorized(self, matrix):
        ordering, _ = markowitz_ordering(matrix)
        return crout_decompose(ordering.apply(matrix)), ordering

    def test_matches_dense_corrected_solve(self, rng):
        snapshot = random_snapshot(rng, 20, 70)
        matrix = measure_matrix(snapshot, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        factors, ordering = self._factorized(matrix)
        columns = (3, 7, 11)
        update = 0.05 * rng.normal(size=(20, 3))
        corrector = WoodburyCorrector(factors, ordering, update, columns)
        assert corrector.rank == 3
        assert corrector.columns == columns
        dense = matrix.to_dense()
        for t, column in enumerate(columns):
            dense[:, column] += update[:, t]
        rhs = rng.random(20)
        np.testing.assert_allclose(
            corrector.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-10
        )
        block = rng.random((20, 4))
        np.testing.assert_allclose(
            corrector.solve_many(block), np.linalg.solve(dense, block), atol=1e-10
        )

    def test_rank_zero_is_bitwise_passthrough(self, rng):
        snapshot = random_snapshot(rng, 15, 50)
        matrix = measure_matrix(snapshot, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        factors, ordering = self._factorized(matrix)
        corrector = WoodburyCorrector(factors, ordering, np.zeros((15, 0)), ())
        assert corrector.rank == 0
        block = rng.random((15, 3))
        base = solve_reordered_system_many(factors, ordering, block)
        assert corrector.solve_many(block).tobytes() == base.tobytes()

    def test_shape_and_index_validation(self, rng):
        factors = crout_decompose(SparseMatrix.identity(4))
        with pytest.raises(DimensionError):
            WoodburyCorrector(factors, None, np.zeros((4, 2)), (1,))
        with pytest.raises(DimensionError):
            WoodburyCorrector(factors, None, np.zeros((4, 1)), (9,))
        with pytest.raises(DimensionError):
            WoodburyCorrector(factors, None, np.zeros((4, 2)), (1, 1))
        corrector = WoodburyCorrector(factors, None, np.zeros((4, 0)), ())
        with pytest.raises(DimensionError):
            corrector.solve(np.zeros(5))

    def test_singular_corrected_system_rejected(self):
        # Cancelling a whole column of the identity makes A + UVᵀ singular:
        # the capacitance check must refuse at construction time.
        factors = crout_decompose(SparseMatrix.identity(4))
        update = np.zeros((4, 1))
        update[1, 0] = -1.0
        with pytest.raises(SingularMatrixError):
            WoodburyCorrector(factors, None, update, (1,))


# ---------------------------------------------------------------------- #
# Column ranking and the residual certificate
# ---------------------------------------------------------------------- #
class TestResidualBound:
    def test_ranked_columns_order_and_tiebreak(self):
        entries = {(0, 2): 0.5, (1, 2): -0.25, (0, 0): 0.4, (3, 1): 0.75}
        # Columns 1 and 2 tie at mass 0.75: ascending index breaks the tie.
        assert ranked_update_columns(entries) == [(1, 0.75), (2, 0.75), (0, 0.4)]
        assert ranked_update_columns({}) == []

    def test_residual_bound_reduces_to_reuse_bound(self):
        entries = {(0, 1): 0.2, (2, 1): -0.3, (0, 0): 0.1}
        assert residual_loss_bound(entries, (), 0.5) == reuse_loss_bound(entries, 0.5)
        assert residual_loss_bound(entries, (1,), 0.5) == pytest.approx(0.1 / 0.5)
        assert residual_loss_bound(entries, (0, 1), 0.5) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        damping=st.sampled_from([0.5, 0.85]),
        additions=st.integers(min_value=0, max_value=5),
        removals=st.integers(min_value=0, max_value=3),
    )
    def test_bound_monotone_in_rank(self, seed, damping, additions, removals):
        """More applied columns never loosen the certificate; full rank = 0.0."""
        rng = np.random.default_rng(seed)
        before = random_snapshot(rng, 18, 60)
        after = evolve(rng, before, additions, removals)
        entries = system_delta(
            before, after, kind=MatrixKind.RANDOM_WALK, damping=damping
        )
        ranked = ranked_update_columns(entries)
        bounds = [
            residual_loss_bound(
                entries, tuple(column for column, _ in ranked[:k]), damping
            )
            for k in range(len(ranked) + 1)
        ]
        assert bounds[0] == reuse_loss_bound(entries, damping)
        assert all(left >= right for left, right in zip(bounds, bounds[1:]))
        assert bounds[-1] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss_bound=st.floats(min_value=0.0, max_value=10.0),
        max_rank=st.integers(min_value=1, max_value=6),
    )
    def test_correct_picks_smallest_sufficient_rank(self, seed, loss_bound, max_rank):
        """The decision is the cheapest admissible one, float-identically."""
        rng = np.random.default_rng(seed)
        before = random_snapshot(rng, 18, 60)
        after = evolve(rng, before, int(rng.integers(0, 5)), int(rng.integers(0, 3)))
        entries = system_delta(before, after, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        policy = CorrectedPolicy(alpha=0.0, loss_bound=loss_bound, max_rank=max_rank)
        decision = policy.correct(entries, amplifier_damping=0.85, similarity=1.0)
        ranked = ranked_update_columns(entries)
        if decision is None:
            best = min(max_rank, len(ranked))
            assert residual_loss_bound(
                entries, tuple(column for column, _ in ranked[:best]), 0.85
            ) > loss_bound
            return
        assert decision.rank <= max_rank
        assert decision.columns == tuple(column for column, _ in ranked[:decision.rank])
        # Float-identical to the quality-layer bound, not merely close.
        assert decision.loss_estimate == residual_loss_bound(
            entries, decision.columns, 0.85
        )
        assert decision.loss_estimate <= loss_bound
        assert decision.uncorrected_estimate == reuse_loss_bound(entries, 0.85)
        if decision.rank:
            cheaper = tuple(column for column, _ in ranked[: decision.rank - 1])
            assert residual_loss_bound(entries, cheaper, 0.85) > loss_bound

    def test_policy_validation(self):
        with pytest.raises(ClusteringError):
            CorrectedPolicy(max_rank=0)
        with pytest.raises(ClusteringError):
            CorrectedPolicy(max_rank=2.5)  # type: ignore[arg-type]
        policy = CorrectedPolicy(alpha=0.5, loss_bound=1.0, max_rank=3)
        assert policy.name == "corrected"
        assert policy.max_rank == 3
        assert QCPolicy().max_rank == 0
        with pytest.raises(MeasureError):
            policy.correct({}, amplifier_damping=1.0, similarity=1.0)
        assert policy.correct({}, amplifier_damping=0.85, similarity=0.2) is None

    def test_bool_max_rank_rejected(self):
        """``True`` is an ``int`` subclass; it must not pass as rank 1."""
        for flag in (True, False):
            with pytest.raises(ClusteringError):
                CorrectedPolicy(max_rank=flag)
        assert CorrectedPolicy(max_rank=1).max_rank == 1

    def test_decision_preference_order(self):
        cheap = CorrectionDecision(
            similarity=0.9, loss_estimate=0.5, uncorrected_estimate=2.0,
            rank=1, columns=(3,),
        )
        expensive_tighter = dataclasses.replace(
            cheap, rank=4, loss_estimate=0.0, columns=(3, 1, 2, 0)
        )
        assert cheap.preferable_to(expensive_tighter)
        tighter_same_rank = dataclasses.replace(cheap, loss_estimate=0.1)
        assert tighter_same_rank.preferable_to(cheap)


# ---------------------------------------------------------------------- #
# Corrected serving through the planner
# ---------------------------------------------------------------------- #
class TestCorrectedServing:
    @pytest.mark.parametrize("measure,kind", [
        ("pagerank", MatrixKind.RANDOM_WALK),
        ("salsa_authority", MatrixKind.SALSA_AUTHORITY),
        ("salsa_hub", MatrixKind.SALSA_HUB),
    ])
    def test_deviation_within_residual_bound_per_kind(self, measure, kind):
        """(a) For every certified kind, corrected answers honor the bound."""
        rng = np.random.default_rng(3)
        before = random_snapshot(rng, 25, 100)
        after = evolve(rng, before, additions=3, removals=2)
        entries = system_delta(before, after, kind=kind, damping=0.85)
        ranked = ranked_update_columns(entries)
        assert len(ranked) >= 2, "workload sanity: the delta touches columns"
        # A bound exactly at the mid-rank residual forces a partial (rank >= 1,
        # nonzero-residual) correction rather than a full or verbatim one.
        mid = len(ranked) // 2
        loss_bound = ranked[mid][1] / (1.0 - 0.85)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.0, loss_bound=loss_bound, max_rank=len(ranked)
        ))
        planner.run(QueryBatch().add(make_query(measure, before)))
        outcome = planner.run(QueryBatch().add(make_query(measure, after)))
        assert outcome.stats.corrected_reuses == 1
        assert outcome.stats.factorizations == 0
        record = outcome.approximations[0]
        assert record.mode == "corrected"
        assert 1 <= record.rank <= mid + 1
        exact = QueryPlanner().run(QueryBatch().add(make_query(measure, after)))
        deviation = relative_l1_deviation(outcome[0], exact[0])
        assert deviation <= record.loss_estimate * (1.0 + SLACK) + ABS_SLACK

    def test_full_rank_correction_is_numerically_exact(self):
        """loss_bound=0 with enough rank: every column applied, ~exact answer."""
        rng = np.random.default_rng(5)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=2, removals=1)
        entries = system_delta(before, after, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        ranked = ranked_update_columns(entries)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.0, loss_bound=0.0, max_rank=max(len(ranked), 1)
        ))
        planner.run(QueryBatch().add_pagerank(before))
        outcome = planner.run(QueryBatch().add_pagerank(after).add_rwr(after, 0))
        assert outcome.stats.corrected_reuses == 1
        assert outcome.stats.factorizations == 0
        record = outcome.approximations[0]
        assert record.rank == len(ranked)
        assert record.loss_estimate == 0.0
        exact = QueryPlanner().run(QueryBatch().add_pagerank(after).add_rwr(after, 0))
        for position in (0, 1):
            assert relative_l1_deviation(outcome[position], exact[position]) < 1e-10

    def test_verbatim_reuse_unchanged_under_corrected_policy(self):
        """(c) Wherever plain QC succeeds, CorrectedPolicy is bitwise QC."""
        def serve(policy):
            rng = np.random.default_rng(7)
            before = random_snapshot(rng, 30, 120)
            after = evolve(rng, before, additions=2, removals=1)
            planner = QueryPlanner(policy=policy)
            planner.run(QueryBatch().add_pagerank(before))
            return planner.run(QueryBatch().add_pagerank(after).add_rwr(after, 0))

        qc = serve(QCPolicy(alpha=0.5, loss_bound=50.0))
        corrected = serve(CorrectedPolicy(alpha=0.5, loss_bound=50.0, max_rank=4))
        assert qc.stats.qc_reuses == corrected.stats.qc_reuses == 1
        assert corrected.stats.corrected_reuses == 0
        record = corrected.approximations[0]
        assert record.mode == "verbatim"
        assert record.rank == 0
        for left, right in zip(corrected, qc):
            assert left.tobytes() == right.tobytes()

    def test_cross_damping_shares_at_certified_bound(self):
        rng = np.random.default_rng(11)
        snapshot = random_snapshot(rng, 30, 120)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.5, loss_bound=1.0, max_rank=4
        ))
        planner.run(QueryBatch().add_pagerank(snapshot))
        outcome = planner.run(QueryBatch().add_pagerank(snapshot, damping=0.84))
        assert outcome.stats.factorizations == 0
        assert outcome.stats.corrected_reuses == 1
        record = outcome.approximations[0]
        assert record.mode == "cross-damping"
        assert record.rank == 0
        assert record.similarity == 1.0
        # ΔA = (0.85 - 0.84)·W with ‖W‖₁ = 1, amplified by 1/(1 - 0.85).
        assert record.loss_estimate == pytest.approx(0.01 / 0.15)
        exact = QueryPlanner().run(
            QueryBatch().add_pagerank(snapshot, damping=0.84)
        )
        deviation = relative_l1_deviation(outcome[0], exact[0])
        assert deviation <= record.loss_estimate * (1.0 + SLACK) + ABS_SLACK

    def test_laplacian_cross_damping_is_exact(self, rng, monkeypatch):
        """(d) The Laplacian ignores damping: its cross-damping delta is
        empty, the certificate is 0.0 and the shared answer bitwise-exact."""
        spec = MeasureSpec(
            name="laplacian_teleport_test",
            kind=MatrixKind.LAPLACIAN,
            build_rhs=get_spec("pagerank").build_rhs,
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        snapshot = random_snapshot(rng, 20, 60)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.9, loss_bound=0.0, max_rank=1
        ))
        planner.run(QueryBatch().add(
            make_query("laplacian_teleport_test", snapshot, damping=0.3)
        ))
        probe = QueryBatch().add(
            make_query("laplacian_teleport_test", snapshot, damping=0.1)
        )
        outcome = planner.run(probe)
        assert outcome.stats.factorizations == 0
        assert outcome.stats.corrected_reuses == 1
        record = outcome.approximations[0]
        assert record.mode == "cross-damping"
        assert record.rank == 0
        assert record.loss_estimate == 0.0
        exact = QueryPlanner().run(QueryBatch().add(
            make_query("laplacian_teleport_test", snapshot, damping=0.1)
        ))
        assert outcome[0].tobytes() == exact[0].tobytes()

    def test_damping_delta_empty_cases(self, rng):
        snapshot = random_snapshot(rng, 12, 30)
        assert damping_delta(snapshot, MatrixKind.RANDOM_WALK, 0.85, 0.85) == {}
        assert damping_delta(snapshot, MatrixKind.LAPLACIAN, 0.3, 0.1) == {}
        entries = damping_delta(snapshot, MatrixKind.RANDOM_WALK, 0.85, 0.84)
        # ΔA = (0.85 - 0.84)·W, supported on exactly W's stored entries.
        assert entries
        assert reuse_loss_bound(entries, 0.85) == pytest.approx(0.01 / 0.15)

    def test_uncertified_kind_never_corrects(self, rng, monkeypatch):
        spec = MeasureSpec(
            name="symwalk_corrected_test",
            kind=MatrixKind.SYMMETRIC_WALK,
            build_rhs=get_spec("pagerank").build_rhs,
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        before = random_snapshot(rng, 20, 60)
        after = evolve(rng, before, additions=1, removals=0)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.0, loss_bound=1e12, max_rank=8
        ))
        planner.run(QueryBatch().add(make_query("symwalk_corrected_test", before)))
        outcome = planner.run(
            QueryBatch().add(make_query("symwalk_corrected_test", after))
        )
        assert outcome.stats.corrected_reuses == 0
        assert outcome.stats.factorizations == 1

    def test_correction_does_not_alias_the_factor_cache(self):
        rng = np.random.default_rng(13)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=3, removals=2)
        entries = system_delta(before, after, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        planner = QueryPlanner(policy=CorrectedPolicy(
            alpha=0.0, loss_bound=0.0, max_rank=len(ranked_update_columns(entries))
        ))
        planner.run(QueryBatch().add_pagerank(before))
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.corrected_reuses == 1
        # The corrected child was never installed: the cache holds the anchor.
        assert planner.cache_info()["size"] == 1


# ---------------------------------------------------------------------- #
# Audit fields and serving observability
# ---------------------------------------------------------------------- #
class TestAuditAndStats:
    def test_batchresult_loss_estimate_distribution(self):
        rng = np.random.default_rng(17)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=2, removals=1)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.5, loss_bound=50.0))
        cold = planner.run(QueryBatch().add_pagerank(before))
        assert cold.loss_estimates() == ()
        assert cold.loss_estimate_percentile(0.99) == 0.0
        outcome = planner.run(QueryBatch().add_pagerank(after).add_rwr(after, 0))
        record = outcome.approximations[0]
        assert outcome.loss_estimates() == (record.loss_estimate,) * 2
        assert outcome.loss_estimate_percentile(1.0) == record.loss_estimate
        assert outcome.loss_estimate_percentile(0.0) == record.loss_estimate
        with pytest.raises(MeasureError):
            outcome.loss_estimate_percentile(1.5)

    def test_server_stats_count_corrected_separately(self):
        collector = StatsCollector()
        verbatim = ApproximationRecord(
            positions=(0, 1), system="child", parent_system="parent",
            similarity=1.0, loss_estimate=0.5, policy="qc",
        )
        corrected = ApproximationRecord(
            positions=(2,), system="child", parent_system="parent",
            similarity=1.0, loss_estimate=0.1, policy="corrected",
            rank=2, mode="corrected",
        )
        shared = ApproximationRecord(
            positions=(3,), system="child", parent_system="child",
            similarity=1.0, loss_estimate=0.06, policy="corrected",
            rank=0, mode="cross-damping",
        )
        collector.record_batch([], [verbatim, corrected, shared])
        assert collector.approximations_served == 4
        assert collector.corrected_served == 2
        snapshot = collector.snapshot()
        assert snapshot.corrected_served == 2
        assert snapshot.recent_approximations[-1].mode == "cross-damping"

    def test_default_record_fields_are_verbatim(self):
        record = ApproximationRecord(
            positions=(0,), system="a", parent_system="b",
            similarity=1.0, loss_estimate=0.0, policy="qc",
        )
        assert record.rank == 0
        assert record.mode == "verbatim"
