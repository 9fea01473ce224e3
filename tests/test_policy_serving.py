"""The reuse-policy layer: extraction differentials and QC-aware serving.

Three contracts are pinned here:

* **Policy extraction is invisible** — the refactored LUDEM-QC drivers
  (thin wrappers over ``policy.decomposition_clusters``) produce bitwise the
  same decompositions as composing the β-clustering and cluster
  decomposition directly (the pre-refactor code path), and a planner under
  :class:`ExactPolicy` answers bitwise like a policy-less planner.
* **Gates hold by construction** — a :class:`QCPolicy` decision never
  carries a similarity below ``alpha`` or a loss estimate above
  ``loss_bound`` (hypothesis-swept), and every planner approximation record
  inherits that.
* **The loss estimate is a real bound** — the relative L1 deviation of an
  approximate answer from the exact answer never exceeds the reported
  estimate (it is the certified perturbation bound of
  :func:`repro.core.quality.reuse_loss_bound`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    beta_clustering_cinc,
    beta_clustering_clude,
    clusters_cover_sequence,
)
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude
from repro.core.problem import LUDEMQCProblem
from repro.core.qc import resolve_qc_policy, solve_qc_cinc, solve_qc_clude
from repro.core.quality import (
    MarkowitzReference,
    residual_loss_bound,
    reuse_loss_bound,
)
from repro.core.similarity import snapshot_similarity
from repro.errors import ClusteringError, MeasureError
from repro.exec import canonical_sequence_state
from repro.graphs.delta import GraphDelta, snapshot_edit_similarity
from repro.graphs.matrixkind import MatrixKind, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.timeseries import MeasureSeries
from repro.graphs.generators import growing_egs
from repro.policy import CorrectionDecision, ExactPolicy, QCPolicy
from repro.query import QueryBatch, QueryPlanner
from repro.query.resolution import CandidateScan, ResolutionContext
from repro.sparse.pattern import SparsityPattern, matrix_edit_similarity
from tests.conftest import evolve, random_snapshot


def gate(policy, before, after, kind=MatrixKind.RANDOM_WALK, damping=0.85):
    """Score one (parent, child) pair through the policy's serving gate."""
    entries = system_delta(before, after, kind=kind, damping=damping)
    return policy.correct(
        entries,
        amplifier_damping=damping,
        similarity=snapshot_similarity(before, after),
    )


def build_chain(seed: int, n: int = 40, steps: int = 6,
                additions: int = 2, removals: int = 1):
    rng = np.random.default_rng(seed)
    chain = [random_snapshot(rng, n, 4 * n)]
    for _ in range(steps - 1):
        chain.append(evolve(rng, chain[-1], additions, removals))
    return chain


# ---------------------------------------------------------------------- #
# Policy units
# ---------------------------------------------------------------------- #
class TestPolicyObjects:
    def test_exact_policy_never_reuses(self, tiny_graph):
        policy = ExactPolicy()
        assert policy.is_exact
        assert policy.name == "exact"
        assert policy.max_rank == 0
        clone = GraphSnapshot(tiny_graph.n, tiny_graph.edges)
        assert gate(policy, tiny_graph, clone) is None
        for kind in MatrixKind:
            assert not policy.certifies_kind(kind)

    def test_qc_policy_validation(self):
        with pytest.raises(ClusteringError):
            QCPolicy(alpha=1.5)
        with pytest.raises(ClusteringError):
            QCPolicy(alpha=-0.1)
        with pytest.raises(ClusteringError):
            QCPolicy(loss_bound=-0.5)
        assert QCPolicy().max_rank == 0

    def test_nan_loss_bound_rejected(self, rng):
        """A NaN bound would certify anything: ``residual <= nan`` is never
        True, but ``loss > nan`` is never True either."""
        with pytest.raises(ClusteringError):
            QCPolicy(loss_bound=float("nan"))
        with pytest.raises(ClusteringError):
            QCPolicy(alpha=float("nan"))
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=3, removals=2)
        assert gate(QCPolicy(alpha=0.0, loss_bound=0.0), before, after) is None

    def test_identical_snapshots_reuse_at_zero_loss(self, tiny_graph):
        policy = QCPolicy(alpha=1.0, loss_bound=0.0)
        clone = GraphSnapshot(tiny_graph.n, tiny_graph.edges)
        decision = gate(policy, tiny_graph, clone)
        assert decision == CorrectionDecision(
            similarity=1.0, loss_estimate=0.0, uncorrected_estimate=0.0,
            rank=0, columns=(),
        )

    def test_alpha_gate_rejects_dissimilar(self):
        a = GraphSnapshot(6, [(0, 1), (1, 2), (2, 3)])
        b = GraphSnapshot(6, [(3, 4), (4, 5), (5, 0)])
        assert snapshot_similarity(a, b) < 0.5
        assert gate(QCPolicy(alpha=0.5, loss_bound=1e9), a, b) is None
        assert gate(QCPolicy(alpha=0.0, loss_bound=1e9), a, b) is not None

    def test_loss_gate_rejects_when_alpha_passes(self, rng):
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=3, removals=2)
        loose = QCPolicy(alpha=0.0, loss_bound=1e9)
        decision = gate(loose, before, after)
        assert decision is not None and decision.loss_estimate > 0.0
        tight = QCPolicy(alpha=0.0, loss_bound=decision.loss_estimate / 2.0)
        assert gate(tight, before, after) is None

    def test_uncertified_kind_is_never_reused(self, rng):
        """SYMMETRIC_WALK has no proven ‖A⁻¹‖₁ bound: reuse must refuse."""
        before = random_snapshot(rng, 20, 60)
        after = evolve(rng, before, additions=1, removals=1)
        policy = QCPolicy(alpha=0.0, loss_bound=1e12)
        assert not policy.certifies_kind(MatrixKind.SYMMETRIC_WALK)
        # The planner's scan never consults the gate for an uncertified kind.
        planner = QueryPlanner(policy=policy)
        planner.run(QueryBatch().add_pagerank(before))
        ctx = ResolutionContext(
            cache=planner.cache,
            policy=policy,
            executor=None,
            lineage={},
            snapshot_of=lambda key: key.system,
            scan=CandidateScan(),
        )
        group = planner.plan(QueryBatch().add_pagerank(after)).groups[0]
        assert ctx.scan.lookup(group, ctx) is not None
        uncertified = dataclasses.replace(
            group, key=dataclasses.replace(group.key, kind=MatrixKind.SYMMETRIC_WALK)
        )
        assert ctx.scan.lookup(uncertified, ctx) is None
        for kind in (MatrixKind.RANDOM_WALK, MatrixKind.SALSA_AUTHORITY,
                     MatrixKind.SALSA_HUB, MatrixKind.LAPLACIAN):
            assert policy.certifies_kind(kind)

    def test_symmetric_walk_spec_falls_through_to_cold(self, rng, monkeypatch):
        from repro.query import spec as spec_module
        from repro.query.spec import MeasureSpec, get_spec, make_query

        spec = MeasureSpec(
            name="symwalk_teleport_test",
            kind=MatrixKind.SYMMETRIC_WALK,
            build_rhs=get_spec("pagerank").build_rhs,
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        before = random_snapshot(rng, 20, 60)
        after = evolve(rng, before, additions=1, removals=0)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e12))
        planner.run(QueryBatch().add(make_query("symwalk_teleport_test", before)))
        outcome = planner.run(
            QueryBatch().add(make_query("symwalk_teleport_test", after))
        )
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.factorizations == 1

    def test_prefilter_is_a_sound_upper_bound(self, rng):
        """prefilter rejects only pairs evaluate_reuse would reject anyway."""
        for seed in range(5):
            local = np.random.default_rng(seed)
            a = random_snapshot(local, 18, int(local.integers(10, 60)))
            b = random_snapshot(local, 18, int(local.integers(10, 60)))
            for alpha in (0.0, 0.5, 0.9, 1.0):
                policy = QCPolicy(alpha=alpha, loss_bound=1e12)
                if not policy.prefilter(a, b):
                    assert snapshot_similarity(a, b) < alpha
                    assert gate(policy, a, b) is None
        # ExactPolicy's default prefilter never rejects.
        g = GraphSnapshot(3, [(0, 1)])
        assert ExactPolicy().prefilter(g, g)

    def test_mismatched_sizes_rejected(self, tiny_graph):
        other = GraphSnapshot(tiny_graph.n + 1, tiny_graph.edges)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
        planner.run(QueryBatch().add_pagerank(tiny_graph))
        outcome = planner.run(QueryBatch().add_pagerank(other))
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.factorizations == 1

    def test_unknown_decomposition_flavor_raises(self, tiny_symmetric_ems):
        with pytest.raises(ClusteringError):
            QCPolicy().decomposition_clusters("BF", list(tiny_symmetric_ems))

    def test_exact_policy_clusters_are_zero_beta(self, tiny_symmetric_ems):
        matrices = list(tiny_symmetric_ems)
        reference = MarkowitzReference(symmetric=True)
        expected = beta_clustering_cinc(matrices, 0.0, MarkowitzReference(symmetric=True))
        assert ExactPolicy().decomposition_clusters("CINC", matrices, reference) == expected
        assert clusters_cover_sequence(expected, len(matrices))


class TestScoringIngredients:
    def test_snapshot_similarity_matches_pattern_mes(self, rng):
        for _ in range(5):
            a = random_snapshot(rng, 20, 60)
            b = evolve(rng, a, additions=4, removals=3)
            direct = matrix_edit_similarity(
                SparsityPattern(20, a.edges), SparsityPattern(20, b.edges)
            )
            assert snapshot_similarity(a, b) == pytest.approx(direct)
            delta = GraphDelta.between(a, b)
            assert snapshot_similarity(a, b, delta=delta) == snapshot_similarity(a, b)

    def test_empty_snapshots_are_identical(self):
        a = GraphSnapshot(4, [])
        b = GraphSnapshot(4, [])
        assert snapshot_edit_similarity(a, b) == 1.0

    def test_reuse_loss_bound_is_scaled_max_column_sum(self):
        entries = {(0, 1): 0.2, (2, 1): -0.3, (0, 0): 0.1}
        assert reuse_loss_bound(entries, 0.5) == pytest.approx((0.2 + 0.3) / 0.5)
        assert reuse_loss_bound({}, 0.85) == 0.0
        with pytest.raises(MeasureError):
            reuse_loss_bound(entries, 1.0)

    def test_policy_estimate_equals_system_delta_bound(self, rng):
        before = random_snapshot(rng, 25, 90)
        after = evolve(rng, before, additions=2, removals=1)
        policy = QCPolicy(alpha=0.0, loss_bound=1e9)
        entries = system_delta(before, after, kind=MatrixKind.RANDOM_WALK, damping=0.85)
        assert gate(policy, before, after).loss_estimate == reuse_loss_bound(
            entries, 0.85
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        loss_bound=st.floats(min_value=0.0, max_value=20.0),
        damping=st.sampled_from([0.5, 0.85]),
    )
    def test_decisions_respect_declared_gates(self, seed, alpha, loss_bound, damping):
        """Any returned decision satisfies both gates — by construction."""
        rng = np.random.default_rng(seed)
        before = random_snapshot(rng, 20, 70)
        after = evolve(rng, before, additions=int(rng.integers(0, 5)),
                       removals=int(rng.integers(0, 3)))
        policy = QCPolicy(alpha=alpha, loss_bound=loss_bound)
        decision = gate(policy, before, after, damping=damping)
        if decision is not None:
            assert decision.similarity >= alpha
            assert decision.loss_estimate <= loss_bound
            assert decision.similarity == snapshot_similarity(before, after)
            assert decision.rank == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss_bound=st.floats(min_value=0.0, max_value=20.0),
        damping=st.sampled_from([0.3, 0.5, 0.85]),
        kind=st.sampled_from([MatrixKind.RANDOM_WALK, MatrixKind.SALSA_AUTHORITY]),
    )
    def test_rank_zero_decision_is_the_verbatim_bound(
        self, seed, loss_bound, damping, kind
    ):
        """QC's gate returns a rank-0 decision iff the verbatim bound clears
        ``loss_bound``, and its estimate is that bound, float for float."""
        rng = np.random.default_rng(seed)
        before = random_snapshot(rng, 20, 70)
        after = evolve(rng, before, additions=int(rng.integers(0, 6)),
                       removals=int(rng.integers(0, 4)))
        entries = system_delta(before, after, kind=kind, damping=damping)
        verbatim = residual_loss_bound(entries, (), damping)
        decision = QCPolicy(alpha=0.0, loss_bound=loss_bound).correct(
            entries, amplifier_damping=damping, similarity=0.5
        )
        assert (decision is not None) == (verbatim <= loss_bound)
        if decision is not None:
            assert decision.rank == 0 and decision.columns == ()
            assert decision.loss_estimate == verbatim
            assert decision.uncorrected_estimate == verbatim


# ---------------------------------------------------------------------- #
# QC-aware serving through the planner
# ---------------------------------------------------------------------- #
class TestQCServing:
    def _serve_pair(self, policy, seed=7, **evolve_kw):
        rng = np.random.default_rng(seed)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=evolve_kw.get("additions", 2),
                       removals=evolve_kw.get("removals", 1))
        planner = QueryPlanner(policy=policy)
        planner.run(QueryBatch().add_pagerank(before))
        outcome = planner.run(QueryBatch().add_pagerank(after).add_rwr(after, 0))
        return before, after, planner, outcome

    def test_qc_reuse_answers_without_factorizing(self):
        before, after, planner, outcome = self._serve_pair(
            QCPolicy(alpha=0.5, loss_bound=50.0)
        )
        assert outcome.stats.qc_reuses == 1
        assert outcome.stats.factorizations == 0
        assert outcome.stats.refreshes == 0
        assert len(outcome.approximations) == 1
        record = outcome.approximations[0]
        assert record.positions == (0, 1)
        assert record.policy == "qc"
        assert record.parent_system == before
        assert record.system == after
        assert outcome.approximate_positions() == (0, 1)
        assert outcome.max_loss_estimate == record.loss_estimate

    def test_approximate_answer_within_certified_bound(self):
        _, after, _, outcome = self._serve_pair(QCPolicy(alpha=0.5, loss_bound=50.0))
        exact = QueryPlanner().run(QueryBatch().add_pagerank(after).add_rwr(after, 0))
        record = outcome.approximations[0]
        for approx, truth in zip(outcome, exact):
            denominator = float(np.sum(np.abs(truth)))
            deviation = float(np.sum(np.abs(approx - truth))) / denominator
            assert deviation <= record.loss_estimate

    def test_gate_failure_falls_through_to_cold(self):
        _, _, _, outcome = self._serve_pair(QCPolicy(alpha=0.999999, loss_bound=50.0))
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.factorizations == 1
        assert outcome.approximations == ()

    def test_qc_outranks_registered_lineage(self):
        rng = np.random.default_rng(11)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=2, removals=1)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.5, loss_bound=50.0))
        planner.run(QueryBatch().add_pagerank(before))
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.qc_reuses == 1
        assert outcome.stats.refreshes == 0

    def test_rejected_qc_falls_back_to_refresh(self):
        rng = np.random.default_rng(13)
        before = random_snapshot(rng, 30, 120)
        after = evolve(rng, before, additions=2, removals=1)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.5, loss_bound=0.0))
        planner.run(QueryBatch().add_pagerank(before))
        planner.register_evolution(before, after)
        outcome = planner.run(QueryBatch().add_pagerank(after))
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.refreshes == 1
        assert outcome.stats.factorizations == 0

    def test_matrix_param_specs_never_qc_reuse(self):
        rng = np.random.default_rng(17)
        before = random_snapshot(rng, 25, 90)
        after = evolve(rng, before, additions=1, removals=1)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
        planner.run(QueryBatch().add_hitting_time(before, 0))
        outcome = planner.run(QueryBatch().add_hitting_time(after, 0))
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.factorizations == 1

    def test_reuse_does_not_alias_the_factor_cache(self):
        before, after, planner, outcome = self._serve_pair(
            QCPolicy(alpha=0.5, loss_bound=50.0)
        )
        assert outcome.stats.qc_reuses == 1
        # The child key was never installed: the cache still holds only the
        # parent system, and a fresh exact planner answer differs from the
        # approximate one (different factors).
        assert planner.cache_info()["size"] == 1

    def test_best_candidate_wins_by_similarity(self):
        rng = np.random.default_rng(19)
        anchor = random_snapshot(rng, 30, 120)
        near = evolve(rng, anchor, additions=1, removals=0)
        far = evolve(rng, near, additions=8, removals=6)
        planner = QueryPlanner(policy=QCPolicy(alpha=0.0, loss_bound=1e9))
        planner.run(QueryBatch().add_pagerank(anchor).add_pagerank(far))
        outcome = planner.run(QueryBatch().add_pagerank(near))
        assert outcome.stats.qc_reuses == 1
        record = outcome.approximations[0]
        assert record.parent_system == anchor
        assert record.similarity == snapshot_similarity(anchor, near)

    def test_exact_policy_planner_is_bitwise_identical(self, tiny_graph):
        batch = (
            QueryBatch()
            .add_pagerank(tiny_graph)
            .add_rwr(tiny_graph, 1)
            .add_ppr(tiny_graph, [0, 2])
            .add_hitting_time(tiny_graph, 3)
        )
        default = QueryPlanner().run(batch)
        exact = QueryPlanner(policy=ExactPolicy()).run(batch)
        assert exact.stats == default.stats
        assert exact.approximations == ()
        for left, right in zip(exact, default):
            assert left.tobytes() == right.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        loss_bound=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_served_chain_never_exceeds_declared_bound(self, seed, loss_bound):
        """Every approximation a QC planner emits respects its gates."""
        policy = QCPolicy(alpha=0.6, loss_bound=loss_bound)
        planner = QueryPlanner(policy=policy)
        for snapshot in build_chain(seed, n=25, steps=4):
            outcome = planner.run(
                QueryBatch().add_pagerank(snapshot).add_rwr(snapshot, 1)
            )
            for record in outcome.approximations:
                assert record.loss_estimate <= loss_bound
                assert record.similarity >= policy.alpha

    def test_chain_serving_reduces_factorizations(self):
        chain = build_chain(seed=23, n=40, steps=8, additions=2, removals=1)

        def serve(planner):
            total = 0
            for snapshot in chain:
                total += planner.run(QueryBatch().add_pagerank(snapshot)).stats.factorizations
            return total

        exact_count = serve(QueryPlanner())
        qc_count = serve(QueryPlanner(policy=QCPolicy(alpha=0.5, loss_bound=100.0)))
        assert exact_count == len(chain)
        assert qc_count < exact_count


# ---------------------------------------------------------------------- #
# Serving beyond a decomposed sequence (EMSSolver / MeasureSeries)
# ---------------------------------------------------------------------- #
class TestSequenceServing:
    def test_series_answers_evolved_head_from_seeded_factors(self):
        egs = growing_egs(nodes=30, snapshots=4, initial_edges=90,
                          edges_per_step=4, seed=5)
        series = MeasureSeries(
            egs, algorithm="BF", policy=QCPolicy(alpha=0.5, loss_bound=100.0)
        )
        series.pagerank([0])  # decompose + seed
        rng = np.random.default_rng(29)
        head = evolve(rng, egs[len(egs) - 1], additions=1, removals=1)
        outcome = series.run_batch(QueryBatch().add_pagerank(head))
        assert outcome.stats.qc_reuses == 1
        assert outcome.stats.factorizations == 0
        record = outcome.approximations[0]
        # The parent is one of the seeded index tokens, not a snapshot.
        assert record.parent_system[0] == "ems"

    def test_series_default_policy_still_cold_starts(self):
        egs = growing_egs(nodes=25, snapshots=3, initial_edges=70,
                          edges_per_step=4, seed=6)
        series = MeasureSeries(egs, algorithm="BF")
        series.pagerank([0])
        rng = np.random.default_rng(31)
        head = evolve(rng, egs[len(egs) - 1], additions=1, removals=1)
        outcome = series.run_batch(QueryBatch().add_pagerank(head))
        assert outcome.stats.qc_reuses == 0
        assert outcome.stats.factorizations == 1


# ---------------------------------------------------------------------- #
# The refactored LUDEM-QC drivers (policy extraction differential)
# ---------------------------------------------------------------------- #
class TestQCDriverExtraction:
    def test_resolve_policy_defaults_to_problem_beta(self, tiny_symmetric_ems):
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.25)
        policy = resolve_qc_policy(None, problem)
        assert isinstance(policy, QCPolicy)
        assert policy.loss_bound == 0.25
        explicit = QCPolicy(alpha=0.5, loss_bound=0.7)
        assert resolve_qc_policy(explicit, problem) is explicit

    @pytest.mark.parametrize("flavor", ["CINC", "CLUDE"])
    def test_driver_bitwise_equals_prerefactor_path(self, tiny_symmetric_ems, flavor):
        """The thin policy-driven driver == composing the pieces directly."""
        beta = 0.15
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=beta)
        matrices = list(tiny_symmetric_ems)
        if flavor == "CINC":
            clusters = beta_clustering_cinc(
                matrices, beta, MarkowitzReference(symmetric=True)
            )
            legacy = decompose_sequence_cinc(matrices, clusters=clusters)
            refactored = solve_qc_cinc(problem)
        else:
            clusters = beta_clustering_clude(
                matrices, beta, MarkowitzReference(symmetric=True)
            )
            legacy = decompose_sequence_clude(matrices, clusters=clusters)
            refactored = solve_qc_clude(problem)
        assert canonical_sequence_state(refactored) == canonical_sequence_state(legacy)
        assert refactored.cluster_count == len(clusters)

    @pytest.mark.parametrize("driver", [solve_qc_cinc, solve_qc_clude])
    def test_explicit_policy_matches_default(self, tiny_symmetric_ems, driver):
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.2)
        default = driver(problem)
        explicit = driver(problem, policy=QCPolicy(alpha=0.9, loss_bound=0.2))
        assert canonical_sequence_state(default) == canonical_sequence_state(explicit)

    @pytest.mark.parametrize("driver", [solve_qc_cinc, solve_qc_clude])
    def test_quality_constraint_still_enforced(self, tiny_symmetric_ems, driver):
        beta = 0.1
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=beta)
        result = driver(problem)
        reference = MarkowitzReference(symmetric=True)
        losses = result.quality_losses(list(tiny_symmetric_ems), reference)
        assert max(losses) <= beta + 1e-12
