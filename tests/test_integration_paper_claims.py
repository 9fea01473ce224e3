"""End-to-end integration tests asserting the paper's qualitative claims.

These tests exercise full pipelines (dataset -> EMS -> algorithms -> metrics)
at tiny scale and check the *directional* findings of the paper's evaluation:
cluster-based orderings beat a single global ordering, CLUDE avoids
structural restructuring entirely, the quality constraint of LUDEM-QC holds,
and LU-based query answering matches (and is consistent with) the
approximation baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import WorkloadRunner
from repro.bench.workloads import Workload
from repro.core.bf import decompose_sequence_bf
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude
from repro.core.inc import decompose_sequence_inc
from repro.core.quality import MarkowitzReference
from repro.datasets.registry import load_dblp, load_wiki
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind
from tests.lu_oracles import factors_are_valid


@pytest.fixture(scope="module")
def wiki_matrices():
    egs = load_wiki("tiny")
    return list(EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK))


@pytest.fixture(scope="module")
def dblp_matrices():
    egs = load_dblp("tiny")
    return list(EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK))


class TestOrderingQualityClaims:
    def test_inc_quality_degrades_along_the_sequence(self, wiki_matrices):
        """Figure 5's shape: INC's quality-loss grows as matrices drift from A_1."""
        result = decompose_sequence_inc(wiki_matrices)
        reference = MarkowitzReference()
        losses = result.quality_losses(wiki_matrices, reference)
        first_half = np.mean(losses[: len(losses) // 2])
        second_half = np.mean(losses[len(losses) // 2:])
        assert second_half >= first_half

    def test_cluster_methods_beat_inc_on_quality(self, wiki_matrices):
        """Figure 6's shape: CLUDE <= CINC <= INC in average quality-loss."""
        reference = MarkowitzReference()
        inc = decompose_sequence_inc(wiki_matrices).average_quality_loss(wiki_matrices, reference)
        cinc = decompose_sequence_cinc(wiki_matrices, alpha=0.95).average_quality_loss(
            wiki_matrices, reference
        )
        clude = decompose_sequence_clude(wiki_matrices, alpha=0.95).average_quality_loss(
            wiki_matrices, reference
        )
        assert clude <= cinc + 1e-9
        assert cinc <= inc + 1e-9

    def test_quality_improves_with_alpha(self, wiki_matrices):
        """Figure 6's trend: larger alpha (tighter clusters) -> lower quality-loss."""
        reference = MarkowitzReference()
        loose = decompose_sequence_clude(wiki_matrices, alpha=0.85).average_quality_loss(
            wiki_matrices, reference
        )
        tight = decompose_sequence_clude(wiki_matrices, alpha=0.99).average_quality_loss(
            wiki_matrices, reference
        )
        assert tight <= loose + 1e-9


class TestStructuralCostClaims:
    def test_clude_eliminates_structural_operations(self, wiki_matrices):
        """CLUDE's static USSP structure performs zero adjacency-list restructuring."""
        cinc = decompose_sequence_cinc(wiki_matrices, alpha=0.95)
        clude = decompose_sequence_clude(wiki_matrices, alpha=0.95)
        assert clude.total_structural_ops == 0
        assert cinc.total_structural_ops > 0

    def test_all_algorithms_produce_identical_solutions(self, wiki_matrices):
        """Exactness claim: every algorithm solves the same systems exactly."""
        rng = np.random.default_rng(7)
        b = rng.random(wiki_matrices[0].n)
        results = [
            decompose_sequence_bf(wiki_matrices),
            decompose_sequence_inc(wiki_matrices),
            decompose_sequence_cinc(wiki_matrices, alpha=0.9),
            decompose_sequence_clude(wiki_matrices, alpha=0.9),
        ]
        reference_solutions = [results[0].solve(i, b) for i in range(len(wiki_matrices))]
        for result in results[1:]:
            for index, expected in enumerate(reference_solutions):
                assert np.allclose(result.solve(index, b), expected, atol=1e-6)


class TestQCClaims:
    def test_qc_constraint_and_speed_tradeoff(self, dblp_matrices):
        """Figure 10's shape: looser beta -> fewer clusters (cheaper), quality within beta."""
        workload = Workload(name="dblp-tiny", matrices=dblp_matrices, symmetric=True)
        runner = WorkloadRunner(workload)
        tight = runner.evaluate_qc("CLUDE", beta=0.02)
        loose = runner.evaluate_qc("CLUDE", beta=0.4)
        assert tight.average_quality_loss <= 0.02 + 1e-9
        assert loose.average_quality_loss <= 0.4 + 1e-9
        assert loose.cluster_count <= tight.cluster_count

    def test_qc_factors_are_exact(self, dblp_matrices):
        from repro.core.problem import LUDEMQCProblem
        from repro.core.qc import solve_qc_clude
        from repro.graphs.ems import EvolvingMatrixSequence

        problem = LUDEMQCProblem(
            ems=EvolvingMatrixSequence(dblp_matrices), quality_requirement=0.2
        )
        result = solve_qc_clude(problem)
        for decomposition, matrix in zip(result.decompositions, dblp_matrices):
            assert factors_are_valid(
                decomposition.factors, matrix, decomposition.ordering, tolerance=1e-6
            )


class TestQueryAnsweringClaims:
    def test_lu_solve_agrees_with_pi_and_mc_direction(self):
        """The LU path, PI and MC all identify the same closest node (Section 8)."""
        from repro.datasets.registry import load_wiki
        from repro.measures.monte_carlo import rwr_monte_carlo
        from repro.measures.power_iteration import rwr_power_iteration
        from repro.measures.rwr import rwr_scores

        snapshot = load_wiki("tiny")[3]
        start = 0
        exact = rwr_scores(snapshot, start)
        pi = rwr_power_iteration(snapshot, start, tolerance=1e-12)
        mc = rwr_monte_carlo(snapshot, start, walks=3000, seed=1)
        assert np.allclose(exact, pi.scores, atol=1e-8)
        # All three agree on the most-proximate node (excluding the start itself).
        exact_top = int(np.argsort(-exact)[1])
        mc_ranking = np.argsort(-mc.scores)
        assert exact_top in mc_ranking[:5]

    def test_factored_solves_are_reused_across_queries(self, wiki_matrices):
        """One decomposition answers many right-hand sides (the paper's core motivation)."""
        result = decompose_sequence_clude(wiki_matrices, alpha=0.95)
        rng = np.random.default_rng(3)
        matrix = wiki_matrices[2]
        for _ in range(5):
            b = rng.random(matrix.n)
            x = result.solve(2, b)
            assert np.allclose(matrix.matvec(x), b, atol=1e-7)
