"""Tests for the LUDEM-QC drivers, problem definitions and the EMSSolver facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import LUDEMProblem, LUDEMQCProblem
from repro.core.qc import solve_qc_cinc, solve_qc_clude
from repro.core.quality import MarkowitzReference
from repro.core.solver import ALGORITHMS, EMSSolver, available_algorithms
from repro.errors import ClusteringError, MeasureError, NotSymmetricError
from tests.lu_oracles import factors_are_valid


class TestProblemDefinitions:
    def test_ludem_problem_basic(self, tiny_ems):
        problem = LUDEMProblem(ems=tiny_ems, similarity_threshold=0.9)
        assert problem.length == len(tiny_ems)
        assert problem.n == tiny_ems.n

    def test_ludem_problem_rejects_bad_alpha(self, tiny_ems):
        with pytest.raises(ClusteringError):
            LUDEMProblem(ems=tiny_ems, similarity_threshold=1.2)

    def test_qc_problem_requires_symmetry(self, tiny_ems, tiny_symmetric_ems):
        LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.1)
        with pytest.raises(NotSymmetricError):
            LUDEMQCProblem(ems=tiny_ems, quality_requirement=0.1)

    def test_qc_problem_rejects_negative_beta(self, tiny_symmetric_ems):
        with pytest.raises(ClusteringError):
            LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=-0.1)


class TestQCDrivers:
    @pytest.mark.parametrize("driver", [solve_qc_cinc, solve_qc_clude])
    def test_quality_constraint_enforced(self, driver, tiny_symmetric_ems):
        beta = 0.2
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=beta)
        reference = MarkowitzReference(symmetric=True)
        result = driver(problem, reference=reference)
        matrices = list(tiny_symmetric_ems)
        losses = result.quality_losses(matrices, reference)
        assert all(loss <= beta + 1e-9 for loss in losses)

    @pytest.mark.parametrize("driver", [solve_qc_cinc, solve_qc_clude])
    def test_factors_valid(self, driver, tiny_symmetric_ems):
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.25)
        result = driver(problem)
        for decomposition, matrix in zip(result.decompositions, tiny_symmetric_ems):
            assert factors_are_valid(
                decomposition.factors, matrix, decomposition.ordering, tolerance=1e-6
            )

    def test_looser_beta_gives_fewer_or_equal_clusters(self, tiny_symmetric_ems):
        tight = solve_qc_clude(LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.0))
        loose = solve_qc_clude(LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.5))
        assert loose.cluster_count <= tight.cluster_count

    def test_algorithm_names(self, tiny_symmetric_ems):
        problem = LUDEMQCProblem(ems=tiny_symmetric_ems, quality_requirement=0.2)
        assert solve_qc_cinc(problem).algorithm == "CINC-QC"
        assert solve_qc_clude(problem).algorithm == "CLUDE-QC"


class TestEMSSolver:
    def test_registry_contents(self):
        assert set(available_algorithms()) == {"BF", "INC", "CINC", "CLUDE"}
        assert set(ALGORITHMS) == {"BF", "INC", "CINC", "CLUDE"}

    @pytest.mark.parametrize("algorithm", ["BF", "INC", "CINC", "CLUDE"])
    def test_solver_end_to_end(self, algorithm, tiny_ems):
        solver = EMSSolver(tiny_ems, algorithm=algorithm, alpha=0.9)
        result = solver.decompose()
        assert len(result) == len(tiny_ems)
        assert solver.verify() < 1e-7

    def test_decompose_is_idempotent(self, tiny_ems):
        solver = EMSSolver(tiny_ems, algorithm="CLUDE", alpha=0.9)
        first = solver.decompose()
        second = solver.decompose()
        assert first is second

    def test_solve_and_series(self, tiny_ems):
        solver = EMSSolver(tiny_ems, algorithm="CLUDE", alpha=0.9)
        rng = np.random.default_rng(1)
        b = rng.random(tiny_ems.n)
        series = solver.solve_series(b)
        assert series.shape == (len(tiny_ems), tiny_ems.n)
        single = solver.solve(2, b)
        assert np.allclose(series[2], single)

    def test_unknown_algorithm_rejected(self, tiny_ems):
        with pytest.raises(MeasureError):
            EMSSolver(tiny_ems, algorithm="FAST")

    def test_case_insensitive_algorithm(self, tiny_ems):
        solver = EMSSolver(tiny_ems, algorithm="clude", alpha=0.9)
        assert solver.algorithm == "CLUDE"
