"""Tests for the graph measures (PR, RWR, PPR, SALSA, DHT, PI, MC, series)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasureError
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.generators import growing_egs
from repro.graphs.snapshot import GraphSnapshot
from repro.measures.base import SnapshotMeasureSolver, normalize_distribution, rank_of
from repro.measures.hitting_time import discounted_hitting_scores
from repro.measures.monte_carlo import rwr_monte_carlo
from repro.measures.pagerank import pagerank_rhs, pagerank_scores, pagerank_series
from repro.measures.power_iteration import power_iteration_solve, rwr_power_iteration
from repro.measures.ppr import ppr_scores
from repro.measures.rwr import rwr_scores
from repro.measures.salsa import salsa_scores
from repro.measures.timeseries import MeasureSeries


class TestBaseHelpers:
    def test_snapshot_solver_residual(self, tiny_graph, rng):
        solver = SnapshotMeasureSolver(tiny_graph)
        b = rng.random(tiny_graph.n)
        x = solver.solve(b)
        assert np.allclose(solver.matrix.matvec(x), b, atol=1e-9)

    def test_invalid_damping(self, tiny_graph):
        with pytest.raises(MeasureError):
            SnapshotMeasureSolver(tiny_graph, damping=1.5)

    def test_normalize_distribution(self):
        v = normalize_distribution(np.array([1.0, 3.0]))
        assert np.allclose(v, [0.25, 0.75])
        zeros = normalize_distribution(np.zeros(3))
        assert np.allclose(zeros, 0.0)

    def test_rank_of(self):
        ranks = rank_of([0.5, 0.9, 0.1])
        assert ranks.tolist() == [2, 1, 3]


class TestPageRank:
    def test_scores_sum_close_to_one(self, tiny_graph):
        scores = pagerank_scores(tiny_graph)
        # With no dangling-node correction the sum is <= 1 and close to it
        # when most nodes have out-edges.
        assert 0.5 < float(np.sum(scores)) <= 1.0 + 1e-9
        assert np.all(scores >= 0)

    def test_matches_power_iteration_fixed_point(self, tiny_graph):
        from repro.graphs.matrixkind import column_normalized_matrix

        walk = column_normalized_matrix(tiny_graph)
        exact = pagerank_scores(tiny_graph, damping=0.85)
        approx = power_iteration_solve(walk, np.full(tiny_graph.n, 1.0 / tiny_graph.n),
                                       damping=0.85, tolerance=1e-12)
        assert approx.converged
        assert np.allclose(exact, approx.scores, atol=1e-8)

    def test_well_linked_page_ranks_high(self):
        # Node 0 receives links from everyone; it must get the top PageRank.
        n = 6
        edges = [(i, 0) for i in range(1, n)] + [(0, 1), (1, 2)]
        scores = pagerank_scores(GraphSnapshot(n, edges))
        assert int(np.argmax(scores)) == 0

    def test_series_shape(self):
        egs = growing_egs(nodes=25, snapshots=5, initial_edges=50, edges_per_step=5)
        series = pagerank_series(egs, nodes=[0, 3], algorithm="CLUDE", alpha=0.9)
        assert series.shape == (5, 2)
        assert np.all(series >= 0)

    def test_rhs_helper(self):
        rhs = pagerank_rhs(4, damping=0.85)
        assert np.allclose(rhs, 0.0375)


class TestRWRandPPR:
    def test_rwr_distribution_properties(self, tiny_graph):
        scores = rwr_scores(tiny_graph, start_node=0)
        assert np.all(scores >= -1e-12)
        assert scores[0] == np.max(scores)          # restart node dominates
        assert 0.5 < float(np.sum(scores)) <= 1.0 + 1e-9

    def test_rwr_matches_power_iteration(self, tiny_graph):
        exact = rwr_scores(tiny_graph, start_node=2)
        approx = rwr_power_iteration(tiny_graph, start_node=2, tolerance=1e-12)
        assert np.allclose(exact, approx.scores, atol=1e-8)

    def test_rwr_proximity_direct_neighbour_higher(self, tiny_graph):
        # Node 1 is a direct successor of 0; node 3 is two hops away.
        scores = rwr_scores(tiny_graph, 0)
        assert scores[1] > scores[3]

    def test_ppr_reduces_to_rwr_for_single_seed(self, tiny_graph):
        assert np.allclose(
            ppr_scores(tiny_graph, [4]), rwr_scores(tiny_graph, 4), atol=1e-12
        )

    def test_ppr_group_proximity(self, tiny_graph):
        # The case study's aggregate: the summed PPR scores of a target group.
        series = MeasureSeries(EvolvingGraphSequence([tiny_graph]))
        proximity = series.group_proximity_series(seeds=[0, 1], groups=[[2, 3]])
        scores = ppr_scores(tiny_graph, [0, 1])
        assert proximity[0, 0] == pytest.approx(float(scores[2] + scores[3]))

    def test_monte_carlo_correlates_with_exact(self, tiny_graph):
        exact = rwr_scores(tiny_graph, start_node=0)
        estimate = rwr_monte_carlo(tiny_graph, start_node=0, walks=4000, seed=3)
        # The MC estimate visits distribution is not identical to the RWR
        # stationary distribution normalisation, but the top node must agree
        # and the correlation must be strongly positive.
        assert int(np.argmax(estimate.scores)) == int(np.argmax(exact))
        correlation = np.corrcoef(exact, estimate.scores)[0, 1]
        assert correlation > 0.8

    def test_monte_carlo_invalid_inputs(self, tiny_graph):
        with pytest.raises(MeasureError):
            rwr_monte_carlo(tiny_graph, start_node=99)
        with pytest.raises(MeasureError):
            rwr_monte_carlo(tiny_graph, start_node=0, walks=0)

    def test_monte_carlo_unseeded_use_raises(self, tiny_graph):
        # Same explicit-randomness policy as repro.graphs.generators: no
        # fallback to global/unseeded randomness anywhere.
        with pytest.raises(MeasureError):
            rwr_monte_carlo(tiny_graph, start_node=0)
        with pytest.raises(MeasureError):
            rwr_monte_carlo(
                tiny_graph, start_node=0, seed=1, rng=np.random.default_rng(1)
            )

    def test_monte_carlo_seed_and_rng_reproducible(self, tiny_graph):
        by_seed = rwr_monte_carlo(tiny_graph, start_node=0, walks=200, seed=11)
        again = rwr_monte_carlo(tiny_graph, start_node=0, walks=200, seed=11)
        by_rng = rwr_monte_carlo(
            tiny_graph, start_node=0, walks=200, rng=np.random.default_rng(11)
        )
        assert by_seed.scores.tobytes() == again.scores.tobytes()
        assert by_seed.scores.tobytes() == by_rng.scores.tobytes()
        assert by_seed.steps == by_rng.steps


class TestSALSAandDHT:
    def test_salsa_scores_shape_and_positivity(self, tiny_graph):
        authority, hub = salsa_scores(tiny_graph)
        assert authority.shape == (tiny_graph.n,)
        assert hub.shape == (tiny_graph.n,)
        assert np.all(authority >= -1e-12) and np.all(hub >= -1e-12)

    def test_salsa_empty_graph_uniform(self):
        authority, hub = salsa_scores(GraphSnapshot(4, []))
        assert np.allclose(authority, 0.25)
        assert np.allclose(hub, 0.25)

    def test_dht_target_is_one(self, tiny_graph):
        scores = discounted_hitting_scores(tiny_graph, target=3)
        assert scores[3] == pytest.approx(1.0)
        assert np.all(scores <= 1.0 + 1e-9)

    def test_dht_closer_nodes_score_higher(self):
        # Chain 0 -> 1 -> 2 -> 3: nodes nearer to the target hit it sooner.
        chain = GraphSnapshot(4, [(0, 1), (1, 2), (2, 3)])
        scores = discounted_hitting_scores(chain, target=3)
        assert scores[2] > scores[1] > scores[0] > 0

    def test_dht_unreachable_is_zero(self):
        graph = GraphSnapshot(3, [(0, 1)])
        scores = discounted_hitting_scores(graph, target=2)
        assert scores[0] == pytest.approx(0.0)

    def test_dht_invalid_target(self, tiny_graph):
        with pytest.raises(MeasureError):
            discounted_hitting_scores(tiny_graph, target=50)


class TestPowerIteration:
    def test_rejects_bad_damping_and_shape(self, tiny_graph):
        from repro.graphs.matrixkind import column_normalized_matrix

        walk = column_normalized_matrix(tiny_graph)
        with pytest.raises(MeasureError):
            power_iteration_solve(walk, np.ones(tiny_graph.n), damping=1.0)
        with pytest.raises(MeasureError):
            power_iteration_solve(walk, np.ones(3))

    def test_reports_non_convergence(self, tiny_graph):
        from repro.graphs.matrixkind import column_normalized_matrix

        walk = column_normalized_matrix(tiny_graph)
        result = power_iteration_solve(
            walk, np.ones(tiny_graph.n), max_iterations=1, tolerance=1e-15
        )
        assert not result.converged


class TestMeasureSeries:
    def test_series_consistent_with_per_snapshot_measures(self):
        egs = growing_egs(nodes=20, snapshots=4, initial_edges=40, edges_per_step=5)
        series = MeasureSeries(egs, algorithm="CLUDE", alpha=0.9)
        pr = series.pagerank([2, 5])
        assert pr.shape == (4, 2)
        direct = pagerank_scores(egs[2])
        assert pr[2, 0] == pytest.approx(float(direct[2]), abs=1e-8)

        rwr_series = series.rwr(0, targets=[1])
        direct_rwr = rwr_scores(egs[3], 0)
        assert rwr_series[3, 0] == pytest.approx(float(direct_rwr[1]), abs=1e-8)

    def test_group_proximity_series(self):
        egs = growing_egs(nodes=18, snapshots=3, initial_edges=35, edges_per_step=4)
        series = MeasureSeries(egs, algorithm="CINC", alpha=0.9)
        groups = [[0, 1], [2, 3, 4]]
        proximity = series.group_proximity_series(seeds=[5, 6], groups=groups)
        assert proximity.shape == (3, 2)
        assert np.all(proximity >= -1e-12)

    def test_invalid_damping(self):
        egs = growing_egs(nodes=10, snapshots=2, initial_edges=15, edges_per_step=2)
        with pytest.raises(MeasureError):
            MeasureSeries(egs, damping=0.0)


class TestDampingDomains:
    """Per-kind damping domains (regression for the Laplacian boundary).

    ``core.quality.reuse_loss_bound`` documents the undamped Laplacian
    composition ``A = I + L`` under the convention ``damping = 0.0``, but
    ``Query.__post_init__`` used to reject 0.0 for *every* measure.  The
    domain is now per matrix kind: Laplacian systems accept ``[0, 1)``
    (the damping never enters the composition), everything else keeps the
    strict ``(0, 1)``.
    """

    @pytest.fixture()
    def laplacian_spec(self, monkeypatch):
        from repro.graphs.matrixkind import MatrixKind
        from repro.query import spec as spec_module
        from repro.query.spec import MeasureSpec

        spec = MeasureSpec(
            name="lap_boundary_test",
            kind=MatrixKind.LAPLACIAN,
            build_rhs=lambda snapshot, damping, params: np.ones(snapshot.n),
            description="Laplacian smoke measure for the damping boundary",
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        return spec

    def test_laplacian_query_accepts_zero_damping(self, tiny_graph, laplacian_spec):
        from repro.query import QueryPlanner, make_query
        from repro.query.spec import evaluate_block

        query = make_query("lap_boundary_test", tiny_graph, damping=0.0)
        assert query.damping == 0.0
        batch = QueryPlanner().run([query])
        block = evaluate_block("lap_boundary_test", tiny_graph, [{}], damping=0.0)
        assert batch.results[0].tobytes() == block[:, 0].tobytes()

    def test_laplacian_rejects_out_of_range(self, tiny_graph, laplacian_spec):
        from repro.query import make_query

        for bad in (1.0, -0.1, 1.5):
            with pytest.raises(MeasureError):
                make_query("lap_boundary_test", tiny_graph, damping=bad)

    def test_walk_measures_keep_strict_open_interval(self, tiny_graph):
        from repro.query import make_query

        for bad in (0.0, 1.0):
            with pytest.raises(MeasureError):
                make_query("rwr", tiny_graph, damping=bad, start_node=0)
            with pytest.raises(MeasureError):
                make_query("pagerank", tiny_graph, damping=bad)

    def test_matrix_builders_share_the_domain(self, tiny_graph):
        from repro.graphs.matrixkind import MatrixKind, measure_matrix, system_delta

        matrix = measure_matrix(tiny_graph, kind=MatrixKind.LAPLACIAN, damping=0.0)
        assert matrix.n == tiny_graph.n
        with pytest.raises(MeasureError):
            measure_matrix(tiny_graph, kind=MatrixKind.LAPLACIAN, damping=1.5)
        with pytest.raises(MeasureError):
            measure_matrix(tiny_graph, kind=MatrixKind.RANDOM_WALK, damping=0.0)
        # (2, 5) is new in both directions — it changes even the symmetrized
        # Laplacian structure.
        other = GraphSnapshot(
            tiny_graph.n, set(tiny_graph.edges) | {(2, 5)}, directed=True
        )
        delta = system_delta(
            tiny_graph, other, kind=MatrixKind.LAPLACIAN, damping=0.0
        )
        assert delta  # the new edge produced entry changes
        with pytest.raises(MeasureError):
            system_delta(tiny_graph, other, kind=MatrixKind.RANDOM_WALK, damping=1.0)

    def test_server_accepts_laplacian_zero_damping(self, tiny_graph, laplacian_spec):
        from repro.serve import MeasureServer

        with MeasureServer(max_wait_ms=0) as server:
            future = server.submit_measure(
                "lap_boundary_test", tiny_graph, damping=0.0
            )
            answer = future.result(timeout=10)
            assert answer.shape == (tiny_graph.n,)
            with pytest.raises(MeasureError):
                server.submit_measure("rwr", tiny_graph, damping=0.0, start_node=0)
