"""Graph measures computed by solving linear systems (plus PI/MC baselines)."""

from repro.measures.base import SnapshotMeasureSolver, normalize_distribution, rank_of
from repro.measures.hitting_time import (
    discounted_hitting_scores,
    discounted_hitting_scores_many,
)
from repro.measures.monte_carlo import MonteCarloResult, rwr_monte_carlo
from repro.measures.pagerank import pagerank_rhs, pagerank_scores, pagerank_series
from repro.measures.power_iteration import (
    PowerIterationResult,
    power_iteration_solve,
    rwr_power_iteration,
)
from repro.measures.ppr import (
    ppr_rhs,
    ppr_scores,
    ppr_scores_many,
)
from repro.measures.rwr import (
    rwr_rhs,
    rwr_scores,
    rwr_scores_many,
)
from repro.measures.salsa import salsa_scores
from repro.measures.timeseries import MeasureSeries

__all__ = [
    "SnapshotMeasureSolver",
    "normalize_distribution",
    "rank_of",
    "pagerank_scores",
    "pagerank_series",
    "pagerank_rhs",
    "rwr_scores",
    "rwr_scores_many",
    "rwr_rhs",
    "ppr_scores",
    "ppr_scores_many",
    "ppr_rhs",
    "salsa_scores",
    "discounted_hitting_scores",
    "discounted_hitting_scores_many",
    "power_iteration_solve",
    "rwr_power_iteration",
    "PowerIterationResult",
    "rwr_monte_carlo",
    "MonteCarloResult",
    "MeasureSeries",
]
