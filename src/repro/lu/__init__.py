"""LU decomposition engine: symbolic analysis, orderings, Crout, Bennett, solves."""

from repro.lu.bennett import bennett_rank_one_update, bennett_update, delta_to_rank_one_terms
from repro.lu.crout import crout_decompose, crout_decompose_into
from repro.lu.factors import LUFactors
from repro.lu.gauss import gaussian_elimination_solve
from repro.lu.markowitz import markowitz_ordering
from repro.lu.mindegree import (
    minimum_degree_ordering,
    symmetric_symbolic_size,
)
from repro.lu.smw import CONDITION_LIMIT, WoodburyCorrector
from repro.lu.solve import (
    backward_substitution,
    backward_substitution_many,
    forward_substitution,
    forward_substitution_many,
    solve_factored,
    solve_factored_many,
    solve_reordered_system,
    solve_reordered_system_many,
)
from repro.lu.symbolic import (
    fill_in_count,
    fill_in_pattern,
    symbolic_decomposition,
    symbolic_pattern_size,
)

__all__ = [
    "LUFactors",
    "crout_decompose",
    "crout_decompose_into",
    "bennett_update",
    "bennett_rank_one_update",
    "delta_to_rank_one_terms",
    "markowitz_ordering",
    "minimum_degree_ordering",
    "symmetric_symbolic_size",
    "symbolic_decomposition",
    "fill_in_pattern",
    "fill_in_count",
    "symbolic_pattern_size",
    "forward_substitution",
    "forward_substitution_many",
    "backward_substitution",
    "backward_substitution_many",
    "solve_factored",
    "solve_factored_many",
    "solve_reordered_system",
    "solve_reordered_system_many",
    "gaussian_elimination_solve",
    "WoodburyCorrector",
    "CONDITION_LIMIT",
]
