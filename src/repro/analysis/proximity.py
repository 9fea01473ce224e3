"""Company-proximity analysis over a patent citation sequence (paper Section 7).

Given yearly patent citation snapshots and a company labelling, measure the
proximity of every company to a focal company by summing the Personalized
PageRank scores of its patents, with the focal company's patents as the seed
set, then rank companies per year and study how the ranks evolve.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.datasets.patent import PatentDataset, company_groups
from repro.graphs.matrixkind import DEFAULT_DAMPING
from repro.measures.base import rank_of
from repro.measures.timeseries import MeasureSeries


@dataclasses.dataclass
class ProximityRankings:
    """Per-year proximity scores and ranks of companies relative to a focal company.

    Attributes
    ----------
    company_names:
        Names aligned with the score/rank columns.
    scores:
        Array of shape ``(years, companies)`` of summed PPR proximities.
    ranks:
        Array of the same shape with 1-based ranks per year (1 = closest).
    """

    company_names: List[str]
    scores: np.ndarray
    ranks: np.ndarray

    def rank_series(self, company: int) -> np.ndarray:
        """Return the rank trajectory of one company across the years."""
        return self.ranks[:, company]

    def is_steadily_rising(self, company: int, tolerance: int = 1) -> bool:
        """Return ``True`` when a company's rank improves (decreases) over time.

        ``tolerance`` allows a few non-improving years (rank plateaus).
        """
        series = self.rank_series(company)
        worsening_years = int(np.sum(np.diff(series) > 0))
        return series[-1] < series[0] and worsening_years <= tolerance + len(series) // 4


def proximity_rankings(
    dataset: PatentDataset,
    damping: float = DEFAULT_DAMPING,
    algorithm: str = "CLUDE",
    alpha: float = 0.9,
) -> ProximityRankings:
    """Compute per-year company proximity rankings relative to the focal company.

    The focal company itself is excluded from the ranking (its self-proximity
    would trivially dominate), mirroring the paper's Figure 11 which ranks
    *other* companies with respect to IBM.
    """
    groups: Dict[int, List[int]] = company_groups(dataset)
    focal = dataset.focal_company
    other_companies = [company for company in sorted(groups) if company != focal]

    series = MeasureSeries(dataset.egs, damping=damping, algorithm=algorithm, alpha=alpha)
    scores = series.group_proximity_series(
        seeds=groups[focal], groups=[groups[company] for company in other_companies]
    )

    ranks = np.vstack([rank_of(year_scores) for year_scores in scores])
    names = [dataset.company_names[company] for company in other_companies]
    return ProximityRankings(company_names=names, scores=scores, ranks=ranks)
