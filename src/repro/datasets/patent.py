"""Simulated patent-citation EGS with company labels (case-study stand-in).

The paper's Section 7 case study uses the NBER patent citation data (about 3
million U.S. patents, 1975-1999) to track how strongly one company's patents
depend on other companies' patents, by summing Personalized PageRank scores
of the other company's patent nodes with the focal company's patents as the
seed set.  That dataset is not available offline, so this module generates a
small labelled citation EGS with the structural features the case study
relies on:

* patents belong to companies; each yearly snapshot adds new patents that
  cite earlier patents (citations never change once granted),
* the focal company's new patents cite one designated "rising" company's
  technology more and more over the years, so — measured by Personalized
  PageRank seeded at the focal company's patents — the rising company's
  proximity rank climbs steadily (the Harris-vs-IBM storyline),
* the remaining companies keep a roughly stationary citation mix, so their
  ranks stay comparatively stable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set

import numpy as np

from repro.errors import DatasetError
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.snapshot import Edge, GraphSnapshot


@dataclasses.dataclass(frozen=True)
class PatentConfig:
    """Parameters of the simulated patent citation EGS.

    Attributes
    ----------
    companies:
        Number of companies including the focal company (index 0) and the
        rising company (index 1).
    patents_per_company_initial:
        Patents each company holds before the first snapshot.
    patents_per_company_per_year:
        New patents granted to each company every year.
    years:
        Number of yearly snapshots.
    citations_per_patent:
        Citations each new patent makes to earlier patents.
    rising_company_focus:
        Fraction of the focal company's citations directed at the rising
        company's patents in the *final* year (it ramps up linearly from the
        base rate).
    base_cross_citation_rate:
        Baseline probability that a focal-company citation targets the rising
        company.
    seed:
        PRNG seed.
    """

    companies: int = 6
    patents_per_company_initial: int = 6
    patents_per_company_per_year: int = 4
    years: int = 12
    citations_per_patent: int = 4
    rising_company_focus: float = 0.65
    base_cross_citation_rate: float = 0.0
    seed: int = 5

    def validate(self) -> None:
        """Raise :class:`~repro.errors.DatasetError` on inconsistent parameters."""
        if self.companies < 3:
            raise DatasetError("need at least three companies (focal, rising, other)")
        if self.years < 2:
            raise DatasetError("need at least two yearly snapshots")
        if not 0.0 <= self.base_cross_citation_rate <= 1.0:
            raise DatasetError("base_cross_citation_rate must lie in [0, 1]")
        if not 0.0 <= self.rising_company_focus <= 1.0:
            raise DatasetError("rising_company_focus must lie in [0, 1]")

    @property
    def total_patents(self) -> int:
        """Total number of patent nodes across all years."""
        per_company = (
            self.patents_per_company_initial
            + self.patents_per_company_per_year * (self.years - 1)
        )
        return per_company * self.companies


@dataclasses.dataclass
class PatentDataset:
    """A simulated patent citation EGS plus its company labelling.

    Attributes
    ----------
    egs:
        Yearly citation snapshots (directed edges: citing -> cited).
    company_of:
        Company index of every patent node.
    company_names:
        Human-readable company names (index 0 is the focal company, index 1
        the rising company).
    """

    egs: EvolvingGraphSequence
    company_of: List[int]
    company_names: List[str]

    @property
    def focal_company(self) -> int:
        """Index of the focal company (the paper's IBM analogue)."""
        return 0

    @property
    def rising_company(self) -> int:
        """Index of the company whose proximity to the focal company rises."""
        return 1

    def patents_of(self, company: int) -> List[int]:
        """Return the patent node ids owned by ``company``."""
        return [node for node, owner in enumerate(self.company_of) if owner == company]


_DEFAULT_NAMES = [
    "FOCAL",
    "RISING",
    "ALPHA CORP",
    "BETA LABS",
    "GAMMA SYSTEMS",
    "DELTA WORKS",
    "EPSILON TECH",
    "ZETA INDUSTRIES",
]


def generate_patent_dataset(config: PatentConfig | None = None) -> PatentDataset:
    """Generate the simulated patent citation dataset."""
    config = config or PatentConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)

    n = config.total_patents
    company_of: List[int] = []
    granted_year: List[int] = []

    # Assign node ids year by year, company by company, so ids are stable.
    node_id = 0
    nodes_by_year: List[List[int]] = []
    for year in range(config.years):
        this_year: List[int] = []
        per_company = (
            config.patents_per_company_initial if year == 0 else config.patents_per_company_per_year
        )
        for company in range(config.companies):
            for _ in range(per_company):
                company_of.append(company)
                granted_year.append(year)
                this_year.append(node_id)
                node_id += 1
        nodes_by_year.append(this_year)

    edges: Set[Edge] = set()
    snapshots: List[GraphSnapshot] = []
    existing_nodes: List[int] = []
    patents_by_company: Dict[int, List[int]] = {c: [] for c in range(config.companies)}

    # Fixed citation affinities of the focal company towards the other
    # companies: higher-index companies are cited progressively less, and the
    # rising company (index 1) starts at the bottom of that scale.  Over the
    # years the rising company's affinity ramps up past everyone else, which
    # is what drives its proximity rank upward (the Harris-vs-IBM storyline).
    static_affinity = {
        company: 1.0 + 0.6 * (config.companies - company)
        for company in range(2, config.companies)
    }
    rising_start = 0.25
    rising_end = (max(static_affinity.values()) if static_affinity else 1.0) * 5.0

    for year in range(config.years):
        progress = year / max(1, config.years - 1)
        ramp = max(0.0, (progress - 0.2) / 0.8)
        rising_affinity = rising_start + (rising_end - rising_start) * ramp
        affinities = dict(static_affinity)
        affinities[1] = rising_affinity

        # Non-focal patents are processed first so that, within the same year,
        # the focal company's patents already have other companies' patents
        # available to cite (otherwise the very first snapshot would contain
        # no focal-to-other citations at all).
        ordered_nodes = [node for node in nodes_by_year[year] if company_of[node] != 0]
        ordered_nodes += [node for node in nodes_by_year[year] if company_of[node] == 0]
        for node in ordered_nodes:
            company = company_of[node]
            for _ in range(config.citations_per_patent):
                target = None
                if company == 0 and affinities:
                    # The focal company cites other companies proportionally to
                    # its current affinity for them.
                    cited_companies = [c for c in affinities if patents_by_company[c]]
                    if cited_companies:
                        weights = np.array([affinities[c] for c in cited_companies])
                        weights = weights / weights.sum()
                        chosen = int(rng.choice(cited_companies, p=weights))
                        pool = patents_by_company[chosen]
                        target = int(pool[rng.integers(0, len(pool))])
                elif company != 0:
                    # Non-focal companies build on their own earlier patents,
                    # so Personalized PageRank mass injected by the focal
                    # company's citations stays with the cited company instead
                    # of leaking across the whole graph.
                    own_pool = patents_by_company[company]
                    if own_pool:
                        target = int(own_pool[rng.integers(0, len(own_pool))])
                if target is None:
                    continue
                if target != node:
                    edges.add((node, target))
            existing_nodes.append(node)
            patents_by_company[company].append(node)
        snapshots.append(GraphSnapshot(n, edges, directed=True))

    names = [_DEFAULT_NAMES[i % len(_DEFAULT_NAMES)] for i in range(config.companies)]
    return PatentDataset(
        egs=EvolvingGraphSequence(snapshots),
        company_of=company_of,
        company_names=names,
    )


def company_groups(dataset: PatentDataset) -> Dict[int, List[int]]:
    """Return ``{company index: list of patent node ids}`` for a dataset."""
    groups: Dict[int, List[int]] = {}
    for node, company in enumerate(dataset.company_of):
        groups.setdefault(company, []).append(node)
    return groups
