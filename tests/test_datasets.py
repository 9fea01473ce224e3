"""Tests for the simulated datasets (Wiki, DBLP, patent) and the registry."""

from __future__ import annotations

import pytest

from repro.datasets.dblp import DBLPConfig, generate_dblp_egs
from repro.datasets.patent import PatentConfig, company_groups, generate_patent_dataset
from repro.datasets.registry import (
    DATASET_LOADERS,
    available_datasets,
    load_dblp,
    load_patent,
    load_patent_egs,
    load_synthetic,
    load_wiki,
)
from repro.graphs.egs import EvolvingGraphSequence
from repro.datasets.wiki import WikiConfig, generate_wiki_egs
from repro.errors import DatasetError
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind


class TestWikiDataset:
    def test_structure_and_growth(self):
        config = WikiConfig(pages=60, snapshots=10, initial_links=250, final_links=450,
                            churn_per_day=3, tracked_page=5, event_gain_day=3,
                            event_dilute_day=7, seed=1)
        egs = generate_wiki_egs(config)
        assert len(egs) == 10
        assert egs.n == 60
        counts = egs.edge_counts()
        # Strong overall growth (the property that makes INC's ordering degrade).
        assert counts[-1] > counts[0] * 1.4
        # High successive similarity (the property that makes clustering work).
        assert egs.average_successive_similarity() > 0.9

    def test_scripted_events_present(self):
        config = WikiConfig(pages=60, snapshots=10, initial_links=250, final_links=400,
                            churn_per_day=2, tracked_page=5, event_gain_day=3,
                            event_dilute_day=7, seed=1)
        egs = generate_wiki_egs(config)
        before_gain = egs[config.event_gain_day - 1].in_degree(config.tracked_page)
        after_gain = egs[config.event_gain_day].in_degree(config.tracked_page)
        assert after_gain >= before_gain + 1

    def test_deterministic(self):
        config = WikiConfig(pages=40, snapshots=5, initial_links=150, final_links=220,
                            seed=9, tracked_page=3, event_gain_day=2, event_dilute_day=4)
        assert list(generate_wiki_egs(config)) == list(generate_wiki_egs(config))

    def test_invalid_configs(self):
        with pytest.raises(DatasetError):
            WikiConfig(pages=5).validate()
        with pytest.raises(DatasetError):
            WikiConfig(final_links=10).validate()
        with pytest.raises(DatasetError):
            WikiConfig(tracked_page=10_000).validate()


class TestDBLPDataset:
    def test_symmetric_and_growing(self):
        config = DBLPConfig(authors=50, snapshots=8, initial_papers=60, papers_per_day=2, seed=2)
        egs = generate_dblp_egs(config)
        assert len(egs) == 8
        counts = egs.edge_counts()
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
        assert ems.is_symmetric()

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            DBLPConfig(authors=3).validate()
        with pytest.raises(DatasetError):
            DBLPConfig(max_authors_per_paper=1).validate()


class TestPatentDataset:
    def test_structure(self):
        dataset = generate_patent_dataset(PatentConfig(companies=4, years=6,
                                                       patents_per_company_initial=4,
                                                       patents_per_company_per_year=2))
        assert len(dataset.egs) == 6
        groups = company_groups(dataset)
        assert set(groups) == {0, 1, 2, 3}
        # Every company owns the same number of patents.
        sizes = {len(nodes) for nodes in groups.values()}
        assert len(sizes) == 1
        assert dataset.focal_company == 0 and dataset.rising_company == 1
        assert len(dataset.patents_of(0)) == len(groups[0])

    def test_citations_only_accumulate(self):
        dataset = generate_patent_dataset(PatentConfig(companies=4, years=6,
                                                       patents_per_company_initial=4,
                                                       patents_per_company_per_year=2))
        counts = dataset.egs.edge_counts()
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_focal_citations_shift_towards_rising_company(self):
        dataset = generate_patent_dataset(PatentConfig())
        first, last = dataset.egs[0], dataset.egs[len(dataset.egs) - 1]

        def focal_to_rising_share(snapshot):
            focal_citations = 0
            to_rising = 0
            for u, v in snapshot.edges:
                if dataset.company_of[u] == 0:
                    focal_citations += 1
                    if dataset.company_of[v] == 1:
                        to_rising += 1
            return to_rising / max(focal_citations, 1)

        assert focal_to_rising_share(last) > focal_to_rising_share(first)

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            PatentConfig(companies=2).validate()
        with pytest.raises(DatasetError):
            PatentConfig(rising_company_focus=2.0).validate()


class TestRegistry:
    def test_available_datasets_listing(self):
        names = available_datasets()
        assert {"wiki", "dblp", "synthetic", "patent"} <= set(names)

    def test_tiny_scales_load(self):
        assert len(load_wiki("tiny")) > 0
        assert len(load_dblp("tiny")) > 0
        assert len(load_synthetic("tiny")) > 0
        assert len(load_patent("tiny").egs) > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(DatasetError):
            load_wiki("huge")

    def test_loaders_cover_every_advertised_dataset(self):
        # Regression: "patent" was advertised by available_datasets() but
        # missing from DATASET_LOADERS, so registry-driven harnesses silently
        # skipped it.  The two views must name exactly the same datasets.
        assert set(DATASET_LOADERS) == set(available_datasets())

    def test_every_loader_yields_an_egs(self):
        for name, loader in DATASET_LOADERS.items():
            egs = loader("tiny")
            assert isinstance(egs, EvolvingGraphSequence), name
            assert len(egs) > 0, name

    def test_patent_egs_loader_matches_labelled_dataset(self):
        egs = load_patent_egs("tiny")
        dataset = load_patent("tiny")
        assert len(egs) == len(dataset.egs)
        assert egs[0] == dataset.egs[0]
        assert egs[len(egs) - 1] == dataset.egs[len(egs) - 1]

    def test_patent_egs_loader_checks_scale(self):
        with pytest.raises(DatasetError):
            load_patent_egs("huge")
