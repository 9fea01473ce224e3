"""Stateful test of the refresh and store lifecycle.

A ``RuleBasedStateMachine`` drives a planner over a 3-system factor cache
with a store through four rules: advance the head along an evolving chain
(registering the lineage), answer PageRank/RWR queries on the head or an
older snapshot (one query per batch, so each answer has one tier),
checkpoint, and warm-restart a fresh planner on the same store directory.

Invariants: every answer matches a dense NumPy solve to 1e-9 relative; a
``store_restore`` answer equals, bitwise, the last answer the same factors
gave for that query; and ``cache_info()`` adds up.  Each cold
factorization or refresh starts a new *generation* of a key's factors;
answers are remembered per generation, and a generation never spilled (by
eviction or checkpoint) is forgotten on restart.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, Set, Tuple

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.graphs.generators import evolving_chain
from repro.query import FactorCache, QueryPlanner, make_query, system_key
from repro.query.spec import SystemKey, get_spec
from repro.store import FactorStore

NODES = 24
MAX_SYSTEMS = 3
CHAIN = evolving_chain(NODES, 6, added=2, removed=1, seed=3)


def dense_answer(query) -> np.ndarray:
    """The query's answer from a dense NumPy solve of its system."""
    spec = get_spec(query.measure)
    params = query.param_dict
    matrix = spec.system_matrix(query.snapshot, query.damping, params).to_dense()
    rhs = spec.build_rhs(query.snapshot, query.damping, params)
    x = np.linalg.solve(matrix, rhs)
    return spec.finalize(x, query.snapshot, query.damping, params)


class RefreshStoreLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="refresh-store-")
        self.head = 0
        #: per key, the answers of its current factor generation
        self.answers: Dict[SystemKey, Dict[Tuple[str, int], bytes]] = {}
        #: keys whose current generation the store does not hold
        self.unspilled: Set[SystemKey] = set()
        self._boot()

    def _boot(self) -> None:
        self.planner = QueryPlanner(
            cache=FactorCache(max_systems=MAX_SYSTEMS, store=FactorStore(self.directory))
        )
        for old, new in zip(CHAIN[: self.head], CHAIN[1 : self.head + 1]):
            self.planner.register_evolution(old, new)
        self.groups = 0
        self.tiers: Dict[str, int] = {}

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    @precondition(lambda self: self.head + 1 < len(CHAIN))
    @rule()
    def evolve_head(self) -> None:
        self.planner.register_evolution(CHAIN[self.head], CHAIN[self.head + 1])
        self.head += 1

    @rule(
        queries=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["pagerank", "rwr"]),
                st.integers(0, NODES - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def query(self, queries) -> None:
        """Answer each ``(snapshots back from the head, measure, node)``."""
        for back, measure, node in queries:
            params = {"start_node": node} if measure == "rwr" else {}
            query = make_query(measure, CHAIN[max(self.head - back, 0)], **params)
            key = system_key(query)
            before = set(self.planner.cache.keys())
            outcome = self.planner.run([query])
            # Keys that left memory were evicted, and eviction spills them.
            self.unspilled -= before - set(self.planner.cache.keys())
            (tier,) = [name for name, count in outcome.stats.resolutions.items() if count]
            self.groups += outcome.stats.groups
            self.tiers[tier] = self.tiers.get(tier, 0) + 1

            answer = outcome.results[0]
            want = dense_answer(query)
            assert np.max(np.abs(answer - want)) <= 1e-9 * np.max(np.abs(want))
            if tier in ("cold", "refresh"):
                self.answers[key] = {}
                self.unspilled.add(key)
            remembered = self.answers.setdefault(key, {})
            identity = (measure, node if measure == "rwr" else -1)
            if tier == "store_restore" and identity in remembered:
                assert answer.tobytes() == remembered[identity], (
                    "a store restore is not bitwise the answer its factors gave "
                    "before they left memory"
                )
            remembered[identity] = answer.tobytes()

    @rule()
    def checkpoint(self) -> None:
        assert self.planner.checkpoint() == len(self.planner.cache)
        self.unspilled.clear()

    @rule()
    def warm_restart(self) -> None:
        for key in self.unspilled:
            self.answers.pop(key, None)
        self.unspilled.clear()
        self._boot()

    @invariant()
    def cache_info_adds_up(self) -> None:
        info = self.planner.cache_info()
        assert info["hits"] + info["misses"] == self.groups
        assert info["store_hits"] + info["store_misses"] == info["misses"]
        assert info["hits"] == self.tiers.get("hit", 0)
        assert info["store_hits"] == self.tiers.get("store_restore", 0)
        assert info["refreshes"] == self.tiers.get("refresh", 0)
        assert info["restore_fallbacks"] <= info["store_misses"]
        assert info["size"] == len(self.planner.cache) <= MAX_SYSTEMS


RefreshStoreLifecycle.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
    database=None,
)
test_refresh_store_lifecycle = RefreshStoreLifecycle.TestCase
