"""Bitwise golden for the Bennett sweep over growable and sealed factors.

``tests/data/bennett_chain_golden.json`` was generated with
``tests/bennett_chain_workload.py`` before the factor containers were
merged; the replay here must match it exactly — factor values, structural
operation counts, active-step counts and fill sizes after every update.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.bennett_chain_workload import GOLDEN_RELPATH, growable_chain, sealed_chain


@pytest.fixture(scope="module")
def golden():
    path = os.path.join(os.path.dirname(__file__), GOLDEN_RELPATH)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name, replay", [("growable", growable_chain), ("sealed", sealed_chain)])
def test_chain_matches_golden_bitwise(golden, name, replay):
    transcript = replay()
    expected = golden[name]
    assert len(transcript["steps"]) == len(expected["steps"])
    for position, (got, want) in enumerate(zip(transcript["steps"], expected["steps"])):
        assert got == want, f"{name} chain diverged at update {position}"
    assert transcript["final"] == expected["final"]


def test_chains_exercise_drop_fill_and_stored_zeros(golden):
    growable = golden["growable"]["steps"][1:]
    assert len(growable) >= 10
    assert all(step["structural_ops"] > 0 for step in growable)
    sealed = golden["sealed"]
    assert all(step["structural_ops"] == 0 for step in sealed["steps"])
    # The sealed structure keeps slots whose value is (or became) zero.
    stored = [v for _, values in sealed["final"]["l_columns"] for v in values]
    assert any(float.fromhex(v) == 0.0 for v in stored)
    for step in sealed["steps"][1:]:
        assert step["clude_state_sha256"] == step["state_sha256"]
