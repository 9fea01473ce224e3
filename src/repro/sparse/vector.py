"""Small helpers for dense and sparse vectors used by measures and solvers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import DimensionError


def unit_vector(n: int, index: int, value: float = 1.0) -> np.ndarray:
    """Return a length-``n`` vector that is zero except for ``value`` at ``index``."""
    if not 0 <= index < n:
        raise DimensionError(f"index {index} out of bounds for a length-{n} vector")
    vector = np.zeros(n, dtype=float)
    vector[index] = value
    return vector


def seed_vector(n: int, seeds: Iterable[int], total: float = 1.0) -> np.ndarray:
    """Return a vector spreading ``total`` uniformly over the ``seeds`` indices.

    Used by Personalized PageRank when a *set* of seed nodes is given (as in
    the paper's patent case study, Section 7).
    """
    seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise DimensionError("seed set must not be empty")
    for s in seed_list:
        if not 0 <= s < n:
            raise DimensionError(f"seed {s} out of bounds for a length-{n} vector")
    vector = np.zeros(n, dtype=float)
    share = total / len(seed_list)
    for s in seed_list:
        vector[s] += share
    return vector
