"""Small helpers for dense and sparse vectors used by measures and solvers."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

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


def dense_to_sparse(vector: Sequence[float], tolerance: float = 0.0) -> Dict[int, float]:
    """Collect the entries of ``vector`` whose magnitude exceeds ``tolerance``."""
    array = np.asarray(vector, dtype=float)
    return {int(i): float(v) for i, v in enumerate(array) if abs(v) > tolerance}


def top_k(vector: Sequence[float], k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the indices and values of the ``k`` largest entries, descending."""
    array = np.asarray(vector, dtype=float)
    if k <= 0:
        return np.array([], dtype=int), np.array([], dtype=float)
    k = min(k, array.size)
    order = np.argsort(-array, kind="stable")[:k]
    return order, array[order]
