"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.matrixkind import MatrixKind
from repro.graphs.snapshot import GraphSnapshot
from repro.sparse.csr import SparseMatrix


def random_dd_matrix(n: int, nnz: int, rng: np.random.Generator) -> SparseMatrix:
    """Return a random sparse, strictly diagonally dominant matrix.

    These matrices have the same qualitative shape as the paper's
    ``A = I - dW`` matrices: unit-order diagonal, small negative off-diagonal
    entries, no pivoting needed.
    """
    dense = np.zeros((n, n))
    for _ in range(nnz):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            dense[i, j] = -0.5 * rng.random()
    for i in range(n):
        dense[i, i] = 1.0 + np.sum(np.abs(dense[i]))
    return SparseMatrix.from_dense(dense)


def perturb_matrix(
    matrix: SparseMatrix, changes: int, rng: np.random.Generator
) -> SparseMatrix:
    """Return a slightly modified copy (random entry tweaks, diagonal kept safe)."""
    dense = matrix.to_dense()
    n = matrix.n
    for _ in range(changes):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        if dense[i, j] != 0.0 and rng.random() < 0.3:
            dense[i, j] = 0.0
        else:
            dense[i, j] = -0.3 * rng.random()
    for i in range(n):
        off = np.sum(np.abs(dense[i])) - abs(dense[i, i])
        dense[i, i] = 1.0 + off
    return SparseMatrix.from_dense(dense)


def random_snapshot(rng: np.random.Generator, n: int, edges: int) -> GraphSnapshot:
    """Return a directed snapshot on ``n`` nodes with ``edges`` random edges."""
    pool = set()
    while len(pool) < edges:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pool.add((int(u), int(v)))
    return GraphSnapshot(n, pool, directed=True)


def evolve(
    rng: np.random.Generator, snapshot: GraphSnapshot, additions: int, removals: int
) -> GraphSnapshot:
    """Return ``snapshot`` with ``removals`` random edges dropped and
    ``additions`` new random edges added."""
    existing = sorted(snapshot.edges)
    removed = set()
    for _ in range(min(removals, len(existing) - 1)):
        removed.add(existing[int(rng.integers(0, len(existing)))])
    added = set()
    while len(added) < additions:
        u, v = rng.integers(0, snapshot.n, size=2)
        if u != v and (int(u), int(v)) not in snapshot.edges:
            added.add((int(u), int(v)))
    return snapshot.with_edges(added=added, removed=removed)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dd_matrix(rng: np.random.Generator) -> SparseMatrix:
    """A 25x25 diagonally dominant sparse matrix."""
    return random_dd_matrix(25, 90, rng)


@pytest.fixture
def tiny_graph() -> GraphSnapshot:
    """A small directed graph used by measure tests."""
    edges = [
        (0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0),
        (4, 5), (5, 6), (6, 4), (6, 0), (1, 5), (3, 1),
    ]
    return GraphSnapshot(7, edges, directed=True)


@pytest.fixture
def tiny_ems() -> EvolvingMatrixSequence:
    """A short synthetic EMS (directed, random-walk matrices)."""
    config = SyntheticEGSConfig(
        nodes=40, edge_pool_size=320, average_degree=4, delta_edges=10,
        snapshots=6, seed=3,
    )
    egs = generate_synthetic_egs(config)
    return EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK)


@pytest.fixture
def tiny_symmetric_ems() -> EvolvingMatrixSequence:
    """A short symmetric EMS (undirected growth, symmetric-walk matrices)."""
    from repro.graphs.generators import growing_egs

    egs = growing_egs(
        nodes=35, snapshots=6, initial_edges=70, edges_per_step=6, seed=9, directed=False
    )
    return EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK)
