"""Shared benchmark workloads.

The benchmark scripts in ``benchmarks/`` regenerate the paper's figures on
the simulated datasets.  This module centralizes workload construction (which
dataset, which matrix kind, how many snapshots) so that every figure uses the
same inputs and the scales can be tuned in one place.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.datasets.registry import load_dblp, load_wiki
from repro.errors import DatasetError
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import SyntheticEGSConfig, generate_synthetic_egs
from repro.graphs.matrixkind import MatrixKind
from repro.sparse.csr import SparseMatrix

#: The α values swept by the quality/speedup experiments (paper Figures 6-8).
ALPHA_SWEEP: List[float] = [0.90, 0.92, 0.94, 0.96, 0.98, 1.00]

#: The β values swept by the LUDEM-QC experiment (paper Figure 10).
BETA_SWEEP: List[float] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3]

#: The ΔE values swept by the synthetic-sensitivity experiment (paper Figure 9).
DELTA_E_SWEEP: List[int] = [12, 20, 28, 36, 44]

#: The worker counts swept by the speedup-vs-cores scenario (0 = serial
#: in-process executor, n >= 1 = a pool of n worker processes).
WORKER_SWEEP: List[int] = [0, 1, 2, 4]


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named matrix-sequence workload used by one or more benchmarks."""

    name: str
    matrices: List[SparseMatrix]
    symmetric: bool

    @property
    def length(self) -> int:
        """Number of matrices in the workload."""
        return len(self.matrices)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.matrices[0].n if self.matrices else 0


def wiki_workload(scale: str = "small", damping: float = 0.85) -> Workload:
    """The simulated Wikipedia workload (directed, RWR-style matrices)."""
    egs = load_wiki(scale)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK, damping=damping)
    return Workload(name=f"wiki-{scale}", matrices=list(ems), symmetric=False)


def dblp_workload(scale: str = "small", damping: float = 0.85) -> Workload:
    """The simulated DBLP workload (undirected, symmetric matrices)."""
    egs = load_dblp(scale)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.SYMMETRIC_WALK, damping=damping)
    return Workload(name=f"dblp-{scale}", matrices=list(ems), symmetric=True)


def synthetic_workload_with_delta(
    delta_edges: int,
    nodes: int = 220,
    snapshots: int = 16,
    damping: float = 0.85,
    seed: int = 7,
) -> Workload:
    """A synthetic workload with a specific per-step edge-change budget ΔE.

    Used by the Figure 9 sensitivity sweep; all other generator parameters are
    held fixed so the only independent variable is ΔE.
    """
    if delta_edges < 0:
        raise DatasetError("delta_edges must be non-negative")
    config = SyntheticEGSConfig(
        nodes=nodes,
        edge_pool_size=nodes * 9,
        average_degree=5,
        delta_edges=delta_edges,
        snapshots=snapshots,
        seed=seed,
    )
    egs = generate_synthetic_egs(config)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK, damping=damping)
    return Workload(name=f"synthetic-dE{delta_edges}", matrices=list(ems), symmetric=False)


def parallel_speedup_workload(
    snapshots: int = 64,
    nodes: int = 150,
    delta_edges: int = 24,
    damping: float = 0.85,
    seed: int = 21,
) -> Workload:
    """The workload of the speedup-vs-cores scenario (``workers`` sweep).

    A longer sequence (default T = 64) of moderate matrices: long enough that
    the per-snapshot / per-cluster work units dominate process-pool overhead,
    small enough per matrix that a full sweep stays laptop-friendly.
    """
    if snapshots < 1:
        raise DatasetError("need at least one snapshot")
    config = SyntheticEGSConfig(
        nodes=nodes,
        edge_pool_size=nodes * 9,
        average_degree=4,
        delta_edges=delta_edges,
        snapshots=snapshots,
        seed=seed,
    )
    egs = generate_synthetic_egs(config)
    ems = EvolvingMatrixSequence.from_graphs(egs, kind=MatrixKind.RANDOM_WALK, damping=damping)
    return Workload(name=f"parallel-T{snapshots}", matrices=list(ems), symmetric=False)
