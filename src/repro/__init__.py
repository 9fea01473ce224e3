"""repro — a reproduction of CLUDE (EDBT 2014).

CLUDE decomposes every matrix of an *evolving matrix sequence* into LU
factors quickly and with few fill-ins, by clustering similar snapshots,
ordering each cluster by its union matrix, and reusing one static data
structure (built from the cluster's universal symbolic sparsity pattern) for
Bennett-style incremental updates.

Typical usage::

    from repro import EMSSolver, EvolvingMatrixSequence
    from repro.datasets import load_wiki

    egs = load_wiki("tiny")
    ems = EvolvingMatrixSequence.from_graphs(egs)
    solver = EMSSolver(ems, algorithm="CLUDE", alpha=0.95)
    series = solver.solve_series(b)          # one solve per snapshot
"""

from repro.core.solver import EMSSolver, available_algorithms
from repro.exec import ParallelExecutor, SerialExecutor
from repro.graphs.delta import GraphDelta
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.matrixkind import MatrixKind, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.policy import CorrectedPolicy, ExactPolicy, QCPolicy, ReusePolicy
from repro.query import (
    ApproximationRecord,
    FactorCache,
    MeasureSpec,
    Query,
    QueryBatch,
    QueryPlanner,
    ResolutionLadder,
    ResolutionTier,
    ResultCache,
    registered_measures,
)
from repro.serve import MeasureServer, ServerStats
from repro.shard import SharedMemoryArena, ShardedPlanner
from repro.store import FactorStore
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering, Permutation
from repro.version import __version__

__all__ = [
    "__version__",
    "SparseMatrix",
    "SparsityPattern",
    "Ordering",
    "Permutation",
    "GraphSnapshot",
    "GraphDelta",
    "EvolvingGraphSequence",
    "EvolvingMatrixSequence",
    "MatrixKind",
    "system_delta",
    "FactorCache",
    "FactorStore",
    "ResultCache",
    "ApproximationRecord",
    "ReusePolicy",
    "ExactPolicy",
    "QCPolicy",
    "CorrectedPolicy",
    "EMSSolver",
    "available_algorithms",
    "SerialExecutor",
    "ParallelExecutor",
    "MeasureSpec",
    "Query",
    "QueryBatch",
    "QueryPlanner",
    "ResolutionLadder",
    "ResolutionTier",
    "registered_measures",
    "MeasureServer",
    "ServerStats",
    "SharedMemoryArena",
    "ShardedPlanner",
]
