"""Evolving graphs: snapshots, deltas, sequences and matrix composition."""

from repro.graphs.delta import GraphDelta, touched_nodes, touched_sources
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.ems import EvolvingMatrixSequence
from repro.graphs.generators import (
    SyntheticEGSConfig,
    generate_synthetic_egs,
    growing_egs,
)
from repro.graphs.io import load_egs, save_egs
from repro.graphs.matrixkind import (
    DEFAULT_DAMPING,
    DeltaProvider,
    MatrixKind,
    measure_matrix,
    system_delta,
)
from repro.graphs.snapshot import GraphSnapshot

__all__ = [
    "GraphSnapshot",
    "GraphDelta",
    "EvolvingGraphSequence",
    "EvolvingMatrixSequence",
    "MatrixKind",
    "measure_matrix",
    "system_delta",
    "DeltaProvider",
    "touched_nodes",
    "touched_sources",
    "DEFAULT_DAMPING",
    "SyntheticEGSConfig",
    "generate_synthetic_egs",
    "growing_egs",
    "load_egs",
    "save_egs",
]
