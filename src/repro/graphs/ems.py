"""Evolving matrix sequences (EMS).

An EMS ``M = {A_1, …, A_T}`` is derived from an evolving graph sequence by
composing, for every snapshot, the measure matrix ``A_i`` (paper Section 1).
The EMS is the input of the LUDEM problem.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.errors import DimensionError, EmptySequenceError
from repro.graphs.egs import EvolvingGraphSequence
from repro.graphs.matrixkind import DEFAULT_DAMPING, MatrixKind, measure_matrix
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern, matrix_edit_similarity
from repro.sparse.types import Entries


class EvolvingMatrixSequence:
    """An ordered sequence of equally-sized sparse matrices."""

    __slots__ = ("_matrices",)

    def __init__(self, matrices: Iterable[SparseMatrix]) -> None:
        matrix_list: List[SparseMatrix] = list(matrices)
        if not matrix_list:
            raise EmptySequenceError("an evolving matrix sequence needs at least one matrix")
        n = matrix_list[0].n
        for index, matrix in enumerate(matrix_list):
            if matrix.n != n:
                raise DimensionError(f"matrix {index} has dimension {matrix.n}, expected {n}")
        self._matrices = matrix_list

    # ------------------------------------------------------------------ #
    # Construction from graphs
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graphs(
        cls,
        egs: EvolvingGraphSequence,
        kind: MatrixKind = MatrixKind.RANDOM_WALK,
        damping: float = DEFAULT_DAMPING,
    ) -> "EvolvingMatrixSequence":
        """Compose the measure matrix of every snapshot of an EGS."""
        return cls(measure_matrix(snapshot, kind=kind, damping=damping) for snapshot in egs)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Dimension shared by every matrix."""
        return self._matrices[0].n

    def __len__(self) -> int:
        return len(self._matrices)

    def __iter__(self) -> Iterator[SparseMatrix]:
        return iter(self._matrices)

    def __getitem__(self, index: int) -> SparseMatrix:
        return self._matrices[index]

    @property
    def matrices(self) -> Sequence[SparseMatrix]:
        """The underlying matrix list (copy)."""
        return list(self._matrices)

    def __repr__(self) -> str:
        return f"EvolvingMatrixSequence(n={self.n}, length={len(self)})"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def patterns(self) -> List[SparsityPattern]:
        """Return the sparsity pattern of every matrix."""
        return [matrix.pattern() for matrix in self._matrices]

    def deltas(self, tolerance: float = 0.0) -> List[Entries]:
        """Return the sparse updates ``ΔA_i = A_{i+1} - A_i`` (length ``T-1``)."""
        return [
            before.delta_entries(after, tolerance=tolerance)
            for before, after in zip(self._matrices, self._matrices[1:])
        ]

    def average_successive_similarity(self) -> float:
        """Return the mean matrix edit similarity between consecutive matrices."""
        if len(self._matrices) < 2:
            return 1.0
        total = 0.0
        for before, after in zip(self._matrices, self._matrices[1:]):
            total += matrix_edit_similarity(before.pattern(), after.pattern())
        return total / (len(self._matrices) - 1)

    def is_symmetric(self, tolerance: float = 1e-12) -> bool:
        """Return ``True`` when every matrix in the sequence is symmetric."""
        return all(matrix.is_symmetric(tolerance) for matrix in self._matrices)

    def subsequence(self, start: int, stop: int) -> "EvolvingMatrixSequence":
        """Return the EMS restricted to matrices ``start … stop-1``."""
        selected = self._matrices[start:stop]
        if not selected:
            raise EmptySequenceError("subsequence selects no matrices")
        return EvolvingMatrixSequence(selected)

    def subsample(self, step: int) -> "EvolvingMatrixSequence":
        """Return every ``step``-th matrix (useful for scaled-down experiments)."""
        if step <= 0:
            raise DimensionError(f"step must be positive, got {step}")
        return EvolvingMatrixSequence(self._matrices[::step])
