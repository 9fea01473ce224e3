"""Result containers and timing accounting for LUDEM algorithms.

Every algorithm (BF, INC, CINC, CLUDE) produces one
:class:`MatrixDecomposition` per matrix of the EMS and a
:class:`SequenceResult` for the whole run.  The sequence result carries the
execution-time breakdown the paper analyses in Section 6.2:

* ``clustering_time``   (t_c) — time spent segmenting the EMS,
* ``ordering_time``     (t_M) — time spent computing Markowitz orderings,
* ``decomposition_time``(t_d) — time spent on full (Crout) decompositions,
* ``bennett_time``      (t_B) — time spent on incremental Bennett updates,
* ``symbolic_time``            — time spent building static structures from
  the USSP (CLUDE only; the USSP itself comes out of the Markowitz ordering).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DimensionError
from repro.lu.solve import solve_reordered_system, solve_reordered_system_many
from repro.sparse.csr import SparseMatrix
from repro.sparse.permutation import Ordering


class Stopwatch:
    """Accumulates wall-clock time into named buckets."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}

    def add(self, bucket: str, seconds: float) -> None:
        """Add ``seconds`` to ``bucket``."""
        self._totals[bucket] = self._totals.get(bucket, 0.0) + seconds

    def time(self, bucket: str):
        """Return a context manager that times its block into ``bucket``."""
        return _StopwatchContext(self, bucket)

    def total(self, bucket: str) -> float:
        """Return the accumulated time of ``bucket`` (0.0 if never used)."""
        return self._totals.get(bucket, 0.0)

    def totals(self) -> Dict[str, float]:
        """Return a copy of all buckets."""
        return dict(self._totals)


class _StopwatchContext:
    def __init__(self, stopwatch: Stopwatch, bucket: str) -> None:
        self._stopwatch = stopwatch
        self._bucket = bucket
        self._start = 0.0

    def __enter__(self) -> "_StopwatchContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stopwatch.add(self._bucket, time.perf_counter() - self._start)


@dataclasses.dataclass
class MatrixDecomposition:
    """The output of a LUDEM algorithm for one matrix of the EMS.

    Attributes
    ----------
    index:
        Position of the matrix in the EMS.
    ordering:
        The ordering ``O_i`` applied before decomposition.
    factors:
        LU factors of ``A_i^{O_i}`` (dynamic or static container).
    fill_size:
        ``|sp(Â_i^{O_i})|`` — number of stored non-zeros in the factors.
    cluster_id:
        Which cluster the matrix belonged to (0-based; BF and INC use a
        single implicit cluster id of 0 and -1 respectively).
    structural_ops:
        Structural adjacency-list operations performed while producing these
        factors (always 0 for CLUDE's static structures).
    error:
        Annotated failure report of a report-don't-raise work unit
        (``FACTOR`` / ``REFRESH``): non-``None`` iff ``factors`` is ``None``
        because the unit's numerical work failed.  Sequence decompositions
        never set it.
    """

    index: int
    ordering: Ordering
    factors: object
    fill_size: int
    cluster_id: int = 0
    structural_ops: int = 0
    error: Optional[str] = None

    def solve(self, b: Sequence[float]) -> np.ndarray:
        """Solve ``A_i x = b`` using the stored factors and ordering."""
        return solve_reordered_system(self.factors, self.ordering, b)

    def solve_many(self, block) -> np.ndarray:
        """Solve ``A_i X = B`` for an ``(n, k)`` block in one batched sweep.

        Each result column is bitwise identical to :meth:`solve` of the
        matching input column.
        """
        return solve_reordered_system_many(self.factors, self.ordering, block)


@dataclasses.dataclass
class TimingBreakdown:
    """Execution-time components of one LUDEM run (Section 6.2 of the paper)."""

    clustering_time: float = 0.0
    ordering_time: float = 0.0
    decomposition_time: float = 0.0
    bennett_time: float = 0.0
    symbolic_time: float = 0.0

    @property
    def total_time(self) -> float:
        """Sum of every component."""
        return (
            self.clustering_time
            + self.ordering_time
            + self.decomposition_time
            + self.bennett_time
            + self.symbolic_time
        )

    @classmethod
    def from_stopwatch(cls, stopwatch: Stopwatch) -> "TimingBreakdown":
        """Build a breakdown from stopwatch buckets named after the fields."""
        return cls.from_buckets(stopwatch.totals())

    @classmethod
    def from_buckets(cls, buckets: Dict[str, float]) -> "TimingBreakdown":
        """Build a breakdown from a plain bucket dictionary.

        This is the form the executor layer reduces per-unit stopwatch totals
        into; the component times are therefore *serial-summed* across work
        units (wall-clock is tracked separately on the sequence result).
        """
        return cls(
            clustering_time=buckets.get("clustering", 0.0),
            ordering_time=buckets.get("ordering", 0.0),
            decomposition_time=buckets.get("decomposition", 0.0),
            bennett_time=buckets.get("bennett", 0.0),
            symbolic_time=buckets.get("symbolic", 0.0),
        )

    def as_dict(self) -> Dict[str, float]:
        """Return the components (plus the total) as a plain dictionary."""
        return {
            "clustering_time": self.clustering_time,
            "ordering_time": self.ordering_time,
            "decomposition_time": self.decomposition_time,
            "bennett_time": self.bennett_time,
            "symbolic_time": self.symbolic_time,
            "total_time": self.total_time,
        }


@dataclasses.dataclass
class SequenceResult:
    """The output of a LUDEM algorithm over a whole EMS.

    ``timing`` holds the serial-summed component times (summed over work
    units in canonical order, so they are executor-independent up to clock
    noise), while ``wall_time`` is the elapsed wall-clock of the whole run —
    the quantity that shrinks when a parallel executor fans clusters out
    across workers.  ``wall_time`` of 0.0 means it was not measured.
    """

    algorithm: str
    decompositions: List[MatrixDecomposition]
    timing: TimingBreakdown
    cluster_count: int = 1
    wall_time: float = 0.0
    #: Serialized bytes the executor shipped across process boundaries to
    #: run this sequence (0 for serial execution; the summed pickled unit
    #: sizes for the process pool) — the member-shipping cost the
    #: shared-memory shard layer is measured against.
    bytes_shipped: int = 0

    def __post_init__(self) -> None:
        if not self.decompositions:
            raise DimensionError("a sequence result needs at least one decomposition")

    def __len__(self) -> int:
        return len(self.decompositions)

    def __getitem__(self, index: int) -> MatrixDecomposition:
        return self.decompositions[index]

    @property
    def total_time(self) -> float:
        """Total wall-clock time of the run."""
        return self.timing.total_time

    @property
    def fill_sizes(self) -> List[int]:
        """Fill size of every matrix's factors."""
        return [decomposition.fill_size for decomposition in self.decompositions]

    @property
    def total_structural_ops(self) -> int:
        """Total structural adjacency-list operations across the run."""
        return sum(d.structural_ops for d in self.decompositions)

    def solve(self, index: int, b: Sequence[float]) -> np.ndarray:
        """Solve ``A_index x = b`` with the stored factors."""
        return self.decompositions[index].solve(b)

    def solve_all(self, b: Sequence[float]) -> List[np.ndarray]:
        """Solve ``A_i x = b`` for every matrix with the same right-hand side.

        This is the access pattern of measure time series: the same query
        vector against every snapshot.
        """
        return [decomposition.solve(b) for decomposition in self.decompositions]

    def solve_many(self, index: int, block) -> np.ndarray:
        """Solve ``A_index X = B`` for an ``(n, k)`` block of right-hand sides."""
        return self.decompositions[index].solve_many(block)

    def solve_all_many(self, block) -> List[np.ndarray]:
        """Solve every snapshot against the same ``(n, k)`` block of queries.

        One batched forward/backward sweep per snapshot replaces ``k`` scalar
        solves — the multi-query analogue of :meth:`solve_all` used by
        measure time series with many seeds.
        """
        return [decomposition.solve_many(block) for decomposition in self.decompositions]

    def quality_losses(
        self, matrices: Sequence[SparseMatrix], reference
    ) -> List[float]:
        """Return ``ql(O_i, A_i)`` for every matrix, using a Markowitz reference cache."""
        if len(matrices) != len(self.decompositions):
            raise DimensionError("matrix count does not match decomposition count")
        losses = []
        for decomposition, matrix in zip(self.decompositions, matrices):
            losses.append(
                reference.quality_loss(decomposition.index, decomposition.ordering, matrix)
            )
        return losses

    def average_quality_loss(self, matrices: Sequence[SparseMatrix], reference) -> float:
        """Return the mean quality-loss across the sequence."""
        losses = self.quality_losses(matrices, reference)
        return float(np.mean(losses)) if losses else 0.0

    def summary(self) -> Dict[str, float]:
        """Return a compact numeric summary of the run."""
        return {
            "algorithm_matrices": float(len(self.decompositions)),
            "clusters": float(self.cluster_count),
            "total_time": self.total_time,
            "wall_time": self.wall_time,
            "bennett_time": self.timing.bennett_time,
            "ordering_time": self.timing.ordering_time,
            "decomposition_time": self.timing.decomposition_time,
            "clustering_time": self.timing.clustering_time,
            "symbolic_time": self.timing.symbolic_time,
            "mean_fill_size": float(np.mean(self.fill_sizes)),
            "structural_ops": float(self.total_structural_ops),
            "bytes_shipped": float(self.bytes_shipped),
        }
