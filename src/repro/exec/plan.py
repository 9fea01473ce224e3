"""Execution plans: slicing a sequence decomposition into independent units.

The cluster structure the paper builds for CINC/CLUDE (Algorithms 3–5) is
also a *parallelism boundary*: members of different clusters share no
ordering, no symbolic pattern and no factor state, so whole clusters can be
decomposed concurrently.  BF is even more parallel (every snapshot is
independent), while INC is a single dependency chain (each snapshot's factors
are Bennett-updated from the previous snapshot's) and therefore forms one
indivisible unit.

An :class:`ExecutionPlan` captures that slicing as a list of
:class:`WorkUnit` objects.  Each unit is self-contained — it carries the
member matrices themselves (immutable CSR arrays, cheap to pickle) rather
than indices into shared state — so an executor can ship it to another
process without any side channel.  Units are numbered in sequence order;
merging unit results back in ``unit_id`` order reproduces the canonical
serial output ordering.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clustering import MatrixCluster
from repro.errors import EmptySequenceError, MeasureError
from repro.sparse.csr import SparseMatrix

#: Algorithms whose plans this module knows how to build.  ``REFRESH`` is the
#: query planner's delta-refresh unit: a Bennett update of cloned factors
#: instead of a from-scratch decomposition.  ``FACTOR`` is the planner's
#: cold-factorization unit: the BF body per matrix, but with failures
#: *reported* on the decomposition instead of raised out of the worker.
PLANNABLE_ALGORITHMS = ("BF", "INC", "CINC", "CLUDE", "REFRESH", "FACTOR")


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One independently executable slice of a sequence decomposition.

    Attributes
    ----------
    unit_id:
        Position of the unit in the plan (also its merge rank).
    algorithm:
        Which per-unit routine to run (``"BF"``, ``"INC"``, ``"CINC"`` or
        ``"CLUDE"``).
    start:
        EMS index of the first member matrix.
    members:
        The member matrices themselves, in sequence order.  These are
        immutable CSR containers, so shipping them to a worker process is a
        plain read-only copy.
    cluster_id:
        Cluster id recorded on every resulting decomposition (`-1` for INC's
        single chain, the snapshot index for BF).
    options:
        Keyword options of a FACTOR unit (its ``label``) or a REFRESH unit
        (its ``factors``, ``ordering`` and ``delta``), stored as a sorted
        tuple of pairs so the unit stays hashable and picklable.
    """

    unit_id: int
    algorithm: str
    start: int
    members: Tuple[SparseMatrix, ...]
    cluster_id: int
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.algorithm not in PLANNABLE_ALGORITHMS:
            raise MeasureError(
                f"unknown work-unit algorithm {self.algorithm!r}; "
                f"expected one of {', '.join(PLANNABLE_ALGORITHMS)}"
            )
        if not self.members:
            raise EmptySequenceError("a work unit needs at least one member matrix")
        if self.start < 0:
            raise MeasureError(f"work-unit start must be non-negative, got {self.start}")

    @property
    def size(self) -> int:
        """Number of member matrices."""
        return len(self.members)

    @property
    def stop(self) -> int:
        """One past the EMS index of the last member."""
        return self.start + len(self.members)

    @property
    def option_dict(self) -> Dict[str, object]:
        """The options as a plain keyword dictionary."""
        return dict(self.options)


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """An ordered set of work units that exactly covers a matrix sequence."""

    algorithm: str
    sequence_length: int
    units: Tuple[WorkUnit, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise EmptySequenceError("an execution plan needs at least one work unit")
        expected_start = 0
        for rank, unit in enumerate(self.units):
            if unit.unit_id != rank:
                raise MeasureError(
                    f"unit ids must be consecutive from 0; unit at rank {rank} "
                    f"has id {unit.unit_id}"
                )
            if unit.start != expected_start:
                raise MeasureError(
                    f"unit {rank} starts at {unit.start}, expected {expected_start}: "
                    "units must tile the sequence contiguously"
                )
            expected_start = unit.stop
        if expected_start != self.sequence_length:
            raise MeasureError(
                f"plan covers {expected_start} matrices but the sequence has "
                f"{self.sequence_length}"
            )

    def __len__(self) -> int:
        return len(self.units)


def _freeze_options(options: Optional[Dict[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((options or {}).items()))


def plan_bf(matrices: Sequence[SparseMatrix]) -> ExecutionPlan:
    """Plan BF: one unit per snapshot (fully parallel)."""
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot plan an empty matrix sequence")
    units = tuple(
        WorkUnit(
            unit_id=index,
            algorithm="BF",
            start=index,
            members=(matrix,),
            cluster_id=index,
        )
        for index, matrix in enumerate(matrices)
    )
    return ExecutionPlan(algorithm="BF", sequence_length=len(matrices), units=units)


def plan_factor_batch(
    matrices: Sequence[SparseMatrix],
    labels: Optional[Sequence[Optional[str]]] = None,
) -> ExecutionPlan:
    """Plan a bag of *independent* system factorizations, one unit each.

    This is the query planner's cache-miss fan-out: each distinct system
    matrix of a query batch is Markowitz-ordered and Crout-decomposed by the
    standard BF unit body, so factor groups ride the same executors (and the
    same bitwise serial≡parallel contract) as sequence decompositions.

    Unlike sequence BF units, a failure inside a ``FACTOR`` unit (singular
    system, malformed custom matrix) is **reported** on the resulting
    decomposition (``factors=None`` plus an annotated ``error`` naming the
    unit and its ``label``) rather than raised — raising inside a worker
    aborts every sibling unit of the batch with a bare traceback, turning one
    poisoned query into an undiagnosable batch-wide error.  ``labels``
    optionally attaches a human-readable system description (e.g. the
    :class:`~repro.query.spec.SystemKey` summary) to each unit for exactly
    that report.
    """
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot plan an empty factor batch")
    if labels is None:
        labels = [None] * len(matrices)
    labels = list(labels)
    if len(labels) != len(matrices):
        raise MeasureError(
            f"got {len(labels)} labels for {len(matrices)} factor matrices"
        )
    units = tuple(
        WorkUnit(
            unit_id=index,
            algorithm="FACTOR",
            start=index,
            members=(matrix,),
            cluster_id=index,
            options=_freeze_options({"label": label} if label is not None else None),
        )
        for index, (matrix, label) in enumerate(zip(matrices, labels))
    )
    return ExecutionPlan(
        algorithm="FACTOR", sequence_length=len(matrices), units=units
    )


def plan_refresh_batch(
    jobs: Sequence[Tuple[SparseMatrix, object, object, Dict]],
) -> ExecutionPlan:
    """Plan a bag of independent factor refreshes, one unit each.

    Each job is ``(new_matrix, factors, ordering, delta)``: a cloned factor
    container currently holding the *old* system's LU, the ordering it was
    decomposed under, and the sparse system-matrix delta **already mapped
    into reordered coordinates**, in the order the sweeps apply it (see
    :meth:`~repro.query.cache.FactorCache.prepare_refresh`).  The unit body
    Bennett-updates the clone in place; a numerical failure (pattern
    violation, pivot breakdown) is reported as ``factors=None`` in the
    unit's decomposition rather than raised, so one failed refresh falls
    back to a cold factorization without aborting its siblings.
    """
    jobs = list(jobs)
    if not jobs:
        raise EmptySequenceError("cannot plan an empty refresh batch")
    units = tuple(
        WorkUnit(
            unit_id=index,
            algorithm="REFRESH",
            start=index,
            members=(matrix,),
            cluster_id=index,
            options=_freeze_options({
                "factors": factors,
                "ordering": ordering,
                "delta": tuple(delta.items()),
            }),
        )
        for index, (matrix, factors, ordering, delta) in enumerate(jobs)
    )
    return ExecutionPlan(algorithm="REFRESH", sequence_length=len(jobs), units=units)


def plan_inc(matrices: Sequence[SparseMatrix]) -> ExecutionPlan:
    """Plan INC: the whole sequence is one Bennett chain (a single unit)."""
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot plan an empty matrix sequence")
    unit = WorkUnit(
        unit_id=0,
        algorithm="INC",
        start=0,
        members=tuple(matrices),
        cluster_id=-1,
    )
    return ExecutionPlan(algorithm="INC", sequence_length=len(matrices), units=(unit,))


def plan_clustered(
    algorithm: str,
    matrices: Sequence[SparseMatrix],
    clusters: Sequence[MatrixCluster],
) -> ExecutionPlan:
    """Plan CINC/CLUDE: one unit per cluster, members sliced out of the sequence."""
    if algorithm not in ("CINC", "CLUDE"):
        raise MeasureError(f"plan_clustered handles CINC/CLUDE, not {algorithm!r}")
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot plan an empty matrix sequence")
    units: List[WorkUnit] = []
    for cluster_id, cluster in enumerate(clusters):
        units.append(
            WorkUnit(
                unit_id=cluster_id,
                algorithm=algorithm,
                start=cluster.start,
                members=tuple(matrices[index] for index in cluster.indices),
                cluster_id=cluster_id,
            )
        )
    return ExecutionPlan(
        algorithm=algorithm, sequence_length=len(matrices), units=tuple(units)
    )
