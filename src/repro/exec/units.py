"""The work-unit body executed by every executor (in-process or worker).

:func:`execute_unit` is the single entry point a worker process runs.  It is
deliberately a top-level function of a plain module so that
:class:`concurrent.futures.ProcessPoolExecutor` can pickle a reference to it,
and it dispatches on :attr:`WorkUnit.algorithm` to the exact same per-unit
routines the serial algorithms use — which is what makes the parallel output
bitwise-identical to the serial one: the numerical code path is shared, only
the scheduling differs.

Each invocation times itself into a fresh :class:`Stopwatch`; the executor
layer reduces the per-unit buckets deterministically (in ``unit_id`` order),
so the reported component times are *serial-summed* CPU-style totals, while
the executor reports wall-clock separately.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.result import MatrixDecomposition, Stopwatch
from repro.errors import MeasureError
from repro.exec.plan import WorkUnit


@dataclasses.dataclass
class UnitResult:
    """What one work unit produced: decompositions plus its timing buckets."""

    unit_id: int
    decompositions: List[MatrixDecomposition]
    timings: Dict[str, float]
    #: Serialized bytes the executor shipped to run this unit (0 for the
    #: serial path; the pickled unit size for process-pool dispatch).  Set
    #: by the executor after the unit returns, so old and new transports
    #: are comparable in benchmarks.
    bytes_shipped: int = 0


def execute_unit(unit: WorkUnit) -> UnitResult:
    """Run one work unit and return its decompositions and timing buckets."""
    stopwatch = Stopwatch()
    # Imported lazily: the core algorithm modules import the executor layer
    # for their default executors, so a module-level import here would be a
    # cycle.  The imports are cached in sys.modules after the first call.
    if unit.algorithm == "BF":
        from repro.core.bf import decompose_snapshot_bf

        decompositions = [
            decompose_snapshot_bf(matrix, unit.start + offset, stopwatch)
            for offset, matrix in enumerate(unit.members)
        ]
    elif unit.algorithm == "INC":
        from repro.core.inc import decompose_chain_inc

        decompositions = decompose_chain_inc(
            unit.members, unit.start, stopwatch, cluster_id=unit.cluster_id
        )
    elif unit.algorithm == "CINC":
        from repro.core.cinc import decompose_cluster_cinc

        decompositions = decompose_cluster_cinc(
            unit.members, unit.start, unit.cluster_id, stopwatch
        )
    elif unit.algorithm == "CLUDE":
        from repro.core.clude import decompose_cluster_clude

        decompositions = decompose_cluster_clude(
            unit.members, unit.start, unit.cluster_id, stopwatch
        )
    elif unit.algorithm == "FACTOR":
        decompositions = [_execute_factor(unit, stopwatch)]
    elif unit.algorithm == "REFRESH":
        decompositions = [_execute_refresh(unit, stopwatch)]
    else:  # pragma: no cover - WorkUnit.__post_init__ rejects unknown names
        raise MeasureError(f"unknown work-unit algorithm {unit.algorithm!r}")
    return UnitResult(
        unit_id=unit.unit_id,
        decompositions=decompositions,
        timings=stopwatch.totals(),
    )


def _execute_factor(unit: WorkUnit, stopwatch: Stopwatch) -> MatrixDecomposition:
    """Factorize one planner system, reporting failure instead of raising.

    The numerical body is exactly the BF unit's (Markowitz + Crout), so
    planner cold starts keep the bitwise serial≡parallel contract.  A failure
    — singular system matrix, malformed custom composition — is an *expected*
    per-query outcome in a serving batch, so it is reported as
    ``factors=None`` with an annotated ``error`` naming the ``unit_id`` and
    the unit's ``label`` (the system description the planner attached),
    matching the REFRESH units' report-don't-raise convention: one poisoned
    query must not abort its siblings with an undiagnosable worker traceback.
    """
    from repro.core.bf import decompose_snapshot_bf

    label = unit.option_dict.get("label")
    try:
        return decompose_snapshot_bf(unit.members[0], unit.start, stopwatch)
    except Exception as error:  # noqa: BLE001 - every failure maps to one report
        where = f"factor unit {unit.unit_id}" + (f" [{label}]" if label else "")
        return MatrixDecomposition(
            index=unit.start,
            ordering=None,
            factors=None,
            fill_size=0,
            cluster_id=unit.cluster_id,
            error=f"{where}: {type(error).__name__}: {error}",
        )


def _execute_refresh(unit: WorkUnit, stopwatch: Stopwatch) -> MatrixDecomposition:
    """Bennett-update one refresh unit's cloned factors in place.

    The body is :func:`repro.query.cache.apply_refresh`, the one refresh
    step every executor runs.  Numerical failures (fill outside a sealed
    pattern, pivot breakdown) are *expected* outcomes with a defined
    fallback — cold factorization — so they are reported as
    ``factors=None`` instead of raised; raising inside a worker would abort
    every sibling unit of the batch.
    """
    from repro.query.cache import apply_refresh

    options = unit.option_dict
    with stopwatch.time("bennett"):
        factors = apply_refresh(options["factors"], dict(options["delta"]))
    return MatrixDecomposition(
        index=unit.start,
        ordering=options["ordering"],
        factors=factors,
        fill_size=factors.fill_size if factors is not None else 0,
        cluster_id=unit.cluster_id,
    )
