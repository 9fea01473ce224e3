"""Observability for the online serving front-end.

The server records three timestamps per request — enqueue, solve start,
answer delivery — and reduces them into the latency decomposition a serving
operator actually debugs with:

* ``queue``  — time spent waiting for the micro-batch admission window,
* ``solve``  — time inside the planner (shared across the whole batch),
* ``total``  — enqueue to answer, what the client observes.

:class:`ServerStats` is an immutable snapshot (``MeasureServer.stats()``):
request/batch/update counters, the batch-size histogram (how well the
admission window coalesces), per-phase latency summaries with p50/p99, the
planner's ``cache_info()`` counters, and the approximation audit passthrough
(one :class:`~repro.query.resolution.ApproximationRecord` per policy-served
group, exactly as the planner reported it).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.query.resolution import ApproximationRecord

#: How many of the most recent per-request latency records a server keeps for
#: percentile snapshots.  Aggregate counters are lifetime-exact regardless.
DEFAULT_HISTORY = 10_000


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``nan`` when empty).

    ``q`` is in percent: ``percentile(xs, 99)`` is the smallest sample that
    at least 99% of the samples do not exceed.  Nearest-rank (no
    interpolation) keeps every reported latency an actually-observed one.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclasses.dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of one latency phase, in seconds."""

    count: int
    mean: float
    p50: float
    p99: float
    max: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarize a sample list (``nan`` fields when empty)."""
        if not samples:
            return cls(count=0, mean=math.nan, p50=math.nan, p99=math.nan,
                       max=math.nan)
        return cls(
            count=len(samples),
            mean=float(sum(samples) / len(samples)),
            p50=percentile(samples, 50),
            p99=percentile(samples, 99),
            max=float(max(samples)),
        )


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """Per-request latency decomposition (seconds), as measured server-side."""

    measure: str
    queue: float
    solve: float
    total: float
    batch_size: int
    approximate: bool


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """One immutable observability snapshot of a :class:`MeasureServer`.

    Attributes
    ----------
    requests:
        Queries ever submitted (including ones that later failed).
    answered / failed / cancelled:
        Resolution counts; ``answered + failed + cancelled`` trails
        ``requests`` by the queries still in flight.
    batches / batch_failures:
        Micro-batches executed, and how many needed the per-query isolation
        fallback because the batched planner run raised.
    updates_admitted:
        Streaming snapshot updates applied at batch boundaries.
    batch_size_histogram:
        ``{batch size: count}`` over all executed batches.
    queue_latency / solve_latency / total_latency:
        Phase summaries over the retained request history.
    approximations_served:
        Requests answered from another system's factors under the reuse
        policy (lifetime count).
    corrected_served:
        The subset of ``approximations_served`` answered through the
        corrected-reuse tier (rank-``k`` SMW correction or cross-damping
        sharing — any :class:`~repro.query.resolution.ApproximationRecord`
        whose ``mode`` is not ``"verbatim"``; lifetime count).
    recent_approximations:
        The planner's audit records for the most recent approximate batches
        (each carries its ``rank`` and ``mode`` audit fields).
    planner_cache_info:
        ``QueryPlanner.cache_info()`` at snapshot time (factor + result
        cache counters).
    resolutions:
        Lifetime per-tier serve counts, summed over every executed batch's
        :attr:`~repro.query.planner.PlannerStats.resolutions` — ``{tier
        name: planned groups that tier served}``, the same uniform surface
        the planner reports per batch, keyed by
        :data:`~repro.query.resolution.TIER_NAMES`.
    """

    requests: int
    answered: int
    failed: int
    cancelled: int
    batches: int
    batch_failures: int
    updates_admitted: int
    batch_size_histogram: Dict[int, int]
    queue_latency: LatencySummary
    solve_latency: LatencySummary
    total_latency: LatencySummary
    approximations_served: int
    corrected_served: int
    recent_approximations: Tuple[ApproximationRecord, ...]
    planner_cache_info: Dict[str, int]
    resolutions: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of result-cache lookups that hit (``nan`` if none)."""
        hits = self.planner_cache_info.get("result_hits", 0)
        misses = self.planner_cache_info.get("result_misses", 0)
        if hits + misses == 0:
            return math.nan
        return hits / (hits + misses)


class StatsCollector:
    """Mutable accumulator behind :class:`ServerStats` snapshots.

    All mutation happens under the server's lock (the serving thread records
    batches, client threads bump the submission counter), so the collector
    itself needs no synchronization of its own.
    """

    def __init__(self, history: int = DEFAULT_HISTORY) -> None:
        if history < 1:
            raise ValueError(f"history must be positive, got {history}")
        self.requests = 0
        self.answered = 0
        self.failed = 0
        self.cancelled = 0
        self.batches = 0
        self.batch_failures = 0
        self.updates_admitted = 0
        self.batch_size_histogram: Dict[int, int] = {}
        self.approximations_served = 0
        self.corrected_served = 0
        self.resolutions: Dict[str, int] = {}
        self._records: Deque[RequestRecord] = deque(maxlen=history)
        self._recent_approximations: Deque[ApproximationRecord] = deque(maxlen=64)

    def record_batch(
        self,
        records: Sequence[RequestRecord],
        approximations: Sequence[ApproximationRecord] = (),
        resolutions: Optional[Dict[str, int]] = None,
    ) -> None:
        """Record one executed micro-batch and its per-request latencies."""
        self.batches += 1
        for tier, count in (resolutions or {}).items():
            self.resolutions[tier] = self.resolutions.get(tier, 0) + count
        if records:
            size = records[0].batch_size
            self.batch_size_histogram[size] = (
                self.batch_size_histogram.get(size, 0) + 1
            )
        self._records.extend(records)
        for record in approximations:
            self._recent_approximations.append(record)
            self.approximations_served += len(record.positions)
            if record.mode != "verbatim":
                self.corrected_served += len(record.positions)

    def records(self) -> List[RequestRecord]:
        """The retained per-request records, oldest first."""
        return list(self._records)

    def snapshot(self, planner_cache_info: Optional[Dict[str, int]] = None) -> ServerStats:
        """Freeze the current counters into a :class:`ServerStats`."""
        records = list(self._records)
        return ServerStats(
            requests=self.requests,
            answered=self.answered,
            failed=self.failed,
            cancelled=self.cancelled,
            batches=self.batches,
            batch_failures=self.batch_failures,
            updates_admitted=self.updates_admitted,
            batch_size_histogram=dict(self.batch_size_histogram),
            queue_latency=LatencySummary.of([r.queue for r in records]),
            solve_latency=LatencySummary.of([r.solve for r in records]),
            total_latency=LatencySummary.of([r.total for r in records]),
            approximations_served=self.approximations_served,
            corrected_served=self.corrected_served,
            recent_approximations=tuple(self._recent_approximations),
            planner_cache_info=dict(planner_cache_info or {}),
            resolutions=dict(self.resolutions),
        )
