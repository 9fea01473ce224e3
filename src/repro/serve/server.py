"""The online serving front-end: micro-batched admission over the planner.

Production proximity traffic is a *stream* of single queries, but every
efficiency lever this repo built — one factorization per distinct system,
batched multi-RHS sweeps, the result cache, delta refresh, QC policy reuse —
pays off per *batch*.  :class:`MeasureServer` bridges the two: a long-lived
thread coalesces concurrent submissions into planner batches through a
time/size admission window (flush on ``max_batch`` queries or ``max_wait_ms``
after the first pending one, whichever comes first), so a burst of requests
against a hot snapshot costs one planner run, while a lone request never
waits longer than the admission window.

Streaming graph updates ride the same FIFO queue: :meth:`MeasureServer.
admit_update` advances the server's *head* snapshot at a batch boundary
(an update flushes the open window, so queries submitted before it are
answered against the graph they saw) and registers the evolution with the
planner — the existing ``register_evolution`` lineage (or an approximate
reuse policy such as ``QCPolicy``) then serves the new head by Bennett
refresh or certified policy reuse instead of a cold factorization.

Failure isolation: a batch whose planner run raises (e.g. one poisoned query
with a singular custom system) degrades to per-query execution, so only the
poisoned requests' futures carry the (unit-annotated) error while their
innocent batch-mates still get answers — healthy systems factorized during
the failed run are already cached, making the degraded pass warm.

Every answer is produced by the planner itself, so server answers are
bitwise identical to a direct :meth:`~repro.query.planner.QueryPlanner.run`
of the same queries under an exact policy, however the stream happens to be
partitioned into micro-batches (pinned by the differential tests).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import MeasureError
from repro.graphs.matrixkind import DEFAULT_DAMPING, validate_damping
from repro.graphs.snapshot import GraphSnapshot
from repro.query.batch import QueryBatch
from repro.query.cache import FactorCache
from repro.query.planner import QueryPlanner
from repro.query.spec import Query, get_spec, make_query
from repro.serve.stats import (
    DEFAULT_HISTORY,
    RequestRecord,
    ServerStats,
    StatsCollector,
)

#: Default admission-window size: flush once this many queries are pending.
DEFAULT_MAX_BATCH = 64

#: Default admission-window length in milliseconds: flush this long after the
#: first pending query even if the batch is not full.
DEFAULT_MAX_WAIT_MS = 2.0


@dataclasses.dataclass
class _QueryTicket:
    """One submitted query awaiting an admission window."""

    future: Future
    enqueued: float
    #: FIFO admission order, assigned at enqueue (1-based); lets flush()
    #: address "everything submitted so far" without a consumable flag.
    seq: int = 0
    query: Optional[Query] = None
    #: ``(measure, damping, system_token, params)`` for head-deferred queries.
    deferred: Optional[Tuple[str, float, Optional[Hashable], Dict[str, object]]] = None

    def resolve(self, head: Optional[GraphSnapshot]) -> Query:
        """Return the concrete query, binding head-deferred ones to ``head``."""
        if self.query is not None:
            return self.query
        measure, damping, system_token, params = self.deferred
        if head is None:
            raise MeasureError(
                "submit_measure(snapshot=None) queries the server's head "
                "snapshot, but no update has been admitted yet — pass a "
                "snapshot explicitly or admit_update() first"
            )
        return make_query(
            measure, head, damping=damping, system_token=system_token, **params
        )


@dataclasses.dataclass
class _UpdateTicket:
    """One streaming snapshot update awaiting its batch boundary."""

    future: Future
    enqueued: float
    snapshot: GraphSnapshot
    parent: Optional[GraphSnapshot]
    seq: int = 0


@dataclasses.dataclass
class _CheckpointTicket:
    """A control ticket flushing the factor cache to its store.

    Executed by the serving thread at a batch boundary — like an update, it
    closes the currently open admission window first, so the checkpoint
    captures a consistent working set (no planner run is in flight while
    the spill happens, and no locking of the planner is needed).
    """

    future: Future
    enqueued: float
    seq: int = 0


class MeasureServer:
    """Always-on proximity-query server over one :class:`QueryPlanner`.

    Parameters
    ----------
    planner:
        The planner to serve from; every planner setting (executor, factor
        and result caches, policy) is configured on it.  When omitted, the
        server constructs one from ``policy`` / ``store`` / ``shards``
        (which are rejected when an explicit planner is passed — the
        planner already owns those choices).
    max_batch:
        Admission-window size: a window flushes as soon as this many queries
        are pending (larger batches amortize planning and share substitution
        sweeps, at the cost of queueing latency under light load).
    max_wait_ms:
        Admission-window length: a window flushes at most this many
        milliseconds after its *first* query was enqueued, full or not.
        ``0`` disables coalescing-by-time entirely (a window still fills
        from backlog up to ``max_batch``).
    policy:
        The reuse policy of the constructed planner (``None``: exact).
    store:
        Optional :class:`~repro.store.factorstore.FactorStore` for the
        constructed planner's factor cache (with ``shards>1``, the shards
        share its directory): evicted factors spill to disk, misses
        restore from it, and :meth:`checkpoint` flushes the working set —
        a server restarted against the same store directory answers its
        first batch bitwise-identically with zero cold factorizations for
        checkpointed systems.
    register_lineage:
        When true (default), :meth:`admit_update` registers the
        parent→child evolution with the planner, so queries against the new
        head delta-refresh the parent's cached factors; lineage is the only
        way the planner refreshes.  Disable it to answer every new head
        cold, or from an approximate policy such as
        :class:`~repro.policy.qc.QCPolicy`, keeping no per-pair state.  With
        a size-bounded :class:`~repro.query.cache.FactorCache` the lineage
        registry is bounded either way: entries are pruned when their
        parent's factors are evicted.
    history:
        How many recent per-request latency records to retain for
        :meth:`stats` percentiles.
    shards:
        ``shards=N`` (N > 1) serves from a
        :class:`~repro.shard.planner.ShardedPlanner` the server constructs
        and owns: admission windows fan out across ``N`` persistent worker
        processes (factor ownership routed by content-stable key digest,
        snapshots shipped once through shared memory) and updates broadcast
        to every shard at batch boundaries in stream order.  Answers stay
        bitwise identical to serial serving; :meth:`close` shuts the pool
        down and unlinks every shared segment.

    Thread model: any number of client threads may submit; one daemon thread
    owns the planner, so the planner itself needs no locking.  Every
    submission returns a :class:`concurrent.futures.Future` resolving to the
    answer array (or raising what its query raised).
    """

    def __init__(
        self,
        planner: Optional[QueryPlanner] = None,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        policy: Optional[object] = None,
        store: Optional[object] = None,
        register_lineage: bool = True,
        history: int = DEFAULT_HISTORY,
        shards: int = 1,
    ) -> None:
        if max_batch < 1:
            raise MeasureError(f"max_batch must be positive, got {max_batch}")
        if max_wait_ms < 0:
            raise MeasureError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
        if shards < 1:
            raise MeasureError(f"shards must be positive, got {shards}")
        self._owns_planner = False
        if planner is not None:
            if policy is not None or store is not None or shards != 1:
                raise MeasureError(
                    "pass either a planner or planner-construction arguments "
                    "(policy/store/shards), not both"
                )
        elif shards > 1:
            # Sharded serving: admission windows fan out across a pool of
            # persistent worker processes; updates broadcast to every shard
            # at batch boundaries in stream order.
            from repro.shard.planner import ShardedPlanner

            planner = ShardedPlanner(shards=shards, policy=policy, store=store)
            self._owns_planner = True
        else:
            planner = QueryPlanner(cache=FactorCache(store=store), policy=policy)
        self._planner = planner
        self._max_batch = int(max_batch)
        self._max_wait = float(max_wait_ms) / 1000.0
        self._register_lineage = bool(register_lineage)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: Deque[
            Union[_QueryTicket, _UpdateTicket, _CheckpointTicket]
        ] = deque()
        self._stats = StatsCollector(history=history)
        self._head: Optional[GraphSnapshot] = None
        self._closed = False
        self._enqueue_seq = 0
        #: every ticket with seq <= this horizon skips the admission wait
        self._flush_horizon = 0
        self._thread = threading.Thread(
            target=self._serve_loop, name="measure-server", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    @property
    def planner(self) -> QueryPlanner:
        """The planner this server answers from (inspectable; not thread-safe
        to mutate while the server is live)."""
        return self._planner

    @property
    def head(self) -> Optional[GraphSnapshot]:
        """The most recently admitted snapshot (``None`` before any update)."""
        with self._lock:
            return self._head

    def submit(self, query: Query) -> "Future[np.ndarray]":
        """Enqueue one query; the future resolves to its answer array."""
        if not isinstance(query, Query):
            raise MeasureError(f"submit takes a Query, got {type(query).__name__}")
        get_spec(query.measure)  # reject unknown measures at the door
        return self._enqueue(_QueryTicket(
            future=Future(), enqueued=time.perf_counter(), query=query,
        ))

    def submit_measure(
        self,
        measure: str,
        snapshot: Optional[GraphSnapshot] = None,
        damping: float = DEFAULT_DAMPING,
        system_token: Optional[Hashable] = None,
        **params: object,
    ) -> "Future[np.ndarray]":
        """Build and enqueue one query.

        ``snapshot=None`` targets the server's *head* — the snapshot current
        at the moment the query's admission window forms, so a query
        submitted after :meth:`admit_update` (same thread) is answered
        against the updated graph, and one submitted before it against the
        graph it saw.  Measure name and required parameters are validated
        eagerly either way.
        """
        if snapshot is not None:
            return self.submit(make_query(
                measure, snapshot, damping=damping, system_token=system_token,
                **params,
            ))
        spec = get_spec(measure)
        for name in spec.required_params:
            if name not in params:
                raise MeasureError(f"measure {measure!r} requires parameter {name!r}")
        # Same per-kind domain the Query constructor enforces (LAPLACIAN
        # measures accept the undamped d = 0.0 convention).
        validate_damping(spec.kind, damping)
        return self._enqueue(_QueryTicket(
            future=Future(), enqueued=time.perf_counter(),
            deferred=(measure, float(damping), system_token, dict(params)),
        ))

    def admit_update(
        self,
        snapshot: GraphSnapshot,
        parent: Optional[GraphSnapshot] = None,
    ) -> "Future[GraphSnapshot]":
        """Admit a streaming graph update; resolves once the head advanced.

        The update is applied at a batch boundary in submission order: it
        flushes the currently open admission window, so queries enqueued
        before it are answered against the old head, queries after it
        against the new one.  ``parent`` defaults to the current head; when
        a parent exists with the same node count, the evolution is
        registered with the planner (``register_lineage=True``), making the
        new head's first miss a Bennett refresh instead of a cold
        factorization.  A node-count change skips lineage (no refresh is
        possible) but still advances the head.
        """
        if not isinstance(snapshot, GraphSnapshot):
            raise MeasureError(
                f"admit_update takes a GraphSnapshot, got {type(snapshot).__name__}"
            )
        if parent is not None and not isinstance(parent, GraphSnapshot):
            raise MeasureError("parent must be a GraphSnapshot (or None for the head)")
        return self._enqueue(_UpdateTicket(
            future=Future(), enqueued=time.perf_counter(),
            snapshot=snapshot, parent=parent,
        ), is_query=False)

    def checkpoint(self) -> "Future[int]":
        """Flush the planner's factor cache to its store at a batch boundary.

        Enqueued like an update: the open admission window closes first, so
        the spill sees a consistent working set and runs *on the serving
        thread* — the planner is never touched concurrently.  The future
        resolves to the number of systems checkpointed (see
        :meth:`~repro.query.cache.FactorCache.checkpoint`), or raises
        :class:`~repro.errors.MeasureError` when the planner's cache has no
        store attached.  A replacement server constructed over the same
        store directory then answers every checkpointed system from disk,
        bitwise-identically, without a cold factorization.
        """
        return self._enqueue(_CheckpointTicket(
            future=Future(), enqueued=time.perf_counter(),
        ), is_query=False)

    def flush(self) -> None:
        """Stop waiting out ``max_wait_ms`` for everything submitted so far.

        Every request already enqueued is executed as soon as the serving
        thread reaches it (still coalesced into ``max_batch``-sized windows),
        instead of its window waiting for more company.  Requests submitted
        *after* the flush admit normally — the call marks a point in the
        stream, not a consumable flag, so nothing already submitted can be
        stranded by a window that closed in between.
        """
        with self._wakeup:
            self._flush_horizon = self._enqueue_seq
            self._wakeup.notify_all()

    def stats(self) -> ServerStats:
        """Snapshot the server's observability counters (see ServerStats)."""
        with self._lock:
            return self._stats.snapshot(self._planner.cache_info())

    def request_records(self) -> List[RequestRecord]:
        """The retained per-request latency records, oldest first."""
        with self._lock:
            return self._stats.records()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the server.

        ``drain=True`` (default) answers everything already enqueued before
        the serving thread exits; ``drain=False`` cancels pending futures
        instead.  Idempotent; submissions after close raise.  A sharded
        planner the server constructed itself (``shards=N``) is shut down
        too — its workers stop and every shared-memory segment is unlinked,
        whether or not the queue was drained.
        """
        with self._wakeup:
            self._closed = True
            if not drain:
                while self._pending:
                    ticket = self._pending.popleft()
                    if ticket.future.cancel():
                        self._stats.cancelled += 1
            self._wakeup.notify_all()
        self._thread.join(timeout)
        if self._owns_planner and not self._thread.is_alive():
            self._planner.close()

    def __enter__(self) -> "MeasureServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Serving thread
    # ------------------------------------------------------------------ #
    def _enqueue(self, ticket, is_query: bool = True):
        with self._wakeup:
            if self._closed:
                raise MeasureError("MeasureServer is closed")
            self._enqueue_seq += 1
            ticket.seq = self._enqueue_seq
            self._pending.append(ticket)
            if is_query:
                self._stats.requests += 1
            self._wakeup.notify_all()
        return ticket.future

    def _serve_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if not self._pending:
                    return  # closed and drained
                first = self._pending.popleft()
            if isinstance(first, _UpdateTicket):
                self._apply_update(first)
                continue
            if isinstance(first, _CheckpointTicket):
                self._apply_checkpoint(first)
                continue
            tickets = self._gather_window(first)
            self._execute_batch(tickets)

    def _gather_window(self, first: _QueryTicket) -> List[_QueryTicket]:
        """Fill an admission window: flush on size, deadline, update or close.

        The deadline is anchored at the *first* ticket's enqueue time, so a
        query never queues longer than ``max_wait_ms`` waiting for company —
        if the serving thread was busy past the deadline already, the
        backlog flushes immediately in ``max_batch``-sized windows.
        """
        tickets = [first]
        deadline = first.enqueued + self._max_wait
        with self._wakeup:
            while len(tickets) < self._max_batch:
                if self._pending:
                    if not isinstance(self._pending[0], _QueryTicket):
                        break  # updates/checkpoints apply at this boundary
                    tickets.append(self._pending.popleft())
                    continue
                # Backlog drained; decide whether to keep the window open.
                if self._closed or first.seq <= self._flush_horizon:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._wakeup.wait(remaining)
        return tickets

    def _apply_update(self, ticket: _UpdateTicket) -> None:
        if not ticket.future.set_running_or_notify_cancel():
            with self._lock:
                self._stats.cancelled += 1
            return
        try:
            parent = ticket.parent if ticket.parent is not None else self._head
            if (
                self._register_lineage
                and parent is not None
                and parent.n == ticket.snapshot.n
                and parent != ticket.snapshot
            ):
                self._planner.register_evolution(parent, ticket.snapshot)
        except Exception as error:  # noqa: BLE001 - reported on the future
            ticket.future.set_exception(error)
            return
        with self._lock:
            self._head = ticket.snapshot
            self._stats.updates_admitted += 1
        ticket.future.set_result(ticket.snapshot)

    def _apply_checkpoint(self, ticket: _CheckpointTicket) -> None:
        if not ticket.future.set_running_or_notify_cancel():
            with self._lock:
                self._stats.cancelled += 1
            return
        try:
            count = self._planner.checkpoint()
        except Exception as error:  # noqa: BLE001 - reported on the future
            ticket.future.set_exception(error)
            return
        ticket.future.set_result(count)

    def _execute_batch(self, tickets: List[_QueryTicket]) -> None:
        live: List[Tuple[_QueryTicket, Query]] = []
        failed = 0
        cancelled = 0
        head = self._head  # only this thread writes it
        for ticket in tickets:
            try:
                query = ticket.resolve(head)
            except Exception as error:  # noqa: BLE001 - per-request failure
                ticket.future.set_exception(error)
                failed += 1
                continue
            if not ticket.future.set_running_or_notify_cancel():
                cancelled += 1
                continue
            live.append((ticket, query))
        if not live:
            with self._lock:
                self._stats.failed += failed
                self._stats.cancelled += cancelled
            return
        started = time.perf_counter()
        batch = QueryBatch([query for _, query in live])
        try:
            outcome = self._planner.run(batch)
        except Exception:  # noqa: BLE001 - degrade to per-query isolation
            with self._lock:
                self._stats.batch_failures += 1
                self._stats.failed += failed
                self._stats.cancelled += cancelled
            self._execute_degraded(live, started)
            return
        solve_time = time.perf_counter() - started
        approximate = set(outcome.approximate_positions())
        records: List[RequestRecord] = []
        for position, ((ticket, query), answer) in enumerate(
            zip(live, outcome.results)
        ):
            ticket.future.set_result(answer)
            done = time.perf_counter()
            records.append(RequestRecord(
                measure=query.measure,
                queue=started - ticket.enqueued,
                solve=solve_time,
                total=done - ticket.enqueued,
                batch_size=len(live),
                approximate=position in approximate,
            ))
        with self._lock:
            self._stats.answered += len(live)
            self._stats.failed += failed
            self._stats.cancelled += cancelled
            self._stats.record_batch(
                records, outcome.approximations, outcome.stats.resolutions
            )

    def _execute_degraded(
        self, live: List[Tuple[_QueryTicket, Query]], batch_started: float
    ) -> None:
        """Answer a failed batch one query at a time (failure isolation).

        Only the queries that actually fail carry an exception; their batch
        mates are answered normally.  Healthy systems were already cached by
        the failed batched run (the planner stores them before raising), so
        this pass is mostly warm.
        """
        records: List[RequestRecord] = []
        approximations = []
        resolutions: Dict[str, int] = {}
        answered = 0
        failed = 0
        for ticket, query in live:
            started = time.perf_counter()
            try:
                outcome = self._planner.run(QueryBatch([query]))
            except Exception as error:  # noqa: BLE001 - isolated per request
                ticket.future.set_exception(error)
                failed += 1
                continue
            for tier, count in outcome.stats.resolutions.items():
                resolutions[tier] = resolutions.get(tier, 0) + count
            ticket.future.set_result(outcome.results[0])
            done = time.perf_counter()
            records.append(RequestRecord(
                measure=query.measure,
                queue=batch_started - ticket.enqueued,
                solve=done - started,
                total=done - ticket.enqueued,
                batch_size=1,
                approximate=bool(outcome.approximations),
            ))
            approximations.extend(outcome.approximations)
            answered += 1
        with self._lock:
            self._stats.answered += answered
            self._stats.failed += failed
            self._stats.record_batch(records, approximations, resolutions)
