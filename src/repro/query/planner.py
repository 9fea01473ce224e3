"""The factor-reusing query planner: plan groups, walk the resolution ladder.

``N`` queries should cost ``#distinct-system-matrices`` factorizations, not
``N``.  The planner makes that explicit in two phases:

* :meth:`QueryPlanner.plan` groups a heterogeneous
  :class:`~repro.query.batch.QueryBatch` by
  :func:`~repro.query.spec.system_key` — queries that share a
  ``(snapshot, kind, damping, matrix-params)`` system matrix land in the
  same :class:`PlannedGroup`, in first-appearance order.  Queries a spec can
  answer in closed form (shortcuts) are split off as direct answers.
* :meth:`QueryPlanner.execute` walks every group down the **resolution
  ladder** (:class:`~repro.query.resolution.ResolutionLadder`) — hit,
  store restore, verbatim reuse, corrected reuse, delta refresh, cold
  factorization, each group served by the first tier that can — then
  answers every group with a single batched multi-RHS substitution sweep
  and scatters the columns back to batch positions.

The factor cache (:class:`~repro.query.cache.FactorCache`) outlives a
single batch: a second batch over the same snapshots costs zero
factorizations, and sequence-level solvers
(:meth:`repro.core.solver.EMSSolver.seed_planner`) pre-seed it with their
decompositions so measure series ride on already-computed factors.  Every
numerical path is the same batched kernel stack used everywhere else, so
planner answers are bitwise identical to the legacy per-measure drivers.

An answer-level :class:`~repro.query.cache.ResultCache` keyed by
``(SystemKey, rhs fingerprint)`` short-circuits repeated identical queries
before the substitution sweep, with invalidation driven by the factor
cache; approximate serves are audited per group as
:class:`~repro.query.resolution.ApproximationRecord` entries in the
:class:`BatchResult`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import MeasureError
from repro.exec.executors import Executor
from repro.graphs.snapshot import GraphSnapshot
from repro.query.batch import QueryBatch
from repro.query.cache import FactorCache, ResultCache, ResultKey
from repro.query.resolution import (
    ApproximationRecord,
    ResolutionContext,
    ResolutionLadder,
)
from repro.query.spec import (
    FactorizedSystem,
    MeasureSpec,
    Query,
    SystemKey,
    canonical_params,
    get_spec,
    system_key,
)

if TYPE_CHECKING:  # runtime import is lazy: repro.policy sits above the
    # core package, whose solver module imports this one (see
    # QueryPlanner.__init__).
    from repro.policy import ReusePolicy


@dataclasses.dataclass(frozen=True)
class PlannedGroup:
    """All queries of one batch that share one system matrix."""

    key: SystemKey
    positions: Tuple[int, ...]
    queries: Tuple[Query, ...]

    @property
    def size(self) -> int:
        """Number of queries in the group (the batched-solve width)."""
        return len(self.queries)


@dataclasses.dataclass(frozen=True)
class DirectAnswer:
    """A query answered in closed form by its spec's shortcut."""

    position: int
    query: Query
    answer: np.ndarray


@dataclasses.dataclass(frozen=True)
class QueryPlan:
    """The grouped form of one batch: factor groups plus direct answers."""

    batch: QueryBatch
    groups: Tuple[PlannedGroup, ...]
    direct: Tuple[DirectAnswer, ...]

    @property
    def group_count(self) -> int:
        """Number of distinct system matrices the batch needs."""
        return len(self.groups)

    def __len__(self) -> int:
        return len(self.batch)


@dataclasses.dataclass(frozen=True)
class PlannerStats:
    """What one :meth:`QueryPlanner.execute` run cost.

    ``resolutions`` maps every resolution-tier name to the number of
    planned groups that tier served — one uniform surface for the whole
    ladder, shape-stable across batches (every tier appears, zeros
    included).  The keys are :data:`~repro.query.resolution.TIER_NAMES`:
    ``"hit"``, ``"store_restore"``, ``"verbatim_reuse"``,
    ``"corrected_reuse"``, ``"refresh"`` and ``"cold"``.

    The historical counters are derived views of that mapping:
    ``factorizations`` (the acceptance-criteria counter — at most one cold
    factorization per distinct system matrix, ever) is the ``"cold"``
    count; ``cache_hits`` sums ``"hit"`` and ``"store_restore"`` (a
    store-backed cache restoring from disk has always reported as a cache
    hit); ``refreshes`` counts miss groups answered by Bennett-updating a
    cached parent's factors; ``qc_reuses`` counts miss groups answered
    *from another system's factors unchanged* under an approximate policy
    (no numerical work at all); ``corrected_reuses`` counts miss groups
    answered through a rank-``k`` Sherman–Morrison–Woodbury correction of
    a cached system (including rank-0 cross-damping sharing).
    ``result_hits`` counts individual queries answered straight from the
    result cache without a substitution sweep.
    """

    queries: int
    groups: int
    direct_answers: int
    result_hits: int = 0
    resolutions: Mapping[str, int] = dataclasses.field(default_factory=dict)

    @property
    def factorizations(self) -> int:
        """Groups served by a cold factorization (the ``"cold"`` tier)."""
        return self.resolutions.get("cold", 0)

    @property
    def cache_hits(self) -> int:
        """Groups served from cached factors (``"hit"`` + ``"store_restore"``)."""
        return self.resolutions.get("hit", 0) + self.resolutions.get(
            "store_restore", 0
        )

    @property
    def refreshes(self) -> int:
        """Groups served by Bennett delta refresh (the ``"refresh"`` tier)."""
        return self.resolutions.get("refresh", 0)

    @property
    def qc_reuses(self) -> int:
        """Groups served by verbatim policy reuse (the ``"verbatim_reuse"`` tier)."""
        return self.resolutions.get("verbatim_reuse", 0)

    @property
    def corrected_reuses(self) -> int:
        """Groups served by rank-k SMW correction (the ``"corrected_reuse"`` tier)."""
        return self.resolutions.get("corrected_reuse", 0)


@dataclasses.dataclass
class BatchResult:
    """Positional answers of one batch plus the run's reuse statistics.

    ``approximations`` is the quality audit: one
    :class:`ApproximationRecord` per group answered from a similar system's
    factors under the planner's reuse policy, carrying the similarity score
    and the certified loss estimate.  Empty under an exact policy — every
    answer is then bitwise what a policy-less planner produces.
    """

    results: List[np.ndarray]
    stats: PlannerStats
    approximations: Tuple[ApproximationRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.results[index]

    @property
    def max_loss_estimate(self) -> float:
        """Largest certified loss estimate in the batch (0.0 if none)."""
        if not self.approximations:
            return 0.0
        return max(record.loss_estimate for record in self.approximations)

    def loss_estimates(self) -> Tuple[float, ...]:
        """Certified loss estimate of every approximate *query* in the batch.

        One value per approximated batch position (a group's estimate covers
        each of its queries), so the tuple is the per-answer loss
        distribution — empty when nothing was approximated.
        """
        return tuple(
            record.loss_estimate
            for record in self.approximations
            for _ in record.positions
        )

    def loss_estimate_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the per-query loss distribution.

        ``fraction`` in ``[0, 1]`` (``0.5`` = p50, ``0.99`` = p99); returns
        ``0.0`` when the batch carries no approximations, and the maximum at
        ``fraction=1.0``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise MeasureError(
                f"percentile fraction must lie in [0, 1], got {fraction}"
            )
        estimates = sorted(self.loss_estimates())
        if not estimates:
            return 0.0
        rank = max(1, int(np.ceil(fraction * len(estimates))))
        return estimates[rank - 1]

    def approximate_positions(self) -> Tuple[int, ...]:
        """Sorted batch positions whose answers are policy approximations."""
        return tuple(sorted(
            position
            for record in self.approximations
            for position in record.positions
        ))


def plan_batch(batch: Union[QueryBatch, Sequence[Query]]) -> QueryPlan:
    """Group a batch by system key (first-appearance order, stable).

    A pure function of the batch — no planner state is consulted — so the
    sharded front-end plans with exactly the grouping the serial planner
    would produce.  Every query lands in exactly one group or one direct
    answer; the group count equals the number of distinct system matrices
    among the non-shortcut queries.
    """
    if not isinstance(batch, QueryBatch):
        batch = QueryBatch(batch)
    order: List[SystemKey] = []
    grouped: Dict[SystemKey, List[int]] = {}
    direct: List[DirectAnswer] = []
    for position, query in enumerate(batch):
        spec = get_spec(query.measure)
        if spec.shortcut is not None:
            answer = spec.shortcut(query.snapshot, query.damping, query.param_dict)
            if answer is not None:
                direct.append(DirectAnswer(position, query, answer))
                continue
        key = system_key(query)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(position)
    groups = tuple(
        PlannedGroup(
            key=key,
            positions=tuple(grouped[key]),
            queries=tuple(batch[p] for p in grouped[key]),
        )
        for key in order
    )
    return QueryPlan(batch=batch, groups=groups, direct=tuple(direct))


def validate_evolution(old: GraphSnapshot, new: GraphSnapshot) -> None:
    """Reject a lineage pair the refresh tier could not delta-update."""
    if not isinstance(old, GraphSnapshot) or not isinstance(new, GraphSnapshot):
        raise MeasureError(
            "register_evolution takes two GraphSnapshots (the delta is "
            "computed from their edge sets)"
        )
    if old.n != new.n:
        raise MeasureError(
            f"evolution must preserve the node count: {old.n} vs {new.n}"
        )


class QueryPlanner:
    """Group queries by shared system matrix; factorize once per group.

    A miss group is answered by the cheapest admissible source — the
    **resolution ladder** (:class:`~repro.query.resolution.
    ResolutionLadder`), each tier falling through to the next:

    1. **Hit** (:class:`~repro.query.resolution.HitTier`) — the key's own
       factors are cached in memory.
    2. **Store restore** (:class:`~repro.query.resolution.
       StoreRestoreTier`) — a store-backed cache restores the factors from
       disk (transparently: historically part of the cache hit).
    3. **Verbatim reuse** (:class:`~repro.query.resolution.
       VerbatimReuseTier`) — an approximate :class:`~repro.policy.base.
       ReusePolicy` (e.g. :class:`~repro.policy.qc.QCPolicy`) licenses
       answering from a cached *similar* system's factors outright: no
       factorization, no refresh, an :class:`ApproximationRecord` in the
       batch result.  Exact policies skip this tier entirely.
    4. **Corrected reuse** (:class:`~repro.query.resolution.
       CorrectedReuseTier`) — a policy with a positive rank ceiling
       (:class:`~repro.policy.corrected.CorrectedPolicy`) licenses
       answering through a rank-``k`` Sherman–Morrison–Woodbury correction
       of a cached system's factors (:class:`~repro.lu.smw.
       WoodburyCorrector`): the ``k`` dominant columns of ``ΔA`` are applied
       exactly, the *residual* delta is certified, at the cost of ``k``
       extra triangular sweeps once plus a ``k×k`` dense solve per batch.
       The candidate scan (one per ladder: each candidate is scored once,
       through the policy's single gate, for both reuse tiers) also covers
       **cross-damping** sharing: a cached
       system over the *same snapshot* at a different damping factor, whose
       delta ``(d' - d)·M`` the same machinery bounds.
    5. **Delta refresh** (:class:`~repro.query.resolution.RefreshTier`) —
       a registered lineage (:meth:`register_evolution`) Bennett-updates a
       clone of the parent's factors: near-exact, cheaper than cold.
    6. **Cold factorization** (:class:`~repro.query.resolution.ColdTier`)
       — Markowitz + Crout, dispatched as executor work units.

    Verbatim reuse outranks corrected reuse because it does zero numerical
    work; corrected reuse outranks refresh because its setup cost is ``k``
    sweeps instead of a full Bennett pass over the delta, and the policy
    explicitly certifies the accepted loss; refresh outranks cold because it
    is near-exact and cheaper.  Groups answered at tiers 1–5 never reach the
    FACTOR unit fan-out; groups answered at tiers 3–4 skip the REFRESH units
    as well.

    Parameters
    ----------
    executor:
        How cache-miss factorizations are scheduled: ``None`` (default) runs
        them serially in-process; an ``int`` or an
        :class:`~repro.exec.executors.Executor` fans independent factor
        groups out exactly like the sequence-decomposition work units.
        Results are bitwise identical regardless of the executor.
    cache:
        An existing :class:`FactorCache` to share or pre-seed; a fresh
        unbounded, memory-only one is created when omitted.  A disk tier is
        attached here too: ``cache=FactorCache(store=...)`` spills evicted
        factors to the :class:`~repro.store.factorstore.FactorStore`,
        restores misses from it and backs :meth:`checkpoint`.
    policy:
        The reuse policy for the verbatim/corrected tiers.  ``None``
        (default) resolves to :class:`~repro.policy.exact.ExactPolicy`,
        under which the planner's output is bitwise identical to the
        historical planner.  An approximate policy must be opted into
        explicitly — its answers are *approximations*, audited per group in
        :attr:`BatchResult.approximations`.
    result_cache:
        The answer-level cache for repeated identical queries: ``None``
        (default) creates a :class:`ResultCache` bounded at
        ``DEFAULT_RESULT_CACHE_SIZE``; an ``int`` bounds a fresh cache at
        that many entries (``0`` disables result caching); ``True`` /
        ``False`` mean default / disabled; a :class:`ResultCache` instance
        is used as given.  Cached answers are value-copies, so result
        caching never changes observable answers.

    Refresh is opted into per evolution through :meth:`register_evolution`:
    refreshed factors answer within numerical tolerance of a cold
    factorization, not bitwise, so a snapshot with no registered lineage
    never refreshes.
    """

    def __init__(
        self,
        executor: Union[Executor, int, None] = None,
        cache: Optional[FactorCache] = None,
        policy: Optional["ReusePolicy"] = None,
        result_cache: Union[ResultCache, int, None] = None,
    ) -> None:
        # Imported here, not at module level: repro.policy sits above the
        # core package, whose solver module imports this one.
        from repro.policy import ExactPolicy, ReusePolicy

        if policy is None:
            policy = ExactPolicy()
        elif not isinstance(policy, ReusePolicy):
            raise MeasureError(
                f"policy must be a ReusePolicy, got {type(policy).__name__}"
            )
        self._executor = executor
        self._cache = cache if cache is not None else FactorCache()
        self._policy = policy
        self._ladder = ResolutionLadder()
        if result_cache is None:
            self._results: Optional[ResultCache] = ResultCache()
        elif isinstance(result_cache, bool):
            # bools are ints: True would otherwise build a degenerate
            # 1-entry cache.  Honor the evident intent instead.
            self._results = ResultCache() if result_cache else None
        elif isinstance(result_cache, int):
            if result_cache < 0:
                raise MeasureError(
                    f"result_cache bound must be >= 0 (0 disables), got {result_cache}"
                )
            self._results = ResultCache(result_cache) if result_cache > 0 else None
        else:
            self._results = result_cache
        self._cache.add_invalidation_listener(self._on_factor_invalidation)
        self._cache.add_eviction_listener(self._on_factor_eviction)
        #: new system identity -> (old system identity, old snapshot, new snapshot)
        self._lineage: Dict[
            Hashable, Tuple[Hashable, GraphSnapshot, GraphSnapshot]
        ] = {}
        #: non-snapshot system identities (sequence tokens) -> their snapshot,
        #: so policy reuse can score cached systems whose key is a token.
        self._snapshots: Dict[Hashable, GraphSnapshot] = {}

    def _on_factor_invalidation(self, key: SystemKey) -> None:
        """React to a factor-cache change: drop derived answers, stale scans.

        Registered as a (weakly held) invalidation listener: any install or
        eviction changes the candidate set the reuse tiers scan,
        so the ladder's scan memo is discarded wholesale (it also holds the
        corrected tier's correctors, built over possibly-departed factors),
        and the result cache drops the answers derived from the affected
        key.
        """
        if self._results is not None:
            self._results.invalidate_system(key)
        self._ladder.clear_memos()

    def _on_factor_eviction(self, key: SystemKey) -> None:
        """React to a key leaving the factor cache: prune dead bookkeeping.

        The lineage registry maps a child system to its refresh parent; an
        entry is only actionable while some cached key still carries the
        parent's system (the refresh tier otherwise falls back cold).  So
        once the *last* cached key of a system is evicted, every lineage
        entry naming it as parent — and its snapshot binding — is dropped.
        This is what bounds the registries of a long-lived server admitting
        updates forever against a size-bounded factor cache: lineage tracks
        the cache's working set instead of the whole evolution history.
        """
        system = key.system
        if any(cached.system == system for cached in self._cache.keys()):
            return
        if any(parent == system for parent, _, _ in self._lineage.values()):
            self._lineage = {
                child: entry
                for child, entry in self._lineage.items()
                if entry[0] != system
            }
        self._snapshots.pop(system, None)

    @property
    def cache(self) -> FactorCache:
        """The planner's factor cache (shared, seedable, inspectable)."""
        return self._cache

    @property
    def policy(self) -> "ReusePolicy":
        """The reuse policy gating approximate answers (the reuse tiers)."""
        return self._policy

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The answer-level cache, or ``None`` when disabled."""
        return self._results

    def checkpoint(self) -> int:
        """Flush the factor cache's working set to its store (spill count).

        See :meth:`FactorCache.checkpoint`; raises
        :class:`~repro.errors.MeasureError` when the cache has no store.
        """
        return self._cache.checkpoint()

    def cache_info(self) -> Dict[str, int]:
        """Lifetime counters of the factor cache plus the result cache.

        Factor-cache counters keep their historical names; result-cache
        counters are prefixed ``result_`` (all zero when result caching is
        disabled).
        """
        info = self._cache.cache_info()
        result_info = (
            self._results.cache_info()
            if self._results is not None
            else {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0, "size": 0}
        )
        info.update({f"result_{name}": value for name, value in result_info.items()})
        return info

    def bind_snapshot(self, system: Hashable, snapshot: GraphSnapshot) -> None:
        """Declare which snapshot a token-keyed system identity describes.

        Sequence-level planners key their seeded factors by index token, not
        by snapshot; binding the token lets the reuse policy score those
        systems as candidates for answering similar snapshots.  Snapshot
        identities need no binding (they carry their own graph).
        """
        if not isinstance(snapshot, GraphSnapshot):
            raise MeasureError("bind_snapshot takes the system's GraphSnapshot")
        if isinstance(system, GraphSnapshot):
            return
        self._snapshots[system] = snapshot
        # A new binding can make a candidate scoreable: stale negative scans
        # must not outlive it.
        self._ladder.clear_memos()

    def _prune_stale_bindings(self) -> None:
        """Drop snapshot bindings no cached key can use any more.

        A long-lived planner over an evolving chain accumulates bindings
        (each holding a full edge set) while a bounded factor cache keeps
        only the recent keys; once the binding map clearly outgrows the
        cache, everything not backed by a cached key's system is swept.  The
        sweep only ever disables *candidate scoring* for systems that would
        need re-seeding anyway — lineage refresh keeps its own snapshots and
        is unaffected.
        """
        if len(self._snapshots) <= max(32, 2 * len(self._cache)):
            return
        live = {key.system for key in self._cache.keys()}
        self._snapshots = {
            system: snapshot
            for system, snapshot in self._snapshots.items()
            if system in live
        }

    def register_evolution(
        self,
        old: GraphSnapshot,
        new: GraphSnapshot,
        old_system: Optional[Hashable] = None,
        new_system: Optional[Hashable] = None,
    ) -> None:
        """Declare that snapshot ``new`` evolved from snapshot ``old``.

        A later cache miss for ``new`` (any kind-based system key) will try
        to Bennett-refresh the system cached for ``old`` instead of
        factorizing from scratch.  ``old_system`` / ``new_system`` override
        the :class:`~repro.query.spec.SystemKey` identities when they differ
        from the snapshots themselves — e.g. an
        :class:`~repro.core.solver.EMSSolver` index token for factors seeded
        from a sequence decomposition.  Registering a lineage is the only
        opt-in to refresh (answers match a cold factorization within
        numerical tolerance, not bitwise).

        Each entry holds both snapshots.  An entry is pruned once the last
        cached key of its parent's system leaves the factor cache, so under
        a size-bounded :class:`FactorCache` the registry tracks the cache's
        working set; under an unbounded cache it grows with every
        registered pair.  Pruning also happens when the parent is spilled to
        a store, so a child whose parent was spilled factorizes cold.
        """
        validate_evolution(old, new)
        self._lineage[new_system if new_system is not None else new] = (
            old_system if old_system is not None else old,
            old,
            new,
        )
        # Lineage doubles as a snapshot binding for token identities, so the
        # reuse policy can score either end as a candidate.
        if old_system is not None:
            self.bind_snapshot(old_system, old)
        if new_system is not None:
            self.bind_snapshot(new_system, new)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, batch: Union[QueryBatch, Sequence[Query]]) -> QueryPlan:
        """Group a batch by system key (first-appearance order, stable).

        Every query lands in exactly one group or one direct answer; the
        group count equals the number of distinct system matrices among the
        non-shortcut queries.
        """
        return plan_batch(batch)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _resolution_context(self) -> ResolutionContext:
        """Bundle the collaborators the ladder's tiers consult."""
        return ResolutionContext(
            cache=self._cache,
            policy=self._policy,
            executor=self._executor,
            lineage=self._lineage,
            snapshot_of=self._snapshot_of,
            scan=self._ladder.scan,
        )

    def execute(self, plan: QueryPlan) -> BatchResult:
        """Run a plan down the resolution ladder, then batch-solve.

        Every group is served by the first tier that can: cached factors
        (memory or store), policy reuse (approximate policies only),
        rank-``k`` correction, lineage refresh — everything else (no
        candidate, gates failed, oversized delta, pattern violation, pivot
        breakdown) cold-factorizes exactly as before.  The per-tier serve
        counts land in :attr:`PlannerStats.resolutions` under the tier
        names.
        """
        self._prune_stale_bindings()
        resolved, resolutions, records = self._ladder.resolve(
            plan.groups, self._resolution_context()
        )
        results: List[Optional[np.ndarray]] = [None] * len(plan.batch)
        result_hits = 0
        for group in plan.groups:
            resolution = resolved[group.key]
            result_hits += self._answer_group(
                group,
                resolution.solver,
                results,
                cache_base=resolution.cache_base,
                approximate=resolution.approximate,
            )
        for direct in plan.direct:
            # Copy: the plan may be executed again, and callers own their
            # result arrays (the group path allocates fresh columns too).
            results[direct.position] = direct.answer.copy()
        stats = PlannerStats(
            queries=len(plan.batch),
            groups=len(plan.groups),
            direct_answers=len(plan.direct),
            result_hits=result_hits,
            resolutions=resolutions,
        )
        return BatchResult(
            results=list(results),
            stats=stats,
            approximations=tuple(records),
        )

    def run(self, batch: Union[QueryBatch, Sequence[Query]]) -> BatchResult:
        """Plan and execute a batch in one call."""
        return self.execute(self.plan(batch))

    # ------------------------------------------------------------------ #
    # Group answering (vectorized RHS assembly + result cache)
    # ------------------------------------------------------------------ #
    def _assemble_rhs_block(self, group: PlannedGroup) -> np.ndarray:
        """Build the group's ``(n, k)`` RHS block, vectorized where possible.

        Consecutive queries of the same measure against the same snapshot
        form a *run*; runs whose spec declares ``build_rhs_block`` are
        assembled in one vectorized call (bitwise-equal per column to the
        scalar builder, by the spec contract), everything else falls back to
        per-query ``build_rhs``.  The group's damping is constant (it is part
        of the system key).
        """
        queries = group.queries
        block = np.empty((queries[0].snapshot.n, len(queries)), dtype=float)
        start = 0
        while start < len(queries):
            head = queries[start]
            spec = get_spec(head.measure)
            stop = start + 1
            while (
                stop < len(queries)
                and queries[stop].measure == head.measure
                and (
                    queries[stop].snapshot is head.snapshot
                    or queries[stop].snapshot == head.snapshot
                )
            ):
                stop += 1
            if spec.build_rhs_block is not None and stop - start > 1:
                block[:, start:stop] = spec.build_rhs_block(
                    head.snapshot,
                    head.damping,
                    [query.param_dict for query in queries[start:stop]],
                )
            else:
                for column in range(start, stop):
                    query = queries[column]
                    block[:, column] = spec.build_rhs(
                        query.snapshot, query.damping, query.param_dict
                    )
            start = stop
        return block

    @staticmethod
    def _result_key(
        group_key: SystemKey, spec: MeasureSpec, query: Query, rhs: np.ndarray
    ) -> ResultKey:
        """Key one finalized answer: system + finalize identity + RHS digest.

        Specs without a transform or normalization return the raw solution —
        a pure function of ``(system, rhs)`` — so their answers are shared
        across measures.  Transforming/normalizing specs add their name and
        parameters to the key — in *canonical* spelling
        (:func:`~repro.query.spec.canonical_params`), so a query built from
        an ``np.int64`` node id or a ``frozenset`` seed set shares one entry
        with its plain-``int`` / ``tuple`` twin instead of cold-missing.
        (:func:`~repro.query.spec.make_query` already canonicalizes; this
        covers :class:`Query` objects assembled from raw tuples directly.)
        """
        fingerprint = hashlib.blake2b(rhs.tobytes(), digest_size=16).digest()
        if spec.transform is None and not spec.normalize:
            return (group_key, None, fingerprint)
        return (group_key, (spec.name, canonical_params(query.params)), fingerprint)

    def _answer_group(
        self,
        group: PlannedGroup,
        system: FactorizedSystem,
        results: List[Optional[np.ndarray]],
        cache_base: Optional[SystemKey],
        approximate: bool,
    ) -> int:
        """Answer one group into ``results``; return the result-cache hits.

        Queries whose finalized answer is already in the result cache skip
        the solve; the rest share one batched substitution sweep (solving a
        column subset is bitwise identical to solving the full block — the
        batched kernels treat columns independently).

        ``cache_base`` is the system key answers are cached under: the
        group's own key normally, the *parent's* key for policy-reused
        (``approximate``) groups — a pure spec's answer from the parent's
        factors is, byte for byte, the parent's own answer for that RHS, so
        the entries are shared with the parent's exact traffic and repeated
        approximate batches skip the solve.  ``None`` disables result
        caching for the group: rank-``k`` corrected answers come from an
        ephemeral corrector, not from any cached system's factors, so no
        cached key may own them.  Specs with a transform or normalization
        bypass the cache in approximate groups (their finalize step may read
        the query's own snapshot).  Stores require the base key's factors to
        still be cached — a bounded factor cache may have evicted them
        mid-batch, and an entry stored after its key's invalidation event
        would outlive its factors.
        """
        block = self._assemble_rhs_block(group)
        answers: Dict[int, np.ndarray] = {}
        keys: List[Optional[ResultKey]] = [None] * group.size
        pending: List[int] = []
        hits = 0
        if self._results is not None and cache_base is not None:
            for column, query in enumerate(group.queries):
                spec = get_spec(query.measure)
                if approximate and (spec.transform is not None or spec.normalize):
                    pending.append(column)
                    continue
                key = self._result_key(cache_base, spec, query, block[:, column])
                keys[column] = key
                cached = self._results.lookup(key)
                if cached is None:
                    pending.append(column)
                else:
                    answers[column] = cached
                    hits += 1
        else:
            pending = list(range(group.size))
        if pending:
            storable = (
                self._results is not None
                and cache_base is not None
                and cache_base in self._cache
            )
            sub_block = block if len(pending) == group.size else block[:, pending]
            solutions = system.solve_many(sub_block)
            for offset, column in enumerate(pending):
                query = group.queries[column]
                spec = get_spec(query.measure)
                answer = spec.finalize(
                    solutions[:, offset], query.snapshot, query.damping,
                    query.param_dict,
                )
                answers[column] = answer
                if storable and keys[column] is not None:
                    self._results.store(keys[column], answer)
        for column, position in enumerate(group.positions):
            results[position] = answers[column]
        return hits

    def _snapshot_of(self, key: SystemKey) -> Optional[GraphSnapshot]:
        """The graph a cached key's system was composed from, if known."""
        if isinstance(key.system, GraphSnapshot):
            return key.system
        return self._snapshots.get(key.system)
