"""The resolution ladder: how a planned miss group gets its answer.

The paper's contribution is a *ladder* of ways to answer a proximity query
over an evolving-graph sequence — exact cached factors, quality-controlled
reuse of a similar snapshot's factors, rank-``k`` corrected reuse, Bennett
delta refresh, cold factorization.  This module makes that ladder a
first-class object instead of six private planner methods:

* :class:`ResolutionTier` — the step interface: a tier either serves a
  group (returning *how* in a :class:`Resolution`) or passes it down, one
  group at a time (``try_resolve``) or over every pending group at once
  (``resolve_batch``).
* Six concrete tiers, in serving-precedence order: :class:`HitTier`,
  :class:`StoreRestoreTier`, :class:`VerbatimReuseTier`,
  :class:`CorrectedReuseTier`, :class:`RefreshTier`, :class:`ColdTier`.
* :class:`CandidateScan` — the ladder's one memoized scan over cached
  system keys: it scores each eligible candidate of a miss group once,
  through the policy's single gate, and both reuse tiers pick from the
  scored decisions (verbatim: rank 0 only; corrected: any rank).
* :class:`ResolutionLadder` — the fixed walk.  The hit/store-restore pair
  runs *group-major*, so a store restore lands between the neighbouring
  groups' memory lookups — the cache's LRU recency order (and with it the
  reuse tiers' deterministic tie-breaking) is part of the bitwise contract.
  The other four tiers then run *tier-major*: every pending group through
  one tier before the next tier sees the leftovers.

The ladder reports per-tier serve counts under the tier *names*
(:data:`TIER_NAMES`; ``resolutions={tier_name: count}`` in
:class:`~repro.query.planner.PlannerStats`); the historical counters
(``cache_hits``, ``qc_reuses``, ``corrected_reuses``, ``refreshes``,
``factorizations``) are derived views of that mapping.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import FactorizationError, SingularMatrixError
from repro.exec.executors import Executor, resolve_executor
from repro.exec.plan import plan_factor_batch, plan_refresh_batch
from repro.graphs.delta import GraphDelta
from repro.graphs.matrixkind import MatrixKind, damping_delta, system_delta
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.smw import WoodburyCorrector
from repro.query.cache import FactorCache
from repro.query.spec import FactorizedSystem, SystemKey, get_spec
from repro.sparse.csr import SparseMatrix
from repro.sparse.types import Entries

if TYPE_CHECKING:  # runtime imports are lazy (repro.policy sits above this
    # package) or would be circular (the planner imports this module).
    from repro.policy import CorrectionDecision, ReusePolicy
    from repro.query.planner import PlannedGroup


@dataclasses.dataclass(frozen=True)
class ApproximationRecord:
    """Audit trail of one QC-approximated group: what was traded, for what.

    Every batch answered under an approximate :class:`~repro.policy.base.
    ReusePolicy` reports one record per group that was served from another
    system's factors, so callers can see exactly which positions of the
    result are approximate and at what certified cost.

    Attributes
    ----------
    positions:
        Batch positions answered from the reused factors.
    system:
        The :class:`~repro.query.spec.SystemKey` identity the queries asked
        for (snapshot or sequence token).
    parent_system:
        The identity of the cached system that actually answered.
    similarity:
        Snapshot similarity the candidate passed (``>= policy alpha``).
    loss_estimate:
        Certified relative-deviation bound of the raw answers
        (``<= policy loss bound``); see
        :func:`repro.core.quality.reuse_loss_bound`.
    policy:
        Name of the policy that licensed the approximation.
    rank:
        Number of delta columns applied exactly by a Sherman–Morrison–
        Woodbury correction over the parent's factors (``0`` for verbatim
        reuse — the parent's answer served unchanged).
    mode:
        How the group was served: ``"verbatim"`` (step-2 policy reuse),
        ``"corrected"`` (rank-``k`` corrected reuse across snapshots) or
        ``"cross-damping"`` (same snapshot answered across damping factors,
        possibly corrected).
    """

    positions: Tuple[int, ...]
    system: Hashable
    parent_system: Hashable
    similarity: float
    loss_estimate: float
    policy: str
    rank: int = 0
    mode: str = "verbatim"


@dataclasses.dataclass(frozen=True)
class Resolution:
    """How one planned group gets answered: the tier's verdict.

    Attributes
    ----------
    tier:
        Name of the :class:`ResolutionTier` that served the group — the key
        its serve is counted under in ``PlannerStats.resolutions``.
    solver:
        The object whose :meth:`solve_many` answers the group's RHS block —
        the group's own :class:`~repro.query.spec.FactorizedSystem`, a
        borrowed parent system, or a :class:`~repro.lu.smw.
        WoodburyCorrector`.
    cache_base:
        The system key finalized answers are result-cached under: the
        group's own key for exact tiers, the *parent's* key for verbatim
        reuse (the answers are, byte for byte, the parent's own), ``None``
        to bypass the result cache (rank-``k`` corrected answers belong to
        no cached system).
    approximate:
        Whether the answers are policy approximations (the reuse tiers);
        finalize steps that read the query's own snapshot then bypass the
        result cache.
    record:
        The audit record for approximate serves, ``None`` otherwise.
    """

    tier: str
    solver: FactorizedSystem
    cache_base: Optional[SystemKey]
    approximate: bool = False
    record: Optional[ApproximationRecord] = None


@dataclasses.dataclass(frozen=True)
class ScoredCandidate:
    """One cached system the policy admitted to answer a miss group.

    Attributes
    ----------
    key:
        The candidate's :class:`~repro.query.spec.SystemKey`.
    decision:
        The policy's :class:`~repro.policy.base.CorrectionDecision` for the
        pair (rank 0: the candidate may answer verbatim).
    entries:
        The system delta ``ΔA`` the decision was made on; a rank-``k``
        correction gathers its columns from here.
    cross_damping:
        ``True`` for a same-snapshot candidate at another damping factor.
    """

    key: SystemKey
    decision: "CorrectionDecision"
    entries: Entries
    cross_damping: bool


class ScanEntry:
    """One memoized scan outcome: the scored candidates and each tier's pick.

    Same-damping candidates are scored when the entry is created;
    cross-damping ones only once a tier asks for them (the corrected tier,
    under a policy with a positive rank ceiling).  A tier memoizes its
    pick in :attr:`picks` under its name, so a steady-state batch repeats
    the pick it made when the entry was first scanned.
    """

    __slots__ = ("scored", "cross_damping_scored", "picks")

    def __init__(self) -> None:
        self.scored: Dict[SystemKey, ScoredCandidate] = {}
        self.cross_damping_scored = False
        self.picks: Dict[str, object] = {}

    def candidates(self, cache: FactorCache) -> List[ScoredCandidate]:
        """The scored candidates in the cache's *current* key order.

        A tier keeps the first of equally preferable candidates, so this
        order (the cache's LRU order when the tier picks) is the
        tie-break.
        """
        return [
            self.scored[key] for key in cache.keys() if key in self.scored
        ]


class CandidateScan:
    """The memoized cached-key scan the two reuse tiers share.

    Both reuse tiers answer a miss group from a cached *candidate* system.
    The scan iterates the cached keys, skips structurally ineligible ones
    (other matrix kinds, parameterized or custom-built matrices, unknown or
    differently-sized snapshots) and scores each remaining candidate once
    through the policy's single gate, :meth:`~repro.policy.base.
    ReusePolicy.correct`:

    * **same damping, different snapshot** — prefilter, graph delta,
      snapshot similarity (below the policy's ``alpha`` the candidate is
      dropped before any ``ΔA`` is built), then ``ΔA =
      system_delta(parent, child)``;
    * **same snapshot, different damping** — ``ΔA = (d' - d)·M``
      (:func:`~repro.graphs.matrixkind.damping_delta`), similarity
      ``1.0``, certified with the conservative amplification constant
      ``1/(1 - max(d, d'))`` (the Laplacian ignores damping entirely: its
      delta is empty and the reuse exact).

    Scan outcomes — including "no candidate" — are memoized per ``(kind,
    damping, child snapshot)`` until :meth:`clear` (the planner clears on
    any factor-cache change or snapshot binding), so steady-state repeated
    batches pay the full delta-scoring scan once, not per batch.  The memo
    is LRU-bounded at :data:`MEMO_LIMIT` distinct combinations.
    """

    #: Bound on the candidate-scan memo (distinct (kind, damping, child)
    #: combinations remembered between cache changes).
    MEMO_LIMIT = 128

    def __init__(self) -> None:
        self._memo: "OrderedDict[Tuple, ScanEntry]" = OrderedDict()

    def clear(self) -> None:
        """Forget every memoized outcome (the candidate set changed)."""
        self._memo.clear()

    def lookup(
        self,
        group: "PlannedGroup",
        ctx: ResolutionContext,
        cross_damping: bool = False,
    ) -> Optional[ScanEntry]:
        """Return the group's memoized (or freshly scanned) candidates.

        ``cross_damping`` also scores same-snapshot candidates at other
        damping factors.  Returns ``None`` when the group cannot borrow
        factors at all (custom or parameterized matrix, or a kind the
        policy does not certify) or no candidate was admitted.
        """
        key = group.key
        if key.matrix_builder is not None or key.matrix_params:
            return None
        if not ctx.policy.certifies_kind(key.kind):
            return None
        child = group.queries[0].snapshot
        memo_key = (key.kind, key.damping, child)
        entry = self._memo.get(memo_key)
        if entry is None:
            entry = self._memo[memo_key] = ScanEntry()
            self._score(entry, key, child, ctx, cross_damping=False)
            while len(self._memo) > self.MEMO_LIMIT:
                self._memo.popitem(last=False)
        else:
            self._memo.move_to_end(memo_key)
        if cross_damping and not entry.cross_damping_scored:
            entry.cross_damping_scored = True
            self._score(entry, key, child, ctx, cross_damping=True)
        return entry if entry.scored else None

    @staticmethod
    def _score(
        entry: ScanEntry,
        key: SystemKey,
        child: GraphSnapshot,
        ctx: ResolutionContext,
        cross_damping: bool,
    ) -> None:
        """Score one candidate family into ``entry``."""
        policy = ctx.policy
        from repro.core.similarity import snapshot_similarity

        for candidate in ctx.cache.keys():
            if (
                candidate.kind is not key.kind
                or candidate.matrix_params
                or candidate.matrix_builder is not None
                or (candidate.damping != key.damping) is not cross_damping
            ):
                continue
            parent = ctx.snapshot_of(candidate)
            if parent is None or parent.n != child.n:
                continue
            if not cross_damping:
                if not policy.prefilter(parent, child):
                    continue
                delta = GraphDelta.between(parent, child)
                similarity = snapshot_similarity(parent, child, delta=delta)
                if similarity < policy.alpha:
                    continue
                entries = system_delta(
                    parent, child, kind=key.kind, damping=key.damping, delta=delta
                )
                amplifier = key.damping
            else:
                if parent != child:
                    continue
                entries = damping_delta(
                    child,
                    key.kind,
                    from_damping=candidate.damping,
                    to_damping=key.damping,
                )
                similarity = 1.0
                amplifier = max(key.damping, candidate.damping)
            if key.kind is MatrixKind.LAPLACIAN:
                amplifier = 0.0
            decision = policy.correct(
                entries, amplifier_damping=amplifier, similarity=similarity
            )
            if decision is not None:
                entry.scored[candidate] = ScoredCandidate(
                    candidate, decision, entries, cross_damping
                )


@dataclasses.dataclass
class ResolutionContext:
    """Planner collaborators a tier may consult while resolving a group.

    One context is built per :meth:`~repro.query.planner.QueryPlanner.
    execute` call and threaded through every tier — tiers hold no planner
    state of their own.
    """

    #: the planner's factor cache (lookups, peeks, refresh commits)
    cache: FactorCache
    #: the reuse policy gating the approximate tiers
    policy: "ReusePolicy"
    #: how refresh / factorization work units are scheduled
    executor: Union[Executor, int, None]
    #: whether a lineage-less miss may scan for the nearest cached parent
    auto_refresh: bool
    #: registered evolutions: new system identity -> (old identity, old, new)
    lineage: Dict[Hashable, Tuple[Hashable, GraphSnapshot, GraphSnapshot]]
    #: resolves a cached key to the snapshot its system was composed from
    snapshot_of: Callable[[SystemKey], Optional[GraphSnapshot]]
    #: the ladder's candidate scan (and its memo) shared by the reuse tiers
    scan: CandidateScan


class ResolutionTier:
    """One rung of the ladder: serve a group or pass it down.

    Tiers hold no state of their own between batches: the reuse tiers
    memoize their picks in the ladder's :class:`CandidateScan`.  The
    per-group tiers implement :meth:`try_resolve`; the bulk tiers
    (:class:`RefreshTier`, :class:`ColdTier`) override :meth:`resolve_batch`
    instead, to fan work units out through the executor.
    """

    #: the tier's stable name: its key in ``PlannerStats.resolutions``
    name: str = ""

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        """Serve ``group`` from this tier, or return ``None`` to fall through."""
        raise NotImplementedError

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        """Walk ``groups`` through this tier in order.

        Returns the resolutions keyed by group key (insertion order = group
        order) and the groups falling through to the next tier, their
        relative order preserved.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        remaining: List["PlannedGroup"] = []
        for group in groups:
            resolution = self.try_resolve(group, ctx)
            if resolution is None:
                remaining.append(group)
            else:
                resolved[group.key] = resolution
        return resolved, remaining


class HitTier(ResolutionTier):
    """Serve a group whose own factors are cached in memory (precedence 1)."""

    name = "hit"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        system = ctx.cache.lookup_memory(group.key)
        if system is None:
            return None
        return Resolution(tier=self.name, solver=system, cache_base=group.key)


class StoreRestoreTier(ResolutionTier):
    """Restore a memory-missed group's factors from the disk store.

    Runs group-major right after :class:`HitTier`:
    :meth:`FactorCache.restore_from_store` refines the miss that
    :meth:`FactorCache.lookup_memory` just counted, and the restore's install
    must land between the neighbouring groups' memory lookups to preserve
    the cache's exact LRU recency order.  A no-op without a store.
    """

    name = "store_restore"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        system = ctx.cache.restore_from_store(group.key)
        if system is None:
            return None
        return Resolution(tier=self.name, solver=system, cache_base=group.key)


class VerbatimReuseTier(ResolutionTier):
    """Answer from a similar cached system's factors *unchanged* (precedence 3).

    The paper's bounded quality-loss trade applied to serving: an
    approximate :class:`~repro.policy.base.ReusePolicy` (e.g.
    :class:`~repro.policy.qc.QCPolicy`) licenses serving a miss group from
    a cached similar snapshot's factors outright — no numerical work, an
    :class:`ApproximationRecord` in the audit trail.  The tier picks, among
    the scan's same-damping rank-0 decisions, the highest similarity, then
    the lowest loss.  Exact policies skip this tier entirely.  The borrowed
    system is deliberately NOT installed in the factor cache under the miss
    key: the cache maps a key to factors of *that* system, and aliasing
    would turn a bounded approximation into a silent cache hit.
    """

    name = "verbatim_reuse"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        if ctx.policy.is_exact:
            return None
        entry = ctx.scan.lookup(group, ctx)
        if entry is None:
            return None
        if self.name not in entry.picks:
            entry.picks[self.name] = self._pick(entry, ctx)
        best = entry.picks[self.name]
        if best is None:
            return None
        parent_key, decision = best.key, best.decision
        system = ctx.cache.peek(parent_key)
        if system is None:  # pragma: no cover - memo cleared on eviction
            return None
        # Freshen recency (the parent is in active use) without touching
        # the pinned per-group hit/miss accounting.
        ctx.cache.touch(parent_key)
        return Resolution(
            tier=self.name,
            solver=system,
            cache_base=parent_key,
            approximate=True,
            record=ApproximationRecord(
                positions=group.positions,
                system=group.key.system,
                parent_system=parent_key.system,
                similarity=decision.similarity,
                loss_estimate=decision.loss_estimate,
                policy=ctx.policy.name,
            ),
        )

    @staticmethod
    def _pick(entry: ScanEntry, ctx: ResolutionContext) -> Optional[ScoredCandidate]:
        """The best same-damping rank-0 candidate: similarity, then -loss."""
        best: Optional[ScoredCandidate] = None
        for scored in entry.candidates(ctx.cache):
            decision = scored.decision
            if scored.cross_damping or decision.rank:
                continue
            if best is None or (decision.similarity, -decision.loss_estimate) > (
                best.decision.similarity,
                -best.decision.loss_estimate,
            ):
                best = scored
        return best


class CorrectedReuseTier(ResolutionTier):
    """Answer via rank-``k`` SMW correction of a cached system (precedence 4).

    Runs only under a policy with a positive :attr:`~repro.policy.base.
    ReusePolicy.max_rank`.  It picks from the scan's decisions —
    same-damping candidates (mode ``"corrected"``) and same-snapshot
    candidates at another damping factor (mode ``"cross-damping"``) — by
    :meth:`~repro.policy.base.CorrectionDecision.preferable_to`: cheapest
    rank, then tightest bound, then highest similarity.

    The tier memoizes the *built* corrector with its pick (the setup sweeps
    are the expensive part), so steady-state repeated batches pay them
    once; any factor-cache change clears the scan memo, which also
    guarantees a held corrector never outlives the factors it wraps.  A
    candidate whose capacitance is singular or ill-conditioned is discarded
    (falls through to refresh / cold) rather than served.
    """

    name = "corrected_reuse"

    def try_resolve(
        self, group: "PlannedGroup", ctx: ResolutionContext
    ) -> Optional[Resolution]:
        if ctx.policy.max_rank <= 0:
            return None
        entry = ctx.scan.lookup(group, ctx, cross_damping=True)
        if entry is None:
            return None
        if self.name not in entry.picks:
            best: Optional[ScoredCandidate] = None
            for scored in entry.candidates(ctx.cache):
                if best is None or scored.decision.preferable_to(best.decision):
                    best = scored
            entry.picks[self.name] = (
                None if best is None else self._build_correction(ctx, best)
            )
        found = entry.picks[self.name]
        if found is None:
            return None
        parent_key, decision, mode, solver, cache_base = found
        if decision.rank == 0 and ctx.cache.peek(parent_key) is None:
            # pragma: no cover - memo cleared on eviction
            return None
        # Freshen recency (the parent's factors are in active use; a
        # rank-k corrector reads them on every batch) without touching
        # the pinned per-group hit/miss accounting.
        ctx.cache.touch(parent_key)
        return Resolution(
            tier=self.name,
            solver=solver,
            cache_base=cache_base,
            approximate=True,
            record=ApproximationRecord(
                positions=group.positions,
                system=group.key.system,
                parent_system=parent_key.system,
                similarity=decision.similarity,
                loss_estimate=decision.loss_estimate,
                policy=ctx.policy.name,
                rank=decision.rank,
                mode=mode,
            ),
        )

    @staticmethod
    def _build_correction(
        ctx: ResolutionContext, scored: ScoredCandidate
    ) -> Optional[Tuple]:
        """Materialize a licensed correction into a servable solver.

        Rank 0 needs no numerical setup: the parent's system answers as-is
        (verbatim-grade sharing, cache base = parent key).  Rank ``k``
        gathers the decision's columns of ``ΔA`` into a dense ``(n, k)``
        update block and builds the :class:`~repro.lu.smw.WoodburyCorrector`
        (``k`` triangular sweeps + the capacitance factorization, paid once
        per memo lifetime).  Returns ``None`` when the parent vanished or
        the capacitance check fails — the group then falls through to
        refresh / cold, never serving an uncertified answer.
        """
        parent_key, decision = scored.key, scored.decision
        mode = "cross-damping" if scored.cross_damping else "corrected"
        parent_system = ctx.cache.peek(parent_key)
        if parent_system is None:  # pragma: no cover - scan just saw the key
            return None
        if decision.rank == 0:
            return (parent_key, decision, mode, parent_system, parent_key)
        n = parent_system.matrix.n
        update = np.zeros((n, decision.rank), dtype=float)
        offsets = {column: t for t, column in enumerate(decision.columns)}
        for (row, column), value in scored.entries.items():
            t = offsets.get(column)
            if t is not None:
                update[row, t] += value
        try:
            corrector = WoodburyCorrector(
                parent_system.factors,
                parent_system.ordering,
                update,
                decision.columns,
            )
        except SingularMatrixError:
            return None
        return (parent_key, decision, mode, corrector, None)


class RefreshTier(ResolutionTier):
    """Bennett-refresh miss groups from their cached lineage parents (precedence 5).

    A bulk tier: each refresh goes :meth:`FactorCache.prepare_refresh` →
    REFRESH work unit → :meth:`FactorCache.commit_refresh`, and the units
    dispatch through the same executors as factor units, so independent
    refreshes fan out onto a worker pool.  Refreshed systems are committed
    to the factor cache under their new keys (unlike the reuse tiers'
    borrowed factors, a refreshed system IS the miss key's system).
    """

    name = "refresh"

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        """Refresh the groups that have a cached lineage parent.

        Returns the refreshed resolutions and the groups still needing a
        cold factorization — including any whose prepared refresh broke
        down numerically.

        Refreshes run in waves: a group whose registered parent is not
        cached *yet* may be the next link of a lineage chain whose earlier
        link is refreshing in this same batch, so it is deferred until a
        wave commits nothing new.  A group whose lineage parent never
        materializes counts a ``refresh_fallbacks``
        (:meth:`FactorCache.refresh_failed`) and factorizes cold.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        cold: List["PlannedGroup"] = []
        pending = list(groups)
        record_provenance = ctx.cache.disk_store is not None
        while pending:
            jobs: List[Tuple["PlannedGroup", SparseMatrix, SystemKey, Entries]] = []
            payloads = []
            deferred: List["PlannedGroup"] = []
            for group in pending:
                parent = self._refresh_parent(group.key, ctx)
                if parent is None:
                    if self._has_lineage(group.key, ctx):
                        deferred.append(group)
                    else:
                        cold.append(group)
                    continue
                old_key, old_snapshot, new_snapshot, graph_delta = parent
                entries = system_delta(
                    old_snapshot,
                    new_snapshot,
                    kind=group.key.kind,
                    damping=group.key.damping,
                    delta=graph_delta,
                )
                prepared = ctx.cache.prepare_refresh(old_key, entries)
                if prepared is None:
                    cold.append(group)
                    continue
                ordering = prepared.ordering
                mapped = (
                    ordering.map_entries(entries)
                    if ordering is not None
                    else dict(entries)
                )
                query = group.queries[0]
                new_matrix = get_spec(query.measure).system_matrix(
                    query.snapshot, query.damping, query.param_dict
                )
                jobs.append((group, new_matrix, old_key, mapped))
                payloads.append((new_matrix, prepared.factors, ordering, mapped))
            committed = 0
            if jobs:
                exec_plan = plan_refresh_batch(payloads)
                outcome = resolve_executor(ctx.executor).execute(exec_plan)
                for (group, new_matrix, old_key, mapped), decomposition in zip(
                    jobs, outcome.decompositions
                ):
                    if decomposition.factors is None:
                        ctx.cache.refresh_failed()
                        cold.append(group)
                        continue
                    system = FactorizedSystem(
                        new_matrix, decomposition.ordering, decomposition.factors
                    )
                    provenance = None
                    parent_system = (
                        ctx.cache.peek(old_key) if record_provenance else None
                    )
                    if parent_system is not None:
                        from repro.store.factorstore import RefreshProvenance

                        # The refresh units freeze and apply the delta in
                        # sorted-key order (see plan_refresh_batch); the
                        # provenance must record exactly that order for a
                        # bit-exact replay at restore time.
                        provenance = RefreshProvenance(
                            old_key, parent_system, dict(sorted(mapped.items()))
                        )
                    ctx.cache.commit_refresh(
                        group.key, system, provenance=provenance
                    )
                    resolved[group.key] = Resolution(
                        tier=self.name, solver=system, cache_base=group.key
                    )
                    committed += 1
            if not deferred:
                break
            if committed == 0:
                for group in deferred:
                    ctx.cache.refresh_failed()
                    cold.append(group)
                break
            pending = deferred
        return resolved, cold

    @staticmethod
    def _refresh_parent(
        key: SystemKey, ctx: ResolutionContext
    ) -> Optional[Tuple[SystemKey, GraphSnapshot, GraphSnapshot, GraphDelta]]:
        """Find a cached parent system to delta-refresh ``key`` from.

        Custom-matrix keys never refresh (their composition is opaque to the
        system-delta layer).  Explicit lineage wins; with ``auto_refresh`` a
        snapshot-keyed miss falls back to scanning the cached keys for the
        nearest same-shape snapshot.
        """
        if key.matrix_builder is not None:
            return None
        lineage = ctx.lineage.get(key.system)
        if lineage is not None:
            old_system, old_snapshot, new_snapshot = lineage
            old_key = dataclasses.replace(key, system=old_system)
            if ctx.cache.peek(old_key) is None:
                return None
            return (
                old_key,
                old_snapshot,
                new_snapshot,
                GraphDelta.between(old_snapshot, new_snapshot),
            )
        if not ctx.auto_refresh or not isinstance(key.system, GraphSnapshot):
            return None
        new_snapshot = key.system
        best = None
        for candidate in ctx.cache.keys():
            if (
                candidate.kind is key.kind
                and candidate.damping == key.damping
                and candidate.matrix_params == key.matrix_params
                and candidate.matrix_builder is None
                and isinstance(candidate.system, GraphSnapshot)
                and candidate.system.n == new_snapshot.n
            ):
                delta = GraphDelta.between(candidate.system, new_snapshot)
                if best is None or delta.size < best[3].size:
                    best = (candidate, candidate.system, new_snapshot, delta)
        return best

    @staticmethod
    def _has_lineage(key: SystemKey, ctx: ResolutionContext) -> bool:
        """Whether a refreshable lineage was registered for this key's system."""
        return key.matrix_builder is None and key.system in ctx.lineage


class ColdTier(ResolutionTier):
    """Factorize each remaining group's system matrix once (precedence 6).

    The ladder's floor: it resolves every group it is given or raises
    :class:`~repro.errors.FactorizationError`.  Factor units report
    failures instead of raising (one poisoned query must not abort its
    siblings with a bare worker traceback): every healthy group's system
    is computed *and cached* first, then a single
    :class:`~repro.errors.FactorizationError` carries the annotated
    per-unit reports — so a retry without the poisoned queries answers
    warm from the cache.
    """

    name = "cold"

    def resolve_batch(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], List["PlannedGroup"]]:
        if not groups:
            return {}, []
        matrices = []
        labels = []
        for group in groups:
            query = group.queries[0]
            spec = get_spec(query.measure)
            matrices.append(
                spec.system_matrix(query.snapshot, query.damping, query.param_dict)
            )
            labels.append(self._describe_group(group))
        exec_plan = plan_factor_batch(matrices, labels=labels)
        outcome = resolve_executor(ctx.executor).execute(exec_plan)
        resolved: Dict[SystemKey, Resolution] = {}
        failures: List[str] = []
        for group, matrix, label, decomposition in zip(
            groups, matrices, labels, outcome.decompositions
        ):
            if decomposition.factors is None:
                failures.append(decomposition.error or f"factorization failed [{label}]")
                continue
            system = FactorizedSystem(
                matrix, decomposition.ordering, decomposition.factors
            )
            resolved[group.key] = Resolution(
                tier=self.name, solver=system, cache_base=group.key
            )
            ctx.cache.store(group.key, system)
        if failures:
            raise FactorizationError(failures)
        return resolved, []

    @staticmethod
    def _describe_group(group: "PlannedGroup") -> str:
        """One-line system description for factor-unit failure reports."""
        key = group.key
        query = group.queries[0]
        if isinstance(key.system, GraphSnapshot):
            system = (
                f"snapshot(n={key.system.n}, edges={key.system.edge_count})"
            )
        else:
            system = f"token {key.system!r}"
        parts = [
            f"measure={query.measure!r}",
            f"kind={key.kind.name}",
            f"damping={key.damping}",
            f"system={system}",
        ]
        if key.matrix_params:
            parts.append(f"matrix_params={key.matrix_params!r}")
        return ", ".join(parts)


#: The tier names in serving precedence order: the keys of every
#: ``PlannerStats.resolutions`` mapping.
TIER_NAMES: Tuple[str, ...] = tuple(
    tier.name
    for tier in (
        HitTier, StoreRestoreTier, VerbatimReuseTier, CorrectedReuseTier,
        RefreshTier, ColdTier,
    )
)


class ResolutionLadder:
    """The fixed tier walk resolving every planned group of a batch.

    Each group first tries :class:`HitTier` then :class:`StoreRestoreTier`
    before the next group starts, so a disk restore's cache install lands
    between the neighbouring groups' memory lookups.  The groups left over
    then walk :class:`VerbatimReuseTier`, :class:`CorrectedReuseTier`,
    :class:`RefreshTier` and :class:`ColdTier` tier-major: every pending
    group is offered to a tier before the next tier sees the leftovers —
    which is what lets the bulk tiers (refresh waves, batched
    factorization) fan their work units out through the executor in one go.

    The ladder owns the one :class:`CandidateScan` its reuse tiers share
    (handed to them as ``ResolutionContext.scan``); the owning planner
    clears it whenever its factor cache or snapshot bindings change.
    """

    def __init__(self) -> None:
        self._hit = HitTier()
        self._store_restore = StoreRestoreTier()
        self._bulk = (
            VerbatimReuseTier(), CorrectedReuseTier(), RefreshTier(), ColdTier(),
        )
        self._scan = CandidateScan()

    @property
    def scan(self) -> CandidateScan:
        """The candidate scan shared by the reuse tiers."""
        return self._scan

    def clear_memos(self) -> None:
        """Clear the scan memo (the candidate set changed)."""
        self._scan.clear()

    def resolve(
        self, groups: Sequence["PlannedGroup"], ctx: ResolutionContext
    ) -> Tuple[Dict[SystemKey, Resolution], Dict[str, int], List[ApproximationRecord]]:
        """Resolve every group; return (resolutions, per-tier counts, records).

        ``counts`` holds every tier name (zeros included) in precedence
        order, so the stats surface is shape-stable across batches.
        Audit records accumulate tier-major in group order — verbatim
        records precede corrected records, as the audit trail always has.
        A tier that no group reaches is not called at all.
        """
        resolved: Dict[SystemKey, Resolution] = {}
        counts: Dict[str, int] = {name: 0 for name in TIER_NAMES}
        records: List[ApproximationRecord] = []

        def settle(key: SystemKey, resolution: Resolution) -> None:
            resolved[key] = resolution
            counts[resolution.tier] += 1
            if resolution.record is not None:
                records.append(resolution.record)

        pending: List["PlannedGroup"] = []
        for group in groups:
            resolution = self._hit.try_resolve(group, ctx)
            if resolution is None:
                resolution = self._store_restore.try_resolve(group, ctx)
            if resolution is None:
                pending.append(group)
            else:
                settle(group.key, resolution)
        for tier in self._bulk:
            if not pending:
                break
            tier_resolved, pending = tier.resolve_batch(pending, ctx)
            for key, resolution in tier_resolved.items():
                settle(key, resolution)
        return resolved, counts, records
