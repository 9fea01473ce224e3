"""The planner's two caches: factors by system key, answers by RHS digest.

The resolution ladder (:mod:`repro.query.resolution`) and the planner
(:mod:`repro.query.planner`) both build on this cache surface without a
circular import.

* :class:`FactorCache` holds :class:`~repro.query.spec.FactorizedSystem`
  objects keyed by :class:`~repro.query.spec.SystemKey`, with group-level
  hit/miss accounting, LRU bounding, listener channels, and an optional
  :class:`~repro.store.factorstore.FactorStore` disk tier (spill on
  eviction, restore on miss, checkpoint on demand).
* The Bennett delta refresh — the paper's INC step applied to a cached
  system — has one path: :meth:`FactorCache.prepare_refresh` gates it,
  clones the parent and fixes the delta's order; :func:`apply_refresh`
  runs the sweeps inside a REFRESH work unit; and
  :meth:`FactorCache.commit_refresh` installs the result and records its
  provenance.
* :class:`ResultCache` holds *finalized answers* keyed by
  ``(SystemKey, finalize identity, rhs fingerprint)`` so repeated hot
  queries skip the substitution sweep entirely.
"""

from __future__ import annotations

import types
import weakref
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import MeasureError, PatternError, SingularMatrixError, StoreError
from repro.lu.bennett import bennett_update
from repro.lu.factors import LUFactors
from repro.query.spec import FactorizedSystem, SystemKey
from repro.sparse.types import Entries

if TYPE_CHECKING:  # runtime import is lazy: the store package sits above
    # this one in the layering (it imports query.spec).
    from repro.store.factorstore import FactorStore, RefreshProvenance

#: Refresh gate: a system-matrix delta touching more than this fraction of
#: the cached matrix's non-zeros falls back to a cold factorization — beyond
#: it the rank-1 sweeps stop being cheaper than a fresh Markowitz + Crout
#: pass (and a large delta usually means the old ordering misfits the new
#: matrix anyway).  Read at call time by :meth:`FactorCache.prepare_refresh`.
DEFAULT_REFRESH_THRESHOLD = 0.25


def apply_refresh(factors: LUFactors, delta: Entries) -> Optional[LUFactors]:
    """Bennett-update ``factors`` in place by ``delta``, in the order given.

    The body of every REFRESH work unit.  ``delta`` is the canonical delta
    of :meth:`FactorCache.prepare_refresh`.  Returns the updated factors,
    or ``None`` when the update would fill outside a sealed factor pattern
    or a pivot breaks down; the caller then factorizes cold.
    """
    try:
        bennett_update(factors, delta)
    except (PatternError, SingularMatrixError):
        return None
    return factors


class FactorCache:
    """Cache of :class:`FactorizedSystem` objects keyed by :class:`SystemKey`.

    Tracks hits and misses at *group* granularity (one lookup per planned
    group, not per query), which is what the acceptance counters assert
    against.  Entries seeded via :meth:`seed` (e.g. from an EMS
    decomposition) count as ordinary hits when used.

    Parameters
    ----------
    max_systems:
        Optional LRU bound for long-lived serving planners over evolving
        graphs, where every new snapshot is a new key and an unbounded cache
        would grow without limit.  ``None`` (the default) keeps every entry —
        required for the bitwise guarantees of seeded sequence planners: an
        evicted entry is transparently re-factorized from scratch, which is
        still an exact solve but not necessarily bit-identical to the
        decomposition-seeded factors it replaced.  :meth:`seed` refuses to
        overflow the bound (see its docstring) for the same reason.
    store:
        Optional :class:`~repro.store.factorstore.FactorStore` disk tier.
        With a store attached, LRU evictions *spill* the departing system
        to disk instead of dropping it, a memory miss consults the store
        before reporting a miss to the caller (a restored system is
        installed and returned — the planner sees it as a cache hit and
        skips the cold factorization), and :meth:`checkpoint` flushes the
        whole working set.  Refresh-produced systems remember their
        provenance (parent + applied delta) so their spills are compact
        delta checkpoints.  ``cache_info()`` grows four
        extra counters — ``store_hits`` / ``store_misses`` (partitioning
        the memory misses), ``spills``, and ``restore_fallbacks`` (files
        that existed but could not be restored: corrupt, torn, or replay
        breakdown — served cold instead, never wrong).
    """

    def __init__(
        self,
        max_systems: Optional[int] = None,
        store: Optional["FactorStore"] = None,
    ) -> None:
        if max_systems is not None and max_systems < 1:
            raise MeasureError(f"max_systems must be positive, got {max_systems}")
        self._systems: "OrderedDict[SystemKey, FactorizedSystem]" = OrderedDict()
        self._max_systems = max_systems
        self._store = store
        #: refresh lineage per cached key, kept only while a store could
        #: spill it as a delta checkpoint (see RefreshProvenance)
        self._provenance: Dict[SystemKey, "RefreshProvenance"] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._refreshes = 0
        self._refresh_fallbacks = 0
        self._store_hits = 0
        self._store_misses = 0
        self._spills = 0
        self._restore_fallbacks = 0
        #: resolvers returning the live listener or ``None`` once collected
        self._invalidation_listeners: List[
            Callable[[], Optional[Callable[[SystemKey], None]]]
        ] = []
        self._eviction_listeners: List[
            Callable[[], Optional[Callable[[SystemKey], None]]]
        ] = []

    def __len__(self) -> int:
        return len(self._systems)

    def __contains__(self, key: SystemKey) -> bool:
        return key in self._systems

    def keys(self) -> Iterator[SystemKey]:
        """Iterate over the cached system keys (snapshot → key index scans)."""
        return iter(tuple(self._systems))

    def lookup_memory(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Return the system cached *in memory* and count the hit or miss.

        The resolution ladder's hit tier.  A miss is counted here
        (``misses``) whether or not a store later serves the key;
        :meth:`restore_from_store` refines the miss into ``store_hits`` /
        ``store_misses`` without recounting.
        """
        system = self._systems.get(key)
        if system is not None:
            self._hits += 1
            self._systems.move_to_end(key)
            return system
        self._misses += 1
        return None

    def restore_from_store(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Restore a memory-missed key from the disk tier, if possible.

        The resolution ladder's store-restore tier.  Call it only after
        :meth:`lookup_memory` reported a miss: a restorable checkpoint is
        decoded (or delta-replayed), installed, counted as a
        ``store_hits``, and returned.  ``store_misses`` counts the memory
        misses the store could not serve either; among those,
        ``restore_fallbacks`` counts the ones where a checkpoint file
        existed but failed its checksum or its delta replay.  Returns
        ``None`` (without touching any counter) when no store is attached.
        """
        if self._store is None:
            return None
        if key not in self._store:
            self._store_misses += 1
            return None
        restored = self._store.load(key)
        if restored is None:
            self._restore_fallbacks += 1
            self._store_misses += 1
            return None
        self._store_hits += 1
        self._install(key, restored)
        return restored

    def peek(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Return the cached system without touching counters or recency."""
        return self._systems.get(key)

    def touch(self, key: SystemKey) -> None:
        """Freshen a key's LRU recency without counting a hit or a miss.

        Used by policy-level reuse: a cached system answering *for another
        key* is in active use and must not age towards eviction, but the
        pinned per-group hit/miss accounting (one counted lookup per planned
        group) may not change.
        """
        if key in self._systems:
            self._systems.move_to_end(key)

    def add_invalidation_listener(self, listener: Callable[[SystemKey], None]) -> None:
        """Subscribe to key invalidations (evictions and factor installs).

        The listener fires whenever the factors behind a key can no longer be
        assumed unchanged: the key is evicted (a later re-factorization is
        exact but not necessarily bit-identical), is dropped by
        :meth:`clear`, or has new factors installed over it.  Planners hang
        their result caches here so derived answers never outlive their
        factors.

        Bound-method listeners are held **weakly** (their receiver is not
        kept alive by the subscription, and dead subscriptions are pruned),
        so short-lived planners sharing a long-lived factor cache do not
        accumulate; keep the receiving object alive for as long as the
        subscription should fire.  Plain functions are held strongly.
        """
        self._invalidation_listeners.append(self._hold_listener(listener))

    def add_eviction_listener(self, listener: Callable[[SystemKey], None]) -> None:
        """Subscribe to key *removals* only (LRU eviction, clear).

        Unlike :meth:`add_invalidation_listener` — which also fires when new
        factors are installed over a key — this channel fires exactly when a
        key leaves the cache.  Planners use it to prune per-key bookkeeping
        (lineage entries, snapshot bindings) that is only useful while the
        key's system is cached, which is what keeps a long-lived serving
        planner's registries bounded.  The same weak-holding rules as
        invalidation listeners apply.
        """
        self._eviction_listeners.append(self._hold_listener(listener))

    @staticmethod
    def _hold_listener(
        listener: Callable[[SystemKey], None],
    ) -> Callable[[], Optional[Callable[[SystemKey], None]]]:
        if isinstance(listener, types.MethodType):
            return weakref.WeakMethod(listener)
        return lambda _fn=listener: _fn

    @staticmethod
    def _fire(
        listeners: List[Callable[[], Optional[Callable[[SystemKey], None]]]],
        key: SystemKey,
    ) -> None:
        dead = False
        for resolver in listeners:
            listener = resolver()
            if listener is None:
                dead = True
                continue
            listener(key)
        if dead:
            listeners[:] = [
                resolver for resolver in listeners if resolver() is not None
            ]

    def _invalidate(self, key: SystemKey) -> None:
        self._fire(self._invalidation_listeners, key)

    def _evicted(self, key: SystemKey) -> None:
        self._fire(self._eviction_listeners, key)

    def _spill(self, key: SystemKey, system: FactorizedSystem) -> bool:
        """Checkpoint a departing (or flushed) system to the store, if any.

        Uses the recorded refresh provenance for a compact delta checkpoint
        when available, a full checkpoint otherwise.  Unsupported factor
        containers and I/O failures are swallowed — spilling is an
        optimization, never a correctness requirement (the system would
        simply cold-factorize on a later miss).
        """
        if self._store is None:
            return False
        try:
            self._store.save(key, system, self._provenance.get(key))
        except (StoreError, OSError):
            return False
        self._spills += 1
        return True

    def _install(self, key: SystemKey, system: FactorizedSystem) -> None:
        self._invalidate(key)
        # New factors over the key invalidate any recorded refresh lineage
        # (commit_refresh re-records its own right after).
        self._provenance.pop(key, None)
        self._systems[key] = system
        self._systems.move_to_end(key)
        if self._max_systems is not None:
            while len(self._systems) > self._max_systems:
                evicted, dropped = self._systems.popitem(last=False)
                self._evictions += 1
                self._spill(evicted, dropped)
                self._provenance.pop(evicted, None)
                self._invalidate(evicted)
                self._evicted(evicted)

    def seed(self, key: SystemKey, system: FactorizedSystem) -> None:
        """Install a system without touching the counters (pre-population).

        Seeding must never evict: a seeded planner's guarantee is that the
        whole sequence answers from exactly the decomposition-provided
        factors, and a silent LRU eviction of a seeded entry would break it
        without any signal (the evicted index would be transparently — but
        approximately-bitwise-differently — re-factorized).  Seeding a key
        that would overflow ``max_systems`` therefore raises
        :class:`~repro.errors.MeasureError`; raise the bound or use an
        unbounded cache for seeded planners.
        """
        if (
            self._max_systems is not None
            and key not in self._systems
            and len(self._systems) >= self._max_systems
        ):
            raise MeasureError(
                f"seeding would overflow max_systems={self._max_systems} "
                f"(cache already holds {len(self._systems)} systems); seeded "
                "entries must never be evicted — raise max_systems to at "
                "least the number of seeded systems or use an unbounded cache"
            )
        self._install(key, system)

    def store(self, key: SystemKey, system: FactorizedSystem) -> None:
        """Install a freshly factorized system (after a counted miss)."""
        self._install(key, system)

    # ------------------------------------------------------------------ #
    # Delta refresh: prepare_refresh -> apply_refresh -> commit_refresh
    # ------------------------------------------------------------------ #
    def prepare_refresh(
        self, old_key: SystemKey, delta: Entries
    ) -> Optional[Tuple[FactorizedSystem, Entries]]:
        """Gate a refresh and return a mutable clone plus its canonical delta.

        ``delta`` is the system-matrix entry delta in *original* (unordered)
        coordinates.  The refresh is refused — ``None``, counting a
        ``refresh_fallbacks`` — when the parent is not cached or the delta
        touches more than :data:`DEFAULT_REFRESH_THRESHOLD` of the parent
        matrix's non-zeros.  Otherwise returns a clone of the parent whose
        factors :func:`apply_refresh` may update in place, and the delta
        mapped through the clone's ordering in sorted-key order.  The sweep,
        the recorded provenance and a store replay all consume that one
        order, so a ``.delta`` checkpoint does not depend on how the delta
        was built.  Hit/miss counters are untouched either way.
        """
        cached = self._systems.get(old_key)
        if cached is None or len(delta) > DEFAULT_REFRESH_THRESHOLD * max(
            cached.matrix.nnz, 1
        ):
            self._refresh_fallbacks += 1
            return None
        working = cached.clone()
        ordering = working.ordering
        mapped = ordering.map_entries(delta) if ordering is not None else delta
        return working, dict(sorted(mapped.items()))

    def commit_refresh(
        self,
        new_key: SystemKey,
        system: FactorizedSystem,
        parent_key: SystemKey,
        delta: Entries,
    ) -> None:
        """Install a successfully refreshed system (counted in ``refreshes``).

        ``delta`` is the canonical delta :meth:`prepare_refresh` returned.
        With a store attached, and while ``parent_key`` is still cached, the
        parent system and that delta are remembered as the new key's
        :class:`~repro.store.factorstore.RefreshProvenance` (pinning the
        parent in memory), so a later spill of this key writes a compact
        delta checkpoint instead of a full one.
        """
        parent = self._systems.get(parent_key) if self._store is not None else None
        self._install(new_key, system)
        if parent is not None:
            from repro.store.factorstore import RefreshProvenance

            self._provenance[new_key] = RefreshProvenance(parent_key, parent, delta)
        self._refreshes += 1

    def refresh_failed(self) -> None:
        """Record that a prepared refresh broke down numerically."""
        self._refresh_fallbacks += 1

    def checkpoint(self) -> int:
        """Flush every cached system to the store; return the spill count.

        Non-destructive: the working set stays in memory untouched.  A
        warm-booted cache pointed at the same store directory answers the
        flushed keys from disk, bitwise-identically, without a single cold
        factorization.  Raises :class:`~repro.errors.MeasureError` when no
        store is attached.
        """
        if self._store is None:
            raise MeasureError(
                "checkpoint() requires a FactorCache constructed with store=..."
            )
        count = 0
        for key, system in list(self._systems.items()):
            if self._spill(key, system):
                count += 1
        return count

    def cache_info(self) -> Dict[str, int]:
        """Return hit/miss/eviction/refresh/size counters (the reuse statistics).

        With a store attached, four more counters appear: ``store_hits`` /
        ``store_misses`` partition the memory ``misses`` into served-from-
        disk vs truly cold, ``spills`` counts systems checkpointed on
        eviction or :meth:`checkpoint`, and ``restore_fallbacks`` counts
        checkpoint files that existed but could not be restored.  (They are
        omitted entirely for store-less caches, whose ``cache_info()`` stays
        byte-compatible with earlier releases.)
        """
        info = {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "refreshes": self._refreshes,
            "refresh_fallbacks": self._refresh_fallbacks,
            "size": len(self._systems),
        }
        if self._store is not None:
            info.update({
                "store_hits": self._store_hits,
                "store_misses": self._store_misses,
                "spills": self._spills,
                "restore_fallbacks": self._restore_fallbacks,
            })
        return info

    def clear(self) -> None:
        """Drop every cached system and reset the counters.

        The store (if any) is left untouched: ``clear`` empties the memory
        tier, it does not delete checkpoints.  Subsequent lookups may
        therefore still restore from disk.
        """
        while self._systems:
            key, _ = self._systems.popitem(last=False)
            self._provenance.pop(key, None)
            self._invalidate(key)
            self._evicted(key)
        self._provenance.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._refreshes = 0
        self._refresh_fallbacks = 0
        self._store_hits = 0
        self._store_misses = 0
        self._spills = 0
        self._restore_fallbacks = 0


#: Default size of a planner's answer-level result cache.
DEFAULT_RESULT_CACHE_SIZE = 1024

#: A result-cache key: ``(SystemKey, finalize identity, rhs fingerprint)``.
ResultKey = Tuple[SystemKey, Hashable, bytes]


class ResultCache:
    """LRU cache of *finalized answers* keyed by ``(SystemKey, rhs fingerprint)``.

    Serving workloads repeat hot queries; a repeated query should not even
    pay the substitution sweep.  The key is the system identity plus a digest
    of the right-hand-side bytes — so two queries whose specs build the same
    RHS against the same factors share one entry (e.g. an RWR from node ``u``
    and a single-seed PPR at ``u``).  Specs with a post-transform or
    normalization extend the key with their name and parameters, since their
    final answer is not a pure function of ``(system, rhs)``.

    Entries are value-isolated: arrays are copied in on store and copied out
    on hit, so callers may mutate their results freely.  Invalidation is
    driven by the factor cache (:meth:`FactorCache.add_invalidation_listener`):
    whenever a key's factors are evicted or replaced, every answer
    derived from them is dropped — a re-factorized system is exact but not
    necessarily bit-identical, and a refreshed one is not even that.
    """

    def __init__(self, max_entries: int = DEFAULT_RESULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise MeasureError(f"max_entries must be positive, got {max_entries}")
        self._entries: "OrderedDict[ResultKey, np.ndarray]" = OrderedDict()
        self._by_system: Dict[SystemKey, Set[ResultKey]] = {}
        self._max_entries = int(max_entries)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: ResultKey) -> Optional[np.ndarray]:
        """Return a copy of the cached answer, counting the hit or miss."""
        answer = self._entries.get(key)
        if answer is None:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return answer.copy()

    def store(self, key: ResultKey, answer: np.ndarray) -> None:
        """Install (a copy of) a freshly computed answer."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = np.array(answer, dtype=float, copy=True)
        self._by_system.setdefault(key[0], set()).add(key)
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._evictions += 1
            siblings = self._by_system.get(evicted[0])
            if siblings is not None:
                siblings.discard(evicted)
                if not siblings:
                    del self._by_system[evicted[0]]

    def invalidate_system(self, system_key: SystemKey) -> None:
        """Drop every answer derived from one system's factors."""
        for key in self._by_system.pop(system_key, ()):  # type: ignore[arg-type]
            if self._entries.pop(key, None) is not None:
                self._invalidations += 1

    def cache_info(self) -> Dict[str, int]:
        """Return hit/miss/eviction/invalidation/size counters."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "size": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every cached answer and reset the counters."""
        self._entries.clear()
        self._by_system.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
