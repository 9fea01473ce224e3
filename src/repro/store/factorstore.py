"""`FactorStore`: a content-keyed directory of factor checkpoints.

Each :class:`~repro.query.spec.SystemKey` maps to a stable 32-hex-digit
digest computed from the key's *content* (snapshot edge set, kind, damping
bytes, matrix params) — never from Python's randomized ``hash()`` — so the
same system resolves to the same file across processes and restarts.  A key
owns at most one file:

``<digest>.factors``
    A full checkpoint of the :class:`~repro.query.spec.FactorizedSystem`
    (matrix + ordering + factor container), bitwise round-trip exact.

``<digest>.delta``
    A delta checkpoint for a refresh-produced system: the child's system
    matrix plus the exact Bennett entry delta that produced its factors, in
    sorted-key order (the one order every refresh applies), referencing the
    lineage parent's checkpoint by key digest *and* payload digest.  The
    parent may itself be a delta checkpoint — an evolving chain persists as
    one full checkpoint at the root plus one small delta per generation.
    Restore recursively restores the parent (depth-capped), verifies the
    payload digest (the delta was recorded against those exact bits; a
    restored parent re-encodes deterministically, so the digest is
    comparable at any chain depth), clones, and replays
    :func:`~repro.lu.bennett.bennett_update` with its default tolerances —
    reproducing the in-memory child bit for bit.  The factor payload
    (which carries the fill-in) is what dominates a full checkpoint, so a
    delta file is far smaller.

Every restore failure — missing file, torn/corrupt blob
(:class:`~repro.errors.StoreFormatError`), parent payload mismatch, pattern
violation or pivot breakdown during replay — degrades to ``None``: the
caller treats it as a store miss and cold-factorizes, as it does when a
Bennett refresh breaks down.  A bad checkpoint is never served.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from typing import Dict, Optional, Tuple

from repro.errors import PatternError, SingularMatrixError, StoreError, StoreFormatError
from repro.lu.bennett import bennett_update
from repro.query.spec import FactorizedSystem, SystemKey
from repro.sparse.types import Entries
from repro.store.serialize import (
    blob_digest,
    decode_entries,
    decode_factorized_system,
    decode_matrix,
    encode_entries,
    encode_factorized_system,
    encode_matrix,
    read_blob,
    read_blob_digest,
    write_blob,
)


@dataclasses.dataclass(frozen=True)
class RefreshProvenance:
    """How a refresh-produced system's factors came to be.

    Recorded by :meth:`~repro.query.cache.FactorCache.commit_refresh`,
    consumed at spill time to write a delta checkpoint instead of a
    full one.

    Attributes
    ----------
    parent_key:
        The cache key of the lineage parent whose factors were cloned.
    parent_system:
        A strong reference to the parent system *as it was at refresh time*
        — the cache may later evict or replace the key, but the delta is
        only replayable against these exact bits, so they are pinned until
        the child's provenance is dropped (bounding the extra memory to one
        parent generation per refreshed key).
    delta:
        The mapped (reordered) entry delta in sorted-key order, the order
        :meth:`~repro.query.cache.FactorCache.prepare_refresh` fixes and the
        sweeps applied, so a replay applies exactly what the refresh did.
    """

    parent_key: SystemKey
    parent_system: FactorizedSystem
    delta: Entries


def system_key_digest(key: SystemKey) -> str:
    """A stable 32-hex-digit content digest of a :class:`SystemKey`.

    Delegates to :meth:`SystemKey.digest` (the recipe moved there so the
    shard router shares it); the bytes are unchanged, so checkpoints
    written by earlier versions keep their file names.
    """
    return key.digest()


class FactorStore:
    """A directory of checkpointed factorized systems, keyed by content digest.

    Thread-compatibility matches the cache that owns it: calls are expected
    to come from one thread at a time (the planner / serving thread).  Files
    themselves are crash-safe — atomically replaced, checksummed on read.

    Parameters
    ----------
    root:
        Directory for the checkpoint files; created if missing.
    """

    _FULL_SUFFIX = ".factors"
    _DELTA_SUFFIX = ".delta"
    #: Longest delta chain a restore will replay before giving up (a cycle
    #: or absurdly deep lineage in a corrupt store must not recurse forever).
    _MAX_DELTA_DEPTH = 64

    #: Restored chain links kept for reuse by later restores, so walking an
    #: evolving chain key-by-key replays each link once instead of replaying
    #: every prefix (O(chain) instead of O(chain^2)).  Entries are validated
    #: against the backing file's blob digest on every hit, so an
    #: overwritten checkpoint can never serve a stale memo entry.
    _MEMO_CAPACITY = 16

    def __init__(self, root: str) -> None:
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        self._saved_full = 0
        self._saved_delta = 0
        self._restored_full = 0
        self._restored_delta = 0
        self._restore_failures = 0
        self._memo: "collections.OrderedDict[str, Tuple[str, FactorizedSystem, str]]" = (
            collections.OrderedDict()
        )

    @property
    def root(self) -> str:
        """The store's directory."""
        return self._root

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _path(self, digest: str, suffix: str) -> str:
        return os.path.join(self._root, digest + suffix)

    def path_for(self, key: SystemKey) -> Optional[str]:
        """The file currently backing ``key``, or ``None`` (full file wins)."""
        digest = system_key_digest(key)
        for suffix in (self._FULL_SUFFIX, self._DELTA_SUFFIX):
            path = self._path(digest, suffix)
            if os.path.exists(path):
                return path
        return None

    def file_bytes(self, key: SystemKey) -> int:
        """On-disk size of the key's checkpoint (0 when absent)."""
        path = self.path_for(key)
        return os.path.getsize(path) if path is not None else 0

    def __contains__(self, key: SystemKey) -> bool:
        return self.path_for(key) is not None

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self._root)
            if name.endswith((self._FULL_SUFFIX, self._DELTA_SUFFIX))
        )

    # ------------------------------------------------------------------ #
    # Saving
    # ------------------------------------------------------------------ #
    def save_full(self, key: SystemKey, system: FactorizedSystem) -> None:
        """Write (or overwrite) a full checkpoint for ``key``.

        Raises :class:`~repro.errors.StoreError` for factor containers the
        format does not cover.  Any stale delta checkpoint for the key is
        removed — at most one file answers for a key.
        """
        digest = system_key_digest(key)
        meta, arrays = encode_factorized_system(system)
        meta["key"] = digest
        write_blob(self._path(digest, self._FULL_SUFFIX), meta, arrays)
        self._remove(self._path(digest, self._DELTA_SUFFIX))
        self._saved_full += 1

    def save_delta(
        self, key: SystemKey, system: FactorizedSystem, provenance: RefreshProvenance
    ) -> None:
        """Write a delta checkpoint for a refresh-produced system.

        Ensures a checkpoint of the lineage parent is on disk for the bits
        the delta was recorded against: the pinned parent system is encoded
        and its payload digest recorded in the child.  When the parent has a
        full checkpoint whose digest differs (an older or newer
        factorization generation) — or no checkpoint at all — the pinned
        parent bits are (re)written as a full checkpoint.  When the parent
        is itself a delta checkpoint it is left in place, extending the
        chain; its generation is verified at restore time against the
        recorded payload digest (a restored system re-encodes
        deterministically), so a stale chain link degrades the restore to a
        counted miss rather than ever replaying against wrong bits.  The
        child's own file stores its full system matrix (CSR) plus the
        ordered entry delta; only the factor payload — the expensive part —
        is delta-compressed away.
        """
        digest = system_key_digest(key)
        parent_digest = system_key_digest(provenance.parent_key)
        parent_meta, parent_arrays = encode_factorized_system(
            provenance.parent_system
        )
        parent_meta["key"] = parent_digest
        expected = blob_digest(parent_meta, parent_arrays)
        parent_path = self._path(parent_digest, self._FULL_SUFFIX)
        on_disk: Optional[str]
        try:
            on_disk = read_blob_digest(parent_path)
        except (OSError, StoreFormatError):
            on_disk = None
        if on_disk != expected and not os.path.exists(
            self._path(parent_digest, self._DELTA_SUFFIX)
        ):
            write_blob(parent_path, parent_meta, parent_arrays)
        # The child's own payload digest (the digest a full checkpoint of it
        # would carry) is recorded so that a grandchild delta can verify
        # this link's generation from the checksummed header alone, without
        # re-encoding the replayed system.
        child_meta, child_arrays = encode_factorized_system(system)
        child_meta["key"] = digest
        meta: Dict[str, object] = {
            "type": "delta",
            "n": system.matrix.n,
            "key": digest,
            "parent_key": parent_digest,
            "parent_payload": expected,
            "payload": blob_digest(child_meta, child_arrays),
        }
        arrays: Dict[str, object] = {}
        encode_matrix(system.matrix, arrays)
        encode_entries(provenance.delta, arrays)
        write_blob(self._path(digest, self._DELTA_SUFFIX), meta, arrays)
        self._remove(self._path(digest, self._FULL_SUFFIX))
        self._saved_delta += 1

    def save(
        self,
        key: SystemKey,
        system: FactorizedSystem,
        provenance: Optional[RefreshProvenance] = None,
    ) -> None:
        """Checkpoint ``key``: delta form when provenance is known, else full.

        A delta save that fails for representational reasons (e.g. the
        parent's factor container is not serializable) degrades to a full
        checkpoint of the child before propagating any error.
        """
        if provenance is not None:
            try:
                self.save_delta(key, system, provenance)
                return
            except StoreError:
                pass
        self.save_full(key, system)

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load(self, key: SystemKey) -> Optional[FactorizedSystem]:
        """Restore ``key``'s system, or ``None`` when absent or unrestorable.

        A full checkpoint decodes directly.  A delta checkpoint restores
        its parent recursively (the parent may itself be a delta — one
        replay per chain link, depth-capped), verifies the parent payload
        digest recorded at save time, clones the parent and replays the
        stored entry delta through :func:`~repro.lu.bennett.bennett_update`
        with its default tolerances — the same code path (and therefore the
        same bits) as the original refresh.  *Every* failure mode — corrupt
        or truncated file, missing/mismatched chain link, pattern
        violation, pivot breakdown, over-deep or cyclic chain — returns
        ``None`` (counted in ``restore_failures``) so the caller falls back
        to a cold factorization.  Intermediate chain links count in
        ``restored_full``/``restored_delta`` as they replay.
        """
        digest = system_key_digest(key)
        if not (
            os.path.exists(self._path(digest, self._FULL_SUFFIX))
            or os.path.exists(self._path(digest, self._DELTA_SUFFIX))
        ):
            return None
        try:
            system, _ = self._restore(digest, depth=0)
        except (
            OSError,
            StoreError,
            PatternError,
            SingularMatrixError,
            KeyError,
            ValueError,
            TypeError,
        ):
            self._restore_failures += 1
            return None
        return system

    def _restore(self, digest: str, depth: int) -> Tuple[FactorizedSystem, str]:
        """Restore one chain link, raising on any failure.

        Returns the system plus the payload digest of its full encoding,
        used by the child one level up to verify this link is the
        generation its delta was recorded against.  A full file yields that
        digest for free (it *is* the blob digest); a delta file carries the
        digest its save recorded (``meta["payload"]``), trustworthy because
        the header is checksummed and replay is bitwise.  Restored links
        land in a digest-validated LRU memo so a later restore one
        generation down replays only its own delta.
        """
        full_path = self._path(digest, self._FULL_SUFFIX)
        if os.path.exists(full_path):
            file_digest = read_blob_digest(full_path)
            memoized = self._memo.get(digest)
            if memoized is not None and memoized[0] == file_digest:
                self._memo.move_to_end(digest)
                return memoized[1], memoized[2]
            meta, arrays, payload = read_blob(full_path)
            system = decode_factorized_system(meta, arrays)
            self._restored_full += 1
            self._memoize(digest, file_digest, system, payload)
            return system, payload
        if depth >= self._MAX_DELTA_DEPTH:
            raise StoreFormatError(
                f"{digest}: delta chain exceeds {self._MAX_DELTA_DEPTH} links"
            )
        delta_path = self._path(digest, self._DELTA_SUFFIX)
        file_digest = read_blob_digest(delta_path)
        memoized = self._memo.get(digest)
        if memoized is not None and memoized[0] == file_digest:
            self._memo.move_to_end(digest)
            return memoized[1], memoized[2]
        meta, arrays, _ = read_blob(delta_path)
        if meta.get("type") != "delta":
            raise StoreFormatError(f"{delta_path}: not a delta checkpoint")
        parent_digest = str(meta["parent_key"])
        if parent_digest == digest:
            raise StoreFormatError(f"{delta_path}: delta names itself as parent")
        parent, parent_payload = self._restore(parent_digest, depth + 1)
        if parent_payload != meta["parent_payload"]:
            raise StoreFormatError(
                f"{delta_path}: parent payload digest mismatch "
                "(different factorization generation)"
            )
        working = parent.clone()
        delta = decode_entries(arrays)
        bennett_update(working.factors, delta)
        matrix = decode_matrix(int(meta["n"]), arrays)
        system = FactorizedSystem(matrix, parent.ordering, working.factors)
        self._restored_delta += 1
        payload = meta.get("payload")
        if not isinstance(payload, str):
            # Older delta files did not record their payload digest; derive
            # it from the replayed bits (deterministic encoding).
            child_meta, child_arrays = encode_factorized_system(system)
            child_meta["key"] = digest
            payload = blob_digest(child_meta, child_arrays)
        self._memoize(digest, file_digest, system, payload)
        return system, payload

    def _memoize(
        self, digest: str, file_digest: str, system: FactorizedSystem, payload: str
    ) -> None:
        self._memo[digest] = (file_digest, system, payload)
        self._memo.move_to_end(digest)
        while len(self._memo) > self._MEMO_CAPACITY:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def discard(self, key: SystemKey) -> None:
        """Remove any checkpoint files for ``key`` (missing files are fine)."""
        digest = system_key_digest(key)
        self._remove(self._path(digest, self._FULL_SUFFIX))
        self._remove(self._path(digest, self._DELTA_SUFFIX))

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        """Lifetime save/restore counters plus the current file count."""
        return {
            "saved_full": self._saved_full,
            "saved_delta": self._saved_delta,
            "restored_full": self._restored_full,
            "restored_delta": self._restored_delta,
            "restore_failures": self._restore_failures,
            "files": len(self),
        }
