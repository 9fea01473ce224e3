"""Shared-memory arena for immutable graph snapshots.

The parent process *puts* snapshots into named
``multiprocessing.shared_memory`` segments and ships only the small
picklable handles across process boundaries; workers *attach* to the
named segment and rebuild the snapshot.  The contract:

- **Ownership.**  Only the arena (parent side) ever ``unlink``s a
  segment.  Workers attach and close; a killed worker therefore leaks
  nothing — the kernel reclaims its mapping and the parent's
  ``close()`` unlinks the name.
- **Refcounts.**  ``put_snapshot`` increments, ``release`` decrements, the
  segment is unlinked when the count reaches zero.  ``close()`` unlinks
  everything still live and is idempotent (double-close is a no-op).
- **Determinism.**  Snapshot segments store the *sorted* edge list, so
  the bytes shipped are a pure function of graph content, never of
  Python set iteration order.  Matrix composition downstream is
  edge-order independent, so reconstructed snapshots produce bitwise
  identical system matrices.
- **Crash safety net.**  Segments created here are registered with the
  CPython ``resource_tracker``, so even if the parent dies without
  calling ``close()`` the tracker unlinks them at interpreter shutdown.
  Attach-side handles stay registered too: spawned workers share the
  parent's tracker, where the second registration is a no-op, and
  unregistering would drop the owner's entry (see ``_attach_segment``).
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing import shared_memory
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.graphs.snapshot import GraphSnapshot

_INT = np.int64


@dataclasses.dataclass(frozen=True)
class SnapshotHandle:
    """Picklable pointer to a snapshot's edge list in shared memory."""

    segment: str
    n: int
    directed: bool
    edge_count: int


class SharedMemoryArena:
    """Parent-side owner of shared-memory segments.

    Snapshots are deduplicated by content (``GraphSnapshot`` equality is
    content-based), so putting the same graph twice returns the same
    handle with a bumped refcount.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refcounts: Dict[str, int] = {}
        self._snapshot_handles: Dict[GraphSnapshot, SnapshotHandle] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producing
    # ------------------------------------------------------------------ #
    def put_snapshot(self, snapshot: GraphSnapshot) -> SnapshotHandle:
        """Place ``snapshot``'s sorted edge list in shared memory."""
        self._check_open()
        if not isinstance(snapshot, GraphSnapshot):
            raise TypeError(f"expected GraphSnapshot, got {type(snapshot).__name__}")
        handle = self._snapshot_handles.get(snapshot)
        if handle is not None:
            self._refcounts[handle.segment] += 1
            return handle
        edges = np.array(sorted(snapshot.edges), dtype=_INT).reshape(-1, 2)
        shm = shared_memory.SharedMemory(create=True, size=max(1, edges.nbytes))
        if edges.size:
            self._copy_into(shm, edges.reshape(-1))
        handle = SnapshotHandle(
            segment=shm.name,
            n=snapshot.n,
            directed=snapshot.directed,
            edge_count=edges.shape[0],
        )
        self._segments[shm.name] = shm
        self._refcounts[shm.name] = 1
        self._snapshot_handles[snapshot] = handle
        return handle

    @staticmethod
    def _copy_into(shm: shared_memory.SharedMemory, array: np.ndarray) -> None:
        # The temporary view exports a pointer into the segment buffer;
        # it must be dropped before close() or close() raises BufferError.
        view = np.frombuffer(shm.buf, dtype=array.dtype, count=array.size)
        view[:] = array
        del view

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def refcount(self, handle) -> int:
        """Live reference count of ``handle``'s segment (0 once unlinked)."""
        return self._refcounts.get(handle.segment, 0)

    def segment_names(self) -> Tuple[str, ...]:
        """Names of all live segments (for leak assertions in tests)."""
        return tuple(self._segments)

    def release(self, handle) -> None:
        """Drop one reference; unlink the segment at refcount zero."""
        name = handle.segment
        count = self._refcounts.get(name)
        if count is None:
            return
        if count > 1:
            self._refcounts[name] = count - 1
            return
        self._unlink(name)

    def _unlink(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        self._refcounts.pop(name, None)
        for snapshot, handle in list(self._snapshot_handles.items()):
            if handle.segment == name:
                del self._snapshot_handles[snapshot]
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Unlink every live segment.  Idempotent."""
        if self._closed:
            return
        for name in list(self._segments):
            self._unlink(name)
        self._snapshot_handles.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("arena is closed")

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[str]:
        return iter(self._segments)


# ---------------------------------------------------------------------- #
# Attaching (worker side)
# ---------------------------------------------------------------------- #
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # CPython (< 3.13) registers shared memory with the resource tracker on
    # attach as well as on create.  Spawned workers inherit the *parent's*
    # tracker, whose cache is a set — the attach-side registration is a
    # dedup no-op there, and the owner's unlink balances it.  Do NOT
    # unregister here: that would delete the owner's registration and drop
    # the crash safety net.
    return shared_memory.SharedMemory(name=name)


def attach_snapshot(
    handle: SnapshotHandle,
) -> Tuple[GraphSnapshot, shared_memory.SharedMemory]:
    """Rebuild the snapshot from its shared segment.

    Returns the snapshot plus the attached segment; the caller owns
    closing the segment (the snapshot itself copies the edges into
    Python objects, so it outlives the mapping).
    """
    shm = _attach_segment(handle.segment)
    if handle.edge_count:
        edges_view = np.frombuffer(
            shm.buf, dtype=_INT, count=handle.edge_count * 2
        ).reshape(handle.edge_count, 2)
        edges = [(int(u), int(v)) for u, v in edges_view.tolist()]
        del edges_view
    else:
        edges = []
    snapshot = GraphSnapshot(handle.n, edges, directed=handle.directed)
    return snapshot, shm


def leaked_segments(names) -> Tuple[str, ...]:
    """Which of ``names`` still exist system-wide?

    Probes ``/dev/shm`` directly (POSIX shared memory is file-backed
    there) so the check itself never touches the resource tracker's
    registrations.
    """
    leaked = []
    for name in names:
        if os.path.exists(os.path.join("/dev/shm", name.lstrip("/"))):
            leaked.append(name)
    return tuple(leaked)
