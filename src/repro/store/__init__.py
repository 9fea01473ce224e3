"""Persistent factor store: a disk tier under the in-memory factor cache.

Every :class:`~repro.query.cache.FactorCache` is per-process, so a restart
of the serving stack used to be a cold fleet — the whole economy of the
paper (factorize once, refresh by Bennett deltas, reuse under QC bounds) was
rebuilt from scratch on every boot.  This package adds the missing tier:

* :mod:`repro.store.serialize` — a versioned, checksummed on-disk format for
  :class:`~repro.sparse.csr.SparseMatrix`, orderings and both LU factor
  containers (raw little-endian array blobs behind a small JSON header, no
  pickle for the hot payload), written atomically so a crash mid-checkpoint
  can never leave a torn file that parses.
* :mod:`repro.store.factorstore` — :class:`FactorStore`, the content-keyed
  directory of checkpoints: full snapshots of a
  :class:`~repro.query.spec.FactorizedSystem`, and *delta* checkpoints for
  refresh-produced systems that persist only the Bennett update against the
  stored lineage parent (replayed bit-exactly on restore).

The cache consumes the store through ``FactorCache(store=...)``: LRU
evictions spill to disk instead of dropping, misses consult the store before
the planner cold-factorizes, and ``checkpoint()`` flushes the whole working
set — every restored system answers bitwise-identically to the in-memory one
it checkpointed.
"""

from repro.store.factorstore import FactorStore, RefreshProvenance
from repro.store.serialize import (
    FORMAT_VERSION,
    decode_factorized_system,
    encode_factorized_system,
    read_blob,
    write_blob,
)

__all__ = [
    "FactorStore",
    "RefreshProvenance",
    "FORMAT_VERSION",
    "encode_factorized_system",
    "decode_factorized_system",
    "read_blob",
    "write_blob",
]
