"""Versioned, checksummed blobs for factor-store checkpoints.

One checkpoint is one file::

    MAGIC (4)  |  version (2, LE)  |  digest (16)  |  body
    body  =  header-length (4, LE)  |  JSON header  |  raw array payload

The digest is a 16-byte BLAKE2b over the *body*, so any truncation, bit flip
or partially-written file is detected before a single byte of it is
interpreted; a file that fails any structural check raises
:class:`~repro.errors.StoreFormatError`, which the store treats as a miss —
a corrupt checkpoint is never served.  The JSON header carries small
metadata plus the name/dtype/length of each array; the payload is the
arrays' raw little-endian bytes concatenated in header order.  No pickle is
involved anywhere in the hot payload.

Writes are atomic: the blob is written to a temporary file in the target
directory, fsynced, and :func:`os.replace`-d over the final name — a crash
mid-checkpoint leaves either the old file or no file, never a torn one.

The encoders are **bitwise round-trip exact**: every float64 is stored and
restored by raw bytes (``-0.0`` and subnormals included), and the factor
lists are stored as they are held, growable or sealed, so a decoded
:class:`~repro.query.spec.FactorizedSystem` answers bitwise-identically to
the one that was encoded.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import StoreFormatError
from repro.lu.factors import LUFactors
from repro.query.spec import FactorizedSystem
from repro.sparse.csr import SparseMatrix
from repro.sparse.kernels import SweepStorage
from repro.sparse.permutation import Ordering
from repro.sparse.types import Entries

#: First four bytes of every checkpoint file.
MAGIC = b"RPFS"

#: On-disk format version; bumped on any incompatible layout change.
FORMAT_VERSION = 2

#: Only these dtypes ever appear in a payload (little-endian, fixed width).
_ALLOWED_DTYPES = ("<i8", "<f8")

_PREFIX = struct.Struct("<4sH16s")
_HEADER_LEN = struct.Struct("<I")

#: Digest parameters shared by writer and reader.
_DIGEST_SIZE = 16


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()


# ---------------------------------------------------------------------- #
# Blob I/O
# ---------------------------------------------------------------------- #
def _build_body(
    meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> bytes:
    """Serialize header + payload into the digestable body bytes."""
    descriptors = []
    chunks = []
    for name, array in arrays.items():
        if array.dtype == np.int64:
            dtype = "<i8"
        elif array.dtype == np.float64:
            dtype = "<f8"
        else:
            raise StoreFormatError(
                f"array {name!r} has unsupported dtype {array.dtype}"
            )
        data = np.ascontiguousarray(array.ravel())
        if data.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
            data = data.astype(dtype)
        descriptors.append({"name": name, "dtype": dtype, "length": int(data.size)})
        chunks.append(data.tobytes())
    header = json.dumps(
        {"meta": dict(meta), "arrays": descriptors}, sort_keys=True
    ).encode("utf-8")
    return b"".join([_HEADER_LEN.pack(len(header)), header, *chunks])


def blob_digest(
    meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> str:
    """The body digest (hex) that :func:`write_blob` would record.

    Lets a caller compare an in-memory encoding against an existing file's
    prefix (:func:`read_blob_digest`) without writing or reading a payload.
    """
    return _digest(_build_body(meta, arrays)).hex()


def write_blob(
    path: str, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> str:
    """Atomically write one checkpoint blob; return the body digest (hex).

    ``arrays`` iteration order is the payload order (preserved in the
    header).  The file appears under ``path`` only after its full content is
    durably on disk, via a same-directory temporary file and
    :func:`os.replace`.
    """
    body = _build_body(meta, arrays)
    digest = _digest(body)
    blob = _PREFIX.pack(MAGIC, FORMAT_VERSION, digest) + body

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return digest.hex()


def read_blob(path: str) -> Tuple[Dict[str, object], Dict[str, np.ndarray], str]:
    """Read and verify one checkpoint blob.

    Returns ``(meta, arrays, digest_hex)``.  Every structural problem —
    missing file treated separately by the caller, wrong magic, unknown
    version, checksum mismatch (truncation, bit flips, partial writes),
    malformed header, arrays not covering the payload exactly — raises
    :class:`~repro.errors.StoreFormatError`; nothing from a bad file is ever
    returned.  The returned arrays own their memory (safe to mutate).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _PREFIX.size:
        raise StoreFormatError(f"{path}: file shorter than the blob prefix")
    magic, version, digest = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise StoreFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"{path}: unsupported format version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    body = blob[_PREFIX.size:]
    if _digest(body) != digest:
        raise StoreFormatError(f"{path}: checksum mismatch (torn or corrupt file)")
    if len(body) < _HEADER_LEN.size:
        raise StoreFormatError(f"{path}: body shorter than the header length field")
    (header_len,) = _HEADER_LEN.unpack_from(body)
    header_end = _HEADER_LEN.size + header_len
    if header_end > len(body):
        raise StoreFormatError(f"{path}: header length exceeds the body")
    try:
        header = json.loads(body[_HEADER_LEN.size:header_end].decode("utf-8"))
        meta = dict(header["meta"])
        descriptors = list(header["arrays"])
    except (ValueError, KeyError, TypeError) as error:
        raise StoreFormatError(f"{path}: malformed header ({error})") from None
    arrays: Dict[str, np.ndarray] = {}
    offset = header_end
    for descriptor in descriptors:
        try:
            name = descriptor["name"]
            dtype = descriptor["dtype"]
            length = int(descriptor["length"])
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(
                f"{path}: malformed array descriptor ({error})"
            ) from None
        if dtype not in _ALLOWED_DTYPES or length < 0:
            raise StoreFormatError(
                f"{path}: illegal array descriptor {descriptor!r}"
            )
        nbytes = length * 8
        if offset + nbytes > len(body):
            raise StoreFormatError(f"{path}: array {name!r} exceeds the payload")
        arrays[name] = np.frombuffer(
            body, dtype=dtype, count=length, offset=offset
        ).copy()
        offset += nbytes
    if offset != len(body):
        raise StoreFormatError(f"{path}: trailing bytes after the declared arrays")
    return meta, arrays, digest.hex()


def read_blob_digest(path: str) -> str:
    """Return the body digest recorded in a blob's prefix (hex), cheaply.

    Only the fixed-size prefix is read; the digest is *not* re-verified
    against the body (that happens on the full :func:`read_blob`).  Raises
    :class:`~repro.errors.StoreFormatError` on a short or foreign file.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise StoreFormatError(f"{path}: file shorter than the blob prefix")
    magic, version, digest = _PREFIX.unpack(prefix)
    if magic != MAGIC or version != FORMAT_VERSION:
        raise StoreFormatError(f"{path}: bad magic or version")
    return digest.hex()


# ---------------------------------------------------------------------- #
# Component encoders
# ---------------------------------------------------------------------- #
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StoreFormatError(message)


def encode_matrix(matrix: SparseMatrix, arrays: Dict[str, np.ndarray]) -> None:
    """Append a CSR matrix's three arrays under the ``matrix_`` prefix."""
    arrays["matrix_indptr"] = matrix.indptr
    arrays["matrix_indices"] = matrix.indices
    arrays["matrix_data"] = matrix.data


def decode_matrix(n: int, arrays: Mapping[str, np.ndarray]) -> SparseMatrix:
    """Rebuild a CSR matrix from its stored arrays (exact same buffers)."""
    indptr = arrays["matrix_indptr"]
    indices = arrays["matrix_indices"]
    data = arrays["matrix_data"]
    _require(indptr.size == n + 1, "matrix indptr has the wrong length")
    _require(
        indices.size == data.size and (n == 0 or int(indptr[-1]) == indices.size),
        "matrix index/data arrays disagree",
    )
    return SparseMatrix._from_csr(n, indptr, indices, data)


def encode_entries(
    entries: Entries, arrays: Dict[str, np.ndarray], prefix: str = "delta"
) -> None:
    """Append a sparse entry dict, preserving its iteration order.

    The order matters: Bennett rank-1 sweeps iterate the update vectors in
    dict insertion order, so a bit-exact replay must apply the entries in
    exactly the order they were applied originally.
    """
    count = len(entries)
    rows = np.empty(count, dtype=np.int64)
    cols = np.empty(count, dtype=np.int64)
    vals = np.empty(count, dtype=np.float64)
    for slot, ((i, j), value) in enumerate(entries.items()):
        rows[slot] = i
        cols[slot] = j
        vals[slot] = value
    arrays[f"{prefix}_rows"] = rows
    arrays[f"{prefix}_cols"] = cols
    arrays[f"{prefix}_vals"] = vals


def decode_entries(
    arrays: Mapping[str, np.ndarray], prefix: str = "delta"
) -> Entries:
    """Rebuild a sparse entry dict in its stored (original) order."""
    rows = arrays[f"{prefix}_rows"]
    cols = arrays[f"{prefix}_cols"]
    vals = arrays[f"{prefix}_vals"]
    _require(
        rows.size == cols.size == vals.size, "delta arrays disagree in length"
    )
    return {
        (int(rows[k]), int(cols[k])): float(vals[k]) for k in range(rows.size)
    }


def _encode_ordering(
    ordering: Optional[Ordering], meta: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> None:
    meta["ordering"] = ordering is not None
    if ordering is not None:
        arrays["order_row"] = np.asarray(ordering.row.order, dtype=np.int64)
        arrays["order_col"] = np.asarray(ordering.column.order, dtype=np.int64)


def _decode_ordering(
    meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> Optional[Ordering]:
    if not meta.get("ordering"):
        return None
    return Ordering.from_sequences(
        arrays["order_row"].tolist(), arrays["order_col"].tolist()
    )


def _encode_factors(
    factors: LUFactors, meta: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> None:
    """Store the container's lists verbatim: pivots, then ``L`` and ``U``.

    Each of ``L``'s columns and ``U``'s rows is stored as its length, its
    sorted indices and its values.  For sealed factors the indices are the
    slot pattern and zero-valued slots are part of the state (``-0.0`` is a
    distinct bit pattern); growable lists hold only non-zeros.  Decoding
    adopts the same lists, so the rebuilt container is identical.  The
    lists are read through the sweep plan, which only reads them, so a
    checkpointed factor that stays in memory keeps its plan.
    """
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_plan().storage
    meta["sealed"] = factors.is_sealed
    arrays["pivots"] = np.array(pivots, dtype=np.float64)
    for prefix, indices, values in (("l", l_rows, l_values), ("u", u_cols, u_values)):
        lengths = [len(slice_) for slice_ in indices]
        total = sum(lengths)
        arrays[f"{prefix}_lengths"] = np.array(lengths, dtype=np.int64)
        arrays[f"{prefix}_indices"] = np.fromiter(
            chain.from_iterable(indices), np.int64, total
        )
        arrays[f"{prefix}_values"] = np.fromiter(
            chain.from_iterable(values), np.float64, total
        )


def _decode_lists(
    n: int, arrays: Mapping[str, np.ndarray], prefix: str, sealed: bool
) -> Tuple[List[List[int]], List[List[float]]]:
    """Split one factor's flat arrays back into validated per-slice lists."""
    lengths = arrays[f"{prefix}_lengths"]
    indices = arrays[f"{prefix}_indices"]
    values = arrays[f"{prefix}_values"]
    _require(lengths.size == n, f"{prefix} lengths have the wrong size")
    _require(bool(np.all(lengths >= 0)), f"{prefix} lengths are negative")
    _require(
        indices.size == values.size == int(lengths.sum()),
        f"{prefix} index/value arrays disagree with the lengths",
    )
    _require(
        sealed or not np.any(values == 0.0),
        "growable factors must not store explicit zeros",
    )
    # Slice k owns its entries; every index lies past k (strictly below or
    # right of the diagonal), below n, and ascends within the slice.
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    ascending = np.diff(indices)[owner[1:] == owner[:-1]] > 0
    _require(
        bool(np.all(indices > owner) and np.all(indices < n) and np.all(ascending)),
        f"{prefix} indices are out of range or unsorted",
    )
    bounds = np.cumsum(lengths).tolist()
    flat_indices = indices.tolist()
    flat_values = values.tolist()
    index_lists = [flat_indices[stop - length:stop]
                   for stop, length in zip(bounds, lengths.tolist())]
    value_lists = [flat_values[stop - length:stop]
                   for stop, length in zip(bounds, lengths.tolist())]
    return index_lists, value_lists


def _decode_factors(
    n: int, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> LUFactors:
    sealed = meta.get("sealed")
    _require(isinstance(sealed, bool), "missing factor mode flag")
    pivots = arrays["pivots"]
    _require(pivots.size == n, "pivots have the wrong length")
    l_rows, l_values = _decode_lists(n, arrays, "l", sealed)
    u_cols, u_values = _decode_lists(n, arrays, "u", sealed)
    storage = SweepStorage(pivots.tolist(), l_rows, l_values, u_cols, u_values)
    return LUFactors.from_storage(storage, sealed)


# ---------------------------------------------------------------------- #
# FactorizedSystem checkpoints
# ---------------------------------------------------------------------- #
def encode_factorized_system(
    system: FactorizedSystem,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode a full system checkpoint: matrix + ordering + factor container.

    Raises :class:`~repro.errors.StoreFormatError` for factor containers the
    format does not cover (anything other than the library's dynamic and
    static containers) — the caller then simply skips the spill.
    """
    meta: Dict[str, object] = {"type": "system", "n": system.matrix.n}
    arrays: Dict[str, np.ndarray] = {}
    encode_matrix(system.matrix, arrays)
    _encode_ordering(system.ordering, meta, arrays)
    factors = system.factors
    if not isinstance(factors, LUFactors):
        raise StoreFormatError(
            f"unsupported factor container {type(factors).__name__}"
        )
    _encode_factors(factors, meta, arrays)
    return meta, arrays


def decode_factorized_system(
    meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> FactorizedSystem:
    """Decode a full system checkpoint back into a :class:`FactorizedSystem`."""
    _require(meta.get("type") == "system", "not a system checkpoint")
    n = int(meta["n"])
    _require(n >= 0, "negative dimension")
    matrix = decode_matrix(n, arrays)
    ordering = _decode_ordering(meta, arrays)
    factors = _decode_factors(n, meta, arrays)
    return FactorizedSystem(matrix, ordering, factors)
