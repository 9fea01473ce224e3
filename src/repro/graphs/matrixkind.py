"""Composing measure matrices from graph snapshots.

Every measure in the paper reduces to solving ``A x = b`` where ``A`` depends
only on the graph structure and the chosen measure (Section 1).  This module
holds the matrix "kinds" the library supports:

* :data:`MatrixKind.RANDOM_WALK` — ``A = I - d W`` with ``W`` the
  column-normalized adjacency matrix (footnote 1 of the paper).  Used by
  PageRank, Personalized PageRank, Random Walk with Restart and Discounted
  Hitting Time.
* :data:`MatrixKind.SYMMETRIC_WALK` — ``A = I - d S`` with
  ``S[i, j] = 1 / sqrt(deg(i) deg(j))`` for undirected edges.  ``A`` is
  symmetric and strictly diagonally dominant, which is what the LUDEM-QC
  experiments (DBLP co-authorship) require.
* :data:`MatrixKind.LAPLACIAN` — ``A = I + L`` where ``L`` is the combinatorial
  Laplacian; an alternative symmetric form exposed for completeness.
* :data:`MatrixKind.SALSA_AUTHORITY` / :data:`MatrixKind.SALSA_HUB` —
  ``A = I - d (F B)`` respectively ``A = I - d (B F)`` where ``F`` is the
  column-normalized forward walk and ``B`` the column-normalized backward
  walk; the damped SALSA alternating-walk systems.

Query-parameterized systems that do not fit the ``(snapshot, kind, damping)``
signature (the discounted-hitting-time matrix, whose target row is masked)
are exposed as standalone builders (:func:`hitting_time_matrix`).

The module also holds the *system-delta* layer (:func:`system_delta`): given
two same-``n`` snapshots and the :class:`~repro.graphs.delta.GraphDelta`
between them, compute the sparse entry delta of the system matrix
``A = I - d M`` directly — without composing either full matrix — so cached
LU factors can be Bennett-refreshed instead of re-factorized.  Degree
renormalization means a changed node does not just edit the changed
positions: the node's whole normalized column (or incident entries, for the
symmetric kinds) is replaced, which is why the builders work from
:func:`~repro.graphs.delta.touched_sources` / touched nodes rather than the
raw edge delta.

Delta computation dispatches through a closed per-kind table: each
:class:`MatrixKind` maps to one provider computing its localized system
delta, and :func:`system_delta` is a thin validated dispatcher.  The table
is fixed because the refresh path and refresh provenance rely on every
delta being exactly the matrix difference.  The SALSA kinds use a
*localized two-hop* provider: the composed product ``F B`` (or ``B F``)
only changes in columns reachable from the touched nodes, so the provider
recomputes exactly those columns through the same spgemm kernel — bitwise
identical to diffing the two fully-composed matrices, at a cost that
scales with the graph change rather than the graph.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import DimensionError, MeasureError
from repro.graphs.delta import GraphDelta, touched_sources
from repro.graphs.snapshot import GraphSnapshot
from repro.sparse.csr import SparseMatrix
from repro.sparse.types import Entries

#: Default damping factor used across measures (the PageRank convention).
DEFAULT_DAMPING = 0.85


class MatrixKind(enum.Enum):
    """Supported ways to turn a graph snapshot into a measure matrix."""

    RANDOM_WALK = "random_walk"
    SYMMETRIC_WALK = "symmetric_walk"
    LAPLACIAN = "laplacian"
    SALSA_AUTHORITY = "salsa_authority"
    SALSA_HUB = "salsa_hub"


def column_normalized_matrix(snapshot: GraphSnapshot) -> SparseMatrix:
    """Return ``W`` with ``W[j, i] = 1 / out_degree(i)`` for every edge ``(i, j)``."""
    out_degrees = snapshot.out_degrees()
    return SparseMatrix.from_triples(
        snapshot.n,
        ((v, u, 1.0 / out_degrees[u]) for u, v in snapshot.edges),
    )


def backward_normalized_matrix(snapshot: GraphSnapshot) -> SparseMatrix:
    """Return the column-normalized *backward* walk matrix.

    Entry ``(u, v)`` is ``1 / in_degree(v)`` for every edge ``(u, v)``: column
    ``v`` spreads unit mass over the predecessors of ``v``, i.e. one step of
    following a link backwards.  Together with
    :func:`column_normalized_matrix` (the forward step) it forms the SALSA
    alternating walk.
    """
    in_degrees = snapshot.in_degrees()
    return SparseMatrix.from_triples(
        snapshot.n,
        ((u, v, 1.0 / in_degrees[v]) for u, v in snapshot.edges),
    )


def salsa_walk_matrix(snapshot: GraphSnapshot, kind: MatrixKind) -> SparseMatrix:
    """Return the combined SALSA transition matrix for one score side.

    The authority chain follows a link backward then forward
    (``forward @ backward`` in column-normalized convention); the hub chain
    is the reverse composition.  The product runs on the CSR spgemm kernel.
    """
    forward = column_normalized_matrix(snapshot)
    backward = backward_normalized_matrix(snapshot)
    if kind is MatrixKind.SALSA_AUTHORITY:
        return forward.multiply(backward)
    if kind is MatrixKind.SALSA_HUB:
        return backward.multiply(forward)
    raise MeasureError(f"not a SALSA matrix kind: {kind!r}")


def row_stochastic_matrix(snapshot: GraphSnapshot) -> SparseMatrix:
    """Return the row-stochastic transition matrix ``P`` of the snapshot."""
    out_degrees = snapshot.out_degrees()
    edges = sorted(snapshot.edges)
    if not edges:
        return SparseMatrix.zeros(snapshot.n)
    sources = np.array([u for u, _ in edges], dtype=np.int64)
    targets = np.array([v for _, v in edges], dtype=np.int64)
    weights = 1.0 / np.array([out_degrees[u] for u in sources.tolist()], dtype=np.float64)
    return SparseMatrix.from_coo(snapshot.n, sources, targets, weights)


def hitting_time_matrix(
    snapshot: GraphSnapshot, target: int, damping: float = DEFAULT_DAMPING
) -> SparseMatrix:
    """Compose the discounted-hitting-time system matrix for one target.

    The target row of the row-stochastic transition matrix is masked to the
    identity (its equation is simply ``h(target) = 1``), every other row
    carries ``-d P``, and the identity is added — all on the COO arrays,
    with duplicate positions summed.
    """
    if not 0.0 < damping < 1.0:
        raise MeasureError(f"damping factor must lie in (0, 1), got {damping}")
    n = snapshot.n
    if not 0 <= target < n:
        raise MeasureError(f"target node {target} out of bounds for n={n}")
    transition = row_stochastic_matrix(snapshot)
    rows, cols, vals = transition.coo()
    keep = rows != target
    return SparseMatrix.from_coo(
        n,
        np.concatenate([rows[keep], np.arange(n, dtype=np.int64)]),
        np.concatenate([cols[keep], np.arange(n, dtype=np.int64)]),
        np.concatenate([-damping * vals[keep], np.ones(n, dtype=np.float64)]),
    )


def symmetric_normalized_matrix(snapshot: GraphSnapshot) -> SparseMatrix:
    """Return ``S`` with ``S[i, j] = 1 / sqrt(deg(i) deg(j))`` over symmetrized edges."""
    degrees: Dict[int, int] = {}
    undirected = set()
    for u, v in snapshot.edges:
        undirected.add((min(u, v), max(u, v)))
    for u, v in undirected:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1

    def triples():
        for u, v in undirected:
            weight = 1.0 / math.sqrt(degrees[u] * degrees[v])
            yield u, v, weight
            yield v, u, weight

    return SparseMatrix.from_triples(snapshot.n, triples())


def laplacian_matrix(snapshot: GraphSnapshot) -> SparseMatrix:
    """Return the combinatorial Laplacian ``L = D - A`` of the symmetrized graph."""
    undirected = set()
    for u, v in snapshot.edges:
        undirected.add((min(u, v), max(u, v)))
    degrees: Dict[int, int] = {}
    for u, v in undirected:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1

    def triples():
        for node, degree in degrees.items():
            yield node, node, float(degree)
        for u, v in undirected:
            yield u, v, -1.0
            yield v, u, -1.0

    return SparseMatrix.from_triples(snapshot.n, triples())


def validate_damping(kind: MatrixKind, damping: float) -> None:
    """Check ``damping`` against the *kind's* admissible domain.

    The walk-based kinds compose ``A = I - d·M`` and need ``0 < d < 1``
    for strict diagonal dominance.  ``LAPLACIAN`` composes ``A = I + L``,
    where the damping factor does not enter the matrix at all — its
    conventional value is ``0.0`` (the undamped system,
    ``reuse_loss_bound``'s documented ``‖A⁻¹‖₁ = 1`` case), so the domain
    is ``0 <= d < 1``.  One shared gate keeps every validation site —
    matrix composition, system deltas, :class:`~repro.query.spec.Query`
    construction, server admission — agreeing on these domains.
    """
    if kind is MatrixKind.LAPLACIAN:
        if not 0.0 <= damping < 1.0:
            raise MeasureError(
                f"damping factor for {kind.name} must lie in [0, 1), got {damping}"
            )
    elif not 0.0 < damping < 1.0:
        raise MeasureError(
            f"damping factor must lie in (0, 1), got {damping}"
        )


def measure_matrix(
    snapshot: GraphSnapshot,
    kind: MatrixKind = MatrixKind.RANDOM_WALK,
    damping: float = DEFAULT_DAMPING,
) -> SparseMatrix:
    """Compose the measure matrix ``A`` for a snapshot.

    Parameters
    ----------
    snapshot:
        The graph snapshot.
    kind:
        Which matrix composition to use.
    damping:
        Damping factor ``d`` for the random-walk kinds; must satisfy
        ``0 < d < 1`` so that ``A`` is strictly diagonally dominant
        (``0 <= d < 1`` for ``LAPLACIAN``, which ignores it).
    """
    validate_damping(kind, damping)
    identity = SparseMatrix.identity(snapshot.n)
    if kind is MatrixKind.RANDOM_WALK:
        walk = column_normalized_matrix(snapshot)
        return identity.subtract(walk.scale(damping))
    if kind is MatrixKind.SYMMETRIC_WALK:
        walk = symmetric_normalized_matrix(snapshot)
        return identity.subtract(walk.scale(damping))
    if kind in (MatrixKind.SALSA_AUTHORITY, MatrixKind.SALSA_HUB):
        walk = salsa_walk_matrix(snapshot, kind)
        return identity.subtract(walk.scale(damping))
    if kind is MatrixKind.LAPLACIAN:
        return identity.add(laplacian_matrix(snapshot))
    raise MeasureError(f"unsupported matrix kind: {kind!r}")


# ---------------------------------------------------------------------- #
# System deltas: the entry change of A = I - d·M induced by a graph delta
# ---------------------------------------------------------------------- #
def _random_walk_system_delta(
    before: GraphSnapshot, after: GraphSnapshot, damping: float, delta: GraphDelta
) -> Entries:
    """Delta of ``I - d W`` (column-normalized): touched columns are replaced.

    ``W[v, u] = 1 / out_degree(u)``, so any change to ``u``'s out-edge set
    rescales *every* stored entry of column ``u`` — the whole column is
    diffed, not just the changed positions.
    """
    sources = set(touched_sources(delta))
    if not sources:
        return {}
    old_succ: Dict[int, Set[int]] = {u: set() for u in sources}
    new_succ: Dict[int, Set[int]] = {u: set() for u in sources}
    for u, v in before.edges:
        if u in sources:
            old_succ[u].add(v)
    for u, v in after.edges:
        if u in sources:
            new_succ[u].add(v)
    entries: Entries = {}
    for u in sources:
        old = old_succ[u]
        new = new_succ[u]
        # Same float expressions as column_normalized_matrix + scale/subtract,
        # so the localized delta matches a full-matrix diff bitwise.
        old_value = -((1.0 / len(old)) * damping) if old else 0.0
        new_value = -((1.0 / len(new)) * damping) if new else 0.0
        for v in old | new:
            change = (new_value if v in new else 0.0) - (old_value if v in old else 0.0)
            if change != 0.0:
                entries[(v, u)] = change
    return entries


def _undirected_edges(snapshot: GraphSnapshot) -> Set[Tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in snapshot.edges}


def _undirected_degrees(undirected: Set[Tuple[int, int]]) -> Dict[int, int]:
    degrees: Dict[int, int] = {}
    for u, v in undirected:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees


def _symmetric_walk_system_delta(
    before: GraphSnapshot, after: GraphSnapshot, damping: float, delta: GraphDelta
) -> Entries:
    """Delta of ``I - d S``: entries incident to degree-touched nodes are rediffed."""
    und_old = _undirected_edges(before)
    und_new = _undirected_edges(after)
    touched = {node for edge in und_old ^ und_new for node in edge}
    if not touched:
        return {}
    deg_old = _undirected_degrees(und_old)
    deg_new = _undirected_degrees(und_new)
    entries: Entries = {}
    for u, v in und_old | und_new:
        if u not in touched and v not in touched:
            continue
        old_value = (
            -((1.0 / math.sqrt(deg_old[u] * deg_old[v])) * damping)
            if (u, v) in und_old else 0.0
        )
        new_value = (
            -((1.0 / math.sqrt(deg_new[u] * deg_new[v])) * damping)
            if (u, v) in und_new else 0.0
        )
        change = new_value - old_value
        if change != 0.0:
            entries[(u, v)] = change
            entries[(v, u)] = change
    return entries


def _laplacian_system_delta(
    before: GraphSnapshot, after: GraphSnapshot, damping: float, delta: GraphDelta
) -> Entries:
    """Delta of ``I + L``: degree diagonal of touched nodes plus ∓1 off-diagonals.

    ``damping`` is accepted for provider-signature uniformity and ignored —
    the Laplacian composition has no damping term.
    """
    und_old = _undirected_edges(before)
    und_new = _undirected_edges(after)
    changed = und_old ^ und_new
    if not changed:
        return {}
    deg_old = _undirected_degrees(und_old)
    deg_new = _undirected_degrees(und_new)
    entries: Entries = {}
    for node in {endpoint for edge in changed for endpoint in edge}:
        change = (1.0 + float(deg_new.get(node, 0))) - (1.0 + float(deg_old.get(node, 0)))
        if change != 0.0:
            entries[(node, node)] = change
    for u, v in changed:
        change = -1.0 if (u, v) in und_new else 1.0
        entries[(u, v)] = change
        entries[(v, u)] = change
    return entries


def _salsa_system_delta(
    before: GraphSnapshot,
    after: GraphSnapshot,
    damping: float,
    delta: GraphDelta,
    kind: MatrixKind,
) -> Entries:
    """Localized delta of the two-hop SALSA system ``A = I - d (F B)`` / ``I - d (B F)``.

    A changed edge ``(u, v)`` rescales column ``u`` of the forward walk ``F``
    (``u``'s out-degree changed) and column ``v`` of the backward walk ``B``
    (``v``'s in-degree changed).  A column ``j`` of the *product* can only
    change when one of its inputs changed: for the authority chain
    ``P = F B``, column ``j`` reads ``B[:, j]`` (support: predecessors of
    ``j``) and ``F[:, k]`` for each predecessor ``k`` — so the affected
    columns are the in-touched nodes plus the successors of the out-touched
    nodes, a two-hop neighbourhood of the delta, not the graph.

    The affected columns are then recomputed through the *same* kernels the
    full composition uses — ``from_triples`` → spgemm → ``scale`` →
    ``subtract`` → ``delta_entries`` — on column-restricted operands.  The
    spgemm kernel accumulates each output entry from contributions ordered
    row-major over its left operand with ``k`` increasing; restricting the
    operands to the contributing columns drops no contribution of a retained
    output column and reorders none, so every recomputed entry is **bitwise
    identical** to the corresponding entry of the fully-composed product,
    and the reported delta equals the full-matrix diff exactly.
    """
    changed = delta.added | delta.removed
    touched_out = {u for u, _ in changed}
    touched_in = {v for _, v in changed}
    all_edges = before.edges | after.edges
    if kind is MatrixKind.SALSA_AUTHORITY:
        # P = F @ B: column j reads B[:, j] and F[:, k] for k in preds(j).
        affected = set(touched_in)
        for u, v in all_edges:
            if u in touched_out:
                affected.add(v)
        middles = {u for u, v in all_edges if v in affected}
    elif kind is MatrixKind.SALSA_HUB:
        # P = B @ F: column j reads F[:, j] and B[:, k] for k in succ(j).
        affected = set(touched_out)
        for u, v in all_edges:
            if v in touched_in:
                affected.add(u)
        middles = {v for u, v in all_edges if u in affected}
    else:
        raise MeasureError(f"not a SALSA matrix kind: {kind!r}")
    if not affected:
        return {}

    def restricted_system(snapshot: GraphSnapshot) -> SparseMatrix:
        # Same float expressions as column_normalized_matrix /
        # backward_normalized_matrix, on the contributing columns only.
        out_degrees = snapshot.out_degrees()
        in_degrees = snapshot.in_degrees()
        if kind is MatrixKind.SALSA_AUTHORITY:
            left = SparseMatrix.from_triples(
                snapshot.n,
                (
                    (v, u, 1.0 / out_degrees[u])
                    for u, v in snapshot.edges
                    if u in middles
                ),
            )
            right = SparseMatrix.from_triples(
                snapshot.n,
                (
                    (u, v, 1.0 / in_degrees[v])
                    for u, v in snapshot.edges
                    if v in affected
                ),
            )
        else:
            left = SparseMatrix.from_triples(
                snapshot.n,
                (
                    (u, v, 1.0 / in_degrees[v])
                    for u, v in snapshot.edges
                    if v in middles
                ),
            )
            right = SparseMatrix.from_triples(
                snapshot.n,
                (
                    (v, u, 1.0 / out_degrees[u])
                    for u, v in snapshot.edges
                    if u in affected
                ),
            )
        identity = SparseMatrix.from_triples(
            snapshot.n, ((j, j, 1.0) for j in affected)
        )
        return identity.subtract(left.multiply(right).scale(damping))

    return restricted_system(before).delta_entries(restricted_system(after))


def _salsa_authority_system_delta(
    before: GraphSnapshot, after: GraphSnapshot, damping: float, delta: GraphDelta
) -> Entries:
    """Localized delta of ``I - d (F B)`` (see :func:`_salsa_system_delta`)."""
    return _salsa_system_delta(
        before, after, damping, delta, MatrixKind.SALSA_AUTHORITY
    )


def _salsa_hub_system_delta(
    before: GraphSnapshot, after: GraphSnapshot, damping: float, delta: GraphDelta
) -> Entries:
    """Localized delta of ``I - d (B F)`` (see :func:`_salsa_system_delta`)."""
    return _salsa_system_delta(before, after, damping, delta, MatrixKind.SALSA_HUB)


def damping_delta(
    snapshot: GraphSnapshot,
    kind: MatrixKind,
    from_damping: float,
    to_damping: float,
) -> Entries:
    """Return the entry delta of changing a system's damping factor only.

    For the walk kinds ``A = I - d·M`` with ``M`` fixed by the snapshot, so::

        A(to) - A(from) = (from - to) · M

    — a delta supported on exactly the stored entries of ``M``, computable
    without composing either full system matrix twice.  This is the
    cross-damping reuse substrate: a cached ``(kind, snapshot, d')`` system
    answering a miss at damping ``d`` is off by this delta, which the same
    :func:`~repro.core.quality.reuse_loss_bound` machinery certifies (its
    max column mass is ``|d' - d|·‖M‖₁ <= |d' - d|``).  The ``LAPLACIAN``
    kind composes ``A = I + L`` with no damping term at all, so its delta is
    empty — cross-damping reuse there is *exact*.
    """
    validate_damping(kind, from_damping)
    validate_damping(kind, to_damping)
    if kind is MatrixKind.LAPLACIAN or from_damping == to_damping:
        return {}
    if kind is MatrixKind.RANDOM_WALK:
        walk = column_normalized_matrix(snapshot)
    elif kind is MatrixKind.SYMMETRIC_WALK:
        walk = symmetric_normalized_matrix(snapshot)
    elif kind in (MatrixKind.SALSA_AUTHORITY, MatrixKind.SALSA_HUB):
        walk = salsa_walk_matrix(snapshot, kind)
    else:
        raise MeasureError(f"unsupported matrix kind: {kind!r}")
    scale = from_damping - to_damping
    rows, cols, vals = walk.coo()
    entries: Entries = {}
    for row, col, value in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        change = scale * value
        if change != 0.0:
            entries[(row, col)] = change
    return entries


#: Signature of a per-kind system-delta provider: ``(before, after, damping,
#: delta) -> Entries``.  ``delta`` is always the non-empty
#: :class:`~repro.graphs.delta.GraphDelta` between the snapshots (the empty
#: case is short-circuited by :func:`system_delta` before dispatch), and the
#: returned entries must equal the full composed-matrix diff bitwise.
DeltaProvider = Callable[[GraphSnapshot, GraphSnapshot, float, GraphDelta], Entries]

#: The system-delta provider of every :class:`MatrixKind`.
_DELTA_PROVIDERS: Dict[MatrixKind, DeltaProvider] = {
    MatrixKind.RANDOM_WALK: _random_walk_system_delta,
    MatrixKind.SYMMETRIC_WALK: _symmetric_walk_system_delta,
    MatrixKind.LAPLACIAN: _laplacian_system_delta,
    MatrixKind.SALSA_AUTHORITY: _salsa_authority_system_delta,
    MatrixKind.SALSA_HUB: _salsa_hub_system_delta,
}


def system_delta(
    before: GraphSnapshot,
    after: GraphSnapshot,
    kind: MatrixKind = MatrixKind.RANDOM_WALK,
    damping: float = DEFAULT_DAMPING,
    delta: Optional[GraphDelta] = None,
) -> Entries:
    """Return the sparse entry delta ``measure_matrix(after) - measure_matrix(before)``.

    Dispatches to the kind's provider.  Every provider is *localized*: for
    the locally-normalized kinds (``RANDOM_WALK``, ``SYMMETRIC_WALK``,
    ``LAPLACIAN``) the delta is computed from the touched nodes alone, and
    the two-hop SALSA kinds recompute only the product columns reachable
    from the touched nodes — so the cost scales with the graph change rather
    than the graph, and the result is bitwise equal to diffing the two
    fully-composed matrices.

    Parameters
    ----------
    before, after:
        Two snapshots over the same node universe.
    kind:
        Which system-matrix composition the delta is for; anything other
        than a :class:`MatrixKind` raises :class:`~repro.errors.MeasureError`.
    damping:
        Damping factor ``d`` of the composition (ignored for ``LAPLACIAN``).
    delta:
        The :class:`~repro.graphs.delta.GraphDelta` between the snapshots,
        when the caller already has it; computed here otherwise.
    """
    if before.n != after.n:
        raise DimensionError(
            f"snapshots have different node counts: {before.n} vs {after.n}"
        )
    if not isinstance(kind, MatrixKind):
        raise MeasureError(f"not a MatrixKind: {kind!r}")
    validate_damping(kind, damping)
    provider = _DELTA_PROVIDERS[kind]
    if delta is None:
        delta = GraphDelta.between(before, after)
    if delta.is_empty():
        return {}
    return provider(before, after, damping, delta)
