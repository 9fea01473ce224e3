"""The declarative measure IR: specs, queries and the generic solve engine.

Every measure in the paper is the same recipe instantiated differently
(Section 1): compose a system matrix ``A`` from the snapshot, build a
measure-specific right-hand side ``b``, solve ``A x = b`` through the cached
LU factors, and optionally post-process ``x``.  A :class:`MeasureSpec`
captures one such instantiation *declaratively* — matrix kind (or a custom
matrix builder), RHS builder, post-transform, normalization flag and an
optional closed-form shortcut — so the per-measure driver modules in
:mod:`repro.measures` collapse into thin wrappers over one generic engine
(:func:`evaluate` / :func:`evaluate_block`) and the query planner can reason
about *which queries share a factorization* without knowing anything about
individual measures.

The sharing boundary is the :class:`SystemKey`: two queries whose keys
compare equal are answered by the same ``(ordering, factors)`` pair, computed
once.  For ad-hoc queries the key embeds the snapshot itself (snapshots hash
by content, so content-equal snapshots deduplicate); sequence-level callers
(:class:`~repro.core.solver.EMSSolver`) override it with an index token so
their per-index factors are reused exactly as stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, MeasureError
from repro.graphs.matrixkind import (
    DEFAULT_DAMPING,
    MatrixKind,
    hitting_time_matrix,
    measure_matrix,
    row_stochastic_matrix,
    validate_damping,
)
from repro.graphs.snapshot import GraphSnapshot
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.lu.solve import solve_reordered_system, solve_reordered_system_many
from repro.sparse.csr import SparseMatrix
from repro.sparse.permutation import Ordering
from repro.sparse.vector import seed_vector, unit_vector

#: ``(snapshot, damping, params) -> b`` — the measure's right-hand side.
RhsBuilder = Callable[[GraphSnapshot, float, Mapping[str, object]], np.ndarray]

#: ``(snapshot, damping, params_list) -> B`` — a whole ``(n, k)`` RHS block at
#: once.  Column ``c`` must be bitwise identical to ``build_rhs`` of the
#: ``c``-th parameter set; the planner uses it to assemble large warm-path
#: batches without a per-query Python loop.
RhsBlockBuilder = Callable[
    [GraphSnapshot, float, Sequence[Mapping[str, object]]], np.ndarray
]

#: ``(snapshot, damping, params) -> A`` — overrides the kind-based composition.
MatrixBuilder = Callable[[GraphSnapshot, float, Mapping[str, object]], SparseMatrix]

#: ``(x, snapshot, damping, params) -> y`` — post-solve transform.
Transform = Callable[[np.ndarray, GraphSnapshot, float, Mapping[str, object]], np.ndarray]

#: ``(snapshot, damping, params) -> answer or None`` — closed-form shortcut.
Shortcut = Callable[[GraphSnapshot, float, Mapping[str, object]], Optional[np.ndarray]]


@dataclasses.dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of one measure as an ``A x = b`` instance.

    Attributes
    ----------
    name:
        Registry key (e.g. ``"rwr"``); also the ``measure`` field of queries.
    kind:
        Base matrix composition.  Part of every query's :class:`SystemKey`,
        so measures with equal ``(snapshot, kind, damping)`` share factors.
    build_rhs:
        Builds the right-hand side from ``(snapshot, damping, params)``.
    build_rhs_block:
        Optional vectorized builder assembling the whole ``(n, k)`` RHS block
        of ``k`` same-snapshot queries at once.  Contract: column ``c`` is
        bitwise identical to ``build_rhs`` of the ``c``-th parameter set.
        The planner falls back to per-query ``build_rhs`` when absent.
    required_params:
        Parameter names a query must supply; :func:`make_query` validates
        them eagerly with a descriptive error instead of letting a missing
        parameter surface as a ``KeyError`` mid-execute (matrix parameters
        are additionally enforced at system-key time).
    matrix_params:
        Names of query parameters that select the *matrix* (not just the
        RHS), e.g. the hitting-time target.  They become part of the system
        key, so queries differing in them never share a factorization.
    build_matrix:
        Optional custom system-matrix builder; ``None`` uses
        :func:`~repro.graphs.matrixkind.measure_matrix` with :attr:`kind`.
    transform:
        Optional post-solve transform applied to the raw solution.
    normalize:
        When true, the (possibly transformed) solution is rescaled to sum to
        one (all-zero vectors are left untouched).
    shortcut:
        Optional closed-form answer for degenerate inputs (e.g. SALSA on an
        edgeless graph); a non-``None`` return is the final result and no
        factorization happens.
    description:
        One-line human description.
    """

    name: str
    kind: MatrixKind
    build_rhs: RhsBuilder
    build_rhs_block: Optional[RhsBlockBuilder] = None
    required_params: Tuple[str, ...] = ()
    matrix_params: Tuple[str, ...] = ()
    build_matrix: Optional[MatrixBuilder] = None
    transform: Optional[Transform] = None
    normalize: bool = False
    shortcut: Optional[Shortcut] = None
    description: str = ""

    def system_matrix(
        self, snapshot: GraphSnapshot, damping: float, params: Mapping[str, object]
    ) -> SparseMatrix:
        """Compose the system matrix ``A`` for one query."""
        if self.build_matrix is not None:
            return self.build_matrix(snapshot, damping, params)
        return measure_matrix(snapshot, kind=self.kind, damping=damping)

    def matrix_param_key(
        self, params: Mapping[str, object]
    ) -> Tuple[Tuple[str, Hashable], ...]:
        """Freeze the matrix-selecting parameters into a hashable key part."""
        try:
            return tuple((name, params[name]) for name in self.matrix_params)
        except KeyError as missing:
            raise MeasureError(
                f"measure {self.name!r} requires parameter {missing.args[0]!r}"
            ) from None

    def finalize(
        self,
        x: np.ndarray,
        snapshot: GraphSnapshot,
        damping: float,
        params: Mapping[str, object],
    ) -> np.ndarray:
        """Apply the post-transform and normalization to a raw solution."""
        if self.transform is not None:
            x = self.transform(x, snapshot, damping, params)
        if self.normalize:
            total = float(np.sum(x))
            if total != 0.0:
                x = x / total
        return x


# ---------------------------------------------------------------------- #
# Registry (the ``_REGISTRY`` table closes this module)
# ---------------------------------------------------------------------- #
def get_spec(name: str) -> MeasureSpec:
    """Look up a built-in spec, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MeasureError(
            f"unknown measure {name!r}; registered: {', '.join(registered_measures())}"
        ) from None


def registered_measures() -> Tuple[str, ...]:
    """Return the sorted names of all registered measure specs."""
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------- #
# Queries and system identity
# ---------------------------------------------------------------------- #
Params = Tuple[Tuple[str, object], ...]


def _canonical_value(value: object) -> object:
    """Map one parameter value to its canonical hashable spelling.

    Serving traffic spells the same parameter many ways — ``np.int64`` node
    ids out of array indexing, seed sets as ``list`` / ``tuple`` / ``set`` /
    ``frozenset`` / ``np.ndarray`` — and every spelling must behave as one
    value: NumPy scalars collapse to Python scalars, ordered collections
    become tuples of canonical elements (caller order preserved — PPR seed
    order matches the legacy RHS accumulation), and *unordered* collections
    become **sorted** tuples, since their iteration order is an accident of
    hashing, not information.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (set, frozenset)):
        canonical = tuple(_canonical_value(item) for item in value)
        try:
            return tuple(sorted(canonical))
        except TypeError:  # mixed uncomparable types: any fixed order will do
            return tuple(sorted(canonical, key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, np.ndarray):
        return tuple(_canonical_value(item) for item in value.tolist())
    return value


def _freeze_params(params: Mapping[str, object]) -> Params:
    """Freeze a params mapping into canonical, hashable form.

    Values are canonicalized (see :func:`_canonical_value`), so two queries
    whose parameters differ only in spelling — ``list`` vs ``tuple`` vs
    ``np.ndarray`` seed collections, ``int`` vs ``np.int64`` node ids —
    compare equal, share a :class:`SystemKey` and share result-cache
    entries.  Ordered collections keep their caller order (two queries with
    differently-*ordered* equal seed lists stay distinct Query objects that
    produce equal answers); unordered ones are sorted.
    """
    return tuple((name, _canonical_value(params[name])) for name in sorted(params))


def canonical_params(params: Params) -> Params:
    """Re-canonicalize an already-frozen params tuple.

    Queries built through :func:`make_query` are canonical by construction;
    this is the defensive pass for :class:`Query` objects assembled directly
    from raw tuples (the planner's result-cache key uses it, so equivalent
    spellings never cold-miss even then).
    """
    return tuple((name, _canonical_value(value)) for name, value in params)


def _validate_measure_damping(measure: str, damping: float) -> None:
    """Check a damping factor against the *measure's* matrix-kind domain.

    The admissible domain depends on the kind the measure's spec composes
    with: the walk kinds need ``0 < d < 1``, while ``LAPLACIAN`` measures
    accept the undamped ``d = 0.0`` convention (see
    :func:`~repro.graphs.matrixkind.validate_damping`, the shared gate).
    Unknown measure names — a :class:`Query` can be constructed directly
    with any name — fall back to the strict walk-kind domain,
    which every built-in measure uses.
    """
    spec = _REGISTRY.get(measure)
    if spec is None:
        if not 0.0 < damping < 1.0:
            raise MeasureError(
                f"damping factor must lie in (0, 1), got {damping}"
            )
        return
    validate_damping(spec.kind, damping)


@dataclasses.dataclass(frozen=True)
class Query:
    """One measure evaluation request against one snapshot.

    ``params`` is stored as a sorted tuple of pairs so queries are hashable;
    use :func:`make_query` (or the :class:`~repro.query.batch.QueryBatch`
    helpers) rather than building the tuple by hand.  ``system_token``, when
    set, replaces the snapshot in the :class:`SystemKey` — sequence-level
    planners use it to pin a query to the factors of one EMS index.
    """

    measure: str
    snapshot: GraphSnapshot
    damping: float = DEFAULT_DAMPING
    params: Params = ()
    system_token: Optional[Hashable] = None

    def __post_init__(self) -> None:
        _validate_measure_damping(self.measure, self.damping)

    @property
    def param_dict(self) -> Dict[str, object]:
        """The query parameters as a plain dictionary."""
        return dict(self.params)


def make_query(
    measure: str,
    snapshot: GraphSnapshot,
    damping: float = DEFAULT_DAMPING,
    system_token: Optional[Hashable] = None,
    **params: object,
) -> Query:
    """Build a :class:`Query`, validating measure name and required params eagerly."""
    spec = get_spec(measure)
    for name in spec.required_params:
        if name not in params:
            raise MeasureError(
                f"measure {measure!r} requires parameter {name!r}"
            )
    return Query(
        measure=measure,
        snapshot=snapshot,
        damping=float(damping),
        params=_freeze_params(params),
        system_token=system_token,
    )


@dataclasses.dataclass(frozen=True)
class SystemKey:
    """Identity of one system matrix: queries with equal keys share factors.

    ``matrix_builder`` is the spec's custom ``build_matrix`` callable (or
    ``None`` for the kind-based composition): a spec that overrides the
    matrix must never share factors with one that merely shares its kind.
    """

    system: Hashable
    kind: MatrixKind
    damping: float
    matrix_params: Tuple[Tuple[str, Hashable], ...] = ()
    matrix_builder: Optional[MatrixBuilder] = None

    def digest(self) -> str:
        """A stable 32-hex-digit content digest of this key.

        Built from canonical byte encodings — sorted edge lists for
        snapshot identities, the kind *name*, the raw IEEE-754 bytes of the
        damping factor, ``repr`` of the canonical params tuple and the
        builder's qualified name — never from Python ``hash()``, which is
        salted per process.  Equal keys therefore digest identically across
        interpreter restarts and across processes, which is what both the
        :class:`~repro.store.factorstore.FactorStore` file naming and the
        :mod:`repro.shard` worker routing rely on
        (:func:`~repro.store.factorstore.system_key_digest` delegates here,
        so store checkpoints written before this method existed keep their
        names).
        """
        system = self.system
        if isinstance(system, GraphSnapshot):
            identity: object = (
                "snapshot", system.n, system.directed, tuple(sorted(system.edges))
            )
        else:
            identity = ("token", repr(system))
        canonical = repr((
            identity,
            getattr(self.kind, "name", repr(self.kind)),
            struct.pack("<d", self.damping).hex(),
            repr(tuple(self.matrix_params)),
            _builder_name(self.matrix_builder),
        ))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _builder_name(builder: Optional[MatrixBuilder]) -> Optional[str]:
    """The content-stable spelling of a custom matrix builder (or ``None``)."""
    if builder is None:
        return None
    return "{}.{}".format(
        getattr(builder, "__module__", "?"),
        getattr(builder, "__qualname__", repr(builder)),
    )


def system_key(query: Query) -> SystemKey:
    """Return the factor-sharing key of a query."""
    spec = get_spec(query.measure)
    return SystemKey(
        system=query.system_token if query.system_token is not None else query.snapshot,
        kind=spec.kind,
        damping=query.damping,
        matrix_params=spec.matrix_param_key(query.param_dict),
        matrix_builder=spec.build_matrix,
    )


# ---------------------------------------------------------------------- #
# Factorized systems and the generic engine
# ---------------------------------------------------------------------- #
class FactorizedSystem:
    """One system matrix with its ordering and Crout factors, ready to solve.

    This is the shared artifact the whole refactor is about: compute it once
    per distinct :class:`SystemKey`, then answer any number of queries by
    substitution (scalar or batched — bitwise identical per column).
    """

    __slots__ = ("_matrix", "_ordering", "_factors")

    def __init__(
        self,
        matrix: SparseMatrix,
        ordering: Optional[Ordering],
        factors: object,
    ) -> None:
        self._matrix = matrix
        self._ordering = ordering
        self._factors = factors

    @classmethod
    def factorize(cls, matrix: SparseMatrix, reorder: bool = True) -> "FactorizedSystem":
        """Markowitz-order (optional) and Crout-decompose a system matrix."""
        if reorder:
            ordering, pattern = markowitz_ordering(matrix)
            factors = crout_decompose(ordering.apply(matrix), pattern=pattern)
        else:
            ordering = None
            factors = crout_decompose(matrix)
        return cls(matrix, ordering, factors)

    @property
    def matrix(self) -> SparseMatrix:
        """The composed system matrix ``A``."""
        return self._matrix

    @property
    def ordering(self) -> Optional[Ordering]:
        """The ordering applied before decomposition (``None`` = identity)."""
        return self._ordering

    @property
    def factors(self) -> object:
        """The LU factor container of the (reordered) matrix."""
        return self._factors

    def clone(self) -> "FactorizedSystem":
        """Return a copy whose factor container can be mutated independently.

        The matrix and ordering are shared (both immutable); the factors are
        value-copied — this is what a Bennett refresh updates in place while
        the cached original keeps answering queries for its own key.
        """
        return FactorizedSystem(self._matrix, self._ordering, self._factors.copy())

    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` using the cached factors."""
        return solve_reordered_system(self._factors, self._ordering, b)

    def solve_many(self, block) -> np.ndarray:
        """Solve ``A X = B`` for an ``(n, k)`` block in one batched sweep."""
        return solve_reordered_system_many(self._factors, self._ordering, block)


def evaluate(query: Query, system=None) -> np.ndarray:
    """Answer one query through the generic engine.

    ``system`` is any object with ``solve`` (e.g. a cached
    :class:`FactorizedSystem` or a
    :class:`~repro.measures.base.SnapshotMeasureSolver`); when omitted the
    system matrix is composed and factorized on the spot.
    """
    spec = get_spec(query.measure)
    params = query.param_dict
    if spec.shortcut is not None:
        direct = spec.shortcut(query.snapshot, query.damping, params)
        if direct is not None:
            return direct
    rhs = spec.build_rhs(query.snapshot, query.damping, params)
    if system is None:
        system = FactorizedSystem.factorize(
            spec.system_matrix(query.snapshot, query.damping, params)
        )
    return spec.finalize(system.solve(rhs), query.snapshot, query.damping, params)


def evaluate_block(
    measure: str,
    snapshot: GraphSnapshot,
    params_list,
    damping: float = DEFAULT_DAMPING,
    system=None,
) -> np.ndarray:
    """Answer many same-matrix queries of one measure in one batched solve.

    ``params_list`` is a sequence of parameter mappings that differ only in
    RHS-selecting parameters (matrix parameters must agree — they are taken
    from the first entry).  Returns an ``(n, k)`` array whose column ``c`` is
    bitwise identical to ``evaluate`` of the ``c``-th parameter set.
    """
    spec = get_spec(measure)
    params_list = [dict(p) for p in params_list]
    validate_damping(spec.kind, damping)
    if not params_list:
        return np.zeros((snapshot.n, 0), dtype=float)
    first_key = spec.matrix_param_key(params_list[0])
    for params in params_list[1:]:
        if spec.matrix_param_key(params) != first_key:
            raise MeasureError(
                f"evaluate_block needs a single system matrix; measure "
                f"{measure!r} queries disagree on matrix parameters"
            )
    block = np.column_stack(
        [spec.build_rhs(snapshot, damping, params) for params in params_list]
    )
    if system is None:
        system = FactorizedSystem.factorize(
            spec.system_matrix(snapshot, damping, params_list[0])
        )
    solutions = system.solve_many(block)
    out = np.empty_like(solutions)
    for column, params in enumerate(params_list):
        out[:, column] = spec.finalize(
            solutions[:, column], snapshot, damping, params
        )
    return out


# ---------------------------------------------------------------------- #
# Canonical right-hand sides (single implementation; the measure driver
# modules re-export these under their historical names)
# ---------------------------------------------------------------------- #
def rwr_rhs(n: int, start_node: int, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Return the RWR right-hand side ``(1 - d) q_u`` for a start node."""
    return unit_vector(n, start_node, value=1.0 - damping)


def ppr_rhs(n: int, seeds, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Return the PPR right-hand side ``(1 - d) s`` for a seed set."""
    return seed_vector(n, seeds, total=1.0 - damping)


def uniform_teleport_rhs(n: int, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Return the uniform teleportation right-hand side ``((1 - d)/n) 1``."""
    return np.full(n, (1.0 - damping) / n, dtype=float)


def hitting_time_rhs(n: int, target: int) -> np.ndarray:
    """Return the DHT right-hand side ``e_target`` (bounds-checked)."""
    if not 0 <= target < n:
        raise MeasureError(f"target node {target} out of bounds for n={n}")
    return unit_vector(n, target, 1.0)


# ---------------------------------------------------------------------- #
# Built-in specs (the five measures of the paper's framework)
# ---------------------------------------------------------------------- #
def _rwr_rhs(snapshot: GraphSnapshot, damping: float, params: Mapping) -> np.ndarray:
    return rwr_rhs(snapshot.n, int(params["start_node"]), damping)


def _ppr_rhs(snapshot: GraphSnapshot, damping: float, params: Mapping) -> np.ndarray:
    return ppr_rhs(snapshot.n, params["seeds"], damping)


def _uniform_teleport_rhs(
    snapshot: GraphSnapshot, damping: float, params: Mapping
) -> np.ndarray:
    return uniform_teleport_rhs(snapshot.n, damping)


def _hitting_rhs(snapshot: GraphSnapshot, damping: float, params: Mapping) -> np.ndarray:
    return hitting_time_rhs(snapshot.n, int(params["target"]))


def _hitting_matrix(
    snapshot: GraphSnapshot, damping: float, params: Mapping
) -> SparseMatrix:
    return hitting_time_matrix(snapshot, int(params["target"]), damping=damping)


# ---------------------------------------------------------------------- #
# Vectorized RHS blocks (bitwise-equal to the scalar builders per column)
# ---------------------------------------------------------------------- #
def _check_indices(
    indices: np.ndarray, n: int, describe: Callable[[int], Exception]
) -> None:
    """Raise ``describe(first_bad_index)`` when any index falls outside [0, n).

    One bounds check shared by every block builder; ``describe`` supplies
    the exception so each column keeps the exact error class and message of
    its scalar builder.
    """
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        bad = int(indices[(indices < 0) | (indices >= n)][0])
        raise describe(bad)


def _rwr_rhs_block(
    snapshot: GraphSnapshot, damping: float, params_list: Sequence[Mapping]
) -> np.ndarray:
    starts = np.fromiter(
        (int(p["start_node"]) for p in params_list),
        dtype=np.int64,
        count=len(params_list),
    )
    _check_indices(starts, snapshot.n, lambda bad: DimensionError(
        f"index {bad} out of bounds for a length-{snapshot.n} vector"
    ))
    block = np.zeros((snapshot.n, len(params_list)), dtype=float)
    block[starts, np.arange(len(params_list))] = 1.0 - damping
    return block


def _ppr_rhs_block(
    snapshot: GraphSnapshot, damping: float, params_list: Sequence[Mapping]
) -> np.ndarray:
    n = snapshot.n
    rows = []
    columns = []
    values = []
    for column, params in enumerate(params_list):
        seeds = [int(s) for s in params["seeds"]]
        if not seeds:
            raise DimensionError("seed set must not be empty")
        # Same accumulated share as seed_vector: repeated seeds add the same
        # float repeatedly, in the same order, so the column stays bitwise
        # identical to the scalar builder.
        share = (1.0 - damping) / len(seeds)
        rows.extend(seeds)
        columns.extend([column] * len(seeds))
        values.extend([share] * len(seeds))
    row_idx = np.asarray(rows, dtype=np.int64)
    _check_indices(row_idx, n, lambda bad: DimensionError(
        f"seed {bad} out of bounds for a length-{n} vector"
    ))
    block = np.zeros((n, len(params_list)), dtype=float)
    np.add.at(block, (row_idx, np.asarray(columns, dtype=np.int64)),
              np.asarray(values, dtype=float))
    return block


def _uniform_teleport_rhs_block(
    snapshot: GraphSnapshot, damping: float, params_list: Sequence[Mapping]
) -> np.ndarray:
    return np.full(
        (snapshot.n, len(params_list)), (1.0 - damping) / snapshot.n, dtype=float
    )


def _hitting_rhs_block(
    snapshot: GraphSnapshot, damping: float, params_list: Sequence[Mapping]
) -> np.ndarray:
    targets = np.fromiter(
        (int(p["target"]) for p in params_list),
        dtype=np.int64,
        count=len(params_list),
    )
    _check_indices(targets, snapshot.n, lambda bad: MeasureError(
        f"target node {bad} out of bounds for n={snapshot.n}"
    ))
    block = np.zeros((snapshot.n, len(params_list)), dtype=float)
    block[targets, np.arange(len(params_list))] = 1.0
    return block


# ---------------------------------------------------------------------- #
# Shared-system hitting time (one factorization serves every target)
# ---------------------------------------------------------------------- #
def _hitting_shared_matrix(
    snapshot: GraphSnapshot, damping: float, params: Mapping
) -> SparseMatrix:
    """The *unmasked* DHT system ``I - d P`` — target independent.

    The per-target masked system is a rank-1 update of this one:
    ``A_t = A + e_t (d p_t)ᵀ`` (masking row ``t`` removes exactly the
    ``-d p_t`` row).  Sherman–Morrison collapses the masked solve to

        ``h = y / y[t]``  with  ``y = A⁻¹ e_t``,

    because row ``t`` of ``A y = e_t`` reads ``y_t - d p_tᵀ y = 1``, i.e.
    ``1 + d p_tᵀ y = y_t`` — precisely the Sherman–Morrison denominator.
    ``y_t >= 1`` always (``A⁻¹ = Σ dᵏ Pᵏ >= 0``), so the division is safe.
    The target therefore moves from the *matrix* to the RHS + transform, and
    every target shares one :class:`SystemKey` — the planner answers ``k``
    targets with one factorization and one batched sweep.
    """
    if not 0.0 < damping < 1.0:
        raise MeasureError(f"damping factor must lie in (0, 1), got {damping}")
    transition = row_stochastic_matrix(snapshot)
    return SparseMatrix.identity(snapshot.n).subtract(transition.scale(damping))


def _hitting_shared_transform(
    x: np.ndarray, snapshot: GraphSnapshot, damping: float, params: Mapping
) -> np.ndarray:
    target = int(params["target"])
    return x / x[target]


def _salsa_shortcut(
    snapshot: GraphSnapshot, damping: float, params: Mapping
) -> Optional[np.ndarray]:
    if snapshot.edge_count == 0:
        return np.full(snapshot.n, 1.0 / max(snapshot.n, 1))
    return None


#: The built-in measures by name.  Every layer above (planner, server,
#: shards, store) resolves a query's spec through this table.
_REGISTRY: Dict[str, MeasureSpec] = {
    "rwr": MeasureSpec(
        name="rwr",
        kind=MatrixKind.RANDOM_WALK,
        build_rhs=_rwr_rhs,
        build_rhs_block=_rwr_rhs_block,
        required_params=("start_node",),
        description="Random Walk with Restart from one start node",
    ),
    "ppr": MeasureSpec(
        name="ppr",
        kind=MatrixKind.RANDOM_WALK,
        build_rhs=_ppr_rhs,
        build_rhs_block=_ppr_rhs_block,
        required_params=("seeds",),
        description="Personalized PageRank for one seed set",
    ),
    "pagerank": MeasureSpec(
        name="pagerank",
        kind=MatrixKind.RANDOM_WALK,
        build_rhs=_uniform_teleport_rhs,
        build_rhs_block=_uniform_teleport_rhs_block,
        description="PageRank with uniform teleportation",
    ),
    "hitting_time": MeasureSpec(
        name="hitting_time",
        kind=MatrixKind.RANDOM_WALK,
        build_rhs=_hitting_rhs,
        build_rhs_block=_hitting_rhs_block,
        required_params=("target",),
        matrix_params=("target",),
        build_matrix=_hitting_matrix,
        description="Discounted hitting time towards one target node",
    ),
    "hitting_time_shared": MeasureSpec(
        name="hitting_time_shared",
        kind=MatrixKind.RANDOM_WALK,
        build_rhs=_hitting_rhs,
        build_rhs_block=_hitting_rhs_block,
        required_params=("target",),
        build_matrix=_hitting_shared_matrix,
        transform=_hitting_shared_transform,
        description=(
            "Discounted hitting time via the shared unmasked system "
            "(one factorization serves every target)"
        ),
    ),
    "salsa_authority": MeasureSpec(
        name="salsa_authority",
        kind=MatrixKind.SALSA_AUTHORITY,
        build_rhs=_uniform_teleport_rhs,
        build_rhs_block=_uniform_teleport_rhs_block,
        shortcut=_salsa_shortcut,
        description="Damped SALSA authority scores",
    ),
    "salsa_hub": MeasureSpec(
        name="salsa_hub",
        kind=MatrixKind.SALSA_HUB,
        build_rhs=_uniform_teleport_rhs,
        build_rhs_block=_uniform_teleport_rhs_block,
        shortcut=_salsa_shortcut,
        description="Damped SALSA hub scores",
    ),
}
