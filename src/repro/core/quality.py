"""Ordering quality: the quality-loss measure of Definition 4.

The quality-loss of applying an ordering ``O`` to a matrix ``A`` compares the
size of the symbolic sparsity pattern of ``A^O`` against that of the
Markowitz-ordered matrix ``A*``::

    ql(O, A) = (|s̃p(A^O)| - |s̃p(A*)|) / |s̃p(A*)|

A value of zero means the ordering is as good (by this structural metric) as
Markowitz; larger values mean proportionally more stored entries, slower
decomposition and slower solves.  Because evaluating the reference quantity
``|s̃p(A*)|`` requires running Markowitz on every matrix — exactly what the
BF baseline does — the helper :class:`MarkowitzReference` caches it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.errors import DimensionError, MeasureError
from repro.lu.markowitz import markowitz_ordering
from repro.lu.mindegree import minimum_degree_ordering, symmetric_symbolic_size
from repro.lu.symbolic import reorder_pattern, symbolic_decomposition
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.permutation import Ordering


def symbolic_size_under_ordering(
    matrix_or_pattern: Union[SparseMatrix, SparsityPattern], ordering: Ordering
) -> int:
    """Return ``|s̃p(A^O)|`` for a matrix (or pattern) under an ordering."""
    pattern = (
        matrix_or_pattern.pattern()
        if isinstance(matrix_or_pattern, SparseMatrix)
        else matrix_or_pattern
    )
    if pattern.n != ordering.n:
        raise DimensionError(
            f"ordering size {ordering.n} does not match matrix dimension {pattern.n}"
        )
    reordered = reorder_pattern(pattern, ordering.row.order, ordering.column.order)
    return len(symbolic_decomposition(reordered))


def markowitz_reference_size(
    matrix_or_pattern: Union[SparseMatrix, SparsityPattern],
    symmetric: bool = False,
) -> int:
    """Return ``|s̃p(A*)|`` where ``A*`` is the Markowitz-ordered matrix.

    For symmetric patterns the cheaper elimination-graph path of
    :mod:`repro.lu.mindegree` is used (this is the efficiency claim the paper
    relies on for LUDEM-QC).
    """
    pattern = (
        matrix_or_pattern.pattern()
        if isinstance(matrix_or_pattern, SparseMatrix)
        else matrix_or_pattern
    )
    if symmetric and pattern.is_symmetric():
        ordering = minimum_degree_ordering(pattern)
        return symmetric_symbolic_size(pattern, ordering.row.order)
    return len(markowitz_ordering(pattern)[1])


def quality_loss(
    ordering: Ordering,
    matrix: SparseMatrix,
    reference_size: Optional[int] = None,
    symmetric: bool = False,
) -> float:
    """Return ``ql(O, A)`` (Definition 4).

    Parameters
    ----------
    ordering:
        The ordering whose quality is evaluated.
    matrix:
        The matrix it is applied to.
    reference_size:
        Optional precomputed ``|s̃p(A*)|`` (e.g. from a
        :class:`MarkowitzReference` cache).
    symmetric:
        Use the fast symmetric reference path when computing the reference.
    """
    if reference_size is None:
        reference_size = markowitz_reference_size(matrix, symmetric=symmetric)
    if reference_size <= 0:
        raise DimensionError("reference symbolic pattern size must be positive")
    achieved = symbolic_size_under_ordering(matrix, ordering)
    return (achieved - reference_size) / reference_size


def reuse_loss_bound(entries, damping: float) -> float:
    """Bound the relative answer deviation of serving from stale factors.

    The serving-side counterpart of Definition 4: when a query against system
    ``A_new = I - d·M_new`` is answered **outright** from the factorization of
    a similar cached system ``A_old`` (no refresh, no new factorization), the
    answer it gets is ``x̃ = A_old^{-1} b`` instead of ``x = A_new^{-1} b``.
    Writing ``ΔA = A_new - A_old`` (the sparse ``entries`` mapping of
    :func:`~repro.graphs.matrixkind.system_delta`),

        x̃ - x = A_old^{-1} (A_new - A_old) x  =  A_old^{-1} ΔA x,

    and whenever ``M`` is column-substochastic (``‖M‖₁ <= 1``) the Neumann
    series gives ``‖A_old^{-1}‖₁ <= 1 / (1 - d)``.  Hence the *relative* L1
    deviation of the raw solution is bounded by::

        ‖x̃ - x‖₁ / ‖x‖₁  <=  ‖ΔA‖₁ / (1 - d)

    with ``‖ΔA‖₁`` the maximum absolute column sum of the entry delta.  That
    right-hand side is what this function returns — computable from the
    sparse delta alone, in O(|Δ|), without touching either matrix.

    **Validity is per matrix kind.**  Column-substochasticity holds for
    ``RANDOM_WALK`` (column-normalized ``W``) and both SALSA kinds (products
    of two column-substochastic walks); for the undamped Laplacian system
    ``A = I + L``, ``A·1 = 1`` with ``A⁻¹ >= 0`` and symmetry give
    ``‖A⁻¹‖₁ = 1`` — pass ``damping=0.0`` there.  It does **not** hold for
    ``SYMMETRIC_WALK`` (``S = D^{-1/2} A_u D^{-1/2}`` has column sums up to
    ``sqrt(deg)``), so no finite amplification is certified and
    :class:`~repro.policy.qc.QCPolicy` refuses to reuse across that kind.
    The bound covers the raw solve; post transforms / normalization are
    applied to both sides identically.
    """
    if not 0.0 <= damping < 1.0:
        raise MeasureError(
            f"damping factor must lie in [0, 1) for the reuse bound, got {damping}"
        )
    if not entries:
        return 0.0
    column_sums: Dict[int, float] = {}
    for (_, column), value in entries.items():
        column_sums[column] = column_sums.get(column, 0.0) + abs(value)
    return max(column_sums.values()) / (1.0 - damping)


def residual_loss_bound(entries, applied_columns, damping: float) -> float:
    """The :func:`reuse_loss_bound` of ``ΔA`` minus its applied columns.

    Corrected reuse (:class:`~repro.policy.corrected.CorrectedPolicy`) folds
    the dominant columns of ``ΔA`` into the answer exactly, via a rank-``k``
    Sherman–Morrison–Woodbury solve over the parent's cached factors.  The
    deviation that remains is governed by the *residual* delta — ``ΔA``
    restricted to the columns **not** applied::

        ‖x̃ - x‖₁ / ‖x‖₁  <=  ‖ΔA|_{cols ∉ applied}‖₁ / (1 - d)

    The amplification constant ``1/(1 - d)`` is the corrected system's, but
    because the applied columns replace old columns with new ones *wholesale*,
    a column-wise mix of two column-substochastic matrices is itself
    column-substochastic and the parent's constant carries over unchanged
    (likewise the Laplacian's constant 1 — pass ``damping=0.0`` there, as for
    :func:`reuse_loss_bound`).  Applying every column drives the bound to
    exactly ``0.0``.
    """
    if not applied_columns:
        return reuse_loss_bound(entries, damping)
    applied = frozenset(applied_columns)
    residual = {
        position: value
        for position, value in entries.items()
        if position[1] not in applied
    }
    return reuse_loss_bound(residual, damping)


class MarkowitzReference:
    """A cache of Markowitz reference sizes ``|s̃p(A_i*)|`` for an EMS.

    BF computes the Markowitz ordering of every matrix anyway; the experiments
    reuse those results to score the orderings produced by other algorithms
    without paying for Markowitz twice.
    """

    def __init__(self, symmetric: bool = False) -> None:
        self._symmetric = symmetric
        self._sizes: Dict[int, int] = {}
        self._hits = 0
        self._misses = 0

    def size_for(self, index: int, matrix: SparseMatrix) -> int:
        """Return (and cache) the reference size for matrix ``index``."""
        if index not in self._sizes:
            self._misses += 1
            self._sizes[index] = markowitz_reference_size(matrix, symmetric=self._symmetric)
        else:
            self._hits += 1
        return self._sizes[index]

    def cache_info(self) -> Dict[str, int]:
        """Return hit/miss/size counters for the reference cache.

        A miss runs a full Markowitz ordering (exactly what BF pays per
        matrix), so the bench layer asserts via these counters that sweeping
        α/β/workers computes each matrix's reference only once.
        """
        return {"hits": self._hits, "misses": self._misses, "size": len(self._sizes)}

    def quality_loss(self, index: int, ordering: Ordering, matrix: SparseMatrix) -> float:
        """Return ``ql(O_index, A_index)`` using the cached reference."""
        return quality_loss(
            ordering, matrix, reference_size=self.size_for(index, matrix), symmetric=self._symmetric
        )

    def precompute(self, matrices: Sequence[SparseMatrix]) -> None:
        """Populate the cache for an entire sequence of matrices."""
        for index, matrix in enumerate(matrices):
            self.size_for(index, matrix)

    def known_sizes(self) -> Dict[int, int]:
        """Return a copy of the cached sizes keyed by matrix index."""
        return dict(self._sizes)
