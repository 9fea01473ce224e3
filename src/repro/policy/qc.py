"""The quality-controlled reuse policy: the paper's α/β gates, unified.

:class:`QCPolicy` carries the two thresholds the paper trades with:

* ``alpha`` — the similarity floor (Definition 8's α-boundedness, applied
  serving-side to snapshot pairs): a cached system is only considered for
  reuse when ``mes(parent, child) >= alpha``.
* ``loss_bound`` — the quality-loss ceiling (Definition 5's β, applied to
  whichever loss measure the consumer trades in): offline it bounds the
  ordering quality loss of a shared cluster ordering; online it bounds the
  certified relative deviation of answering from stale factors
  (:func:`~repro.core.quality.reuse_loss_bound`).

The two gates are deliberately evaluated in that order: similarity costs
O(|Δ|) given the graph delta, while the loss estimate needs the system-level
entry delta (:func:`~repro.graphs.matrixkind.system_delta`) — still cheap,
but not free, so the planner discards dissimilar candidates before building
it.  The loss gate is :meth:`QCPolicy.correct` with a rank ceiling of 0: a
rank-0 decision's estimate is the verbatim bound itself.
:class:`~repro.policy.corrected.CorrectedPolicy` raises the ceiling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.policy.base import CorrectionDecision, ReusePolicy, _beta_clusters

if TYPE_CHECKING:
    from repro.core.clustering import MatrixCluster
    from repro.core.quality import MarkowitzReference
    from repro.graphs.matrixkind import MatrixKind
    from repro.graphs.snapshot import GraphSnapshot
    from repro.sparse.csr import SparseMatrix


def ranked_update_columns(
    entries: Dict[Tuple[int, int], float],
) -> List[Tuple[int, float]]:
    """Rank the columns of a sparse delta by descending L1 mass.

    Returns ``[(column, mass), ...]`` with ``mass = Σ_i |ΔA[i, column]|``,
    sorted by descending mass (ties broken by ascending column index, so the
    ranking — and therefore every planner decision built on it — is
    deterministic).  The per-column accumulation order matches
    :func:`~repro.core.quality.reuse_loss_bound`, so the masses here and the
    bounds there are float-identical, not merely close.
    """
    masses: Dict[int, float] = {}
    for (_, column), value in entries.items():
        masses[column] = masses.get(column, 0.0) + abs(value)
    return sorted(masses.items(), key=lambda item: (-item[1], item[0]))


class QCPolicy(ReusePolicy):
    """Accept a bounded quality loss in exchange for factorization reuse.

    Parameters
    ----------
    alpha:
        Snapshot-similarity floor in ``[0, 1]``: candidates below it are
        rejected before any loss estimation.  ``0.0`` admits every candidate
        to the loss gate; ``1.0`` only content-identical snapshots.
    loss_bound:
        Non-negative quality-loss ceiling (the paper's β).  Serving-side it
        caps the reported :attr:`~repro.policy.base.CorrectionDecision.
        loss_estimate`, so every approximate answer a planner emits under
        this policy carries an estimate ``<= loss_bound`` by construction.
    """

    #: Correction-rank ceiling: plain QC reuse is verbatim (rank 0) only.
    _max_rank = 0

    def __init__(self, alpha: float = 0.95, loss_bound: float = 0.1) -> None:
        from repro.errors import ClusteringError

        if not 0.0 <= alpha <= 1.0:
            raise ClusteringError(f"alpha must lie in [0, 1], got {alpha}")
        if not loss_bound >= 0.0:  # also rejects NaN, which would pass any gate
            raise ClusteringError(
                f"quality-loss bound must be non-negative, got {loss_bound}"
            )
        self._alpha = float(alpha)
        self._loss_bound = float(loss_bound)

    @property
    def name(self) -> str:
        return "qc"

    @property
    def is_exact(self) -> bool:
        return False

    @property
    def alpha(self) -> float:
        """The similarity floor."""
        return self._alpha

    @property
    def loss_bound(self) -> float:
        """The quality-loss ceiling (β)."""
        return self._loss_bound

    @property
    def max_rank(self) -> int:
        """The correction-rank ceiling (``0``: verbatim reuse only)."""
        return self._max_rank

    # ------------------------------------------------------------------ #
    # The serving gate
    # ------------------------------------------------------------------ #
    @staticmethod
    def certifies_kind(kind: "MatrixKind") -> bool:
        """Whether a finite deviation amplification is certified for ``kind``.

        The :func:`~repro.core.quality.reuse_loss_bound` derivation needs
        ``‖A⁻¹‖₁`` bounded: true for the column-substochastic kinds
        (``RANDOM_WALK``, both SALSA products; amplification ``1/(1-d)``)
        and the Laplacian system (amplification 1), **not** for
        ``SYMMETRIC_WALK``, whose normalized matrix has column sums up to
        ``sqrt(deg)``.  Uncertified kinds are never reused — an unbounded
        "estimate" would not be a quality guarantee.
        """
        from repro.graphs.matrixkind import MatrixKind

        return kind in (
            MatrixKind.RANDOM_WALK,
            MatrixKind.SALSA_AUTHORITY,
            MatrixKind.SALSA_HUB,
            MatrixKind.LAPLACIAN,
        )

    def prefilter(self, parent: "GraphSnapshot", child: "GraphSnapshot") -> bool:
        """Edge-count upper bound on similarity: reject below α without a delta.

        ``mes <= 2·min(|E_p|, |E_c|) / (|E_p| + |E_c|)`` (the intersection
        can never exceed the smaller edge set), so a candidate whose bound
        already misses ``alpha`` is rejected in O(1).
        """
        total = parent.edge_count + child.edge_count
        if total == 0:
            return True  # two edgeless snapshots: similarity is defined as 1
        bound = 2.0 * min(parent.edge_count, child.edge_count) / total
        return bound >= self._alpha

    def correct(
        self,
        entries: Dict[Tuple[int, int], float],
        *,
        amplifier_damping: float,
        similarity: float,
    ) -> Optional[CorrectionDecision]:
        """Pick the smallest rank whose residual bound clears ``loss_bound``.

        ``entries`` is the system delta ``ΔA`` and ``amplifier_damping`` the
        value the caller certifies for the kind (``0.0`` for Laplacian).  The
        residual bound after applying the ``k`` heaviest columns is the
        ``(k+1)``-th largest column mass over ``(1 - d)`` (``0.0`` once every
        column is applied), so the search is a single pass over the ranked
        masses.  At rank 0 it is :func:`~repro.core.quality.reuse_loss_bound`
        itself, float for float: a rank-0 decision is a verbatim one.
        Returns ``None`` when the pair misses the similarity floor or no
        rank ``<= max_rank`` suffices — the planner then falls through to
        refresh / cold factorization.
        """
        from repro.errors import MeasureError

        if not 0.0 <= amplifier_damping < 1.0:
            raise MeasureError(
                "damping factor must lie in [0, 1) for the residual bound, "
                f"got {amplifier_damping}"
            )
        if similarity < self._alpha:
            return None
        ranked = ranked_update_columns(entries)
        limit = min(self._max_rank, len(ranked))
        # Residual after applying the `rank` heaviest columns; dividing (not
        # multiplying by a precomputed reciprocal) keeps every value
        # float-identical to residual_loss_bound on the same delta.
        residuals = [
            mass / (1.0 - amplifier_damping) for _, mass in ranked[: limit + 1]
        ] + [0.0]
        for rank in range(limit + 1):
            if residuals[rank] <= self._loss_bound:
                return CorrectionDecision(
                    similarity=similarity,
                    loss_estimate=residuals[rank],
                    uncorrected_estimate=residuals[0],
                    rank=rank,
                    columns=tuple(column for column, _ in ranked[:rank]),
                )
        return None

    # ------------------------------------------------------------------ #
    # The offline gate (LUDEM-QC β-clustering)
    # ------------------------------------------------------------------ #
    def decomposition_clusters(
        self,
        flavor: str,
        matrices: Sequence["SparseMatrix"],
        reference: Optional["MarkowitzReference"] = None,
    ) -> List["MatrixCluster"]:
        return _beta_clusters(flavor, matrices, self._loss_bound, reference)

    def __repr__(self) -> str:
        return f"QCPolicy(alpha={self._alpha}, loss_bound={self._loss_bound})"
