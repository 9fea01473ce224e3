"""Corrected reuse: rank-k SMW-corrected answers under a certified bound.

:class:`~repro.policy.qc.QCPolicy` trades all-or-nothing — a miss group
either answers *verbatim* from a similar cached system (loss bounded by the
full ``‖ΔA‖₁``) or pays a cold factorization.  :class:`CorrectedPolicy` adds
the missing middle: apply the ``k`` **dominant columns** of ``ΔA`` exactly,
via a rank-``k`` Sherman–Morrison–Woodbury solve over the parent's cached
factors (:class:`~repro.lu.smw.WoodburyCorrector` — ``k`` extra triangular
sweeps plus a ``k×k`` dense solve, instead of an O(n·nnz) factorization),
and certify the *residual* delta with the same
:func:`~repro.core.quality.reuse_loss_bound` machinery.

Columns, not arbitrary rank-1 terms.  The certification argument needs the
corrected system ``A_corr = I - d·M'`` to keep a bounded inverse, and that
holds when every column of ``M'`` comes *wholesale* from either the old or
the new walk matrix — a column-wise mix of two column-substochastic matrices
is column-substochastic (and a column-wise mix of two Laplacian systems
stays a column-diagonally-dominant M-matrix with unit column sums).  Partial
*row* mixing, by contrast, can push a column sum up to 2 and voids the
bound.  So the policy groups ``ΔA`` by column — the column-grouping branch
of the :func:`~repro.lu.bennett.delta_to_rank_one_terms` idiom, forced —
ranks columns by L1 mass ``‖ΔA e_j‖₁`` (the ``|u|·|v|`` mass of the rank-1
term ``(ΔA e_j) e_jᵀ``), and picks the smallest ``k`` whose residual bound
clears ``loss_bound``.  With columns sorted by descending mass, the residual
bound after ``k`` columns is the ``(k+1)``-th largest mass over ``(1 - d)``
— monotonically non-increasing in ``k`` by construction.

The gate itself is :meth:`QCPolicy.correct <repro.policy.qc.QCPolicy.
correct>`; this policy only raises its rank ceiling above zero.
"""

from __future__ import annotations

from repro.policy.qc import QCPolicy


class CorrectedPolicy(QCPolicy):
    """QC reuse plus rank-``k`` SMW correction and cross-damping sharing.

    A strict extension of :class:`~repro.policy.qc.QCPolicy`: the same gate
    (``alpha`` similarity floor, ``loss_bound`` ceiling,
    :meth:`~repro.policy.qc.QCPolicy.certifies_kind`) with a rank ceiling
    of ``max_rank`` instead of 0, so wherever plain QC reuse succeeds this
    policy behaves identically.  Where verbatim reuse *fails* the bound,
    :meth:`~repro.policy.qc.QCPolicy.correct` looks for the smallest rank
    ``k <= max_rank`` whose residual bound clears it.

    Parameters
    ----------
    alpha:
        Snapshot-similarity floor, as for :class:`~repro.policy.qc.QCPolicy`.
    loss_bound:
        Quality-loss ceiling (β) applied to the **residual** bound of a
        corrected answer, exactly as it is applied to the full bound of a
        verbatim one.
    max_rank:
        Correction-rank ceiling (a positive ``int``).  Each unit of rank
        costs one extra triangular sweep at corrector-build time and one row
        of the ``k×k`` capacitance solve per batch — keep it small (the
        default 8 covers a handful of dominant churned columns; past ~32 the
        setup sweeps start rivalling a Bennett refresh).
    """

    def __init__(
        self, alpha: float = 0.95, loss_bound: float = 0.1, max_rank: int = 8
    ) -> None:
        from repro.errors import ClusteringError

        super().__init__(alpha=alpha, loss_bound=loss_bound)
        # bool is an int subclass: True would silently mean rank 1.
        if isinstance(max_rank, bool) or not isinstance(max_rank, int) or max_rank < 1:
            raise ClusteringError(
                f"max_rank must be a positive integer, got {max_rank!r}"
            )
        self._max_rank = max_rank

    @property
    def name(self) -> str:
        return "corrected"

    def __repr__(self) -> str:
        return (
            f"CorrectedPolicy(alpha={self.alpha}, "
            f"loss_bound={self.loss_bound}, max_rank={self._max_rank})"
        )
