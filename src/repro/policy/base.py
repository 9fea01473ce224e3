"""The reuse-policy protocol: approximation as a first-class object.

The paper's central trade — accept a *bounded* quality loss to reuse an
existing factorization instead of computing a fresh one — appears twice in
this library:

* **Offline** (LUDEM-QC, Section 5): the β-clustering algorithms grow a
  cluster only while the shared ordering provably keeps every member's
  quality loss (Definition 4) within the bound.
* **Online** (serving): a query planner facing a cache miss for a snapshot
  that is *similar enough* to a cached one may answer from the cached
  system's factors outright — no refresh, no factorization — as long as the
  estimated answer deviation stays within the bound.

A :class:`ReusePolicy` makes that trade inspectable and swappable instead of
a flag buried inside one algorithm.  It owns the accept/reject decision:
a similarity floor over :func:`repro.core.similarity.snapshot_similarity`
and a quality-loss ceiling over :func:`repro.core.quality.reuse_loss_bound`
online (Definition 4 via :class:`~repro.core.quality.MarkowitzReference`
offline).  :class:`~repro.policy.exact.
ExactPolicy` never approximates; :class:`~repro.policy.qc.QCPolicy` applies
the paper's α/β gates; new policies subclass :class:`ReusePolicy`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # imported lazily at runtime to keep the package cycle-free
    from repro.core.clustering import MatrixCluster
    from repro.core.quality import MarkowitzReference
    from repro.graphs.matrixkind import MatrixKind
    from repro.graphs.snapshot import GraphSnapshot
    from repro.sparse.csr import SparseMatrix

#: The decomposition flavors a policy can cluster for (Algorithms 4 and 5).
DECOMPOSITION_FLAVORS = ("CINC", "CLUDE")


@dataclasses.dataclass(frozen=True)
class CorrectionDecision:
    """A policy's verdict that a cached system may answer, after ``k`` columns.

    Produced by :meth:`ReusePolicy.correct` for a concrete system delta
    ``ΔA`` between a cached parent system and the miss's system.  The planner
    then applies the ``columns`` of ``ΔA`` exactly via Sherman–Morrison–
    Woodbury over the parent's cached factors and records ``loss_estimate``
    — the certified bound on the *residual* deviation — in the batch result.

    Attributes
    ----------
    similarity:
        Snapshot similarity of the (parent, child) pair (``1.0`` for
        cross-damping corrections, whose snapshots are content-identical).
    loss_estimate:
        Certified residual bound after applying ``columns``
        (:func:`~repro.core.quality.residual_loss_bound`); within the
        policy's declared bound by construction.
    uncorrected_estimate:
        The verbatim-reuse bound for the same pair — what
        :func:`~repro.core.quality.reuse_loss_bound` certifies with no
        correction at all.  Always ``>= loss_estimate``; the gap is the
        quality bought by the rank-``k`` work.
    rank:
        Number of delta columns applied exactly (``k``); ``0`` means the
        parent's answer already clears the bound verbatim, and then
        ``loss_estimate == uncorrected_estimate``.
    columns:
        The applied column indices, in application order (dominant first).
    """

    similarity: float
    loss_estimate: float
    uncorrected_estimate: float
    rank: int
    columns: Tuple[int, ...]

    def preferable_to(self, other: "CorrectionDecision") -> bool:
        """Deterministic ranking: cheapest rank, then tightest bound, then
        highest similarity."""
        return (-self.rank, -self.loss_estimate, self.similarity) > (
            -other.rank,
            -other.loss_estimate,
            other.similarity,
        )


class ReusePolicy(abc.ABC):
    """Decides when an existing factorization may stand in for a fresh one.

    Two consumer surfaces share one policy object:

    * :meth:`correct` — the **serving** gate.  The query planner scores every
      cached candidate system of a miss group once: it builds the system
      delta ``ΔA`` and asks :meth:`correct` for the cheapest admissible
      correction rank.  A rank-0 :class:`CorrectionDecision` licenses
      answering verbatim from the candidate's factors; rank ``k <=``
      :attr:`max_rank` licenses a Sherman–Morrison–Woodbury corrected
      answer.  The decision carries the audit fields recorded in the batch
      result.
    * :meth:`decomposition_clusters` — the **offline** gate.  The LUDEM-QC
      drivers (:mod:`repro.core.qc`) delegate their β-clustering step here,
      so the same policy object states the quality contract for both paths.

    The defaults approximate nothing: no kind is certified and every
    correction is rejected.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable policy name (appears in audit records)."""

    @property
    @abc.abstractmethod
    def is_exact(self) -> bool:
        """``True`` when the policy never licenses an approximate answer.

        The planner skips the candidate scan entirely for exact policies, so
        an exact-policy planner is bitwise-identical to a policy-less one.
        """

    @property
    def alpha(self) -> float:
        """Similarity floor of :meth:`correct` (``0.0``: no floor).

        The planner builds no ``ΔA`` for a candidate scoring below it.
        """
        return 0.0

    @property
    def max_rank(self) -> int:
        """Highest correction rank :meth:`correct` may return.

        ``0`` admits verbatim reuse only; the planner's corrected-reuse tier
        (rank-``k`` and cross-damping answers) runs only when it is positive.
        """
        return 0

    @staticmethod
    def certifies_kind(kind: "MatrixKind") -> bool:
        """Whether :meth:`correct`'s bound is certified for matrix ``kind``.

        The planner never scores candidates of an uncertified kind.
        """
        return False

    def prefilter(self, parent: "GraphSnapshot", child: "GraphSnapshot") -> bool:
        """Cheap O(1) pre-gate run before any delta is built for a candidate.

        Return ``False`` only when the pair provably misses :attr:`alpha`,
        using nothing more expensive than counts — the planner then skips
        the O(|E|) delta construction for that candidate.  The default
        accepts everything (no information, no rejection).
        """
        return True

    def correct(
        self,
        entries: Dict[Tuple[int, int], float],
        *,
        amplifier_damping: float,
        similarity: float,
    ) -> Optional["CorrectionDecision"]:
        """Gate answering from a cached system whose delta to the miss is known.

        ``entries`` is the sparse system delta ``ΔA = A_child - A_parent``
        (:func:`~repro.graphs.matrixkind.system_delta` /
        :func:`~repro.graphs.matrixkind.damping_delta` output) and
        ``amplifier_damping`` the value to feed the bound machinery (``0.0``
        for Laplacian systems, the damping factor otherwise — the caller owns
        that per-kind mapping).  Returns a :class:`CorrectionDecision` naming
        the columns to apply (none for verbatim reuse), or ``None`` to
        reject.  The default implementation rejects everything.
        """
        return None

    @abc.abstractmethod
    def decomposition_clusters(
        self,
        flavor: str,
        matrices: Sequence["SparseMatrix"],
        reference: Optional["MarkowitzReference"] = None,
    ) -> List["MatrixCluster"]:
        """Segment an EMS under this policy's quality contract.

        ``flavor`` selects the clustering algorithm (``"CINC"`` = Algorithm 4,
        first-member ordering; ``"CLUDE"`` = Algorithm 5, union ordering with
        the ``|s̃p(A_∪^{O_∪})|`` shortcut).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _beta_clusters(
    flavor: str,
    matrices: Sequence["SparseMatrix"],
    beta: float,
    reference: Optional["MarkowitzReference"],
) -> List["MatrixCluster"]:
    """Run the paper's β-clustering for one flavor (shared by the policies).

    Imported lazily: :mod:`repro.core.clustering` sits below the query/solver
    layers that import this package at module load.
    """
    from repro.core.clustering import beta_clustering_cinc, beta_clustering_clude
    from repro.errors import ClusteringError

    if flavor == "CINC":
        return beta_clustering_cinc(matrices, beta, reference)
    if flavor == "CLUDE":
        return beta_clustering_clude(matrices, beta, reference)
    raise ClusteringError(
        f"unknown decomposition flavor {flavor!r}; "
        f"expected one of {', '.join(DECOMPOSITION_FLAVORS)}"
    )
