"""The exact policy: never trade correctness for reuse."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.policy.base import ReusePolicy, _beta_clusters

if TYPE_CHECKING:
    from repro.core.clustering import MatrixCluster
    from repro.core.quality import MarkowitzReference
    from repro.sparse.csr import SparseMatrix


class ExactPolicy(ReusePolicy):
    """Zero tolerated quality loss — the planner's default contract.

    Serving: the planner skips both reuse tiers for an exact policy (and the
    inherited :meth:`correct` rejects everything anyway), so a query is
    only ever answered from factors of its *own* system matrix (cache hit,
    delta refresh where explicitly opted into, or cold factorization) and the
    planner's output stays bitwise-identical to the policy-less planner.

    Decomposition: clustering with the quality bound pinned to ``β = 0`` —
    an ordering is shared across snapshots only while it is provably as good
    as each member's own Markowitz ordering (Definition 4 loss of exactly
    zero), which still merges structurally identical snapshots.
    """

    @property
    def name(self) -> str:
        return "exact"

    @property
    def is_exact(self) -> bool:
        return True

    def decomposition_clusters(
        self,
        flavor: str,
        matrices: Sequence["SparseMatrix"],
        reference: Optional["MarkowitzReference"] = None,
    ) -> List["MatrixCluster"]:
        return _beta_clusters(flavor, matrices, 0.0, reference)
