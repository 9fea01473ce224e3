"""Clustering of an evolving matrix sequence.

Implements the three segmentation procedures of the paper:

* :func:`alpha_clustering` — Algorithm 1: greedy segmentation keeping every
  cluster α-bounded (``mes(A_∩, A_∪) >= α``).
* :func:`beta_clustering_cinc` — Algorithm 4: segmentation driven by the
  LUDEM-QC quality constraint, using the Markowitz ordering of the first
  cluster member as the shared ordering (the CINC variant).
* :func:`beta_clustering_clude` — Algorithm 5: segmentation driven by the
  quality constraint, using the Markowitz ordering of the cluster union
  ``A_∪`` and the shortcut ``|s̃p(A_∪^{O_∪})|`` bound (the CLUDE variant).

All three return a list of :class:`MatrixCluster` objects carrying the member
indices (contiguous ranges of the EMS, since the sequence evolves gradually).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.quality import MarkowitzReference, symbolic_size_under_ordering
from repro.core.similarity import IncrementalClusterBound, cluster_union_matrix
from repro.errors import ClusteringError
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix


@dataclasses.dataclass(frozen=True)
class MatrixCluster:
    """A contiguous run of EMS indices grouped into one cluster.

    Attributes
    ----------
    start:
        Index of the first member matrix in the EMS.
    stop:
        One past the index of the last member (so members are ``start … stop-1``).
    """

    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of member matrices."""
        return self.stop - self.start

    @property
    def indices(self) -> range:
        """The member indices as a range."""
        return range(self.start, self.stop)

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ClusteringError(f"empty cluster: start={self.start}, stop={self.stop}")


def clusters_cover_sequence(clusters: Sequence[MatrixCluster], length: int) -> bool:
    """Return ``True`` when the clusters exactly partition ``0 … length-1`` in order."""
    expected_start = 0
    for cluster in clusters:
        if cluster.start != expected_start:
            return False
        expected_start = cluster.stop
    return expected_start == length


def alpha_clustering(matrices: Sequence[SparseMatrix], alpha: float) -> List[MatrixCluster]:
    """Segment the EMS into α-bounded clusters (paper Algorithm 1).

    Matrices are scanned in sequence order; each is added to the current
    cluster as long as the cluster's compactness ``mes(A_∩, A_∪)`` stays at
    least ``alpha``, otherwise a new cluster is started.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ClusteringError(f"alpha must lie in [0, 1], got {alpha}")
    matrices = list(matrices)
    if not matrices:
        raise ClusteringError("cannot cluster an empty matrix sequence")

    clusters: List[MatrixCluster] = []
    start = 0
    bound = IncrementalClusterBound(matrices[0])
    for index in range(1, len(matrices)):
        if bound.compactness_with(matrices[index]) >= alpha:
            bound.add(matrices[index])
        else:
            clusters.append(MatrixCluster(start, index))
            start = index
            bound = IncrementalClusterBound(matrices[index])
    clusters.append(MatrixCluster(start, len(matrices)))
    return clusters


def beta_clustering_cinc(
    matrices: Sequence[SparseMatrix],
    beta: float,
    reference: MarkowitzReference | None = None,
) -> List[MatrixCluster]:
    """Segment the EMS under the LUDEM-QC constraint, CINC style (Algorithm 4).

    The shared ordering of a cluster is the Markowitz ordering of its first
    member; a candidate matrix joins the cluster only if that ordering keeps
    its quality-loss within ``beta``.
    """
    if beta < 0.0:
        raise ClusteringError(f"beta must be non-negative, got {beta}")
    matrices = list(matrices)
    if not matrices:
        raise ClusteringError("cannot cluster an empty matrix sequence")
    reference = reference or MarkowitzReference(symmetric=True)

    clusters: List[MatrixCluster] = []
    start = 0
    shared_ordering, _ = markowitz_ordering(matrices[0])
    for index in range(1, len(matrices)):
        candidate = matrices[index]
        achieved = symbolic_size_under_ordering(candidate, shared_ordering)
        best = reference.size_for(index, candidate)
        if achieved - best <= beta * best:
            continue
        clusters.append(MatrixCluster(start, index))
        start = index
        shared_ordering, _ = markowitz_ordering(candidate)
    clusters.append(MatrixCluster(start, len(matrices)))
    return clusters


def beta_clustering_clude(
    matrices: Sequence[SparseMatrix],
    beta: float,
    reference: MarkowitzReference | None = None,
) -> List[MatrixCluster]:
    """Segment the EMS under the LUDEM-QC constraint, CLUDE style (Algorithm 5).

    The shared ordering of a cluster is the Markowitz ordering ``O_∪`` of its
    union matrix ``A_∪``.  Following the paper's shortcut, the constraint is
    checked against the upper bound ``|s̃p(A_∪^{O_∪})|``: since every member's
    symbolic pattern is contained in the union's (Property 1 + Lemma 1), the
    bound being within ``beta`` of a member's reference implies the member's
    own constraint holds.
    """
    if beta < 0.0:
        raise ClusteringError(f"beta must be non-negative, got {beta}")
    matrices = list(matrices)
    if not matrices:
        raise ClusteringError("cannot cluster an empty matrix sequence")
    reference = reference or MarkowitzReference(symmetric=True)

    clusters: List[MatrixCluster] = []
    start = 0
    members: List[SparseMatrix] = [matrices[0]]
    for index in range(1, len(matrices)):
        candidate = matrices[index]
        trial_members = members + [candidate]
        union_matrix = cluster_union_matrix(trial_members)
        union_size = len(markowitz_ordering(union_matrix)[1])
        satisfied = True
        for offset, member in enumerate(trial_members):
            member_index = start + offset
            best = reference.size_for(member_index, member)
            if union_size - best > beta * best:
                satisfied = False
                break
        if satisfied:
            members = trial_members
        else:
            clusters.append(MatrixCluster(start, index))
            start = index
            members = [candidate]
    clusters.append(MatrixCluster(start, len(matrices)))
    return clusters
