"""Reuse policies: the approximation contract as a first-class object.

The layering::

    core.qc (LUDEM-QC drivers)      query.planner (serving)
            └──────────────┬──────────────┘
                      repro.policy
            ReusePolicy · ExactPolicy · QCPolicy
                           │
        core.similarity (mes scoring) · core.quality (loss estimates)
        graphs.delta (fast Δ-based scoring) · graphs.matrixkind (system Δ)

Both consumers of the paper's bounded-quality-loss trade — the offline
β-clustering decompositions and the online query planner — take the same
policy object, so "how approximate may this system be" is stated once,
inspected in one place, and extended by subclassing
:class:`~repro.policy.base.ReusePolicy`.
"""

from repro.policy.base import (
    DECOMPOSITION_FLAVORS,
    CorrectionDecision,
    ReusePolicy,
)
from repro.policy.corrected import CorrectedPolicy
from repro.policy.exact import ExactPolicy
from repro.policy.qc import QCPolicy

__all__ = [
    "DECOMPOSITION_FLAVORS",
    "CorrectionDecision",
    "ReusePolicy",
    "ExactPolicy",
    "QCPolicy",
    "CorrectedPolicy",
]
