"""Declarative measure IR and the factor-reusing query planner.

The layering this package establishes::

    measures (thin drivers: rwr, ppr, pagerank, salsa, hitting_time)
        └── query   (MeasureSpec IR · QueryBatch · QueryPlanner + FactorCache)
              ├── lu      (Markowitz ordering · Crout factors · substitution)
              │     └── sparse kernels (CSR matvec / spgemm / batched solves)
              └── exec    (work units · serial / parallel executors)

A :class:`MeasureSpec` declares how a measure becomes an ``A x = b``
instance; a :class:`QueryBatch` collects heterogeneous queries; a
:class:`QueryPlanner` groups them by shared system matrix and walks each
group down the :class:`ResolutionLadder` (:mod:`repro.query.resolution`)
— hit, store restore, verbatim reuse, corrected reuse, delta refresh,
cold factorization — so a system matrix is factorized at most once, then
answers every group with one batched multi-RHS solve.  The factor and
result caches live in :mod:`repro.query.cache`.
"""

from repro.query.batch import QueryBatch
from repro.query.cache import FactorCache, ResultCache
from repro.query.planner import (
    BatchResult,
    DirectAnswer,
    PlannedGroup,
    PlannerStats,
    QueryPlan,
    QueryPlanner,
)
from repro.query.resolution import (
    ApproximationRecord,
    CandidateScan,
    ColdTier,
    CorrectedReuseTier,
    HitTier,
    RefreshTier,
    Resolution,
    ResolutionContext,
    ResolutionLadder,
    ResolutionTier,
    StoreRestoreTier,
    TIER_NAMES,
    VerbatimReuseTier,
)
from repro.query.spec import (
    FactorizedSystem,
    MeasureSpec,
    Query,
    SystemKey,
    canonical_params,
    evaluate,
    evaluate_block,
    get_spec,
    make_query,
    registered_measures,
    system_key,
)

__all__ = [
    "MeasureSpec",
    "Query",
    "SystemKey",
    "FactorizedSystem",
    "make_query",
    "canonical_params",
    "system_key",
    "evaluate",
    "evaluate_block",
    "get_spec",
    "registered_measures",
    "QueryBatch",
    "QueryPlanner",
    "QueryPlan",
    "PlannedGroup",
    "DirectAnswer",
    "PlannerStats",
    "BatchResult",
    "ApproximationRecord",
    "FactorCache",
    "ResultCache",
    "Resolution",
    "ResolutionContext",
    "ResolutionTier",
    "ResolutionLadder",
    "CandidateScan",
    "HitTier",
    "StoreRestoreTier",
    "VerbatimReuseTier",
    "CorrectedReuseTier",
    "RefreshTier",
    "ColdTier",
    "TIER_NAMES",
]
