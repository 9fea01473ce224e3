"""The straightly incremental (INC) baseline algorithm.

INC (paper Section 4) computes one Markowitz ordering — that of the first
matrix ``A_1`` — applies it to every matrix of the EMS, fully decomposes the
first reordered matrix and then applies Bennett's algorithm to move from each
snapshot's factors to the next.  Its weakness, demonstrated in the paper's
Figure 5, is that a fixed ordering progressively misfits the evolving
matrices, inflating fill-ins and slowing the incremental updates.

Each snapshot's factors are derived from the previous snapshot's, so INC is
one dependency chain: its execution plan has a single work unit and gains
nothing from a parallel executor (the executor contract still holds — the
output is identical either way).
"""

from __future__ import annotations

import time
from typing import List, Sequence, Union

from repro.core.result import (
    MatrixDecomposition,
    SequenceResult,
    Stopwatch,
    TimingBreakdown,
)
from repro.errors import EmptySequenceError
from repro.exec.executors import Executor, resolve_executor
from repro.exec.plan import plan_inc
from repro.lu.bennett import bennett_update
from repro.lu.crout import crout_decompose
from repro.lu.markowitz import markowitz_ordering
from repro.sparse.csr import SparseMatrix


def decompose_chain_inc(
    members: Sequence[SparseMatrix],
    start: int,
    stopwatch: Stopwatch,
    cluster_id: int = -1,
) -> List[MatrixDecomposition]:
    """Run the INC chain over ``members``: one ordering, Bennett updates after.

    This is the body of the (single) INC work unit; ``start`` is the EMS
    index of the first member, recorded on the decompositions.
    """
    with stopwatch.time("ordering"):
        ordering, pattern = markowitz_ordering(members[0])

    decompositions: List[MatrixDecomposition] = []
    with stopwatch.time("decomposition"):
        factors = crout_decompose(ordering.apply(members[0]), pattern=pattern)
    decompositions.append(
        MatrixDecomposition(
            index=start,
            ordering=ordering,
            factors=factors,
            fill_size=factors.fill_size,
            cluster_id=cluster_id,
            structural_ops=factors.structural_ops,
        )
    )

    for offset in range(1, len(members)):
        with stopwatch.time("bennett"):
            delta_original = members[offset - 1].delta_entries(members[offset])
            delta = ordering.map_entries(delta_original)
            # The new snapshot's list structures are derived from the previous
            # snapshot's (a structural copy) and then updated in place; this is
            # the restructuring cost the paper attributes to a straightforward
            # use of Bennett's algorithm.
            factors = factors.copy()
            ops_before = factors.structural_ops
            bennett_update(factors, delta)
            structural_ops = factors.structural_ops - ops_before
        decompositions.append(
            MatrixDecomposition(
                index=start + offset,
                ordering=ordering,
                factors=factors,
                fill_size=factors.fill_size,
                cluster_id=cluster_id,
                structural_ops=structural_ops,
            )
        )
    return decompositions


def decompose_sequence_inc(
    matrices: Sequence[SparseMatrix],
    executor: Union[Executor, int, None] = None,
) -> SequenceResult:
    """Run INC over an EMS: one global ordering, Bennett updates thereafter.

    ``executor`` is accepted for interface uniformity with the other
    algorithms; INC's plan is a single chain unit, so every executor runs it
    the same way.
    """
    matrices = list(matrices)
    if not matrices:
        raise EmptySequenceError("cannot decompose an empty matrix sequence")

    started = time.perf_counter()
    plan = plan_inc(matrices)
    outcome = resolve_executor(executor).execute(plan)
    return SequenceResult(
        algorithm="INC",
        decompositions=outcome.decompositions,
        timing=TimingBreakdown.from_buckets(outcome.timings),
        cluster_count=1,
        wall_time=time.perf_counter() - started,
        bytes_shipped=outcome.bytes_shipped,
    )
