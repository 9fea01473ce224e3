"""Bennett's algorithm: incremental update of LU factors.

Bennett (1965) showed how to update the triangular factors of a matrix after
a low-rank modification ``A' = A + X Y^T`` at a cost proportional to the rank
of the update times the number of non-zeros in the factors, instead of
re-decomposing from scratch.  The incremental algorithms of the paper (INC,
CINC and CLUDE) all rely on this routine to move from one snapshot's factors
to the next.

The implementation works on the Crout convention used throughout the library
(``L`` lower triangular with explicit pivots, ``U`` unit upper triangular).
Rank-k updates are applied as a sequence of rank-1 sweeps; the sparse update
matrix ``ΔA`` is converted to rank-1 terms by grouping its entries by column
or by row, whichever yields fewer terms.

Per elimination step ``k`` the rank-1 sweep applies (with ``d = L[k, k]``)::

    d'        = d + u[k] v[k]
    L[i, k]'  = L[i, k] + v[k] u[i]                    (i > k)
    U[k, j]'  = (d U[k, j] + u[k] v[j]) / d'           (j > k)
    u[i]'     = (d u[i] - u[k] L[i, k]) / d'           (i > k)
    v[j]'     = v[j] - v[k] U[k, j]                    (j > k)

One sweep applies these formulas to either mode of
:class:`~repro.lu.factors.LUFactors`, reading and writing its per-column
``L`` and per-row ``U`` lists directly.  It visits only the *active* steps —
those where ``u[k]`` or ``v[k]`` is non-zero — by popping the next pending
index from a min-heap; every index it adds to ``u`` or ``v`` lies past the
current step.  The two modes differ only in where a value may land:

* growable factors store non-zeros only.  A stored value that falls below
  ``DROP_TOLERANCE`` is removed, a new non-zero of at least that size is
  merged in, and each column or row that changes shape is rebuilt in one
  pass; every insert and removal counts in ``structural_ops``.  This is the
  restructuring cost the paper measures for INC and CINC.
* sealed factors (CLUDE's USSP structure) keep every slot, zeros included,
  and are written in place.  A fill outside the pattern larger than
  ``OUTSIDE_PATTERN_TOLERANCE`` raises :class:`~repro.errors.PatternError`;
  smaller ones are floating-point residue of exact zeros and are skipped.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Tuple

from repro.errors import PatternError, SingularMatrixError
from repro.lu.factors import LUFactors
from repro.sparse.types import Entries

#: Pivots whose updated magnitude falls below this threshold abort the update.
PIVOT_TOLERANCE = 1e-12

#: Updated values whose magnitude falls below this threshold are treated as
#: exact zeros (and leave growable lists), preventing noise from accumulating.
DROP_TOLERANCE = 1e-14

#: A value that "wants" to land outside a sealed structure's admissible
#: pattern is tolerated (skipped) when smaller than this — such values are
#: floating-point residue of positions that are exactly zero in exact
#: arithmetic.  Anything larger indicates a genuine pattern violation.
OUTSIDE_PATTERN_TOLERANCE = 1e-9

#: A sparse vector represented as an ``{index: value}`` mapping.
SparseVector = Dict[int, float]


def delta_to_rank_one_terms(delta: Entries) -> List[Tuple[SparseVector, SparseVector]]:
    """Convert a sparse update matrix ``ΔA`` into rank-1 terms ``u v^T``.

    Entries are grouped by column when the update touches fewer columns than
    rows, and by row otherwise, so the number of rank-1 sweeps equals the
    smaller of the two counts (an upper bound on the true rank of ``ΔA``).
    """
    if not delta:
        return []
    columns = {j for (_, j) in delta}
    rows = {i for (i, _) in delta}
    terms: List[Tuple[SparseVector, SparseVector]] = []
    if len(columns) <= len(rows):
        by_column: Dict[int, SparseVector] = {}
        for (i, j), value in delta.items():
            by_column.setdefault(j, {})[i] = value
        for j in sorted(by_column):
            terms.append((by_column[j], {j: 1.0}))
    else:
        by_row: Dict[int, SparseVector] = {}
        for (i, j), value in delta.items():
            by_row.setdefault(i, {})[j] = value
        for i in sorted(by_row):
            terms.append(({i: 1.0}, by_row[i]))
    return terms


def _clean_vector(vector: SparseVector, n: int) -> SparseVector:
    """Validate indices and drop explicit zeros from an update vector."""
    cleaned: SparseVector = {}
    for index, value in vector.items():
        index = int(index)
        if not 0 <= index < n:
            raise PatternError(f"update index {index} out of bounds for n={n}")
        value = float(value)
        if value != 0.0:
            cleaned[index] = value
    return cleaned


def _restructure(indices: List[int], values: List[float], fills) -> int:
    """Drop zeroed entries of one growable list and merge ``fills`` into it.

    Returns the number of structural operations (removals plus inserts).
    """
    kept = [entry for entry in zip(indices, values) if entry[1] != 0.0]
    removed = len(indices) - len(kept)
    kept.extend(fills)
    kept.sort()
    indices[:] = [index for index, _ in kept]
    values[:] = [value for _, value in kept]
    return removed + len(fills)


def bennett_rank_one_update(
    factors: LUFactors,
    u: SparseVector,
    v: SparseVector,
    pivot_tolerance: float = PIVOT_TOLERANCE,
    drop_tolerance: float = DROP_TOLERANCE,
) -> int:
    """Update ``factors`` in place so they factor ``L U + u v^T``.

    Parameters
    ----------
    factors:
        Growable or sealed factors currently holding ``A = L U``.
    u, v:
        The rank-1 update vectors as sparse ``{index: value}`` mappings.
    pivot_tolerance:
        Updated pivots smaller than this raise
        :class:`~repro.errors.SingularMatrixError`.
    drop_tolerance:
        Values below this magnitude are treated as exact zeros.

    Returns
    -------
    int
        The number of elimination steps that performed numerical work (a
        proxy for the cost of the sweep, useful in benchmarks).
    """
    n = factors.n
    sealed = factors.is_sealed
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    drop = drop_tolerance
    # A growable list stores a value inside (-tiny, tiny) as 0.0 and then
    # removes it; sealed slots keep whatever the formulas give.
    tiny = -1.0 if sealed else drop_tolerance
    neg_tiny = -tiny

    u_work = _clean_vector(u, n)
    v_work = _clean_vector(v, n)
    u_get = u_work.get
    v_get = v_work.get
    # Every key of u_work / v_work is queued; a stale or repeated index pops
    # with both work vectors empty there and is skipped.
    pending = sorted(u_work.keys() | v_work.keys())

    active_steps = 0
    while pending:
        k = heappop(pending)
        uk = u_work.pop(k, 0.0)
        vk = v_work.pop(k, 0.0)
        if uk == 0.0 and vk == 0.0:
            continue
        active_steps += 1
        d_old = pivots[k]
        d_new = d_old + uk * vk
        if -pivot_tolerance <= d_new <= pivot_tolerance:
            raise SingularMatrixError(k, d_new)
        pivots[k] = d_new

        # ----- column k of L, and propagation of u ---------------------- #
        rows = l_rows[k]
        values = l_values[k]
        missing = ()
        if uk == 0.0:
            # u stays put; only positions where u is non-zero change.
            missing = []
            for i, ui in u_work.items():
                slot = bisect_left(rows, i)
                if slot < len(rows) and rows[slot] == i:
                    l_new = values[slot] + vk * ui
                    values[slot] = 0.0 if neg_tiny < l_new < tiny else l_new
                else:
                    missing.append(i)
        else:
            # u's non-zeros outside the column are rare (an exact fill lands
            # inside the pattern), so count the ones inside it first.
            outside = len(u_work)
            for slot, i in enumerate(rows):
                l_old = values[slot]
                ui_old = u_get(i, 0.0)
                if ui_old != 0.0:
                    outside -= 1
                    if vk != 0.0:
                        l_new = l_old + vk * ui_old
                        values[slot] = 0.0 if neg_tiny < l_new < tiny else l_new
                elif l_old == 0.0:
                    continue
                ui_new = (d_old * ui_old - uk * l_old) / d_new
                if -drop < ui_new < drop:
                    if ui_old != 0.0:
                        del u_work[i]
                else:
                    if ui_old == 0.0:
                        heappush(pending, i)
                    u_work[i] = ui_new
            if vk != 0.0 and outside:
                stored = set(rows)
                missing = [i for i in u_work if i not in stored]
        fills = []
        rescale = uk != 0.0 and d_new != d_old
        for i in missing:
            ui_old = u_work[i]
            fill_value = vk * ui_old
            if sealed:
                if abs(fill_value) > OUTSIDE_PATTERN_TOLERANCE:
                    raise PatternError(
                        f"fill-in at ({i}, {k}) falls outside the universal pattern"
                    )
            elif abs(fill_value) >= drop:
                fills.append((i, fill_value))
            if rescale:
                ui_new = d_old * ui_old / d_new
                if -drop < ui_new < drop:
                    del u_work[i]
                else:
                    u_work[i] = ui_new
        if not sealed and (fills or 0.0 in values):
            factors.structural_ops += _restructure(rows, values, fills)

        # ----- row k of U, and propagation of v -------------------------- #
        cols = u_cols[k]
        row_values = u_values[k]
        outside = len(v_work)
        for slot, j in enumerate(cols):
            u_kj_old = row_values[slot]
            vj_old = v_get(j, 0.0)
            if vj_old != 0.0:
                outside -= 1
            elif u_kj_old == 0.0:
                continue
            if vk != 0.0 and u_kj_old != 0.0:
                vj_new = vj_old - vk * u_kj_old
                if -drop < vj_new < drop:
                    if vj_old != 0.0:
                        del v_work[j]
                else:
                    if vj_old == 0.0:
                        heappush(pending, j)
                    v_work[j] = vj_new
            if uk != 0.0:
                u_kj_new = (d_old * u_kj_old + uk * vj_old) / d_new
                row_values[slot] = 0.0 if neg_tiny < u_kj_new < tiny else u_kj_new
        fills = []
        if uk != 0.0 and outside:
            stored = set(cols)
            for j, vj in v_work.items():
                if j in stored:
                    continue
                fill_value = uk * vj / d_new
                if sealed:
                    if abs(fill_value) > OUTSIDE_PATTERN_TOLERANCE:
                        raise PatternError(
                            f"fill-in at ({k}, {j}) falls outside the universal pattern"
                        )
                elif abs(fill_value) >= drop:
                    fills.append((j, fill_value))
        if not sealed and (fills or 0.0 in row_values):
            factors.structural_ops += _restructure(cols, row_values, fills)
    return active_steps


def bennett_update(
    factors: LUFactors,
    delta: Entries,
    pivot_tolerance: float = PIVOT_TOLERANCE,
    drop_tolerance: float = DROP_TOLERANCE,
) -> int:
    """Apply a sparse update ``ΔA`` to existing factors via rank-1 sweeps.

    Returns the total number of active elimination steps across all sweeps.
    """
    total_steps = 0
    for u, v in delta_to_rank_one_terms(delta):
        total_steps += bennett_rank_one_update(
            factors, u, v, pivot_tolerance=pivot_tolerance, drop_tolerance=drop_tolerance
        )
    return total_steps


def apply_rank_one_dense(dense, u: Sequence[float], v: Sequence[float]):
    """Return ``dense + outer(u, v)`` (tiny helper for tests)."""
    import numpy as np

    array = np.array(dense, dtype=float)
    return array + np.outer(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
