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

Both sweeps read and write the per-column ``L`` and per-row ``U`` lists of
:class:`~repro.lu.factors.LUFactors` directly, and visit only the *active*
steps — those where ``u[k]`` or ``v[k]`` is non-zero — by popping the next
pending index from a min-heap; every index added to ``u`` or ``v`` lies
past the current step.  Work-vector entries below ``DROP_TOLERANCE`` are
exact zeros.  Each factor mode has its own sweep:

* growable factors store non-zeros only.  A stored value that falls below
  ``DROP_TOLERANCE`` is removed, a new non-zero of at least that size is
  merged in, and each column or row that changes shape is rebuilt in one
  pass; every insert and removal counts in ``structural_ops``.  This is the
  restructuring cost the paper measures for INC and CINC.  Fills need the
  index set of ``u`` and ``v``, so this sweep keeps them as
  ``{index: value}`` dicts.
* sealed factors (CLUDE's USSP structure) keep every slot, zeros included,
  and are written in place with the raw values.  Since the structure never
  changes, the update is purely numerical, so this sweep holds ``u`` and
  ``v`` as dense lists of ``n`` floats (reused by every rank-1 term of one
  :func:`bennett_update`) and runs one slot loop per case of
  ``(u[k] == 0, v[k] == 0)``: no dict lookup and no mode or case test per
  slot.  A fill outside the pattern larger than
  ``OUTSIDE_PATTERN_TOLERANCE`` raises :class:`~repro.errors.PatternError`;
  smaller ones are floating-point residue of exact zeros and are skipped.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import compress, islice
from typing import Dict, List, Tuple

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


def _growable_sweep(
    factors: LUFactors,
    u: SparseVector,
    v: SparseVector,
    pivot_tolerance: float,
    drop: float,
) -> int:
    """One rank-1 sweep over growable factors, with dict work vectors."""
    n = factors.n
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    neg_drop = -drop

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
                    values[slot] = 0.0 if neg_drop < l_new < drop else l_new
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
                        values[slot] = 0.0 if neg_drop < l_new < drop else l_new
                elif l_old == 0.0:
                    continue
                ui_new = (d_old * ui_old - uk * l_old) / d_new
                if neg_drop < ui_new < drop:
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
            if abs(fill_value) >= drop:
                fills.append((i, fill_value))
            if rescale:
                ui_new = d_old * ui_old / d_new
                if neg_drop < ui_new < drop:
                    del u_work[i]
                else:
                    u_work[i] = ui_new
        if fills or 0.0 in values:
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
                if neg_drop < vj_new < drop:
                    if vj_old != 0.0:
                        del v_work[j]
                else:
                    if vj_old == 0.0:
                        heappush(pending, j)
                    v_work[j] = vj_new
            if uk != 0.0:
                u_kj_new = (d_old * u_kj_old + uk * vj_old) / d_new
                row_values[slot] = 0.0 if neg_drop < u_kj_new < drop else u_kj_new
        fills = []
        if uk != 0.0 and outside:
            stored = set(cols)
            for j, vj in v_work.items():
                if j in stored:
                    continue
                fill_value = uk * vj / d_new
                if abs(fill_value) >= drop:
                    fills.append((j, fill_value))
        if fills or 0.0 in row_values:
            factors.structural_ops += _restructure(cols, row_values, fills)
    return active_steps


def _sealed_sweep(
    factors: LUFactors,
    u: SparseVector,
    v: SparseVector,
    u_work: List[float],
    v_work: List[float],
    pivot_tolerance: float,
    drop: float,
) -> int:
    """One rank-1 sweep over sealed factors, with dense work vectors.

    ``u_work`` and ``v_work`` are lists of ``n`` zeros; the sweep leaves
    them all-zero again when it returns, because every non-zero entry is
    queued and zeroed when its step pops.  An entry is never ``-0.0``: a
    dropped or popped entry is written as ``0.0``.  ``nnz_u``/``nnz_v``
    count the non-zeros, so the scan for entries outside column or row
    ``k``'s slots runs only when there are some.

    ``tests/test_bennett_sealed.py`` pins pivots, ``L``, ``U`` and the step
    count bit for bit to a dict-vector reference sweep, and a failing
    update to the same exception at the same step ``k`` (a
    :class:`SingularMatrixError` with the same pivot).  Two things may
    differ on failure: which ``(i, k)`` a :class:`PatternError` names, and
    the partial state left in the container.  No caller reads a failed container: a refresh works on a
    clone, and CLUDE propagates the error.
    """
    n = factors.n
    pivots, l_rows, l_values, u_cols, u_values = factors.sweep_storage()
    neg_drop = -drop

    u_clean = _clean_vector(u, n)
    v_clean = _clean_vector(v, n)
    for i, value in u_clean.items():
        u_work[i] = value
    for j, value in v_clean.items():
        v_work[j] = value
    nnz_u = len(u_clean)
    nnz_v = len(v_clean)
    # A stale or repeated index pops with both work vectors zero there and
    # is skipped.
    pending = sorted(u_clean.keys() | v_clean.keys())

    active_steps = 0
    while pending:
        k = heappop(pending)
        uk = u_work[k]
        vk = v_work[k]
        if uk == 0.0:
            if vk == 0.0:
                continue
        else:
            u_work[k] = 0.0
            nnz_u -= 1
        if vk != 0.0:
            v_work[k] = 0.0
            nnz_v -= 1
        active_steps += 1
        d_old = pivots[k]
        d_new = d_old + uk * vk
        if -pivot_tolerance <= d_new <= pivot_tolerance:
            raise SingularMatrixError(k, d_new)
        pivots[k] = d_new

        # ----- column k of L, and propagation of u ---------------------- #
        rows = l_rows[k]
        values = l_values[k]
        nnz_u_before = nnz_u
        inside = 0
        if uk == 0.0:
            # u stays put; L changes where u is non-zero.
            if nnz_u:
                for slot, i in enumerate(rows):
                    ui = u_work[i]
                    if ui != 0.0:
                        inside += 1
                        values[slot] = values[slot] + vk * ui
        elif vk == 0.0:
            # L stays put; u moves where it or L is non-zero.
            for slot, i in enumerate(rows):
                ui_old = u_work[i]
                if ui_old == 0.0:
                    l_old = values[slot]
                    if l_old == 0.0:
                        continue
                    ui_new = (d_old * ui_old - uk * l_old) / d_new
                    if not neg_drop < ui_new < drop:
                        heappush(pending, i)
                        nnz_u += 1
                        u_work[i] = ui_new
                else:
                    ui_new = (d_old * ui_old - uk * values[slot]) / d_new
                    if neg_drop < ui_new < drop:
                        nnz_u -= 1
                        u_work[i] = 0.0
                    else:
                        u_work[i] = ui_new
        else:
            for slot, i in enumerate(rows):
                ui_old = u_work[i]
                l_old = values[slot]
                if ui_old == 0.0:
                    if l_old == 0.0:
                        continue
                    ui_new = (d_old * ui_old - uk * l_old) / d_new
                    if not neg_drop < ui_new < drop:
                        heappush(pending, i)
                        nnz_u += 1
                        u_work[i] = ui_new
                else:
                    inside += 1
                    values[slot] = l_old + vk * ui_old
                    ui_new = (d_old * ui_old - uk * l_old) / d_new
                    if neg_drop < ui_new < drop:
                        nnz_u -= 1
                        u_work[i] = 0.0
                    else:
                        u_work[i] = ui_new
        # Entries of u outside the column did not move in the loop above.
        # A zero v[k] puts nothing there, so they are neither checked nor
        # rescaled.
        outside_u = nnz_u_before - inside if vk != 0.0 else 0
        if outside_u:
            stored = set(rows)
            rescale = uk != 0.0 and d_new != d_old
            for i in _outside(u_work, k, stored, outside_u):
                ui_old = u_work[i]
                if abs(vk * ui_old) > OUTSIDE_PATTERN_TOLERANCE:
                    raise PatternError(
                        f"fill-in at ({i}, {k}) falls outside the universal pattern"
                    )
                if rescale:
                    ui_new = d_old * ui_old / d_new
                    if neg_drop < ui_new < drop:
                        nnz_u -= 1
                        u_work[i] = 0.0
                    else:
                        u_work[i] = ui_new

        # ----- row k of U, and propagation of v -------------------------- #
        cols = u_cols[k]
        row_values = u_values[k]
        if uk == 0.0:
            # U stays put; v moves where U is non-zero.
            for j, u_kj in zip(cols, row_values):
                if u_kj != 0.0:
                    vj_old = v_work[j]
                    vj_new = vj_old - vk * u_kj
                    if neg_drop < vj_new < drop:
                        if vj_old != 0.0:
                            nnz_v -= 1
                            v_work[j] = 0.0
                    else:
                        if vj_old == 0.0:
                            heappush(pending, j)
                            nnz_v += 1
                        v_work[j] = vj_new
            continue
        nnz_v_before = nnz_v
        inside = 0
        if vk == 0.0:
            # v stays put; U moves where it or v is non-zero.
            for slot, j in enumerate(cols):
                vj = v_work[j]
                u_kj_old = row_values[slot]
                if vj != 0.0:
                    inside += 1
                elif u_kj_old == 0.0:
                    continue
                row_values[slot] = (d_old * u_kj_old + uk * vj) / d_new
        else:
            for slot, j in enumerate(cols):
                vj_old = v_work[j]
                u_kj_old = row_values[slot]
                if vj_old != 0.0:
                    inside += 1
                elif u_kj_old == 0.0:
                    continue
                if u_kj_old != 0.0:
                    vj_new = vj_old - vk * u_kj_old
                    if neg_drop < vj_new < drop:
                        if vj_old != 0.0:
                            nnz_v -= 1
                            v_work[j] = 0.0
                    else:
                        if vj_old == 0.0:
                            heappush(pending, j)
                            nnz_v += 1
                        v_work[j] = vj_new
                row_values[slot] = (d_old * u_kj_old + uk * vj_old) / d_new
        # Entries of v outside the row did not move in the loop above.
        outside_v = nnz_v_before - inside
        if outside_v:
            for j in _outside(v_work, k, set(cols), outside_v):
                if abs(uk * v_work[j] / d_new) > OUTSIDE_PATTERN_TOLERANCE:
                    raise PatternError(
                        f"fill-in at ({k}, {j}) falls outside the universal pattern"
                    )
    return active_steps


def _outside(work: List[float], k: int, stored, count: int) -> List[int]:
    """The first ``count`` indices past ``k`` where ``work`` is non-zero, not in ``stored``."""
    found = []
    for index in compress(range(k + 1, len(work)), islice(work, k + 1, None)):
        if index not in stored:
            found.append(index)
            if len(found) == count:
                break
    return found


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

    A failed update leaves the factors partly updated; callers that must
    survive a failure update a copy.
    """
    if factors.is_sealed:
        n = factors.n
        return _sealed_sweep(
            factors, u, v, [0.0] * n, [0.0] * n, pivot_tolerance, drop_tolerance
        )
    return _growable_sweep(factors, u, v, pivot_tolerance, drop_tolerance)


def bennett_update(
    factors: LUFactors,
    delta: Entries,
    pivot_tolerance: float = PIVOT_TOLERANCE,
    drop_tolerance: float = DROP_TOLERANCE,
) -> int:
    """Apply a sparse update ``ΔA`` to existing factors via rank-1 sweeps.

    Returns the total number of active elimination steps across all sweeps.
    Sealed factors get two dense work vectors for the whole call; each
    sweep leaves them zeroed for the next term.  As with
    :func:`bennett_rank_one_update`, a failed update leaves the factors
    partly updated.
    """
    terms = delta_to_rank_one_terms(delta)
    if factors.is_sealed:
        u_work = [0.0] * factors.n
        v_work = [0.0] * factors.n
        return sum(
            _sealed_sweep(factors, u, v, u_work, v_work, pivot_tolerance, drop_tolerance)
            for u, v in terms
        )
    return sum(
        _growable_sweep(factors, u, v, pivot_tolerance, drop_tolerance) for u, v in terms
    )
