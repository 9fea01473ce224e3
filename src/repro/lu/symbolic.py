"""Symbolic decomposition: fill-in patterns and symbolic sparsity patterns.

This module implements the SD-phase of Section 2.3 of the paper.  Given a
matrix pattern ``sp(A)`` it computes the *fill-in pattern* ``fp(A)``
(Equation 2) — every position ``(u, v)`` that is zero in ``A`` but reachable
through a path whose intermediate vertices all carry indices smaller than
``min(u, v)`` — and the *symbolic sparsity pattern*
``s̃p(A) = sp(A) ∪ fp(A)`` (Equation 3), which is a superset of the pattern
of the decomposed matrix ``sp(Â)``.

The computation is the classical symbolic Gaussian elimination: process the
pivots in order; at pivot ``k`` every row ``i > k`` holding a non-zero in
column ``k`` inherits the structure of row ``k`` to the right of ``k``.
This produces exactly the fill positions characterized by the fill-path
theorem used in Equation 2.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.errors import DimensionError
from repro.sparse.pattern import SparsityPattern


def symbolic_decomposition(pattern: SparsityPattern) -> SparsityPattern:
    """Return ``s̃p(A)`` — the symbolic sparsity pattern of ``A``.

    The diagonal is always included because every pivot position is stored in
    the factors regardless of whether the input matrix holds an explicit
    non-zero there.

    Parameters
    ----------
    pattern:
        The sparsity pattern of the (already reordered, if applicable) matrix.
    """
    n = pattern.n
    # Row-wise structure, as sorted lists for cache-friendly merging.
    row_structure: List[Set[int]] = [set() for _ in range(n)]
    column_structure: List[Set[int]] = [set() for _ in range(n)]
    for i, j in pattern:
        row_structure[i].add(j)
        column_structure[j].add(i)
    for k in range(n):
        row_structure[k].add(k)
        column_structure[k].add(k)

    # Symbolic elimination.  After processing pivot k, row_structure[k] is the
    # final structure of row k of the factors (columns >= k live in U's row,
    # columns < k in L's row).
    for k in range(n):
        upper_part = [j for j in row_structure[k] if j > k]
        if not upper_part:
            continue
        lower_rows = [i for i in column_structure[k] if i > k]
        if not lower_rows:
            continue
        for i in lower_rows:
            target = row_structure[i]
            before = len(target)
            target.update(upper_part)
            if len(target) != before:
                for j in upper_part:
                    column_structure[j].add(i)

    indices = {(i, j) for i in range(n) for j in row_structure[i]}
    return SparsityPattern(n, indices)


def fill_in_pattern(pattern: SparsityPattern) -> SparsityPattern:
    """Return ``fp(A)`` — positions that become non-zero only through elimination.

    ``fp(A) = s̃p(A) \\ sp(A)`` excluding diagonal positions that were simply
    missing from ``sp(A)`` (the diagonal is part of the factor structure but
    is not a "fill-in" in the paper's sense of extra off-diagonal storage).
    """
    full = symbolic_decomposition(pattern)
    extra = full.indices - pattern.indices
    extra = {(i, j) for i, j in extra if i != j}
    return SparsityPattern(pattern.n, extra)


def symbolic_pattern_size(pattern: SparsityPattern) -> int:
    """Return ``|s̃p(A)|`` for a matrix pattern (diagonal included)."""
    return len(symbolic_decomposition(pattern))


def fill_in_count(pattern: SparsityPattern) -> int:
    """Return the number of off-diagonal fill-in positions ``|fp(A)|``."""
    return len(fill_in_pattern(pattern))


def reorder_pattern(pattern: SparsityPattern, row_order: Sequence[int], column_order: Sequence[int]) -> SparsityPattern:
    """Return the pattern of ``P A Q`` given "new -> original" index sequences."""
    n = pattern.n
    if len(row_order) != n or len(column_order) != n:
        raise DimensionError("permutation length does not match pattern dimension")
    new_row_of = {original: new for new, original in enumerate(row_order)}
    new_col_of = {original: new for new, original in enumerate(column_order)}
    return SparsityPattern(n, ((new_row_of[i], new_col_of[j]) for i, j in pattern))


def union_pattern(patterns: Iterable[SparsityPattern]) -> SparsityPattern:
    """Return the union of several sparsity patterns (all must share ``n``)."""
    patterns = list(patterns)
    if not patterns:
        raise DimensionError("cannot take the union of zero patterns")
    n = patterns[0].n
    indices: Set[Tuple[int, int]] = set()
    for pattern in patterns:
        if pattern.n != n:
            raise DimensionError("patterns have different dimensions")
        indices |= pattern.indices
    return SparsityPattern(n, indices)


def intersection_pattern(patterns: Iterable[SparsityPattern]) -> SparsityPattern:
    """Return the intersection of several sparsity patterns (all must share ``n``)."""
    patterns = list(patterns)
    if not patterns:
        raise DimensionError("cannot take the intersection of zero patterns")
    n = patterns[0].n
    indices = set(patterns[0].indices)
    for pattern in patterns[1:]:
        if pattern.n != n:
            raise DimensionError("patterns have different dimensions")
        indices &= pattern.indices
    return SparsityPattern(n, indices)
