"""Sherman–Morrison–Woodbury correction over already-computed LU factors.

The serving-side middle ground between answering *verbatim* from a similar
cached system (zero numerical work, loss bounded by the full ``‖ΔA‖₁``) and
Bennett-refreshing or re-factorizing (near-exact, but O(n·nnz) work): solve
against the *corrected* system ``A + U Vᵀ`` — the cached system plus the
dominant rank-``k`` part of the delta — using only the cached factors of
``A``.  By the Woodbury identity::

    (A + U Vᵀ)⁻¹ b  =  A⁻¹ b  -  A⁻¹ U (I_k + Vᵀ A⁻¹ U)⁻¹ Vᵀ A⁻¹ b

so after a one-time setup of ``Y = A⁻¹ U`` (one batched triangular sweep of
``k`` columns through the cached :class:`~repro.lu.factors.LUFactors`,
growable or sealed alike) and the tiny ``k×k`` *capacitance* matrix ``C = I_k + Vᵀ Y``, every
subsequent right-hand-side block costs exactly one extra rank-``k`` GEMM and
one ``k×k`` dense solve on top of the ordinary substitution sweep.

The corrector is deliberately dumb about *where* ``U Vᵀ`` comes from: the
reuse-policy layer (:class:`~repro.policy.corrected.CorrectedPolicy`) selects
whole columns of a system delta ``ΔA`` (``V``'s columns are then unit
vectors, so ``Vᵀ x`` is a row gather), which is what keeps the corrected
system certifiable — a column-wise mix of two column-substochastic walk
matrices is still column-substochastic.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import DimensionError, SingularMatrixError
from repro.lu.solve import solve_reordered_system_many
from repro.sparse.permutation import Ordering

#: Capacitance matrices whose condition number exceeds this are rejected at
#: construction time (a nearly singular ``C`` means the corrected system is
#: nearly singular and the correction numerically untrustworthy).
CONDITION_LIMIT = 1e12


class WoodburyCorrector:
    """Answer ``(A + U Vᵀ) x = b`` through the cached factors of ``A``.

    ``V`` is restricted to columns of the identity (``V[:, t] = e_{j_t}``),
    i.e. the update replaces whole columns ``j_t`` of ``A`` by adding the
    dense column ``U[:, t]`` — the shape produced by selecting columns of a
    sparse system delta.  ``Vᵀ z`` is then just ``z[columns]``.

    Parameters
    ----------
    factors:
        LU factor container of the (possibly reordered) base matrix ``A``.
    ordering:
        The ordering applied before decomposition (``None`` = identity);
        right-hand sides and solutions stay in original coordinates, exactly
        like :func:`~repro.lu.solve.solve_reordered_system_many`.
    update_columns:
        Dense ``(n, k)`` block whose column ``t`` is the delta applied to
        column ``columns[t]`` of ``A``.
    columns:
        The ``k`` column indices being corrected (distinct, in ``[0, n)``).
    condition_limit:
        Reject correctors whose capacitance condition number exceeds this
        (raises :class:`~repro.errors.SingularMatrixError`, so callers fall
        back to refresh / cold factorization instead of serving garbage).

    Raises
    ------
    SingularMatrixError
        When the ``k×k`` capacitance matrix is singular or worse conditioned
        than ``condition_limit``.
    """

    __slots__ = ("_factors", "_ordering", "_columns", "_y", "_capacitance", "_rank")

    def __init__(
        self,
        factors,
        ordering: Optional[Ordering],
        update_columns,
        columns: Sequence[int],
        condition_limit: float = CONDITION_LIMIT,
    ) -> None:
        n = factors.n
        block = np.asarray(update_columns, dtype=float)
        cols = np.asarray(list(columns), dtype=np.int64)
        if block.ndim != 2 or block.shape != (n, cols.size):
            raise DimensionError(
                f"update block of shape {block.shape} incompatible with "
                f"n={n}, k={cols.size}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise DimensionError(
                f"corrected column index out of bounds for n={n}"
            )
        if len(set(cols.tolist())) != cols.size:
            raise DimensionError("corrected column indices must be distinct")
        self._factors = factors
        self._ordering = ordering
        self._columns = cols
        self._rank = int(cols.size)
        if self._rank == 0:
            # Rank-0 corrector: a pure pass-through to the base factors.
            self._y = None
            self._capacitance = None
            return
        # One-time setup: k extra triangular sweeps (one batched call) plus
        # the k×k capacitance.  In exact arithmetic C is nonsingular whenever
        # the corrected system is (det(A + UVᵀ) = det(A)·det(C)).
        y = solve_reordered_system_many(factors, ordering, block)
        capacitance = np.eye(self._rank, dtype=float) + y[cols, :]
        if not np.all(np.isfinite(capacitance)):
            raise SingularMatrixError(0, float("nan"))
        condition = float(np.linalg.cond(capacitance))
        if not np.isfinite(condition) or condition > condition_limit:
            raise SingularMatrixError(0, 1.0 / max(condition, 1.0))
        self._y = y
        self._capacitance = capacitance

    @property
    def rank(self) -> int:
        """The rank ``k`` of the applied correction (0 = pass-through)."""
        return self._rank

    @property
    def columns(self) -> Sequence[int]:
        """The corrected column indices (a copy)."""
        return tuple(self._columns.tolist())

    def solve_many(self, block) -> np.ndarray:
        """Solve ``(A + U Vᵀ) X = B`` for a dense ``(n, k_rhs)`` block.

        One ordinary batched substitution sweep through the cached factors,
        one ``k×k`` dense solve, one rank-``k`` GEMM.  A rank-0 corrector
        returns the base solve unchanged — bitwise identical to answering
        from the cached factors directly (verbatim reuse).
        """
        base = solve_reordered_system_many(self._factors, self._ordering, block)
        if self._rank == 0:
            return base
        gathered = base[self._columns, :]
        return base - self._y @ np.linalg.solve(self._capacitance, gathered)

    def solve(self, b) -> np.ndarray:
        """Solve ``(A + U Vᵀ) x = b`` for one right-hand side."""
        vector = np.asarray(b, dtype=float)
        if vector.shape != (self._factors.n,):
            raise DimensionError(
                f"right-hand side of shape {vector.shape} incompatible with "
                f"n={self._factors.n}"
            )
        return self.solve_many(vector.reshape(-1, 1))[:, 0]
