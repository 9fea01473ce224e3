"""Sparse-matrix substrate: patterns, matrices, orderings and kernels."""

from repro.sparse import kernels
from repro.sparse.csr import SparseMatrix
from repro.sparse.pattern import SparsityPattern, matrix_edit_similarity
from repro.sparse.permutation import Ordering, Permutation, natural_ordering, random_ordering

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "matrix_edit_similarity",
    "Ordering",
    "Permutation",
    "natural_ordering",
    "random_ordering",
    "kernels",
]
