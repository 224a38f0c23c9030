"""Cocharacter gradings and the intrinsic invariants read off them.

A Hodge cocharacter is declared, never computed: the integer vector
lambda says how diag(t^lambda_1, ..., t^lambda_N) acts on a chosen Hodge
basis, entry p on a vector of type (p, q).  Acting on the declared group
G through the adjoint representation, diag(lambda) grades the Lie
algebra by integer eigenvalues

    g = (+) g_k,   g_k = ker(ad diag(lambda) - k).

grade returns the levels as one dict {k: dim g_k}, by k ascending with
the zero levels left out, and report reads every invariant of the
underlying Hodge structure straight off that dict:

    flag dimension            sum of levels k < 0
                              (the G-flag variety through the filtration),
    horizontal codimension    sum of levels k <= -2
                              (how far Griffiths transversality is from
                              being vacuous),
    Shimura type              all levels within {-1, 0, 1},
    symmetric grading         dim g_(-k) = dim g_k for every k.

Their difference is the dimension of the k = -1 level, an identity the
verdict engine re-checks on every run.  ad diag(lambda) multiplies the
matrix unit E_ij by the weight difference lambda_i - lambda_j, so an
algebra normalized by diag(lambda) is the direct sum of its intersections
with these weight spaces, and dim g_k is the number of pivots (i, j) of
weight k in the algebra's echelon basis (lie.adjoint_of_diagonal has the
proof).  Grading builds no matrix and runs no elimination.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import parse_integer
from .lie import MatLieAlgebra, adjoint_of_diagonal
# rank is unused here; perfbench/spans.py patches grading.rank
from .linalg import rank


class HodgeCocharacter:
    """Integer weight vector of the cocharacter on a Hodge basis.

    When the Hodge numbers of the representation are declared alongside,
    the multiset of weights must equal the multiset of p-values counted
    with multiplicity h^{p,q}; the constructor enforces that.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: tuple, declared_numbers: HodgeNumbers | None = None):
        self.weights = weights = tuple(parse_integer(w) for w in weights)
        if declared_numbers is not None:
            expected = sorted(declared_numbers.p_multiset())
            if sorted(weights) != expected:
                raise ValueError(
                    f"cocharacter weights {sorted(weights)} do not match the "
                    f"declared Hodge numbers (p-multiset {expected})"
                )

    def shifted(self, c: int) -> "HodgeCocharacter":
        """Central shift lambda + c (a Tate twist on the Hodge side).

        The declared numbers no longer match a shifted weight vector, so
        the shift is not checked against them."""
        return HodgeCocharacter(tuple(w + c for w in self.weights))


def grade(algebra: MatLieAlgebra, mu: HodgeCocharacter) -> dict:
    """Levels {k: dim g_k} of the adjoint grading by the cocharacter, by k
    ascending, zero levels left out.

    Raises NormalizationError when diag(lambda) does not normalize the
    algebra."""
    return adjoint_of_diagonal(algebra, mu.weights)


class InvariantReport(NamedTuple):
    """The invariants of one grading; levels are (k, dim g_k) by k ascending."""

    dim_g: int
    flag_dim: int
    hcodim: int
    g_minus_one_dim: int
    shimura_type: bool
    symmetric_grading: bool
    levels: tuple


def report(algebra: MatLieAlgebra, mu: HodgeCocharacter) -> InvariantReport:
    """Grade and read every invariant off the levels."""
    levels = grade(algebra, mu)
    return InvariantReport(
        dim_g=algebra.dim,
        flag_dim=sum(d for k, d in levels.items() if k < 0),
        hcodim=sum(d for k, d in levels.items() if k <= -2),
        g_minus_one_dim=levels.get(-1, 0),
        shimura_type=all(k in (-1, 0, 1) for k in levels),
        symmetric_grading=all(levels.get(-k) == d for k, d in levels.items()),
        levels=tuple(levels.items()),
    )
