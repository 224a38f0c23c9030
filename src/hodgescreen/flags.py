"""Flag points and the transcendence degree of a filtration.

A FlagPoint is a nested chain of subspaces of Q^d (tensored up to the
function field) whose coordinates live in Q(theta)(t_1, ..., t_k).  The
declared parameters are promised to be algebraically independent; that
contract is the caller's, and reports surface it as a reminder.

normalize_chart puts every step into the affine chart of its
Grassmannian determined by the lexicographically first nonsingular
maximal minor B of the basis matrix M: the entries of M B^{-1} outside
the identity block are canonical coordinates of the subspace.  They
depend only on the span, not on the basis, which is what makes the
transcendence degree well-defined.  Each entry is a Cramer ratio of two
maximal minors, and one fraction-free Gauss-Jordan elimination over
Q(theta)[t] (linalg.fraction_free_rref) produces all of them at once:
after its step k every entry is a (k+1)-minor of the input up to sign,
so every division in it is exact, and at the end the pivot entry of
every row is the same s-minor.  So no gcd runs during the elimination,
and each coordinate costs one, when the ratio is reduced.  The
elimination needs polynomial rows, so each basis vector is first
scaled by the product of its distinct non-unit denominators.  Scaling
a basis vector by a nonzero polynomial keeps the span, and with it the
pivot columns and the chart.  FlagPoint runs that elimination once per
step and keeps it: independence of a step is its pivot count, and
normalize_chart reads the kept rows.  Containment of each step in the
next is the pivot count of one more elimination, on the two bases
stacked.

trdeg is the rank of the Jacobian of those coordinates with respect to
the parameters, a field-theoretic transcendence degree by the Jacobian
criterion in characteristic zero.  theta contributes nothing: the
derivative is taken over Q(theta).  An optional fast path evaluates the
Jacobian at a random integer point (seeded, recorded, denominators
avoided by retry) straight from each coordinate's numerator and
denominator, without building it symbolically.  An evaluated rank is a
lower bound for the symbolic one, so when it hits the maximum possible
it is the answer and no symbolic elimination runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import DenominatorVanishes
from .fields import parse_integer
# inverse is unused here; perfbench/spans.py patches flags.inverse
from .linalg import ExactMatrix, fraction_free_rref, inverse, rank
from .ratfunc import FunctionField, RatFunc

_FAST_PATH_RETRIES = 32
_FAST_PATH_RANGE = 999983


class FlagPoint:
    """Nested subspaces of the d-dimensional ambient space, by p descending."""

    __slots__ = ("field", "ambient_dim", "steps", "echelons")

    def __init__(self, field: FunctionField, ambient_dim: int, steps: tuple):
        # steps: ((p, (vector, ...)), ...), each vector a tuple of RatFunc
        self.field = field
        self.ambient_dim = d = ambient_dim
        checked = []
        previous_p = None
        previous_size = 0
        for p, vectors in steps:
            p = parse_integer(p)
            vectors = tuple(tuple(field.coerce(x) for x in v) for v in vectors)
            if any(len(v) != d for v in vectors):
                raise ValueError(f"step p={p}: vectors must have length {d}")
            if not vectors:
                raise ValueError(f"step p={p} is empty")
            if previous_p is not None:
                if p >= previous_p:
                    raise ValueError("step positions must strictly decrease")
                if len(vectors) <= previous_size:
                    raise ValueError("step dimensions must strictly grow as p drops")
            previous_p, previous_size = p, len(vectors)
            checked.append((p, vectors))
        self.steps = tuple(checked)
        # (rows, pivots) of each step's fraction-free elimination, kept
        # for normalize_chart; a step is independent when every row pivots
        echelons = []
        for _p, vectors in self.steps:
            rows = _poly_rows(vectors)
            echelons.append((rows, fraction_free_rref(rows, d)))
        self.echelons = tuple(echelons)
        for (p_hi, vec_hi), (p_lo, vec_lo), (_rows, pivots) in zip(
                self.steps, self.steps[1:], self.echelons[1:]):
            if len(pivots) != len(vec_lo):
                raise ValueError(f"step p={p_lo} basis is not linearly independent")
            if _rank(vec_lo + vec_hi, d) != len(vec_lo):
                raise ValueError(f"F^{p_hi} is not contained in F^{p_lo}")
        if self.steps:
            p, first = self.steps[0]
            if len(self.echelons[0][1]) != len(first):
                raise ValueError(f"step p={p} basis is not linearly independent")

    @property
    def params(self):
        return self.field.names


def _poly_rows(vectors) -> list:
    """The vectors as rows of Poly, each scaled by the product of its
    distinct non-unit denominators (a multiple of each of them, found
    without a gcd).  Scaling a row by a nonzero polynomial keeps its span
    and the rank of every set of columns, so it changes neither the row
    space nor the pivot columns."""
    rows = []
    for v in vectors:
        dens = []
        for x in v:
            if not x.den.is_constant() and x.den not in dens:
                dens.append(x.den)
        row = []
        for x in v:
            num = x.num
            if num.terms:
                for den in dens:
                    if den != x.den:
                        num = num * den
            row.append(num)
        rows.append(row)
    return rows


def _rank(vectors, d: int) -> int:
    return len(fraction_free_rref(_poly_rows(vectors), d))


def normalize_chart(flag: FlagPoint):
    """Canonical affine-chart coordinates of every step, concatenated.

    For each step, the fraction-free elimination (linalg.
    fraction_free_rref) that FlagPoint ran on the s x d matrix whose rows
    are the basis vectors, each scaled by the product of its distinct
    non-unit denominators.  Its pivot columns are the greedy, hence
    lexicographically first, set of rows of the d x s basis matrix M
    whose maximal minor B is nonsingular (the independent sets of a
    matrix form a matroid).  Every row ends with the same pivot entry,
    the minor of the scaled rows at the pivot columns up to sign, and
    entry i of row r over it is entry (i, r) of M B^{-1}, a Cramer
    ratio.  For every non-pivot row i of M, in order, emit entry i of
    each row over the pivot entry, reduced by one gcd: the row-major
    entries of M B^{-1} outside the identity block.  The scaling
    multiplies the columns of M by nonzero polynomials, a change of
    basis of the same span, so it changes neither M B^{-1} nor the
    pivot columns.
    """
    field = flag.field
    coords = []
    for rows, pivots in flag.echelons:
        pivot_set = set(pivots)
        for i in range(flag.ambient_dim):
            if i not in pivot_set:
                coords.extend(
                    RatFunc(field, row[i], row[pivot]) for row, pivot in zip(rows, pivots)
                )
    return coords


class TrdegResult(NamedTuple):
    value: int
    chart_coordinates: tuple
    params: tuple
    certificate: dict | None = None


def jacobian_matrix(coords, field: FunctionField) -> ExactMatrix:
    rows = [
        [c.derivative(j) for j in range(len(field.names))]
        for c in coords
    ]
    if not rows:
        return ExactMatrix.zeros(field, 0, len(field.names))
    return ExactMatrix(field, rows)


def evaluated_jacobian(coords, field: FunctionField, point) -> list:
    """Rows of the Jacobian of coords, evaluated at point.

    Row c = n/d is (dn/dt_j * d - n * dd/dt_j) / d^2 at the point, from
    Poly derivatives and evaluations alone, with no rational-function
    gcd.  Raises DenominatorVanishes when some d vanishes at the point,
    which is exactly when an entry of the reduced symbolic Jacobian has
    a vanishing denominator, so a seed draws the same points as through
    that Jacobian.  One way, the reduced denominator of every partial
    divides d^2.  The other way, let n/d be reduced and g an irreducible
    factor of d with g(point) = 0, of multiplicity e, and d = g^e h.
    Pick j with dg/dt_j nonzero.  The partial is
    g^(e-1) (g (dn/dt_j h - n dh/dt_j) - e n h dg/dt_j) / (g^(2e) h^2),
    and g divides none of e, n, h and dg/dt_j (the last has lower degree
    in t_j), so g^(e+1) stays in the reduced denominator.
    """
    rows = []
    for c in coords:
        d = c.den.eval(point)
        if field.base.is_zero(d):
            raise DenominatorVanishes(f"denominator {c.den!r} vanishes at the point")
        n = c.num.eval(point)
        d2 = d * d
        rows.append([
            (c.num.derivative(j).eval(point) * d - n * c.den.derivative(j).eval(point)) / d2
            for j in range(len(field.names))
        ])
    return rows


def trdeg(flag: FlagPoint, seed: int | None = None) -> TrdegResult:
    """Transcendence degree over Q of the field the flag is defined over.

    The constant field Q(theta) contributes nothing; the value is the
    Jacobian rank of the chart coordinates with respect to the declared
    parameters.  With a seed, a random evaluation first tries to certify
    the rank cheaply; the point and seed are recorded in the result.  The
    symbolic Jacobian is built and ranked only without a seed or when
    the evaluated rank falls short of min(#coordinates, #parameters).
    """
    coords = tuple(normalize_chart(flag))
    k = len(flag.field.names)
    if k == 0:
        return TrdegResult(value=0, chart_coordinates=coords, params=())
    max_possible = min(len(coords), k)
    certificate = None
    if seed is not None:
        rng = random.Random(seed)
        point = None
        for _ in range(_FAST_PATH_RETRIES):
            candidate = [Fraction(rng.randint(-_FAST_PATH_RANGE, _FAST_PATH_RANGE)) for _ in range(k)]
            try:
                rows = evaluated_jacobian(coords, flag.field, candidate)
            except DenominatorVanishes:
                continue
            point = candidate
            break
        if point is None:
            raise DenominatorVanishes(
                f"no evaluation point avoided the denominators in {_FAST_PATH_RETRIES} draws"
            )
        evaluated = rank(ExactMatrix(flag.field.base, rows))
        certificate = {"seed": seed, "point": tuple(point), "evaluated_rank": evaluated}
        if evaluated == max_possible:
            return TrdegResult(
                value=evaluated,
                chart_coordinates=coords,
                params=flag.field.names,
                certificate=certificate,
            )
    value = rank(jacobian_matrix(coords, flag.field))
    if certificate is not None and certificate["evaluated_rank"] != value:
        certificate = None
    return TrdegResult(
        value=value,
        chart_coordinates=coords,
        params=flag.field.names,
        certificate=certificate,
    )

