"""Hodge number tables, realized filtrations, and polarization checks.

A HodgeNumbers table is the bigraded dimension datum {(p, q): h} of a
pure structure of some weight; the Tannakian operations (twist, tensor,
dual, exterior and symmetric powers) act on tables alone, no vector
spaces attached.  Wedge and sym are one knapsack over the basis
vectors, counting the choices of n vectors by their p-sum, so the cost
is the dimension times the p-sums of each of the k rows; sym refuses a
power whose cost would pass SYM_WORK_BOUND, one to two seconds of work.

A RealizedHodgeStructure carries an actual filtration: a flags.FlagPoint
without parameters, whose bases lie over Q or over a conjugation-stable
number field Q(theta).  The FlagPoint has already checked the vector
lengths, the independence of each step and the nesting, so the
structure checks only what is Hodge-specific: check_profile matches the
step sizes against the Hodge numbers, the same check the spec reader
runs, and the ambient dimension must be their total.  It then computes

    H^{p,q} = F^p  intersect  conj(F^{n-p})

exactly and accepts only when the pieces have the declared dimensions
and jointly span.  conj symmetry of the pieces is then automatic from
the construction.

Polarizations.  S is a rational (-1)^n-symmetric form.  The morphism
half of the check is linear algebra: S must kill every pair of pieces
except opposite ones.  The positivity half uses the hermitian form
h(x, y) = i^(p-q) S(x, conj y) on each piece.  Gram-Schmidt runs inside
Q(theta) because the i^(p-q) factors cancel in every quotient
g(v, w)/g(w, w) with g(x, y) = S(x, conj y); positivity of h is then the
sign of i^(p-q) g(w, w) for each orthogonalized w.  Writing delta for
g(w, w), conj(delta) = (-1)^n delta exactly, so delta is real for even
weight and purely imaginary for odd weight, and the sign needed is the
sign of Re(delta) or Im(delta) according to (p - q) mod 4.  Signs of
nonzero quantities are decided by interval refinement in the field's
designated embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NotAHodgeFiltration
from .fields import QQ, RationalField, parse_integer
from .linalg import ExactMatrix, intersection_basis, rank


class HodgeNumbers:
    """Bigraded dimension table of a pure structure of fixed weight."""

    __slots__ = ("weight", "dims")

    def __init__(self, weight: int, dims):
        self.weight = parse_integer(weight)
        table = {}
        for (p, q), h in dict(dims).items():
            p, q, h = parse_integer(p), parse_integer(q), parse_integer(h)
            if h < 0:
                raise ValueError(f"negative Hodge number at ({p}, {q})")
            if h == 0:
                continue
            if p + q != self.weight:
                raise ValueError(f"type ({p}, {q}) has weight {p + q}, declared {self.weight}")
            table[(p, q)] = h
        if not table:
            raise ValueError("a Hodge structure has positive dimension")
        for (p, q), h in table.items():
            if table.get((q, p)) != h:
                raise ValueError(f"conjugation symmetry fails: h({p},{q}) != h({q},{p})")
        self.dims = table

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def types_sorted(self):
        """(p, q, h) triples with p descending."""
        return [(p, q, self.dims[(p, q)]) for p, q in sorted(self.dims, reverse=True)]

    def p_multiset(self):
        return sorted(p for (p, _q), h in self.dims.items() for _ in range(h))

    def __eq__(self, other):
        return (
            isinstance(other, HodgeNumbers)
            and self.weight == other.weight
            and self.dims == other.dims
        )

    def __hash__(self):
        return hash((self.weight, tuple(sorted(self.dims.items()))))

    def __repr__(self):
        body = ", ".join(f"h({p},{q})={h}" for p, q, h in self.types_sorted())
        return f"HodgeNumbers(weight={self.weight}, {body})"


def tate_twist(numbers: HodgeNumbers, m: int) -> HodgeNumbers:
    """Twist by Q(m): weight drops by 2m, types shift by (-m, -m)."""
    return HodgeNumbers(
        numbers.weight - 2 * m,
        {(p - m, q - m): h for (p, q), h in numbers.dims.items()},
    )


def dual(numbers: HodgeNumbers) -> HodgeNumbers:
    return HodgeNumbers(
        -numbers.weight, {(-p, -q): h for (p, q), h in numbers.dims.items()}
    )


def tensor(a: HodgeNumbers, b: HodgeNumbers) -> HodgeNumbers:
    out: dict = {}
    for (p1, q1), h1 in a.dims.items():
        for (p2, q2), h2 in b.dims.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + h1 * h2
    return HodgeNumbers(a.weight + b.weight, out)


def _power(numbers: HodgeNumbers, k: int, repeat: bool) -> HodgeNumbers:
    """k-th exterior (repeat False) or symmetric (repeat True) power, as a
    knapsack over the basis vectors: rows[n] maps the p-sum of the
    choices of n vectors to their count.  Each vector is folded in once,
    by n descending when it may be chosen at most once and by n ascending
    when it may be chosen again; a choice of k vectors with p-sum s has
    type (s, weight*k - s)."""
    rows = [{} for _ in range(k + 1)]
    rows[0][0] = 1
    order = range(k) if repeat else range(k - 1, -1, -1)
    for (p, _q), h in sorted(numbers.dims.items(), reverse=True):
        for _ in range(h):
            for n in order:
                grown = rows[n + 1]
                for ps, count in rows[n].items():
                    grown[ps + p] = grown.get(ps + p, 0) + count
    weight = numbers.weight * k
    return HodgeNumbers(weight, {(ps, weight - ps): count for ps, count in rows[k].items()})


def wedge(numbers: HodgeNumbers, k: int) -> HodgeNumbers:
    """k-th exterior power: each basis vector is chosen at most once."""
    if k < 0:
        raise ValueError("negative exterior power")
    if k > numbers.total_dim():
        raise ValueError(f"wedge^{k} of a {numbers.total_dim()}-dimensional structure vanishes")
    return _power(numbers, k, repeat=False)


# The largest knapsack sym will run, in units of one p-sum moved: each of
# the D basis vectors walks rows 0 .. k-1, and row n holds at most
# min(C(n+T-1, T-1), n * (p_max - p_min) + 1) p-sums for T types.  One unit
# took 70-110 ns on tables of dimension 2 to 16 (2 cores, Python 3.11.7),
# so the largest accepted power takes one to two seconds.
SYM_WORK_BOUND = 15_000_000


def sym(numbers: HodgeNumbers, k: int) -> HodgeNumbers:
    """k-th symmetric power: a basis vector may be chosen again.  Raises
    ValueError, before any work, when the knapsack would pass
    SYM_WORK_BOUND."""
    if k < 0:
        raise ValueError("negative symmetric power")
    d, ps = numbers.total_dim(), [p for p, _q in numbers.dims]
    types, spread = len(ps), max(ps) - min(ps)
    # one type: one p-sum a row.  More: row n holds at least n + 1, so the
    # sum passes the bound within about sqrt(2 * SYM_WORK_BOUND / d) rows.
    work = d * k if types == 1 else 0
    for n in range(k if types > 1 else 0):
        work += d * min(math.comb(n + types - 1, types - 1), n * spread + 1)
        if work > SYM_WORK_BOUND:
            break
    if work > SYM_WORK_BOUND:
        raise ValueError(f"sym^{k} of a {d}-dimensional structure is over the work "
                         f"bound: dimension * p-sums over the k rows > {SYM_WORK_BOUND}")
    return _power(numbers, k, repeat=True)


def filtration_dims(numbers: HodgeNumbers):
    """[(p, dim F^p)] over the jump positions, p descending."""
    out = []
    total = 0
    for p, _q, h in numbers.types_sorted():
        total += h
        out.append((p, total))
    return out


def check_profile(numbers: HodgeNumbers, steps) -> int:
    """The total dimension, once the steps (p, basis vectors) list F^p for
    every jump p with dim F^p below it, in order and with those sizes;
    otherwise a ValueError."""
    total = numbers.total_dim()
    declared = [(p, len(vectors)) for p, vectors in steps]
    expected = [(p, c) for p, c in filtration_dims(numbers) if c < total]
    if declared != expected:
        raise ValueError(
            f"step dimensions {declared} do not match the "
            f"filtration profile {expected} of the declared Hodge numbers"
        )
    return total


# -- realized structures -----------------------------------------------------


class RealizedHodgeStructure:
    """A filtration with actual coordinates over Q or Q(theta), realized on
    a flags.FlagPoint without parameters and checked at construction.

    The flag's steps list (p, basis vectors of F^p), p descending, for
    every jump p with dim F^p < dim; the lowest jump, where F^p is
    everything, is implied.  The FlagPoint has already checked the
    vector lengths, the independence of each step and the nesting.
    decomposition maps each type (p, q) to a basis of H^{p,q}.  Raises
    NotAHodgeFiltration unless the flag has no parameters, its base
    field has a conjugation, the steps have the filtration profile of
    numbers in an ambient space of the total dimension, and every piece
    has dimension h^{p,q} with the pieces together spanning.
    """

    __slots__ = ("flag", "field", "numbers", "decomposition")

    def __init__(self, flag, numbers: HodgeNumbers):
        if flag.params:
            raise NotAHodgeFiltration(f"the flag has free parameters {', '.join(flag.params)}")
        field = flag.field.base
        if not field.has_conjugation:
            raise NotAHodgeFiltration("the coefficient field carries no conjugation automorphism")
        try:
            d = check_profile(numbers, flag.steps)
        except ValueError as exc:
            raise NotAHodgeFiltration(str(exc)) from None
        if flag.ambient_dim != d:
            raise NotAHodgeFiltration(
                f"the flag lies in dimension {flag.ambient_dim}, the Hodge numbers total {d}")
        self.flag = flag
        self.field = field
        self.numbers = numbers
        matrices = {
            p: ExactMatrix.from_columns(field, [tuple(x.eval(()) for x in v) for v in vectors])
            for p, vectors in flag.steps
        }
        # Every p and q of a type is a jump, since h(p,q) = h(q,p); the one
        # jump not in matrices is the lowest, where F^p is the whole space.
        whole = ExactMatrix.identity(field, d)
        self.decomposition = {}
        for (p, q), h in sorted(numbers.dims.items(), reverse=True):
            fp = matrices.get(p, whole)
            fq_bar = matrices.get(q, whole).map_entries(field.conj)
            if fp.ncols == d:
                piece = fq_bar.columns()
            elif fq_bar.ncols == d:
                piece = fp.columns()
            else:
                piece = intersection_basis(fp, fq_bar)
            if len(piece) != h:
                raise NotAHodgeFiltration(
                    f"piece H^{p},{q} has dimension {len(piece)}, declared {h}"
                )
            self.decomposition[(p, q)] = tuple(piece)
        spanning = [v for piece in self.decomposition.values() for v in piece]
        if rank(ExactMatrix(field, spanning)) != d:
            raise NotAHodgeFiltration("the Hodge pieces do not span")

    @property
    def dim(self) -> int:
        return self.numbers.total_dim()

    @property
    def weight(self) -> int:
        return self.numbers.weight


# -- polarization --------------------------------------------------------------


class PolarizationForm:
    """Rational bilinear form, (-1)^weight symmetric."""

    __slots__ = ("weight", "matrix")

    def __init__(self, weight: int, matrix: ExactMatrix):
        self.weight = weight
        self.matrix = m = matrix if isinstance(matrix, ExactMatrix) else ExactMatrix(QQ, matrix)
        if m.nrows != m.ncols:
            raise ValueError("polarization form must be square")
        sign = -1 if weight % 2 else 1
        if m.transpose() != m * Fraction(sign):
            kind = "antisymmetric" if sign < 0 else "symmetric"
            raise ValueError(f"weight {weight} polarization must be {kind}")


class PolarizationResult(NamedTuple):
    status: str  # valid | morphism_fails | positivity_fails
    detail: str = ""
    witness: Fraction | None = None  # when the failing value is rational


def _bilinear(field, s: ExactMatrix, x, y):
    total = field.zero()
    for i, xi in enumerate(x):
        if field.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            sij = s.rows[i][j]
            if sij != 0 and not field.is_zero(yj):
                total = total + xi * field.coerce(sij) * yj
    return total


def _rational_sqrt(value: Fraction):
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _hermitian_witness(field, delta, parity, sign):
    """The real value i^(p-q) * delta as a Fraction when it is rational."""
    if isinstance(field, RationalField):
        return delta  # parity 0: see polarization_check
    square = delta * delta
    coords = square.coords
    if any(c != 0 for c in coords[1:]):
        return None
    base = coords[0] if parity % 2 == 0 else -coords[0]
    root = _rational_sqrt(base)
    if root is None:
        return None
    return root * sign


def polarization_check(structure: RealizedHodgeStructure, form: PolarizationForm) -> PolarizationResult:
    """Decide whether the rational form polarizes the realized structure."""
    if form.matrix.nrows != structure.dim:
        raise ValueError("form size does not match the structure dimension")
    if form.weight != structure.weight:
        raise ValueError("form weight does not match the structure weight")
    field = structure.field
    n = structure.weight
    s = form.matrix
    pieces = structure.decomposition

    # Morphism condition: S pairs (p, q) only with (n-p, n-q).
    for (p, q), basis_a in sorted(pieces.items(), reverse=True):
        for (pp, qq), basis_b in sorted(pieces.items(), reverse=True):
            if (pp, qq) == (n - p, n - q):
                continue
            for u in basis_a:
                for w in basis_b:
                    value = _bilinear(field, s, u, w)
                    if not field.is_zero(value):
                        return PolarizationResult(
                            status="morphism_fails",
                            detail=(
                                f"S does not vanish on H^{p},{q} x H^{pp},{qq} "
                                f"(value {value!r})"
                            ),
                        )

    conj = field.conj
    for (p, q), basis in sorted(pieces.items(), reverse=True):
        parity = (p - q) % 4
        ortho = []
        deltas = []
        for v in basis:
            u = list(v)
            for w, delta in zip(ortho, deltas):
                c = _bilinear(field, s, v, tuple(conj(x) for x in w)) / delta
                u = [a - c * b for a, b in zip(u, w)]
            u = tuple(u)
            delta = _bilinear(field, s, u, tuple(conj(x) for x in u))
            if field.is_zero(delta):
                return PolarizationResult(
                    status="positivity_fails",
                    detail=f"the hermitian form is degenerate on H^{p},{q}",
                    witness=Fraction(0),
                )
            ortho.append(u)
            deltas.append(delta)
        for delta in deltas:
            if isinstance(field, RationalField):
                # Over Q conj is the identity, so H^{p,q} = F^p cap F^q =
                # H^{q,p}; two equal nonzero pieces cannot span, so every
                # type of a realized Q-structure has p = q, parity 0, and
                # i^(p-q) delta is the rational delta itself.
                sign = 1 if delta > 0 else -1
            else:
                check = field.conj(delta)
                expected = delta if n % 2 == 0 else -delta
                if check != expected:
                    raise AssertionError("conj(delta) != (-1)^n delta; corrupted state")
                if parity == 0:
                    sign = field.sign_real(delta)
                elif parity == 1:
                    sign = -field.sign_imag(delta)
                elif parity == 2:
                    sign = -field.sign_real(delta)
                else:
                    sign = field.sign_imag(delta)
            if sign <= 0:
                witness = _hermitian_witness(field, delta, parity, sign)
                return PolarizationResult(
                    status="positivity_fails",
                    detail=(
                        f"i^({p}-{q}) S(w, conj w) is not positive on H^{p},{q} "
                        f"(value {witness if witness is not None else repr(delta)})"
                    ),
                    witness=witness,
                )
    return PolarizationResult(status="valid")
