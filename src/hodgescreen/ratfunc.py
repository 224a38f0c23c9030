"""Rational function fields Q(theta)(t_1, ..., t_k).

The top floor of the scalar tower.  Elements are reduced fractions of
sparse polynomials: numerator and denominator are divided by their gcd
and the denominator is scaled so its lex-leading coefficient is one.
Over a coefficient field that pair is a canonical form, so structural
equality of the pair is equality in the field.

Sums follow Henrici (1956; Knuth, TAOCP vol. 2, 4.5.1) and are built
already reduced, with no gcd of the whole cross-multiplied result.  For
reduced a/b and c/d let g = gcd(b, d).  When g = 1 the sum is
(ad + cb)/(bd): an irreducible p dividing bd divides exactly one of b
and d, say b, and then divides cb but not ad, so not ad + cb.
Otherwise write b = g b', d = g d' and t = a d' + c b'.  The sum is
t / (b' d' g), and with h = gcd(t, g) it is (t/h) / (b' d' (g/h)).  That
is reduced: a prime p dividing b' divides neither a nor d' (b' and d'
are coprime), so not t; likewise for d'; and no p divides both t/h and
g/h, or p*h would divide both t and g.  Every denominator here is a
product of polynomials with lex-leading coefficient one, so it has one
too.  Products and quotients still reduce by one gcd of the result.

Evaluation at a rational point raises DenominatorVanishes when the point
hits the denominator's zero locus; the Jacobian fast path in `flags`
catches that and redraws its point.
"""

from __future__ import annotations

from .errors import DenominatorVanishes
from .fields import power
from .polys import Poly, PolyRing, divexact, poly_gcd


class FunctionField:
    """field(t_1, ..., t_k) over Q or a number field."""

    def __init__(self, base, names):
        self.base = base
        self.ring = PolyRing(base, names)
        self.names = self.ring.names

    def zero(self) -> "RatFunc":
        return RatFunc(self, self.ring.zero(), self.ring.one(), reduce=False)

    def one(self) -> "RatFunc":
        return RatFunc(self, self.ring.one(), self.ring.one(), reduce=False)

    def gen(self, name: str) -> "RatFunc":
        return RatFunc(self, self.ring.gen(name), self.ring.one(), reduce=False)

    def gens(self):
        """The generators t_1, ..., t_k, in variable order."""
        return tuple(self.gen(n) for n in self.names)

    def from_poly(self, p: Poly) -> "RatFunc":
        return RatFunc(self, p, self.ring.one(), reduce=False)

    def coerce(self, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            if value.field != self:
                raise TypeError("rational function from a different field")
            return value
        if isinstance(value, Poly):
            if value.ring != self.ring:
                raise TypeError("polynomial from a different ring")
            return self.from_poly(value)
        return self.from_poly(self.ring.const(value))

    def is_zero(self, x) -> bool:
        return x.num.is_zero()

    def size(self, x) -> int:
        return (
            x.num.term_count()
            + x.den.term_count()
            + max(x.num.total_degree(), 0)
            + max(x.den.total_degree(), 0)
        )

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and self.base == other.base
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.base, self.names))

    def __repr__(self):
        return f"{self.base}({', '.join(self.names)})"


class RatFunc:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: FunctionField, num: Poly, den: Poly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = field.ring.one()
        elif reduce:
            g = poly_gcd(num, den)
            if not g.is_constant():  # the gcd's lex-leading coefficient is one
                num = divexact(num, g)
                den = divexact(den, g)
            _, lead = den.lex_leading()
            if lead != field.base.one():
                inv = field.base.one() / lead
                num = num.scale(inv)
                den = den.scale(inv)
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other) -> "RatFunc":
        return self.field.coerce(other)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        """Henrici's sum: one gcd of the denominators, and one of the
        numerator with g = gcd(b, d) only when g is not constant."""
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.is_constant():  # so g = 1
            return RatFunc(self.field, a * d + c * b, b * d, reduce=False)
        b1 = divexact(b, g)
        d1 = divexact(d, g)
        t = a * d1 + c * b1
        h = poly_gcd(t, g)
        if not h.is_constant():
            t = divexact(t, h)
            g = divexact(g, h)
        return RatFunc(self.field, t, b1 * d1 * g, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.field, self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        one = self.field.one()
        return power(one / self if n < 0 else self, abs(n), one)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.num.is_zero()

    def derivative(self, var: int) -> "RatFunc":
        """Partial derivative by the quotient rule."""
        dn = self.num.derivative(var)
        dd = self.den.derivative(var)
        if dd.is_zero():
            return RatFunc(self.field, dn, self.den)
        return RatFunc(
            self.field,
            dn * self.den - self.num * dd,
            self.den * self.den,
        )

    def eval(self, values):
        """Evaluate at a point (one base-field value per variable)."""
        den = self.den.eval(values)
        if self.field.base.is_zero(den):
            raise DenominatorVanishes(f"denominator {self.den!r} vanishes at the point")
        return self.num.eval(values) / den

    def __repr__(self):
        if self.den.is_constant():  # so it is 1, its lex-leading coefficient
            return repr(self.num)
        num = repr(self.num)
        den = repr(self.den)
        if num != "0" and (" " in num):
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"
