"""Exact scalar fields: the rationals and number fields Q(theta).

The scalar tower available to the rest of the package is fixed:

    Q  <  Q(theta)  <  Q(theta)(t_1, ..., t_k)

This module provides the first two floors.  Q is `fractions.Fraction`
behind a small field object (QQ); a number field is described by a monic
irreducible minimal polynomial together with an isolating rectangle that
designates one complex embedding.  Irreducibility is verified at
construction (composite input is rejected, never silently factored) by
the modular method in `irreducible`: distinct-degree factorization
modulo a few small primes, then Hensel lifting and Zassenhaus
recombination when no prime proves it outright.  The rectangle is
certified to isolate exactly one root by the interval Newton operator
from `intervals`.

Elements are coordinate vectors in the power basis 1, theta, ...,
theta^(d-1), that is, polynomials of degree below d: a product is the
Q[x] product reduced modulo the minimal polynomial, an inverse comes from
the extended Euclidean algorithm.  Both are the univariate kernel of
`irreducible` over its RATIONAL ring, the same routines that test the
minimal polynomial for irreducibility.  Arithmetic is exact; only sign
determination under the designated embedding touches intervals, and it
refines the enclosure of theta on demand within the one budget it shares
with certification, intervals.REFINEMENT_BITS (PrecisionExhausted beyond),
a cap on endpoint bits, not steps, as each exact Newton step quintuples them.

A field may carry a conjugation automorphism sigma, given by the image of
theta.  Construction checks both that sigma(theta) is a root of the
minimal polynomial (so sigma is a field automorphism) and that under the
designated embedding sigma really is complex conjugation: the enclosure of
sigma(theta) is refined until it lands inside the mirror image of the
isolating rectangle, which pins it to the unique root conj(theta) living
there.  Both checks are exact.

The helpers in _HELPERS are loaded on the first NumberField (or
gaussian_field), since grading and flags over Q never build one; reading
one as an attribute of this module loads them too.  From `intervals`
come the rectangles, certify_isolating, eval_poly_rect and newton_step;
from `irreducible` come is_irreducible_over_q and the Q[x] kernel
(strip, poly_mul, poly_divmod, poly_xgcd and poly_derivative, each
called with RATIONAL).  They are bound as module globals, and
NumberField calls them through those globals, so a wrapper bound on
this module (for example a tracer's around certify_isolating) is called,
and loading never replaces a name bound first.
"""

from __future__ import annotations

import importlib
import operator
from fractions import Fraction

from .errors import PrecisionExhausted

_HELPERS = {
    "intervals": ("Interval", "Rectangle", "certify_isolating", "eval_poly_rect",
                  "newton_step", "within_budget"),
    "irreducible": ("RATIONAL", "is_irreducible_over_q", "poly_derivative",
                    "poly_divmod", "poly_mul", "poly_xgcd", "strip"),
}


def _load_helpers():
    for module, names in _HELPERS.items():
        home = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name):
    if not any(name in names for names in _HELPERS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_helpers()
    return globals()[name]


def parse_rational(value) -> Fraction:
    """Fraction from an int, Fraction, or a string like '-3/2'.

    A Fraction is returned itself: it is immutable, so sharing it is safe.
    A string, once stripped, is an optional sign, ASCII digits and at most
    one '/digits': no exponent, decimal point or underscore, so its size
    is its length.  Anything else, and a zero denominator, is a ValueError
    naming the value.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        digits = num[1:] if num.startswith(("+", "-")) else num
        if not (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            raise ValueError(f"{value!r} is not a rational 'a/b' of integers")
        if slash and int(den) == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(int(num), int(den) if slash else 1)
    raise TypeError(f"cannot read a rational from {value!r}")


def parse_integer(value) -> int:
    """int from an exact value with denominator 1; no float or bool."""
    if type(value) is int:
        return value
    number = parse_rational(value)
    if number.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return number.numerator


def power(x, n: int, one, mul=operator.mul):
    """x**n for an integer n >= 0 by repeated squaring, with one as x**0
    and mul as the product.  It squares only while bits of n remain, so
    x**(2**j) takes j products."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


class RationalField:
    """The field Q, with Fraction elements."""

    degree = 1

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return parse_rational(value)

    def is_zero(self, x) -> bool:
        return x == 0

    def size(self, x) -> int:
        return x.numerator.bit_length() + x.denominator.bit_length()

    def conj(self, x):
        return x

    @property
    def has_conjugation(self) -> bool:
        return True

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


class NumberFieldElement:
    """Element of Q(theta) as a power-basis coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def _check_same(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("elements of different number fields")
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._check_same(other)
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._check_same(other))

    def __mul__(self, other):
        other = self._check_same(other)
        product = poly_mul(self.coords, other.coords, RATIONAL)
        return self.field._from_poly(poly_divmod(product, self.field.minpoly, RATIONAL)[1])

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in a number field")
        # The monic gcd is 1 because the minimal polynomial is irreducible.
        _, u, _ = poly_xgcd(self.coords, self.field.minpoly, RATIONAL)
        return self.field._from_poly(u)

    def __truediv__(self, other):
        return self * self._check_same(other).inverse()

    def __pow__(self, n):
        return power(self.inverse() if n < 0 else self, abs(n), self.field.one())

    def __eq__(self, other):
        try:
            other = self._check_same(other)
        except TypeError:
            return NotImplemented
        return self.coords == other.coords

    def __bool__(self):
        return any(c != 0 for c in self.coords)

    def __hash__(self):
        # == coerces rationals into the field, so a rational hashes as one
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.minpoly, self.coords))

    def __repr__(self):
        name = self.field.name
        terms = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                power = name if k == 1 else f"{name}^{k}"
                if c == 1:
                    terms.append(power)
                elif c == -1:
                    terms.append(f"-{power}")
                else:
                    terms.append(f"{c}*{power}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


class NumberField:
    """Q(theta) for theta a root of a monic irreducible polynomial,
    singled out by a certified isolating rectangle."""

    def __init__(self, minpoly, embedding: Rectangle, name: str = "theta",
                 conjugate_image=None):
        _load_helpers()
        coeffs = tuple(parse_rational(c) for c in minpoly)
        coeffs = tuple(strip(coeffs))
        if len(coeffs) < 3:
            raise ValueError("number field degree must be at least 2; use QQ for degree 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if not is_irreducible_over_q(coeffs):
            raise ValueError("minimal polynomial is not irreducible over Q; "
                             "composite input is rejected")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self._initial_rect = embedding
        self._rect = certify_isolating(coeffs, embedding)
        self._deriv = poly_derivative(coeffs, RATIONAL)
        self._conj_image = None
        if conjugate_image is not None:
            sigma_theta = self.element(conjugate_image)
            self._install_conjugation(sigma_theta)

    def _install_conjugation(self, sigma_theta: NumberFieldElement):
        # sigma must send theta to another root of the minimal polynomial.
        if self._horner(self.minpoly, sigma_theta):
            raise ValueError("conjugate_image is not a root of the minimal polynomial")
        # Under the embedding, sigma(theta) must be conj(theta).  The mirror
        # of the isolating rectangle isolates conj(theta) (real coefficients),
        # so landing the enclosure of sigma(theta) inside the mirror is an
        # exact proof.  Separation is an exact disproof.
        mirror = self._rect.conj()

        def inside_mirror(box):
            meet = box.intersect(mirror)
            if meet is None:
                return False
            return True if meet == box else None

        inside = self._refine_until(sigma_theta, inside_mirror)
        if inside is None:
            raise PrecisionExhausted("could not verify the conjugation automorphism "
                                     "within the refinement budget")
        if not inside:
            raise ValueError("conjugate_image does not realize complex conjugation "
                             "under the designated embedding")
        self._conj_image = sigma_theta

    # -- field protocol ----------------------------------------------------

    def _from_poly(self, coeffs):
        """The element with these power-basis coordinates, zero-padded."""
        coeffs = tuple(coeffs)
        return NumberFieldElement(self, coeffs + (Fraction(0),) * (self.degree - len(coeffs)))

    def _horner(self, coeffs, x: NumberFieldElement) -> NumberFieldElement:
        """sum(coeffs[k] * x^k) in this field."""
        value = self.zero()
        for c in reversed(coeffs):
            value = value * x + c
        return value

    def zero(self):
        return self._from_poly(())

    def one(self):
        return self._from_poly((Fraction(1),))

    def gen(self):
        return self._from_poly((Fraction(0), Fraction(1)))

    def element(self, coords):
        coords = [parse_rational(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("coordinate vector longer than the field degree")
        return self._from_poly(coords)

    def coerce(self, value):
        if isinstance(value, NumberFieldElement):
            if value.field != self:
                raise TypeError("element of a different number field")
            return value
        return self._from_poly((parse_rational(value),))

    def is_zero(self, x) -> bool:
        return not x

    def size(self, x) -> int:
        return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in x.coords)

    @property
    def has_conjugation(self) -> bool:
        return self._conj_image is not None

    def conj(self, x: NumberFieldElement) -> NumberFieldElement:
        if self._conj_image is None:
            raise ValueError("this number field carries no conjugation automorphism")
        return self._horner(x.coords, self._conj_image)

    # -- embedding and signs -------------------------------------------------

    def _refine_until(self, x: NumberFieldElement, decide):
        """The first decide(enclosure of x) that is not None, refining the
        enclosure of theta between tries; None once the rectangle leaves
        the refinement budget or stops shrinking."""
        previous = None
        while self._rect != previous and within_budget(self.minpoly, self._rect):
            verdict = decide(self.enclosure(x))
            if verdict is not None:
                return verdict
            previous = self._rect
            self._rect, _ = newton_step(self.minpoly, self._deriv, previous)
        return None

    def enclosure(self, x: NumberFieldElement) -> Rectangle:
        return eval_poly_rect(x.coords, self._rect)

    def _sign_of(self, x: NumberFieldElement, component: str) -> int:
        """Sign of the real or imaginary part of x under the embedding.

        Exact zero is decided algebraically first whenever a conjugation
        automorphism is available (Re x = 0 iff sigma(x) = -x, etc.), so
        the interval loop only ever runs on a provably nonzero target.
        """
        if not x:
            return 0
        if self._conj_image is not None:
            sigma_x = self.conj(x)
            if component == "re" and sigma_x == -x:
                return 0
            if component == "im" and sigma_x == x:
                return 0

        def sign(box):
            iv = box.re if component == "re" else box.im
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            return None

        decided = self._refine_until(x, sign)
        if decided is not None:
            return decided
        raise PrecisionExhausted(
            f"sign of {component}({x!r}) undecided within the refinement budget"
        )

    def sign_real(self, x: NumberFieldElement) -> int:
        return self._sign_of(x, "re")

    def sign_imag(self, x: NumberFieldElement) -> int:
        return self._sign_of(x, "im")

    def __repr__(self):
        return f"QQ({self.name})"

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self._initial_rect == other._initial_rect
        )

    def __hash__(self):
        return hash((self.minpoly, self._initial_rect.re.lo, self._initial_rect.re.hi))


def gaussian_field(name: str = "i") -> NumberField:
    """Q(i) with the upper-half-plane embedding and its conjugation."""
    _load_helpers()
    return NumberField(
        minpoly=(1, 0, 1),
        embedding=Rectangle(
            Interval(Fraction(-1, 2), Fraction(1, 2)),
            Interval(Fraction(1, 2), Fraction(3, 2)),
        ),
        name=name,
        conjugate_image=(0, -1),
    )
