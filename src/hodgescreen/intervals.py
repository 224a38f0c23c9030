"""Exact rectangular complex interval arithmetic over the rationals.

Algebraic numbers are pinned down by an isolating rectangle with rational
corners.  All endpoint arithmetic uses `fractions.Fraction`, so enclosures
are exact: no outward rounding is ever needed.  Refinement is the interval
Newton operator

    N(R) = mid(R) - p(mid(R)) / p'(R)

applied with rectangle arithmetic.  When N(R) lands strictly inside R the
standard existence and uniqueness argument applies: R contains exactly one
(simple) root of p, and it lies in N(R).  That containment is what
certifies a user-supplied rectangle at field construction time, and the
same iteration later shrinks the rectangle whenever a sign decision needs
more precision.  p' is the Q[x] derivative of `irreducible`'s univariate
kernel, this module's one import from the package.

Certification here and the sign decisions of `fields` share one budget,
REFINEMENT_BITS, on the degree times the endpoint bit length, about what
a step costs, and not on the step count: exact Newton makes endpoints
about five times longer per step, so from a rectangle with the root on
its edge, which never certifies, the eighth step alone took 50 s.
"""

from __future__ import annotations

from fractions import Fraction

from .irreducible import RATIONAL, poly_derivative

_HALF = Fraction(1, 2)

# Tests and golden CLI runs: certification took one step, sign decisions
# at most four, to 11,206 (5,603 bits, degree 2); one more fits.  The last
# step in budget took 0.5 s at degree 2, 0.6 s at 16 (2 cores, Python 3.11.7).
REFINEMENT_BITS = 65_536


class Interval:
    """Closed interval [lo, hi] with exact endpoints: int or Fraction."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) not in (int, Fraction) or type(hi) not in (int, Fraction):
            raise TypeError(f"interval endpoints must be int or Fraction: {lo!r}, {hi!r}")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        return isinstance(other, Interval) and (self.lo, self.hi) == (other.lo, other.hi)

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    def square(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(0, max(self.lo * self.lo, self.hi * self.hi))

    def divide(self, other) -> "Interval":
        """self / other, defined only when 0 is outside other."""
        if other.contains_zero():
            raise ZeroDivisionError("interval divisor contains zero")
        cands = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(cands), max(cands))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def strictly_inside(self, other) -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) * _HALF


class Rectangle:
    """Axis-aligned rectangle re + i*im in the complex plane."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        self.re = re
        self.im = im

    def __eq__(self, other):
        # NumberField equality compares the initial isolating rectangles
        return isinstance(other, Rectangle) and (self.re, self.im) == (other.re, other.im)

    @staticmethod
    def point(re, im=0) -> "Rectangle":
        return Rectangle(Interval(re, re), Interval(im, im))

    def __add__(self, other):
        return Rectangle(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Rectangle(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
        return Rectangle(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "Rectangle":
        return Rectangle(self.re, -self.im)

    def abs_square(self) -> Interval:
        return self.re.square() + self.im.square()

    def divide(self, other) -> "Rectangle":
        denom = other.abs_square()
        num = self * other.conj()
        return Rectangle(num.re.divide(denom), num.im.divide(denom))

    def strictly_inside(self, other) -> bool:
        return self.re.strictly_inside(other.re) and self.im.strictly_inside(other.im)

    def intersect(self, other):
        re = self.re.intersect(other.re)
        im = self.im.intersect(other.im)
        if re is None or im is None:
            return None
        return Rectangle(re, im)

    @property
    def mid(self) -> tuple:
        return (self.re.mid, self.im.mid)


def eval_poly_rect(coeffs, rect: Rectangle) -> Rectangle:
    """Horner evaluation of sum(coeffs[k] * z^k) at a rectangle.

    coeffs are rational, ascending by degree.
    """
    acc = Rectangle.point(0)
    for c in reversed(coeffs):
        acc = acc * rect + Rectangle.point(c)
    return acc


def newton_step(coeffs, deriv, rect: Rectangle):
    """One interval Newton step.

    Returns (refined_rectangle, certified) where certified means the step
    proved existence and uniqueness of a root in the original rectangle.
    Raises ZeroDivisionError when p'(rect) straddles zero (rectangle too
    coarse for Newton), and ValueError when the step empties the rectangle
    (no root at all).
    """
    mid = Rectangle.point(*rect.mid)
    quotient = eval_poly_rect(coeffs, mid).divide(eval_poly_rect(deriv, rect))
    candidate = mid - quotient
    certified = candidate.strictly_inside(rect)
    refined = candidate.intersect(rect)
    if refined is None:
        raise ValueError("Newton step excludes the whole rectangle: no root inside")
    return refined, certified


def within_budget(coeffs, rect: Rectangle) -> bool:
    """Whether Newton may step from rect: the degree times its longest
    endpoint, numerator plus denominator bits, within REFINEMENT_BITS."""
    longest = max(x.numerator.bit_length() + x.denominator.bit_length()
                  for x in (rect.re.lo, rect.re.hi, rect.im.lo, rect.im.hi))
    return (len(coeffs) - 1) * longest <= REFINEMENT_BITS


def certify_isolating(coeffs, rect: Rectangle) -> Rectangle:
    """Verify that rect isolates exactly one root of the polynomial.

    Iterates interval Newton until one step maps the rectangle strictly
    into itself, which proves the rectangle contains a unique simple root.
    The first step runs on rect as given, a later one only while the
    rectangle shrinks within budget.  Returns the refined rectangle.  Raises
    ValueError when the rectangle provably contains no root or is too
    coarse to certify within budget.
    """
    deriv = poly_derivative(coeffs, RATIONAL)
    current = rect
    while True:
        try:
            refined, certified = newton_step(coeffs, deriv, current)
        except ZeroDivisionError:
            raise ValueError(
                "cannot certify the isolating rectangle: derivative enclosure "
                "straddles zero (rectangle too coarse, or root not simple)"
            ) from None
        if certified:
            return refined
        if refined == current or not within_budget(coeffs, refined):
            raise ValueError(
                "cannot certify the isolating rectangle within the refinement budget")
        current = refined

