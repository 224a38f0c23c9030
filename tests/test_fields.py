"""Exact scalar tower: intervals, rationals, number fields."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy.polys.specialpolys import swinnerton_dyer_poly

from hodgescreen import ExactMatrix, NumberField, PrecisionExhausted, QQ, gaussian_field
from hodgescreen import fields, intervals, irreducible
from hodgescreen.fields import NumberFieldElement, parse_rational
from hodgescreen.intervals import (
    Interval,
    Rectangle,
    certify_isolating,
    eval_poly_rect,
)
from hodgescreen.irreducible import (
    RATIONAL,
    is_irreducible_over_q,
    poly_add,
    poly_derivative,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_xgcd,
    residues_mod,
)

from hodgescreen.ratfunc import FunctionField, RatFunc

from support import oracle_is_irreducible, package_modules_after


class _SubFraction(Fraction):
    pass


def test_parse_rational_accepts_ints_fractions_and_strings():
    for value, expected in ((3, Fraction(3)), (Fraction(2, 7), Fraction(2, 7)),
                            ("-3/2", Fraction(-3, 2)), (" 5 ", Fraction(5)),
                            (_SubFraction(4, 6), Fraction(2, 3))):
        result = parse_rational(value)
        assert result == expected and type(result) is Fraction


def test_parse_rational_shares_a_fraction_and_copies_anything_else():
    half = Fraction(1, 2)
    assert parse_rational(half) is half
    sub = _SubFraction(1, 2)
    assert parse_rational(sub) is not sub
    rows = [[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(5, 7)]]
    matrix = ExactMatrix(QQ, rows)
    assert all(a is b for row, given in zip(matrix.rows, rows) for a, b in zip(row, given))


def test_a_rebound_certify_isolating_is_called_and_stays_bound(monkeypatch):
    # As a tracer does it: rebind the module global before the helpers load,
    # in a fresh interpreter, then again here with monkeypatch.
    loaded = package_modules_after(
        "from hodgescreen import fields, intervals\n"
        "calls = []\n"
        "def counting(*args):\n"
        "    calls.append(args)\n"
        "    return intervals.certify_isolating(*args)\n"
        "assert 'certify_isolating' not in vars(fields)\n"
        "fields.certify_isolating = counting\n"
        "fields.gaussian_field()\n"
        "assert len(calls) == 1 and fields.certify_isolating is counting\n")
    assert {"intervals", "irreducible"} <= loaded

    calls = []
    original = fields.certify_isolating

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fields, "certify_isolating", counting)
    gaussian_field()
    assert len(calls) == 1
    assert fields.certify_isolating is counting


def test_parse_rational_rejects_bool_and_float():
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(TypeError):
        parse_rational(0.5)


def test_parse_rational_reads_only_integers_over_integers():
    # Fraction alone would read each of these, "1e5" as 100000.
    for value in ("1e5", "1.5", ".5", "1_000"):
        with pytest.raises(ValueError, match="is not a rational"):
            parse_rational(value)


def test_interval_multiplication_tracks_sign_corners():
    a = Interval(Fraction(-2), Fraction(3))
    b = Interval(Fraction(-1), Fraction(4))
    prod = a * b
    assert prod.lo == Fraction(-8) and prod.hi == Fraction(12)
    assert a.contains_zero()
    assert not Interval(Fraction(1), Fraction(2)).contains_zero()


def test_interval_endpoints_are_exact():
    assert Interval(0, Fraction(1, 2)).hi == Fraction(1, 2)
    for lo, hi in ((0.0, 1), (0, 0.5), (False, True)):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            Interval(lo, hi)


def test_rectangle_complex_product_matches_hand_value():
    # (1+i)^2 = 2i at zero width
    z = Rectangle(Interval(Fraction(1), Fraction(1)), Interval(Fraction(1), Fraction(1)))
    sq = z * z
    assert sq.re.lo == sq.re.hi == 0
    assert sq.im.lo == sq.im.hi == 2


def test_isolating_rectangle_for_gaussian_unit():
    coeffs = (Fraction(1), Fraction(0), Fraction(1))  # x^2 + 1
    box = Rectangle(
        Interval(Fraction(-1, 2), Fraction(1, 2)),
        Interval(Fraction(1, 2), Fraction(3, 2)),
    )
    certified = certify_isolating(coeffs, box)
    value = eval_poly_rect(coeffs, certified)
    assert value.re.contains_zero() and value.im.contains_zero()


def test_rectangle_without_root_is_rejected():
    coeffs = (Fraction(1), Fraction(0), Fraction(1))
    box = Rectangle(Interval(Fraction(3), Fraction(4)), Interval(Fraction(3), Fraction(4)))
    with pytest.raises(ValueError):
        certify_isolating(coeffs, box)


def test_number_field_constructor_contracts():
    box = Rectangle(Interval(Fraction(1), Fraction(2)), Interval(Fraction(-1), Fraction(1)))
    with pytest.raises(ValueError):
        NumberField((Fraction(-2), Fraction(0), Fraction(2)), box)  # not monic
    with pytest.raises(ValueError):
        NumberField((Fraction(-2), Fraction(1)), box)  # degree 1
    with pytest.raises(ValueError, match="^minimal polynomial is not irreducible over Q; "
                                         "composite input is rejected$"):
        NumberField((Fraction(-1), Fraction(0), Fraction(1)), box)  # reducible


def test_an_exhausted_refinement_budget_raises_precision_exhausted(monkeypatch):
    qi = gaussian_field()
    i = qi.gen()
    monkeypatch.setattr(intervals, "REFINEMENT_BITS", 0)
    with pytest.raises(PrecisionExhausted,
                       match=r"^sign of re\(1 \+ i\) undecided within the refinement budget$"):
        qi.sign_real(i + 1)
    with pytest.raises(PrecisionExhausted, match="^could not verify the conjugation "
                                                 "automorphism within the refinement budget$"):
        gaussian_field()


def test_refinement_stops_once_the_rectangle_stops_shrinking():
    # Q(i) without a conjugation: theta = i is a rational point, so Newton
    # lands on it and Re(theta) = 0 has no sign to find
    K = NumberField((1, 0, 1), Rectangle(Interval(Fraction(-1, 2), Fraction(1, 2)),
                                         Interval(Fraction(1, 2), Fraction(3, 2))), name="i")
    with pytest.raises(PrecisionExhausted, match="within the refinement budget$"):
        K.sign_real(K.gen())


def test_gaussian_arithmetic_and_inverse():
    K = gaussian_field()
    i = K.gen()
    assert i * i == -K.one()
    z = K.one() + i
    w = z.inverse()
    assert z * w == K.one()
    assert w == K.element((Fraction(1, 2), Fraction(-1, 2)))
    assert (i ** 4) == K.one()
    assert (K.one() * 2 + i) / z * z == K.one() * 2 + i


def test_conjugation_is_a_ring_map():
    K = gaussian_field()
    i = K.gen()
    a = K.one() * 3 + i * 2
    b = K.one() - i
    assert K.conj(a * b) == K.conj(a) * K.conj(b)
    assert K.conj(a + b) == K.conj(a) + K.conj(b)
    assert K.conj(K.conj(a)) == a


def test_wrong_conjugate_image_is_rejected_exactly():
    box = Rectangle(
        Interval(Fraction(-1, 2), Fraction(1, 2)),
        Interval(Fraction(1, 2), Fraction(3, 2)),
    )
    with pytest.raises(ValueError):
        # sigma(i) = i is a root but not the mirror of this embedding
        NumberField((1, 0, 1), box, name="i", conjugate_image=(0, 1))
    with pytest.raises(ValueError):
        # sigma(i) = 1 is not a root at all
        NumberField((1, 0, 1), box, name="i", conjugate_image=(1, 0))


def test_signs_are_exact_for_gaussian_elements():
    K = gaussian_field()
    i = K.gen()
    assert K.sign_imag(i) == 1
    assert K.sign_real(i) == 0
    assert K.sign_imag(K.one()) == 0
    assert K.sign_real(-K.one() * 7 + i) == -1
    assert K.sign_real(K.zero()) == 0


def test_real_quadratic_field_orders_algebraically():
    # sqrt(2) via x^2 - 2 on the positive real axis
    K = NumberField(
        (Fraction(-2), Fraction(0), Fraction(1)),
        Rectangle(Interval(Fraction(1), Fraction(2)), Interval(Fraction(-1, 2), Fraction(1, 2))),
        name="r",
        conjugate_image=(0, 1),  # real generator: conjugation fixes it
    )
    r = K.gen()
    assert K.sign_real(r - 1) == 1
    assert K.sign_real(r - Fraction(3, 2)) == -1
    assert K.sign_real(r * r - 2) == 0
    assert K.sign_imag(r) == 0
    # 1/(r+1) = r - 1
    assert (K.one() + r).inverse() == r - 1


def test_cubic_field_without_conjugation_still_signs():
    # real cube root of 2; the rectangle must keep 3x^2 away from zero
    K = NumberField(
        (Fraction(-2), Fraction(0), Fraction(0), Fraction(1)),
        Rectangle(
            Interval(Fraction(1), Fraction(3, 2)),
            Interval(Fraction(-1, 4), Fraction(1, 4)),
        ),
        name="c",
    )
    assert not K.has_conjugation
    c = K.gen()
    assert K.sign_real(c - 1) == 1
    assert K.sign_real(c - 2) == -1
    assert K.sign_real(c ** 3 - 2) == 0
    with pytest.raises(ValueError):
        K.conj(c)


def test_element_hash_respects_equality():
    K = gaussian_field()
    i = K.gen()
    assert hash(i + 1) == hash(K.element((1, 1)))
    assert len({i, i, K.gen()}) == 1


def test_a_rational_element_hashes_as_its_rational():
    K = gaussian_field()
    three = K.coerce(3)
    assert three == 3 == Fraction(3)
    assert len({three, 3}) == 1 and len({three, Fraction(3)}) == 1
    assert len({K.zero(), 0}) == 1


def test_sign_budget_failure_is_reported():
    # sign of an exact zero times a unit decays to zero coords, so force
    # the slow path with a tiny but nonzero difference instead
    K = NumberField(
        (Fraction(-2), Fraction(0), Fraction(1)),
        Rectangle(Interval(Fraction(1), Fraction(2)), Interval(Fraction(-1, 2), Fraction(1, 2))),
        name="r",
    )
    r = K.gen()
    # 665857/470832 is a continued-fraction convergent of sqrt(2); the
    # difference is ~1e-12 but still decidable well inside the budget
    assert K.sign_real(r - Fraction(665857, 470832)) == -1


def test_rational_field_singleton_contract():
    assert QQ.coerce("7/3") == Fraction(7, 3)
    assert QQ.conj(Fraction(5)) == Fraction(5)
    assert QQ.has_conjugation
    assert QQ.is_zero(Fraction(0)) and not QQ.is_zero(Fraction(1, 9))


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_irreducibility_matches_the_sympy_oracle_on_named_cases():
    cases = {
        # irreducible over Q, yet reducible modulo every prime
        (1, 0, 0, 0, 1): True,  # x^4 + 1
        (1, 0, -10, 0, 1): True,  # x^4 - 10x^2 + 1
        (4, 0, 0, 0, 1): False,  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
        (1, 0, 1, 0, 1): False,  # x^4 + x^2 + 1
        (1, 0, 2, 0, 1): False,  # (x^2 + 1)^2
        (0, 2, 0, 1): False,  # x (x^2 + 2)
        (Fraction(-1, 4), 0, 1): False,  # x^2 - 1/4
        (Fraction(-1, 2), 0, 1): True,  # x^2 - 1/2
    }
    for coeffs, expected in cases.items():
        assert is_irreducible_over_q(coeffs) is expected, coeffs
        assert oracle_is_irreducible(coeffs) is expected, coeffs


def test_swinnerton_dyer_octic_is_irreducible_within_budget():
    # minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5): only linear and
    # quadratic factors modulo every prime, so recombination must run
    coeffs = (576, 0, -960, 0, 352, 0, -40, 0, 1)
    start = time.monotonic()
    assert is_irreducible_over_q(coeffs)
    elapsed = time.monotonic() - start
    assert oracle_is_irreducible(coeffs)
    assert elapsed < 2.0, f"took {elapsed:.3f}s, budget 2s"


@pytest.mark.parametrize("primes", [3, 4])
def test_swinnerton_dyer_recombination_stays_within_its_stated_bound(primes, monkeypatch):
    """irreducible's docstring bound: of the r modular factors, at most
    2^(r-1) - 1 splits are tried, each counted at its constant-term test
    (the one call of _symmetric on a single coefficient).  The minimal
    polynomial of sqrt(2) + sqrt(3) + sqrt(5) (+ sqrt(7)) splits into
    factors of degree at most 2 modulo every prime."""
    polynomial = swinnerton_dyer_poly(primes, polys=True)
    coeffs = tuple(int(c) for c in reversed(polynomial.all_coeffs()))
    assert len(coeffs) - 1 == 2**primes
    factor_counts, constant_tests = [], []
    has_factor, symmetric = irreducible._has_factor, irreducible._symmetric

    def counted_has_factor(f, factors, m):
        factor_counts.append(len(factors))
        return has_factor(f, factors, m)

    def counted_symmetric(a, m):
        if len(a) == 1:
            constant_tests.append(a)
        return symmetric(a, m)

    monkeypatch.setattr(irreducible, "_has_factor", counted_has_factor)
    monkeypatch.setattr(irreducible, "_symmetric", counted_symmetric)
    assert is_irreducible_over_q(coeffs)
    (r,) = factor_counts
    assert r >= 4
    assert len(constant_tests) <= 2 ** (r - 1) - 1


def _gaussian_element():
    field = gaussian_field()
    return NumberFieldElement, field.one() + 2 * field.gen()


def _rational_function():
    t1, t2 = FunctionField(QQ, ("t1", "t2")).gens()
    return RatFunc, (t1 + 2) / (t2 - 1)


POWER_BASES = {"number field": _gaussian_element, "rational function": _rational_function}


@pytest.mark.parametrize("make", POWER_BASES.values(), ids=POWER_BASES)
def test_a_power_is_the_repeated_product(make):
    _cls, x = make()
    one = x.field.one()
    inverse = one / x
    product, inverse_product = one, one
    for n in range(34):
        assert x**n == product, n
        assert x**-n == inverse_product, n
        product, inverse_product = product * x, inverse_product * inverse


@pytest.mark.parametrize("make", POWER_BASES.values(), ids=POWER_BASES)
def test_a_power_of_two_squares_only_below_its_top_bit(make, monkeypatch):
    cls, x = make()
    products = []
    multiply = cls.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    for j in range(7):
        products.clear()
        x ** (2**j)
        assert len(products) == j, j


def test_irreducibility_matches_the_sympy_oracle_on_random_polynomials():
    rng = random.Random(20261018)

    def monic(degree):
        lower = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)]
        return lower + [Fraction(1)]

    products = 0
    for _ in range(240):
        if rng.random() < 0.5:
            left = rng.randint(1, 4)
            coeffs = _times(monic(left), monic(rng.randint(1, 8 - left)))
            products += 1
        else:
            coeffs = monic(rng.randint(2, 8))
        assert is_irreducible_over_q(coeffs) == oracle_is_irreducible(coeffs), coeffs
    assert 90 <= products <= 150


# -- the univariate kernel, over Q and over F_p ----------------------------------

SMALL = settings(max_examples=60, deadline=None, database=None)


@st.composite
def ring_and_polys(draw, count):
    """A ring, Q or F_p for a small prime p, and count polynomials over it
    of degree below 6, with unreduced coefficients."""
    p = draw(st.sampled_from((None, 2, 3, 5, 7)))
    if p is None:
        ring = RATIONAL
        coeff = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5),
                                                         st.integers(1, 4)))
    else:
        ring = residues_mod(p)
        coeff = st.integers(-20, 20)
    return (ring, *(draw(st.lists(coeff, max_size=6)) for _ in range(count)))


def _same(x, y, ring):
    return poly_sub(x, y, ring) == []


@seed(20261101)
@SMALL
@given(ring_and_polys(2))
def test_divmod_leaves_a_remainder_of_lower_degree(drawn):
    ring, a, b = drawn
    divisor = poly_add(b, [], ring)
    if not divisor:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b, ring)
        return
    q, r = poly_divmod(a, b, ring)
    assert _same(poly_add(poly_mul(q, b, ring), r, ring), a, ring)
    assert len(r) < len(divisor)


@seed(20261102)
@SMALL
@given(ring_and_polys(2))
def test_xgcd_gives_a_monic_common_divisor_and_its_cofactors(drawn):
    ring, a, b = drawn
    g, u, v = poly_xgcd(a, b, ring)
    assert _same(poly_add(poly_mul(u, a, ring), poly_mul(v, b, ring), ring), g, ring)
    if not poly_add(a, [], ring) and not poly_add(b, [], ring):
        assert g == []
        return
    assert g[-1] == 1
    assert poly_divmod(a, g, ring)[1] == [] and poly_divmod(b, g, ring)[1] == []


@seed(20261103)
@SMALL
@given(ring_and_polys(2))
def test_the_derivative_obeys_the_product_rule(drawn):
    ring, a, b = drawn
    left = poly_derivative(poly_mul(a, b, ring), ring)
    right = poly_add(poly_mul(poly_derivative(a, ring), b, ring),
                     poly_mul(a, poly_derivative(b, ring), ring), ring)
    assert _same(left, right, ring)


_CUBIC = NumberField(
    (Fraction(-2), Fraction(0), Fraction(0), Fraction(1)),
    Rectangle(Interval(Fraction(1), Fraction(3, 2)), Interval(Fraction(-1, 4), Fraction(1, 4))),
    name="c",
)


@seed(20261104)
@SMALL
@given(st.sampled_from((gaussian_field(), _CUBIC)),
       st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
                min_size=3, max_size=3))
def test_an_element_times_its_inverse_is_one(field, coords):
    x = field.element(coords[:field.degree])
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == field.one()
    assert x.inverse() * x == field.one()
