"""Property tests: ring axioms, gcd normalization, canonical reduced
pairs, chart invariance, weight-block grading."""

import random
from fractions import Fraction

import sympy
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from hodgescreen import FlagPoint, FunctionField, HodgeCocharacter, QQ, grade, normalize_chart
from hodgescreen.polys import Poly, PolyRing, divexact, poly_gcd
from hodgescreen.ratfunc import RatFunc

from support import oracle_levels, poly_to_sympy, random_classical_instance, random_poly_flag

NAMES = ("t1", "t2")
RING = PolyRing(QQ, NAMES)
FIELD = FunctionField(QQ, NAMES)
SYMS = sympy.symbols(NAMES)
SMALL = settings(max_examples=40, deadline=None, database=None)

coefficients = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=3
).map(lambda terms: Poly(RING, terms))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(lambda a, b: RatFunc(FIELD, a, b), polys, nonzero_polys)
# Three-fold sums multiply denominators, and gcds over Q(t1, t2) grow fast
# with degree, so the field axioms draw multilinear terms.
linear_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), coefficients, max_size=2
).map(lambda terms: Poly(RING, terms))
small_ratfuncs = st.builds(
    lambda a, b: RatFunc(FIELD, a, b), linear_polys,
    linear_polys.filter(lambda p: not p.is_zero()),
)


def pair(f):
    return f.num, f.den


@seed(20261021)
@SMALL
@given(polys, polys, polys)
def test_polynomial_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RING.zero()


def test_equal_polynomials_hash_equal():
    """An integer and its Fraction are equal coefficients, and a constant
    equals its scalar, so each pair hashes alike whatever the term order."""
    a = Poly(RING, {(1, 0): 3, (0, 2): Fraction(1, 2)})
    b = Poly(RING, {(0, 2): Fraction(1, 2), (1, 0): Fraction(3)})
    assert a == b and len({a, b}) == 1
    three = RING.const(3)
    assert three == 3 and len({three, 3, Fraction(3)}) == 1
    assert RING.zero() == 0 and len({RING.zero(), 0}) == 1


@seed(20261022)
@SMALL
@given(small_ratfuncs, small_ratfuncs, small_ratfuncs)
def test_rational_function_field_axioms_on_reduced_pairs(x, y, z):
    assert pair((x + y) + z) == pair(x + (y + z))
    assert pair((x * y) * z) == pair(x * (y * z))
    assert pair(x * (y + z)) == pair(x * y + x * z)
    assert pair(x + (-x)) == pair(FIELD.zero())


@seed(20261025)
@SMALL
@given(linear_polys, nonzero_polys, linear_polys, nonzero_polys,
       nonzero_polys.filter(lambda p: not p.is_constant()), st.integers(1, 2),
       small_ratfuncs)
def test_sums_over_a_shared_denominator_factor_are_the_reduced_cross_products(
        a, b, c, d, shared, power, w):
    """x + y and x - y agree, as reduced pairs, with reducing the whole
    cross-multiplied fraction by one gcd, when the denominators of x and
    y share a factor; and x + (w - x) is w, which cancels that factor."""
    g = shared if power == 1 else shared * shared
    x = RatFunc(FIELD, a, b * g)
    for y in (RatFunc(FIELD, c, d * g),
              RatFunc(FIELD, w.num * x.den - x.num * w.den, w.den * x.den)):
        assert pair(x + y) == pair(RatFunc(FIELD, x.num * y.den + y.num * x.den, x.den * y.den))
        assert pair(x - y) == pair(RatFunc(FIELD, x.num * y.den - y.num * x.den, x.den * y.den))
    assert pair(x + y) == pair(w)
    assert pair(x - x) == pair(FIELD.zero())


@seed(20261023)
@SMALL
@given(ratfuncs, ratfuncs, coefficients)
def test_equal_rational_functions_have_equal_reduced_pairs(x, y, k):
    routes = [(x + y) - y, RatFunc(FIELD, x.num.scale(k), x.den.scale(k))]
    if not y.is_zero():
        routes.append((x * y) / y)
    for value in routes:
        assert value.num * x.den == x.num * value.den  # the same element
        assert pair(value) == pair(x)
        assert value.den.lex_leading()[1] == 1


@seed(20261018)
@SMALL
@given(nonzero_polys, polys, nonzero_polys)
def test_gcd_of_a_common_multiple_is_normalized_and_matches_sympy(a, b, c):
    g = poly_gcd(a * c, b * c)
    divexact(g, c)  # raises ValueError unless c divides g
    assert g.lex_leading()[1] == 1
    expected = sympy.Poly(
        sympy.gcd(poly_to_sympy(a * c, SYMS), poly_to_sympy(b * c, SYMS)),
        *SYMS, domain="QQ",
    ).monic()
    assert sympy.Poly(poly_to_sympy(g, SYMS), *SYMS, domain="QQ") == expected


@seed(20261019)
@SMALL
@given(polys, nonzero_polys, nonzero_polys)
def test_common_factors_cancel_in_rational_functions(a, b, c):
    assert RatFunc(FIELD, a * c, b * c) == RatFunc(FIELD, a, b)


@seed(20261020)
@SMALL
@given(st.integers(0, 10**6), st.lists(coefficients | st.just(Fraction(0)), min_size=9, max_size=9))
def test_chart_coordinates_depend_only_on_the_span(flag_seed, entries):
    flag = random_poly_flag(random.Random(flag_seed), max_params=2, max_degree=2)
    (p, vectors), = flag.steps
    s = len(vectors)
    mix = [entries[i * s:(i + 1) * s] for i in range(s)]
    assume(sympy.Matrix(mix).det() != 0)
    mixed = tuple(
        tuple(sum((mix[i][j] * vectors[j][row] for j in range(s)), flag.field.zero())
              for row in range(flag.ambient_dim))
        for i in range(s)
    )
    moved = FlagPoint(flag.field, flag.ambient_dim, ((p, mixed),))
    assert normalize_chart(moved) == normalize_chart(flag)


@seed(20261024)
@SMALL
@given(st.randoms(use_true_random=False))
def test_weight_block_grading_matches_the_eigenvalue_oracle(rng):
    algebra, lam = random_classical_instance(rng, max_ambient=6)
    levels = grade(algebra, HodgeCocharacter(lam))
    assert levels == oracle_levels(algebra, lam)
