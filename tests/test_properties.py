"""Property tests: gcd normalization, reduced pairs, chart invariance."""

import random
from fractions import Fraction

import sympy
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from hodgescreen import FlagPoint, FunctionField, QQ, normalize_chart
from hodgescreen.polys import Poly, PolyRing, divexact, poly_gcd
from hodgescreen.ratfunc import RatFunc

from support import poly_to_sympy, random_poly_flag

NAMES = ("t1", "t2")
RING = PolyRing(QQ, NAMES)
SYMS = sympy.symbols(NAMES)
SMALL = settings(max_examples=40, deadline=None, database=None)

coefficients = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=3
).map(lambda terms: Poly(RING, terms))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


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
    field = FunctionField(QQ, NAMES)
    assert RatFunc(field, a * c, b * c) == RatFunc(field, a, b)


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
