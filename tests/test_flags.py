"""Parametric flags, chart normalization, transcendence degree."""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy

from hodgescreen import (
    DenominatorVanishes,
    ExactMatrix,
    FlagPoint,
    FunctionField,
    QQ,
    gaussian_field,
    normalize_chart,
    rank,
    trdeg,
)
from hodgescreen import polys
from hodgescreen.flags import (
    _FAST_PATH_RANGE,
    evaluated_jacobian,
    jacobian_matrix,
)
from hodgescreen.ratfunc import RatFunc

from support import (
    ENV,
    ROOT,
    oracle_chart,
    oracle_trdeg,
    random_poly_flag,
    random_span_flag,
    ratfunc_to_sympy,
)


def field_over_q(*names):
    return FunctionField(QQ, names)


def line_flag(field, entries):
    return FlagPoint(field, len(entries), steps=((1, (tuple(entries),)),))


def test_flag_point_shape_contracts():
    f = field_over_q("t1")
    t1 = f.gen("t1")
    with pytest.raises(ValueError, match="length"):
        FlagPoint(f, 3, steps=((1, ((f.one(), t1),)),))
    with pytest.raises(ValueError, match="empty"):
        FlagPoint(f, 2, steps=((1, ()),))
    with pytest.raises(ValueError, match="strictly decrease"):
        FlagPoint(
            f,
            2,
            steps=(
                (1, ((f.one(), t1),)),
                (1, ((f.one(), f.zero()), (f.zero(), f.one()))),
            ),
        )
    with pytest.raises(ValueError, match="strictly grow"):
        FlagPoint(
            f,
            2,
            steps=((2, ((f.one(), t1),)), (1, ((f.one(), f.zero()),))),
        )
    with pytest.raises(ValueError, match="independent"):
        FlagPoint(f, 2, steps=((1, ((t1, t1), (t1, t1))),))
    with pytest.raises(ValueError, match="contained"):
        FlagPoint(
            f,
            3,
            steps=(
                (2, ((f.one(), f.zero(), f.zero()),)),
                (1, (
                    (f.zero(), f.one(), f.zero()),
                    (f.zero(), f.zero(), f.one()),
                )),
            ),
        )


def test_step_positions_are_read_as_integers_not_truncated():
    f = field_over_q("t1")
    line = ((f.one(), f.gen("t1")),)
    assert FlagPoint(f, 2, steps=(("1", line),)).steps[0][0] == 1
    for position, error in ((1.5, TypeError), (True, TypeError), ("3/2", ValueError)):
        with pytest.raises(error):
            FlagPoint(f, 2, steps=((position, line),))


def test_a_dependent_basis_with_denominators_is_rejected():
    # both rows carry non-unit denominators, so both are scaled before the
    # fraction-free elimination; the second row is the first times a
    # rational function, so the rank over Q(t) is one
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()
    first = (f.one() / (t1 - 1), t2 / (t1 - 1), t1 / (t2 + 1))
    second = tuple(x * (t2 + 1) / (t1 * t1 + 3) for x in first)
    with pytest.raises(ValueError, match="step p=1 basis is not linearly independent"):
        FlagPoint(f, 3, steps=((1, (first, second)),))
    FlagPoint(f, 3, steps=((1, (first, (f.one(), f.zero(), t2 / (t1 + 2)))),))


def test_containment_with_denominators_is_checked():
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()
    low = (
        (f.one() / (t1 + 1), f.zero(), t2 / (t1 + 1), f.one()),
        (f.zero(), t1 / (t2 - 2), f.one(), f.one() / (t1 - t2)),
    )
    inside = tuple(a * t2 / (t1 - 3) + b / (t2 + 5) for a, b in zip(*low))
    FlagPoint(f, 4, steps=((2, (inside,)), (1, low)))
    outside = inside[:3] + (inside[3] + f.one() / (t1 * t2 + 1),)
    with pytest.raises(ValueError, match=r"F\^2 is not contained in F\^1"):
        FlagPoint(f, 4, steps=((2, (outside,)), (1, low)))


def test_a_flag_with_an_affine_denominator_builds_within_budget():
    # three quadrics in Q(t1, t2, t3)^4, one entry with an affine
    # denominator: with symbolic ranks over Q(t) the independence check
    # ran for more than 40 s inside poly_gcd (2 cores, Python 3.11.7);
    # the fraction-free elimination takes about 0.2 s
    rng = random.Random(1)
    f = field_over_q("t1", "t2", "t3")
    gens = f.gens()

    def quadric():
        total = f.coerce(rng.randint(-3, 3))
        for g in gens:
            total = total + rng.randint(-3, 3) * g
        for a in gens:
            for b in gens:
                if rng.random() < 0.3:
                    total = total + rng.randint(-3, 3) * a * b
        return total

    vectors = [[quadric() for _ in range(4)] for _ in range(3)]
    t1, t2, t3 = gens
    vectors[1][2] = (-t1 - Fraction(1, 3) * t2 - Fraction(1, 3) * t3 + Fraction(1, 3)) / (t1 - t3)
    start = time.monotonic()
    FlagPoint(f, 4, ((1, tuple(tuple(v) for v in vectors)),))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_normalize_chart_of_a_graph_column():
    f = field_over_q("t1", "t2")
    t1, t2 = f.gen("t1"), f.gen("t2")
    flag = line_flag(f, (f.one(), t1, t2))
    assert normalize_chart(flag) == [t1, t2]
    # chart is invariant under scaling the basis vector
    scaled = line_flag(f, (t1 + 1, (t1 + 1) * t1, (t1 + 1) * t2))
    assert normalize_chart(scaled) == [t1, t2]


def test_normalize_chart_picks_the_first_pivot_block():
    f = field_over_q("t1")
    t1 = f.gen("t1")
    flag = FlagPoint(
        f,
        3,
        steps=((1, ((f.zero(), f.one(), t1), (f.one(), f.zero(), t1 * t1))),),
    )
    # rows 0,1 already form the identity block; row 2 is the chart
    assert normalize_chart(flag) == [t1 * t1, t1]


@pytest.mark.parametrize("two_steps", [False, True])
def test_normalize_chart_matches_the_minor_search_oracle(two_steps):
    rng = random.Random(5150 + two_steps)
    off_top = 0
    for _ in range(10):
        flag = random_span_flag(rng, two_steps)
        syms = tuple(sympy.Symbol(n) for n in flag.field.names)
        coords = normalize_chart(flag)
        expected = oracle_chart(flag)
        assert len(coords) == len(expected)
        for ours, theirs in zip(coords, expected):
            assert sympy.cancel(ratfunc_to_sympy(ours, syms) - theirs) == 0
        off_top += any(
            rank(ExactMatrix(flag.field, [x[: len(v)] for x in v])) < len(v)
            for _p, v in flag.steps
        )
    assert off_top  # some charts do not sit on the top rows


@pytest.mark.parametrize("two_steps", [False, True])
def test_chart_coordinates_depend_only_on_the_span_of_each_step(two_steps):
    """normalize_chart is unchanged by a unimodular mix of one step's basis
    over Q[t], by scaling one vector by a non-constant polynomial, and by
    permuting the vectors."""
    rng = random.Random(6160 + two_steps)
    for _ in range(8):
        flag = random_span_flag(rng, two_steps)
        t1, t2 = flag.field.gens()
        pairs = [(c.num, c.den) for c in normalize_chart(flag)]
        which = rng.randrange(len(flag.steps))
        p, vectors = flag.steps[which]

        def scaled(v, c):
            return tuple(c * x for x in v)

        def plus(v, c, w):
            return tuple(x + c * y for x, y in zip(v, w))

        if len(vectors) >= 2:
            # [[1, t1 - 2], [3, 3 t1 - 5]] has determinant 1
            first = plus(vectors[0], t1 - 2, vectors[1])
            mixed = (first, plus(vectors[1], 3, first)) + vectors[2:]
        else:
            mixed = (scaled(vectors[0], -2),)
        k = rng.randrange(len(vectors))
        stretched = vectors[:k] + (scaled(vectors[k], t1 * t2 + t2 - 3),) + vectors[k + 1:]
        for moved in (mixed, stretched, vectors[::-1]):
            steps = flag.steps[:which] + ((p, moved),) + flag.steps[which + 1:]
            other = FlagPoint(flag.field, flag.ambient_dim, steps)
            assert [(c.num, c.den) for c in normalize_chart(other)] == pairs


def test_evaluated_rows_match_sympy_jacobian_at_the_point():
    rng = random.Random(8080)
    checked = vanished = 0
    for _ in range(16):
        flag = random_span_flag(rng, rng.random() < 0.4)
        coords = normalize_chart(flag)
        syms = tuple(sympy.Symbol(n) for n in flag.field.names)
        jac = sympy.Matrix([ratfunc_to_sympy(c, syms) for c in coords]).jacobian(syms)
        jac = jac.applyfunc(sympy.cancel)
        for _ in range(3):
            point = [Fraction(rng.randint(-3, 3)) for _ in syms]
            at = dict(zip(syms, (sympy.Rational(x.numerator, x.denominator) for x in point)))
            poles = any(sympy.fraction(entry)[1].subs(at) == 0 for entry in jac)
            try:
                rows = evaluated_jacobian(coords, flag.field, point)
            except DenominatorVanishes:
                assert poles
                vanished += 1
                continue
            assert not poles
            expected = jac.subs(at)
            assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                    for row in rows] == expected.tolist()
            checked += 1
    assert checked and vanished


def test_a_vanishing_denominator_moves_the_certificate_to_the_next_draw():
    seed = 2026
    draws = random.Random(seed)
    first = draws.randint(-_FAST_PATH_RANGE, _FAST_PATH_RANGE)
    second = draws.randint(-_FAST_PATH_RANGE, _FAST_PATH_RANGE)
    f = field_over_q("t1")
    t1 = f.gen("t1")
    flag = line_flag(f, (f.one(), f.one() / (t1 - first)))
    result = trdeg(flag, seed=seed)
    assert result.value == 1
    assert result.certificate["point"] == (Fraction(second),)


@pytest.mark.parametrize("shape", [(6, 3, 2), (4, 2, 3), (5, 2, 4), (6, 3, 3)])
def test_seeded_trdeg_of_a_generic_flag_within_budget(shape):
    # the seeded route evaluates the Jacobian instead of building it; when
    # it built the symbolic Jacobian first, the first two took about 5.5 s
    # and 24 s (2 cores, Python 3.11.7).  With the chart and the flag
    # checks as rational-function eliminations, the last two ran for more
    # than 60 s, inside poly_gcd.  With the fraction-free elimination the
    # four take about 0.07 s, 0.03 s, 0.06 s and 0.9 s
    d, s, k = shape
    rng = random.Random(1)
    f = FunctionField(QQ, tuple(f"t{i + 1}" for i in range(k)))

    def form():
        total = f.coerce(rng.randint(-3, 3))
        for g in f.gens():
            total = total + rng.choice((-3, -2, -1, 1, 2, 3)) * g
        return total

    flag = FlagPoint(f, d, ((1, tuple(tuple(form() for _ in range(d)) for _ in range(s))),))
    start = time.monotonic()
    result = trdeg(flag, seed=3)
    elapsed = time.monotonic() - start
    assert result.value == k
    assert result.certificate["evaluated_rank"] == k
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_trdeg_counts_independent_parameters():
    f = field_over_q("t1", "t2", "t3")
    t1, t2, t3 = f.gens()
    full = line_flag(f, (f.one(), t1, t2, t3))
    assert trdeg(full).value == 3
    collapsed = line_flag(f, (f.one(), t1, t1 + 1, t1 * t1))
    assert trdeg(collapsed).value == 1
    mixed = line_flag(f, (f.one(), t1, t2, t1 * t2))
    assert trdeg(mixed).value == 2


def test_trdeg_is_zero_without_parameters():
    qi = gaussian_field()
    f = FunctionField(qi, ())
    flag = line_flag(f, (f.one(), f.coerce(qi.gen())))
    result = trdeg(flag)
    assert result.value == 0
    assert result.certificate is None
    assert result.params == ()


def test_trdeg_ignores_algebraic_constants():
    # the Gaussian unit is transcendence-free; only t1 counts
    qi = gaussian_field()
    f = FunctionField(qi, ("t1",))
    t1 = f.gen("t1")
    flag = line_flag(f, (f.one(), f.coerce(qi.gen()) * t1))
    assert trdeg(flag).value == 1


def test_trdeg_invariances():
    rng = random.Random(99)
    for _ in range(8):
        flag = random_poly_flag(rng)
        base = trdeg(flag).value
        f = flag.field
        k = len(f.names)
        # parameter permutation: rebuild entries with renamed generators
        names = list(f.names)
        rng.shuffle(names)
        perm = FunctionField(QQ, tuple(names))
        # permuting names relabels the Jacobian columns only
        relabeled = FlagPoint(
            perm,
            flag.ambient_dim,
            steps=tuple(
                (p, tuple(tuple(_rename(x, perm) for x in v) for v in vectors))
                for p, vectors in flag.steps
            ),
        )
        assert trdeg(relabeled).value == base
        # mixing step vectors by a unimodular move keeps the span
        p0, vectors = flag.steps[0]
        if len(vectors) >= 2:
            mixed_vectors = list(vectors)
            mixed_vectors[0] = tuple(
                a + b for a, b in zip(mixed_vectors[0], mixed_vectors[1])
            )
            mixed = FlagPoint(f, flag.ambient_dim, steps=((p0, tuple(mixed_vectors)),))
            assert trdeg(mixed).value == base


def _rename(entry, target_field):
    """Carry a RatFunc into a field with the same names in another order."""
    from hodgescreen.polys import Poly
    from hodgescreen.ratfunc import RatFunc

    def move(poly):
        where = [target_field.ring.names.index(n) for n in poly.ring.names]
        terms = {}
        for exp, c in poly.terms.items():
            new_exp = [0] * len(exp)
            for j, e in enumerate(exp):
                new_exp[where[j]] = e
            terms[tuple(new_exp)] = c
        return Poly(target_field.ring, terms)

    return RatFunc(target_field, move(entry.num), move(entry.den))


def test_trdeg_bounded_by_parameter_count_and_chart_length():
    rng = random.Random(4242)
    for _ in range(10):
        flag = random_poly_flag(rng)
        result = trdeg(flag)
        assert 0 <= result.value <= len(flag.field.names)
        assert result.value <= max(1, len(result.chart_coordinates))


def test_seeded_fast_path_records_a_certificate():
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()
    flag = line_flag(f, (f.one(), t1, t2, t1 * t2))
    result = trdeg(flag, seed=7)
    assert result.value == 2
    assert result.certificate is not None
    assert result.certificate["seed"] == 7
    assert result.certificate["evaluated_rank"] == 2
    assert len(result.certificate["point"]) == 2
    again = trdeg(flag, seed=7)
    assert again.certificate == result.certificate


def test_fast_path_failure_falls_back_to_symbolic_rank():
    # rank drops at every evaluation point of d/dt of t^2/2 ... impossible;
    # instead check a rank-deficient Jacobian where evaluation equals truth
    f = field_over_q("t1", "t2")
    t1, _t2 = f.gens()
    flag = line_flag(f, (f.one(), t1, t1 * t1, t1 + 3))
    result = trdeg(flag, seed=11)
    assert result.value == 1
    assert result.certificate is not None
    assert result.certificate["evaluated_rank"] == 1


@pytest.mark.parametrize("cross", [False, True])
def test_a_zero_jacobian_at_the_seeded_point_drops_the_certificate(monkeypatch, cross):
    # the seeded route draws (a, b) first, where every partial of the
    # chart vanishes, so the evaluated rank 0 falls short of the symbolic
    # rank 2 and no certificate is kept.  With the cross term (t1-a)(t2-b)
    # the rank over Q(t) subtracts rows, so it sums rational functions.
    draws = random.Random(5)
    a = draws.randint(-_FAST_PATH_RANGE, _FAST_PATH_RANGE)
    b = draws.randint(-_FAST_PATH_RANGE, _FAST_PATH_RANGE)
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()
    entries = [f.one(), (t1 - a) ** 2, (t2 - b) ** 2]
    if cross:
        entries.append((t1 - a) * (t2 - b))
    flag = line_flag(f, entries)
    sums = []
    add = RatFunc.__add__

    def counting(x, y):
        sums.append(1)
        return add(x, y)

    monkeypatch.setattr(RatFunc, "__add__", counting)
    result = trdeg(flag, seed=5)
    assert result.value == 2
    assert result.certificate is None
    assert sums or not cross


# pseudo-remainders in the Q(t) rank below: 1,545 when a sum reduced
# the whole cross-multiplied fraction by one gcd, 891 with Henrici's sum
PSEUDO_REMAINDERS = 891


def test_the_symbolic_rank_of_a_generic_flag_stays_within_its_pseudo_remainder_count(monkeypatch):
    rng = random.Random(1)
    f = field_over_q("t1", "t2", "t3", "t4")

    def form():
        total = f.coerce(rng.randint(-3, 3))
        for g in f.gens():
            total = total + rng.choice((-3, -2, -1, 1, 2, 3)) * g
        return total

    flag = FlagPoint(f, 6, ((1, (tuple(form() for _ in range(6)),)),))
    jacobian = jacobian_matrix(normalize_chart(flag), f)
    calls = []
    pseudo_rem = polys.pseudo_rem

    def counting(*args):
        calls.append(1)
        return pseudo_rem(*args)

    monkeypatch.setattr(polys, "pseudo_rem", counting)
    assert rank(jacobian) == 4
    assert 0 < len(calls) <= PSEUDO_REMAINDERS


def test_vanishing_denominators_are_reported():
    f = field_over_q("t1")
    t1 = f.gen("t1")
    entry = f.one() / (t1 * t1 - 4)
    flag = line_flag(f, (f.one(), entry))
    result = trdeg(flag, seed=3)  # generic draws dodge t1 = +-2
    assert result.value == 1
    with pytest.raises(DenominatorVanishes):
        entry.eval([Fraction(2)])


def test_jacobian_matrix_shape():
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()
    jac = jacobian_matrix([t1 * t2, t1 + t2], f)
    assert jac.nrows == 2 and jac.ncols == 2
    assert jac.rows[0][0] == t2 and jac.rows[0][1] == t1
    empty = jacobian_matrix([], f)
    assert empty.nrows == 0 and empty.ncols == 2


def test_symbolic_trdeg_of_a_generic_flag_within_budget():
    # (d, s, k) = (3, 2, 2) with dense affine-linear entries: the gcds in
    # the symbolic rank blow up unless every PRS remainder is rescaled
    rng = random.Random(1)
    f = field_over_q("t1", "t2")
    t1, t2 = f.gens()

    def form():
        return (f.coerce(rng.randint(-3, 3)) + rng.choice((-3, -2, -1, 1, 2, 3)) * t1
                + rng.choice((-3, -2, -1, 1, 2, 3)) * t2)

    vectors = tuple(tuple(form() for _ in range(3)) for _ in range(2))
    flag = FlagPoint(f, 3, steps=((1, vectors),))
    start = time.monotonic()
    assert trdeg(flag).value == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"


def test_trdeg_matches_elimination_oracle():
    rng = random.Random(60601)
    for _ in range(12):
        flag = random_poly_flag(rng)
        assert trdeg(flag).value == oracle_trdeg(flag)


_CHART_TERMS = """
import random
from fractions import Fraction
from hodgescreen import FlagPoint, FunctionField, QQ, trdeg

rng = random.Random(2001)
field = FunctionField(QQ, ("t1", "t2"))
t1, t2 = field.gens()

def form():
    return (field.coerce(Fraction(rng.randint(-3, 3)))
            + rng.choice((-3, -2, -1, 1, 2, 3)) * t1 + rng.choice((-3, -2, -1, 1, 2, 3)) * t2)

flag = FlagPoint(field, 4, ((1, tuple(tuple(form() for _ in range(4)) for _ in range(2))),))
result = trdeg(flag, seed=7)
print(result.value, result.certificate)
for c in result.chart_coordinates:
    print(list(c.num.terms.items()), list(c.den.terms.items()))
"""


def test_chart_term_order_does_not_depend_on_the_hash_seed():
    """A seeded trdeg of a generic (d, s, k) = (4, 2, 2) flag lists the
    terms of every chart numerator and denominator in the same order in
    fresh interpreters with different string hash seeds."""
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-c", _CHART_TERMS], capture_output=True,
                              text=True, timeout=120, cwd=ROOT,
                              env={**ENV, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert lines[0].startswith("2 {'seed': 7")
    assert len(lines) == 1 + 4
