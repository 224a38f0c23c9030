"""Hodge number tables, realized filtrations, polarization decisions."""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from hodgescreen import (
    ExactMatrix,
    FlagPoint,
    FunctionField,
    HodgeNumbers,
    NotAHodgeFiltration,
    NumberField,
    PolarizationForm,
    QQ,
    RealizedHodgeStructure,
    dual,
    filtration_dims,
    gaussian_field,
    polarization_check,
    rank,
    sym,
    tate_twist,
    tensor,
    wedge,
)
from hodgescreen.hodge import SYM_WORK_BOUND
from hodgescreen.intervals import Interval, Rectangle

from support import random_hodge_table as random_table

ELLIPTIC = HodgeNumbers(1, {(1, 0): 1, (0, 1): 1})
K3 = HodgeNumbers(2, {(2, 0): 1, (1, 1): 20, (0, 2): 1})


def test_table_validation():
    with pytest.raises(ValueError):
        HodgeNumbers(1, {(1, 0): -1, (0, 1): -1})
    with pytest.raises(ValueError):
        HodgeNumbers(2, {(1, 0): 1, (0, 1): 1})  # p + q != weight
    with pytest.raises(ValueError):
        HodgeNumbers(0, {(0, 0): 0})  # nothing left
    with pytest.raises(ValueError):
        HodgeNumbers(1, {(1, 0): 2, (0, 1): 1})  # h(p,q) != h(q,p)
    assert HodgeNumbers(1, {(1, 0): 1, (0, 1): 1, (2, -1): 0}).total_dim() == 2


def test_table_entries_are_read_as_integers_not_truncated():
    assert HodgeNumbers("1", {(1, 0): "2/2", (0, 1): 1}) == ELLIPTIC
    with pytest.raises(ValueError, match="is not an integer"):
        HodgeNumbers(1, {(Fraction(3, 2), Fraction(-1, 2)): 1,
                         (Fraction(-1, 2), Fraction(3, 2)): 1})
    with pytest.raises(TypeError):
        HodgeNumbers(1, {(1.5, -0.5): 1, (-0.5, 1.5): 1})
    with pytest.raises(TypeError):
        HodgeNumbers(1, {(1, 0): True, (0, 1): True})


def test_elliptic_curve_operations():
    assert wedge(ELLIPTIC, 2) == HodgeNumbers(2, {(1, 1): 1})
    assert sym(ELLIPTIC, 2) == HodgeNumbers(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert tensor(ELLIPTIC, ELLIPTIC) == HodgeNumbers(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    # H_1 = H^1(1) for a curve
    assert tate_twist(ELLIPTIC, 1) == dual(ELLIPTIC)


def test_operation_laws_on_random_tables():
    rng = random.Random(2024)
    for _ in range(30):
        a = random_table(rng)
        b = random_table(rng)
        d = a.total_dim()
        assert dual(dual(a)) == a
        assert dual(a).weight == -a.weight
        ab = tensor(a, b)
        assert ab.weight == a.weight + b.weight
        assert ab.total_dim() == d * b.total_dim()
        assert ab == tensor(b, a)
        k = rng.randrange(0, min(d, 3) + 1)
        if k >= 1:
            assert wedge(a, k).total_dim() == comb(d, k)
            assert sym(a, k).total_dim() == comb(d + k - 1, k)
            assert wedge(a, k).weight == sym(a, k).weight == k * a.weight
        m = rng.randrange(-2, 3)
        tw = tate_twist(a, m)
        assert tw.weight == a.weight - 2 * m
        assert tate_twist(tw, -m) == a
        assert tate_twist(a, 0) == a


def _enumerated_power(numbers, k, choose):
    """Reference wedge/sym: count the types of every k-subset or k-multiset
    of a basis listing each type h times."""
    basis = [pq for pq, h in sorted(numbers.dims.items()) for _ in range(h)]
    out = {}
    for combo in choose(range(len(basis)), k):
        key = (sum(basis[i][0] for i in combo), sum(basis[i][1] for i in combo))
        out[key] = out.get(key, 0) + 1
    return HodgeNumbers(numbers.weight * k, out)


def test_wedge_and_sym_match_the_enumeration():
    rng = random.Random(4242)
    for _ in range(40):
        a = random_table(rng)
        for k in range(1, 5):
            assert sym(a, k) == _enumerated_power(a, k, combinations_with_replacement)
            if k <= a.total_dim():
                assert wedge(a, k) == _enumerated_power(a, k, combinations)


def test_wedge_and_sym_are_polynomial_in_k():
    cubic = HodgeNumbers(3, {(3, 0): 4, (2, 1): 6, (1, 2): 6, (0, 3): 4})
    start = time.monotonic()
    big = sym(cubic, 60)
    assert big.total_dim() == comb(20 + 60 - 1, 60)
    assert sym(cubic, 8).total_dim() == comb(27, 8)
    assert wedge(cubic, 10).total_dim() == comb(20, 10)
    assert sym(HodgeNumbers(2, {(2, 0): 3, (0, 2): 3}), 60).total_dim() == comb(65, 60)
    assert sym(cubic, 200).total_dim() == comb(20 + 200 - 1, 200)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_sym_over_the_work_bound_is_refused_before_any_work():
    # 16 one-dimensional types whose p-sums of up to 9 choices rarely
    # collide: the bound charges row n with C(n + 15, 15) p-sums, and
    # 16 * sum_{n<10} C(n + 15, 15) = 16 * C(25, 9) is over it,
    # 16 * C(24, 8) is not.
    spread = (0, 1, 7, 50, 300, 2000, 13000, 90000)
    weight = 10**6
    table = HodgeNumbers(weight, {pq: 1 for p in spread
                                  for pq in ((p, weight - p), (weight - p, p))})
    assert 16 * comb(24, 8) <= SYM_WORK_BOUND < 16 * comb(25, 9)
    start = time.monotonic()
    for k in (10, 10**9):
        with pytest.raises(ValueError, match=rf"^sym\^{k} of a 16-dimensional structure is over "
                                             rf"the work bound: dimension \* p-sums over the k "
                                             rf"rows > {SYM_WORK_BOUND}$"):
            sym(table, k)
    elapsed = time.monotonic() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s to refuse"
    assert sym(table, 7).total_dim() == comb(22, 7)


def test_top_wedge_is_the_determinant_line():
    top = wedge(K3, 22)
    assert top.total_dim() == 1
    ((p, q, h),) = top.types_sorted()
    assert (p, q, h) == (22, 22, 1)


def test_filtration_dims_accumulate():
    assert filtration_dims(K3) == [(2, 1), (1, 21), (0, 22)]
    assert filtration_dims(ELLIPTIC) == [(1, 1), (0, 2)]


def constant_flag(field, d, steps):
    """The parameter-free FlagPoint over field with these steps."""
    return FlagPoint(FunctionField(field, ()), d, steps)


def realize(field, numbers, steps):
    return RealizedHodgeStructure(constant_flag(field, numbers.total_dim(), steps), numbers)


def elliptic_structure(field, vector):
    return realize(field, ELLIPTIC, ((1, (vector,)),))


def test_realize_the_square_lattice():
    qi = gaussian_field()
    i = qi.gen()
    structure = elliptic_structure(qi, (qi.one(), i))
    assert set(structure.decomposition) == {(1, 0), (0, 1)}
    ((v,),) = (structure.decomposition[(0, 1)],)
    assert v[1] == qi.conj(i)


def test_rational_line_is_not_a_hodge_filtration():
    qi = gaussian_field()
    with pytest.raises(NotAHodgeFiltration, match="do not span"):
        elliptic_structure(qi, (qi.one(), qi.zero()))


def test_realization_requires_a_conjugation():
    cbrt2 = NumberField(
        (-2, 0, 0, 1),
        Rectangle(Interval(Fraction(1), Fraction(3, 2)), Interval(Fraction(-1, 4), Fraction(1, 4))),
        name="c",
    )
    with pytest.raises(NotAHodgeFiltration, match="conjugation"):
        elliptic_structure(cbrt2, (cbrt2.one(), cbrt2.gen()))


def test_realization_needs_a_constant_flag_of_the_total_dimension():
    qi = gaussian_field()
    i = qi.gen()
    moving = FlagPoint(FunctionField(qi, ("t",)), 2, ((1, ((qi.one(), i),)),))
    with pytest.raises(NotAHodgeFiltration, match="free parameters t"):
        RealizedHodgeStructure(moving, ELLIPTIC)
    wide = constant_flag(qi, 3, ((1, ((qi.one(), i, qi.zero()),)),))
    with pytest.raises(NotAHodgeFiltration, match="dimension 3, the Hodge numbers total 2"):
        RealizedHodgeStructure(wide, ELLIPTIC)


def test_a_rational_structure_has_only_types_p_equals_q():
    """Over Q conjugation is the identity, so H^{1,0} = F^1 = H^{0,1} and
    the two pieces cannot span: every weight-one flag over Q is refused,
    which is what lets polarization over Q assume parity 0."""
    rng = random.Random(20261020)
    refused = 0
    for _ in range(30):
        g = rng.randint(1, 2)
        numbers = HodgeNumbers(1, {(1, 0): g, (0, 1): g})
        top = tuple(tuple(rng.randint(-3, 3) for _ in range(2 * g)) for _ in range(g))
        try:
            flag = constant_flag(QQ, 2 * g, ((1, top),))
        except ValueError:  # a dependent draw
            continue
        with pytest.raises(NotAHodgeFiltration, match="do not span"):
            RealizedHodgeStructure(flag, numbers)
        refused += 1
    assert refused >= 20


def test_a_piece_of_the_wrong_dimension_is_refused():
    """Over Q with F^2 = <e1> and F^1 = <e1, e2>, H^1,1 = F^1 cap conj F^1
    is all of F^1, two dimensions where one is declared."""
    numbers = HodgeNumbers(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    steps = ((2, ((1, 0, 0),)), (1, ((1, 0, 0), (0, 1, 0))))
    with pytest.raises(NotAHodgeFiltration,
                       match=r"^piece H\^1,1 has dimension 2, declared 1$"):
        realize(QQ, numbers, steps)


def test_a_degenerate_form_fails_positivity_with_witness_zero():
    """S = [[0, 1], [1, 0]] on H = H^0,0 of dimension 2 is isotropic on e1,
    so the hermitian form is degenerate there."""
    structure = realize(QQ, HodgeNumbers(0, {(0, 0): 2}), ())
    result = polarization_check(structure, PolarizationForm(0, ((0, 1), (1, 0))))
    assert result == ("positivity_fails", "the hermitian form is degenerate on H^0,0", 0)

def test_realization_step_bookkeeping():
    qi = gaussian_field()
    i = qi.gen()
    with pytest.raises(NotAHodgeFiltration, match="filtration profile"):
        realize(qi, ELLIPTIC, ((2, ((qi.one(), i),)),))
    with pytest.raises(NotAHodgeFiltration, match="filtration profile"):
        realize(qi, ELLIPTIC, ((1, ((qi.one(), i), (i, qi.one()))),))
    # the FlagPoint that a structure is realized on refuses a short vector
    with pytest.raises(ValueError, match="length"):
        realize(qi, ELLIPTIC, ((1, ((qi.one(),),)),))


def test_nesting_is_enforced():
    qi = gaussian_field()
    i = qi.gen()
    numbers = HodgeNumbers(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # the FlagPoint that a structure is realized on refuses the chain
    with pytest.raises(ValueError, match="not contained"):
        realize(
            qi,
            numbers,
            (
                (2, ((qi.one(), i, qi.zero(), qi.zero()),)),
                (1, (
                    (qi.zero(), qi.one(), qi.zero(), qi.zero()),
                    (qi.zero(), qi.zero(), qi.one(), qi.zero()),
                    (qi.zero(), qi.zero(), qi.zero(), qi.one()),
                )),
            ),
        )


def test_random_weight_two_pieces_are_conj_symmetric_and_span():
    """F^2 spanned by small Gaussian-integer vectors, F^1 = F^2 plus
    rational vectors: every structure that constructs has pieces of the
    declared dimensions, conj(H^{p,q}) spanning H^{q,p}, and pieces that
    span Q(i)^d.  A non-generic draw may only be refused."""
    qi = gaussian_field()
    i = qi.gen()
    rng = random.Random(20261019)
    built = 0
    for _ in range(20):
        a, b = rng.randint(1, 2), rng.randint(0, 2)
        d = 2 * a + b
        top = tuple(tuple(qi.coerce(rng.randint(-2, 2)) + rng.randint(-2, 2) * i
                          for _ in range(d)) for _ in range(a))
        steps = [(2, top)]
        if b:
            steps.append((1, top + tuple(tuple(qi.coerce(rng.randint(-3, 3)) for _ in range(d))
                                         for _ in range(b))))
        numbers = HodgeNumbers(2, {(2, 0): a, (1, 1): b, (0, 2): a})
        try:
            structure = realize(qi, numbers, tuple(steps))
        except NotAHodgeFiltration:
            continue
        built += 1
        pieces = structure.decomposition
        assert {key: len(basis) for key, basis in pieces.items()} == numbers.dims
        for (p, q), basis in pieces.items():
            conj_basis = [tuple(qi.conj(x) for x in v) for v in basis]
            assert rank(ExactMatrix(qi, conj_basis + list(pieces[(q, p)]))) == len(basis)
        assert rank(ExactMatrix(qi, [v for basis in pieces.values() for v in basis])) == d
    assert built >= 16


def weight_two_structure():
    """h(2,0) = h(1,1) = h(0,2) = 1 over Q(i): F^2 = <(1, i, 0)> and
    F^1 = F^2 + <(0, 0, 1)>, so H^{1,1} = F^1 intersect conj(F^1) is a
    proper intersection."""
    qi = gaussian_field()
    one, zero, i = qi.one(), qi.zero(), qi.gen()
    numbers = HodgeNumbers(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    top = (one, i, zero)
    return qi, realize(qi, numbers, ((2, (top,)), (1, (top, (zero, zero, one)))))


def test_weight_two_pieces_come_from_the_intersection():
    qi, structure = weight_two_structure()
    one, zero, i = qi.one(), qi.zero(), qi.gen()
    pieces = structure.decomposition
    assert pieces == {
        (2, 0): ((one, i, zero),),
        (1, 1): ((zero, zero, one),),
        (0, 2): ((one, -i, zero),),
    }


def test_weight_two_polarization_over_the_gaussian_field():
    _qi, structure = weight_two_structure()
    valid = polarization_check(structure, PolarizationForm(2, ((-1, 0, 0), (0, -1, 0), (0, 0, 1))))
    assert valid.status == "valid"
    negative = polarization_check(structure, PolarizationForm(2, ((-1, 0, 0), (0, -1, 0), (0, 0, -1))))
    assert negative.status == "positivity_fails"
    assert negative.detail == "i^(1-1) S(w, conj w) is not positive on H^1,1 (value -1)"
    assert negative.witness == Fraction(-1)
    mixed = polarization_check(structure, PolarizationForm(2, ((-1, 0, 1), (0, -1, 0), (1, 0, 1))))
    assert mixed.status == "morphism_fails"
    assert mixed.detail == "S does not vanish on H^2,0 x H^1,1 (value 1)"


def test_gram_schmidt_over_a_two_dimensional_piece():
    """F^1 = <(1, i, 0, 0), (1, i, 1, i)>: the second vector has a nonzero
    component along the first, so Gram-Schmidt subtracts it.  With the
    second symplectic block negated, the projected vector (0, 0, 1, i)
    carries the negative value; unprojected, the form would vanish on it."""
    qi = gaussian_field()
    one, zero, i = qi.one(), qi.zero(), qi.gen()
    numbers = HodgeNumbers(1, {(1, 0): 2, (0, 1): 2})
    structure = realize(qi, numbers, ((1, ((one, i, zero, zero), (one, i, one, i))),))
    pairing = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    assert polarization_check(structure, PolarizationForm(1, pairing)).status == "valid"
    mixed = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    result = polarization_check(structure, PolarizationForm(1, mixed))
    assert result.status == "positivity_fails"
    assert result.detail == "i^(1-0) S(w, conj w) is not positive on H^1,0 (value -2)"
    assert result.witness == Fraction(-2)


def test_rational_polarization_of_a_single_type():
    """Over Q with one type (0, 0) every piece is the whole space and the
    hermitian form is S itself."""
    structure = realize(QQ, HodgeNumbers(0, {(0, 0): 2}), ())
    assert structure.decomposition == {
        (0, 0): ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))}
    assert polarization_check(structure, PolarizationForm(0, ((2, 1), (1, 1)))).status == "valid"
    indefinite = polarization_check(structure, PolarizationForm(0, ((1, 0), (0, -1))))
    assert indefinite.status == "positivity_fails"
    assert indefinite.detail == "i^(0-0) S(w, conj w) is not positive on H^0,0 (value -1)"
    assert indefinite.witness == Fraction(-1)


SQUARE_LATTICE_PAIRING = PolarizationForm(1, ((0, 1), (-1, 0)))


def test_polarization_form_parity_contract():
    with pytest.raises(ValueError, match="antisymmetric"):
        PolarizationForm(1, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="symmetric"):
        PolarizationForm(2, ((0, 1), (-1, 0)))
    with pytest.raises(ValueError, match="square"):
        PolarizationForm(1, ((0, 1, 0), (-1, 0, 0)))


def test_square_lattice_polarization_triple():
    qi = gaussian_field()
    i = qi.gen()
    structure = elliptic_structure(qi, (qi.one(), i))
    good = polarization_check(structure, SQUARE_LATTICE_PAIRING)
    assert good.status == "valid"
    flipped = polarization_check(structure, PolarizationForm(1, ((0, -1), (1, 0))))
    assert flipped.status == "positivity_fails"
    assert flipped.witness == Fraction(-2)


def test_weight_two_positivity_convention():
    qi = gaussian_field()
    i = qi.gen()
    numbers = HodgeNumbers(2, {(2, 0): 1, (0, 2): 1})
    structure = realize(qi, numbers, ((2, ((qi.one(), i),)),))
    # i^(2-0) = -1 flips the sign requirement on H^{2,0}
    assert polarization_check(structure, PolarizationForm(2, ((-1, 0), (0, -1)))).status == "valid"
    plus = polarization_check(structure, PolarizationForm(2, ((1, 0), (0, 1))))
    assert plus.status == "positivity_fails"
    assert plus.witness == Fraction(-2)


def test_morphism_condition_checked_before_positivity():
    qi = gaussian_field()
    i = qi.gen()
    one, zero = qi.one(), qi.zero()
    numbers = HodgeNumbers(1, {(1, 0): 2, (0, 1): 2})
    structure = realize(qi, numbers, ((1, ((one, i, zero, zero), (zero, zero, one, i))),))
    pairs_inside_f1 = PolarizationForm(
        1,
        ((0, 0, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)),
    )
    result = polarization_check(structure, pairs_inside_f1)
    assert result.status == "morphism_fails"
    assert "H^1,0" in result.detail


def test_polarization_shape_mismatches():
    qi = gaussian_field()
    structure = elliptic_structure(qi, (qi.one(), qi.gen()))
    with pytest.raises(ValueError, match="size"):
        polarization_check(
            structure,
            PolarizationForm(1, ((0, 1, 0), (-1, 0, 0), (0, 0, 0))),
        )
    with pytest.raises(ValueError, match="weight"):
        polarization_check(structure, PolarizationForm(3, ((0, 1), (-1, 0))))
