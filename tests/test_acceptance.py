"""The acceptance gate.

One test per criterion; each raises on the first discrepancy so the
per-criterion summary lines printed by conftest.py tell the whole story.
Derived expectations are re-checked against the independent oracles in
support.py rather than against numbers this package produced.
"""

import itertools
import random
import time
from fractions import Fraction

from hodgescreen import (
    ConjectureSet,
    FlagPoint,
    FunctionField,
    HodgeCocharacter,
    InvariantReport,
    PolarizationForm,
    QQ,
    RealizedHodgeStructure,
    chain_identity,
    dual,
    evaluate,
    exit_code_for,
    gaussian_field,
    grade,
    make_classical,
    polarization_check,
    report,
    sym,
    tensor,
    trdeg,
    wedge,
)

import pytest

from support import (
    oracle_levels,
    oracle_trdeg,
    random_classical_instance,
    random_hodge_table,
    random_poly_flag,
)
from math import comb


def test_criterion_01_calabi_yau_threefold_invariants():
    start = time.monotonic()
    rep = report(make_classical("gsp", 4), HodgeCocharacter((3, 2, 1, 0)))
    elapsed = time.monotonic() - start
    assert rep.flag_dim == 4
    assert rep.hcodim == 2
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_02_weight_one_family_breaks_no_horizontality():
    start = time.monotonic()
    for g in (1, 2, 3):
        alg = make_classical("gsp", 2 * g)
        lam = (1,) * g + (0,) * g
        rep = report(alg, HodgeCocharacter(lam))
        assert rep.hcodim == 0
        assert rep.shimura_type
        assert rep.flag_dim == g * (g + 1) // 2
        oracle = oracle_levels(alg, lam)
        assert grade(alg, HodgeCocharacter(lam)) == oracle
        assert sum(d for k, d in oracle.items() if k < 0) == g * (g + 1) // 2
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.3f}s, budget 2s"


def test_criterion_03_cm_torus_is_rigid():
    for n, lam in ((1, (5,)), (2, (1, 0)), (3, (4, 1, 0)), (4, (2, 2, 1, 1))):
        alg = make_classical("diag_torus", n)
        rep = report(alg, HodgeCocharacter(lam))
        assert rep.flag_dim == 0
        assert rep.hcodim == 0
    constant = FunctionField(QQ, ())
    flag = FlagPoint(
        constant, 2, ((1, ((constant.one(), constant.coerce(Fraction(2))),)),)
    )
    assert trdeg(flag).value == 0


def test_criterion_04_extreme_orthogonal_types_saturate_hcodim():
    for n, lam in ((4, (2, 2, 0, 0)), (6, (2, 2, 2, 0, 0, 0))):
        alg = make_classical("go", n)
        assert grade(alg, HodgeCocharacter(lam)) == oracle_levels(alg, lam)
        rep = report(alg, HodgeCocharacter(lam))
        assert rep.hcodim == rep.flag_dim
        assert rep.hcodim > 0


def test_criterion_05_chain_identity_on_random_instances():
    start = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(200):
        alg, lam = random_classical_instance(rng, max_ambient=8)
        rep = report(alg, HodgeCocharacter(lam))
        chain_identity(rep)  # raises IdentityViolation unless it holds
        assert rep.flag_dim - rep.g_minus_one_dim == rep.hcodim
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s, budget 30s"


def test_criterion_06_grading_completeness_and_central_shifts():
    rng = random.Random(20260819)
    for _ in range(200):
        alg, lam = random_classical_instance(rng, max_ambient=8)
        levels = grade(alg, HodgeCocharacter(lam))
        assert sum(levels.values()) == alg.dim
        for c in (-2, 1, 5):
            assert grade(alg, HodgeCocharacter(lam).shifted(c)) == levels


def test_criterion_07_jacobian_trdeg_equals_elimination_oracle():
    start = time.monotonic()
    rng = random.Random(1618)
    for _ in range(50):
        flag = random_poly_flag(rng, max_params=3, max_degree=3)
        jacobian = trdeg(flag).value
        eliminated = oracle_trdeg(flag)
        assert jacobian == eliminated, (flag.steps, jacobian, eliminated)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s, budget 60s"


def test_criterion_08_hodge_number_algebra_on_random_tables():
    rng = random.Random(271828)
    for _ in range(100):
        a = random_hodge_table(rng)
        b = random_hodge_table(rng)
        d = a.total_dim()
        assert dual(dual(a)) == a
        assert tensor(a, b).total_dim() == d * b.total_dim()
        k = rng.randrange(1, min(d, 3) + 1)
        assert wedge(a, k).total_dim() == comb(d, k)
        assert sym(a, k).total_dim() == comb(d + k - 1, k)
        for result in (dual(a), tensor(a, b), wedge(a, k), sym(a, k)):
            for (p, q), h in result.dims.items():
                assert result.dims[(q, p)] == h
                assert p + q == result.weight


def _synthetic_report(flag_dim, hcod, shimura):
    g1 = flag_dim - hcod
    negative = ([(-2, hcod)] if hcod else []) + ([(-1, g1)] if g1 else [])
    mirrored = [(-k, d) for k, d in reversed(negative)]
    levels = tuple(negative + [(0, 1)] + mirrored)
    return InvariantReport(
        dim_g=sum(d for _k, d in levels),
        flag_dim=flag_dim,
        hcodim=hcod,
        g_minus_one_dim=g1,
        shimura_type=shimura,
        symmetric_grading=True,
        levels=levels,
    )


def test_criterion_09_screening_truth_table():
    for hcod, trdeg_value, motivated, gpc, ggpc in itertools.product(
        (0, 2), (0, 1, 2, 4), (False, True), (False, True), (False, True)
    ):
        rep = _synthetic_report(4, hcod, shimura=(hcod == 0))
        conjectures = ConjectureSet(motivated=motivated, gpc=gpc, ggpc=ggpc)
        verdicts, chains = evaluate(trdeg_value, rep, conjectures)
        kinds = [v.kind for v in verdicts]
        armed = motivated and ggpc
        rejected = trdeg_value < hcod and armed
        assert ("not_from_geometry" in kinds) == rejected
        assert exit_code_for(verdicts) == (10 if rejected else 0)
        assert ("shimura_violation" in kinds) == (
            trdeg_value == 0 and hcod > 0 and armed
        )
        if trdeg_value < hcod and not armed:
            assert "bound" in kinds
        if trdeg_value >= hcod:
            assert "consistent" in kinds
        assert ("maximal_transcendence" in kinds) == (trdeg_value == 4)
        for v in verdicts:
            if "not from geometry" in v.narrative:
                assert v.conditional_on
                assert "conditional on" in v.narrative
        assert all(c.flag_dim - c.g_minus_one_dim == c.hcodim for c in chains)


def test_criterion_10_polarization_triple():
    qi = gaussian_field()
    i = qi.gen()
    from hodgescreen import HodgeNumbers

    elliptic = RealizedHodgeStructure(
        FlagPoint(FunctionField(qi, ()), 2, ((1, ((qi.one(), i),)),)),
        HodgeNumbers(1, {(1, 0): 1, (0, 1): 1}),
    )
    standard = PolarizationForm(1, ((0, 1), (-1, 0)))
    assert polarization_check(elliptic, standard).status == "valid"
    flipped = polarization_check(elliptic, PolarizationForm(1, ((0, -1), (1, 0))))
    assert flipped.status == "positivity_fails"
    with pytest.raises(ValueError):
        PolarizationForm(1, ((1, 0), (0, 1)))
