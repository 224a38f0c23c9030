"""Adjoint gradings by a cocharacter and the derived invariants.

Frozen values below were computed by the eigenvalue-multiplicity oracle
in support.py before the implementation existed; the random suites
re-derive them on every run.
"""

import random
import time
from fractions import Fraction

import pytest

from hodgescreen import (
    QQ,
    HodgeCocharacter,
    HodgeNumbers,
    MatLieAlgebra,
    NormalizationError,
    adjoint_of_diagonal,
    grade,
    make_classical,
    report,
)
from hodgescreen import linalg

from support import oracle_levels, random_classical_instance


def test_symplectic_similitude_weight_three_grading():
    alg = make_classical("gsp", 4)
    mu = HodgeCocharacter((3, 2, 1, 0))
    assert grade(alg, mu) == {
        -3: 1, -2: 1, -1: 2, 0: 3, 1: 2, 2: 1, 3: 1,
    }
    rep = report(alg, mu)
    assert rep.flag_dim == 4
    assert rep.hcodim == 2
    assert not rep.shimura_type


def test_weight_one_family_is_horizontal():
    for g in (1, 2, 3):
        alg = make_classical("gsp", 2 * g)
        lam = (1,) * g + (0,) * g
        rep = report(alg, HodgeCocharacter(lam))
        assert rep.flag_dim == g * (g + 1) // 2
        assert rep.hcodim == 0
        assert rep.shimura_type


def test_torus_grading_is_concentrated_at_zero():
    alg = make_classical("diag_torus", 3)
    mu = HodgeCocharacter((4, 1, 0))
    assert list(grade(alg, mu).items()) == [(0, 3)]
    rep = report(alg, mu)
    assert rep.flag_dim == rep.hcodim == 0
    assert rep.shimura_type


def test_orthogonal_extreme_types_have_no_middle_levels():
    for n, lam, middle in ((4, (2, 2, 0, 0), 5), (6, (2, 2, 2, 0, 0, 0), 10)):
        alg = make_classical("go", n)
        levels = grade(alg, HodgeCocharacter(lam))
        assert levels[0] == middle
        assert levels[-2] == levels[2]
        assert -1 not in levels and 1 not in levels
        rep = report(alg, HodgeCocharacter(lam))
        assert rep.flag_dim == rep.hcodim


def test_levels_match_eigenvalue_oracle_on_random_instances():
    rng = random.Random(31337)
    for _ in range(12):
        alg, lam = random_classical_instance(rng, max_ambient=6)
        assert grade(alg, HodgeCocharacter(lam)) == oracle_levels(alg, lam)


def _mixed_basis(alg, rng):
    """alg on its basis permuted, then changed by a random rational
    unit-triangular matrix, so that one element spans several weights."""
    basis = list(alg.basis)
    rng.shuffle(basis)
    mixed = []
    for l, b in enumerate(basis):
        for earlier in basis[:l]:
            b = b + earlier * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        mixed.append(b)
    return MatLieAlgebra(alg.ambient_dim, mixed)


def test_levels_match_eigenvalue_oracle_on_mixed_bases():
    rng = random.Random(4242)
    spread = 0
    for _ in range(24):
        alg, lam = random_classical_instance(rng, max_ambient=6)
        mixed = _mixed_basis(alg, rng)
        weights_of = [{lam[i] - lam[j] for i, row in enumerate(b.rows)
                       for j, v in enumerate(row) if v} for b in mixed.basis]
        spread = max(spread, *map(len, weights_of))
        levels = grade(mixed, HodgeCocharacter(lam))
        assert levels == oracle_levels(mixed, lam)
    assert spread >= 3


def test_a_mixed_basis_still_refuses_a_non_normalizing_lambda():
    mixed = _mixed_basis(make_classical("so", 4), random.Random(5))
    with pytest.raises(NormalizationError) as err:
        grade(mixed, HodgeCocharacter((5, 1, 0, 0)))
    assert err.value.index in range(mixed.dim)


def test_grading_builds_no_matrix_and_runs_no_elimination(monkeypatch):
    algebras = [make_classical(kind, 6) for kind in ("gl", "sl", "go", "gsp")]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    eliminate, init = linalg._eliminate, linalg.ExactMatrix.__init__
    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(linalg.ExactMatrix, "__init__", counting_init)
    for alg in algebras:
        report(alg, HodgeCocharacter((3, 2, 2, 1, 1, 0)))
    assert calls == []
    linalg.rank(linalg.ExactMatrix(QQ, [[1]]))
    assert len(calls) == 2  # the wrappers do see linalg's own calls


def test_grading_exhausts_the_algebra_and_shifts_centrally():
    rng = random.Random(777)
    for _ in range(15):
        alg, lam = random_classical_instance(rng, max_ambient=6)
        levels = grade(alg, HodgeCocharacter(lam))
        assert sum(levels.values()) == alg.dim
        assert list(levels) == sorted(levels)
        assert grade(alg, HodgeCocharacter(lam).shifted(3)) == levels


def test_full_spread_levels_of_gl_and_sl_in_closed_form():
    # diag(n-1, ..., 0) puts n - |k| matrix units at weight k; sl(n)
    # loses one dimension of the diagonal, at k = 0.
    start = time.monotonic()
    for n in (12, 16):
        lam = tuple(range(n - 1, -1, -1))
        expected = {k: n - abs(k) for k in range(1 - n, n)}
        assert grade(make_classical("gl", n), HodgeCocharacter(lam)) == expected
        expected[0] -= 1
        assert grade(make_classical("sl", n), HodgeCocharacter(lam)) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"


def test_declared_hodge_numbers_constrain_the_weights():
    numbers = HodgeNumbers(3, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1})
    HodgeCocharacter((3, 2, 1, 0), declared_numbers=numbers)
    HodgeCocharacter((0, 1, 2, 3), declared_numbers=numbers)  # order free
    with pytest.raises(ValueError):
        HodgeCocharacter((3, 2, 1, 1), declared_numbers=numbers)
    with pytest.raises(ValueError):
        HodgeCocharacter((3, 2, 1), declared_numbers=numbers)


def test_shift_discards_the_declared_table():
    numbers = HodgeNumbers(1, {(1, 0): 1, (0, 1): 1})
    mu = HodgeCocharacter((1, 0), declared_numbers=numbers)
    assert mu.shifted(-1).weights == (0, -1)
    with pytest.raises(ValueError):
        HodgeCocharacter((0, -1), declared_numbers=numbers)


def test_weights_and_levels_are_read_as_integers_not_truncated():
    assert HodgeCocharacter(("1", 0)).weights == (1, 0)
    with pytest.raises(TypeError):
        HodgeCocharacter((0.5, 0))
    with pytest.raises(TypeError):
        HodgeCocharacter((True, False))
    with pytest.raises(ValueError, match="is not an integer"):
        HodgeCocharacter(("1/2", 0))
    with pytest.raises(TypeError):
        MatLieAlgebra(2.7, [])
    with pytest.raises(TypeError):
        make_classical("gl", True)
    gl2 = make_classical("gl", 2)
    assert [type(k) for k in adjoint_of_diagonal(gl2, ("1", 0))] == [int] * 3
    with pytest.raises(TypeError):
        adjoint_of_diagonal(gl2, (0.5, 0))
    with pytest.raises(ValueError, match="is not an integer"):
        adjoint_of_diagonal(gl2, ("1/2", 0))


def test_shimura_boundary_is_exactly_levels_within_one():
    gl2 = make_classical("gl", 2)
    for lam, levels, shimura in (((1, 0), {-1: 1, 0: 2, 1: 1}, True),
                                 ((2, 0), {-2: 1, 0: 2, 2: 1}, False),
                                 ((1, 1), {0: 4}, True)):
        mu = HodgeCocharacter(lam)
        assert grade(gl2, mu) == levels
        assert report(gl2, mu).shimura_type is shimura


def test_report_collects_every_invariant():
    alg = make_classical("gsp", 4)
    rep = report(alg, HodgeCocharacter((3, 2, 1, 0)))
    assert rep.dim_g == 11
    assert rep.flag_dim == 4
    assert rep.hcodim == 2
    assert rep.g_minus_one_dim == 2
    assert rep.shimura_type is False
    assert rep.symmetric_grading is True
    assert rep.levels[0] == (-3, 1)


def test_asymmetric_grading_from_a_custom_borel():
    # upper triangular 2x2 matrices: ad diag(1, 0) has no negative part
    borel = MatLieAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    mu = HodgeCocharacter((1, 0))
    assert grade(borel, mu) == {0: 2, 1: 1}
    rep = report(borel, mu)
    assert not rep.symmetric_grading
    assert rep.flag_dim == 0
