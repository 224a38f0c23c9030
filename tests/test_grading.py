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
    CocharGrading,
    HodgeCocharacter,
    HodgeNumbers,
    IncompleteGrading,
    MatLieAlgebra,
    NormalizationError,
    flag_dimension,
    grade,
    hcodim,
    is_shimura_type,
    make_classical,
    report,
)
from hodgescreen import linalg

from support import oracle_levels, random_classical_instance


def test_symplectic_similitude_weight_three_grading():
    alg = make_classical("gsp", 4)
    grading = grade(alg, HodgeCocharacter((3, 2, 1, 0)))
    assert dict(grading.sorted_levels()) == {
        -3: 1, -2: 1, -1: 2, 0: 3, 1: 2, 2: 1, 3: 1,
    }
    assert flag_dimension(grading) == 4
    assert hcodim(grading) == 2
    assert not is_shimura_type(grading)


def test_weight_one_family_is_horizontal():
    for g in (1, 2, 3):
        alg = make_classical("gsp", 2 * g)
        lam = (1,) * g + (0,) * g
        grading = grade(alg, HodgeCocharacter(lam))
        assert flag_dimension(grading) == g * (g + 1) // 2
        assert hcodim(grading) == 0
        assert is_shimura_type(grading)


def test_torus_grading_is_concentrated_at_zero():
    alg = make_classical("diag_torus", 3)
    grading = grade(alg, HodgeCocharacter((4, 1, 0)))
    assert grading.sorted_levels() == [(0, 3)]
    assert flag_dimension(grading) == hcodim(grading) == 0
    assert is_shimura_type(grading)


def test_orthogonal_extreme_types_have_no_middle_levels():
    for n, lam, middle in ((4, (2, 2, 0, 0), 5), (6, (2, 2, 2, 0, 0, 0), 10)):
        alg = make_classical("go", n)
        grading = grade(alg, HodgeCocharacter(lam))
        levels = dict(grading.sorted_levels())
        assert levels[0] == middle
        assert levels[-2] == levels[2]
        assert -1 not in levels and 1 not in levels
        assert flag_dimension(grading) == hcodim(grading)


def test_levels_match_eigenvalue_oracle_on_random_instances():
    rng = random.Random(31337)
    for _ in range(12):
        alg, lam = random_classical_instance(rng, max_ambient=6)
        grading = grade(alg, HodgeCocharacter(lam))
        assert dict(grading.sorted_levels()) == oracle_levels(alg, lam)


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
        levels = dict(grade(mixed, HodgeCocharacter(lam)).sorted_levels())
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
        grading = grade(alg, HodgeCocharacter(lam))
        assert sum(d for _k, d in grading.sorted_levels()) == alg.dim
        shifted = grade(alg, HodgeCocharacter(lam).shifted(3))
        assert shifted.sorted_levels() == grading.sorted_levels()


def test_full_spread_levels_of_gl_and_sl_in_closed_form():
    # diag(n-1, ..., 0) puts n - |k| matrix units at weight k; sl(n)
    # loses one dimension of the diagonal, at k = 0.
    start = time.monotonic()
    for n in (12, 16):
        lam = tuple(range(n - 1, -1, -1))
        expected = {k: n - abs(k) for k in range(1 - n, n)}
        assert dict(grade(make_classical("gl", n), HodgeCocharacter(lam)).levels) == expected
        expected[0] -= 1
        assert dict(grade(make_classical("sl", n), HodgeCocharacter(lam)).levels) == expected
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


def test_direct_grading_constructor_contracts():
    grading = CocharGrading(4, {1: 1, 0: 2, -1: 1, 5: 0})
    assert grading.level(5) == 0 and 5 not in dict(grading.sorted_levels())
    assert grading.is_symmetric()
    with pytest.raises(IncompleteGrading):
        CocharGrading(10, {0: 3})
    with pytest.raises(ValueError):
        CocharGrading(1, {0: -1})


def test_weights_and_levels_are_read_as_integers_not_truncated():
    assert HodgeCocharacter(("1", 0)).weights == (1, 0)
    with pytest.raises(TypeError):
        HodgeCocharacter((0.5, 0))
    with pytest.raises(TypeError):
        HodgeCocharacter((True, False))
    with pytest.raises(ValueError, match="is not an integer"):
        HodgeCocharacter(("1/2", 0))
    with pytest.raises(TypeError):
        CocharGrading(1, {0.5: 1})
    with pytest.raises(TypeError):
        CocharGrading(1, {0: True})


def test_shimura_boundary_is_exactly_levels_within_one():
    assert is_shimura_type(CocharGrading(3, {-1: 1, 0: 1, 1: 1}))
    assert not is_shimura_type(CocharGrading(3, {-2: 1, 0: 1, 2: 1}))
    assert is_shimura_type(CocharGrading(2, {0: 2}))


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
    from hodgescreen import MatLieAlgebra

    borel = MatLieAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    grading = grade(borel, HodgeCocharacter((1, 0)))
    assert dict(grading.sorted_levels()) == {0: 2, 1: 1}
    assert not grading.is_symmetric()
    assert flag_dimension(grading) == 0
