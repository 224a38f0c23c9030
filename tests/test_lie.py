"""Classical algebra constructors and the adjoint action of diagonals."""

import random
from fractions import Fraction

import pytest

from hodgescreen import (
    BracketClosureError,
    MatLieAlgebra,
    NormalizationError,
    adjoint_of_diagonal,
    bracket_matrices,
    direct_sum,
    make_classical,
)

from support import random_classical_instance


def test_classical_dimensions_match_the_formulas():
    assert make_classical("gl", 3).dim == 9
    assert make_classical("sl", 4).dim == 15
    assert make_classical("so", 4).dim == 6
    assert make_classical("so", 5).dim == 10
    assert make_classical("sp", 4).dim == 10
    assert make_classical("sp", 6).dim == 21
    assert make_classical("gsp", 4).dim == 11
    assert make_classical("go", 4).dim == 7
    assert make_classical("diag_torus", 5).dim == 5


def test_defining_equations_hold_on_every_basis_element():
    from hodgescreen.lie import _default_form

    for kind in ("so", "sp", "go", "gsp"):
        n = 4
        alg = make_classical(kind, n)
        j = _default_form(kind, n)
        for b in alg.basis:
            lhs = b.transpose() * j + j * b
            if kind in ("so", "sp"):
                assert lhs.is_zero()
            else:
                # similitude part: X^T J + J X is a multiple of J
                ratio = None
                for r in range(n):
                    for c in range(n):
                        if j.rows[r][c] != 0:
                            ratio = lhs.rows[r][c] / j.rows[r][c]
                assert lhs == j * ratio


def test_bracket_closure_against_dense_multiplication():
    rng = random.Random(5)
    for _ in range(8):
        alg, _lam = random_classical_instance(rng, max_ambient=5)
        for a in alg.basis[:6]:
            for b in alg.basis[:6]:
                assert alg.contains(bracket_matrices(a, b))


def test_sl_traceless_and_torus_abelian():
    sl3 = make_classical("sl", 3)
    for b in sl3.basis:
        assert sum(b.rows[i][i] for i in range(3)) == 0
    torus = make_classical("diag_torus", 3)
    for a in torus.basis:
        for b in torus.basis:
            assert bracket_matrices(a, b).is_zero()


def test_custom_form_changes_the_solution_space():
    identity_form = [[1, 0], [0, 1]]
    so2_split = make_classical("so", 2)          # antidiagonal form
    so2_circle = make_classical("so", 2, form=identity_form)
    assert so2_split.dim == so2_circle.dim == 1
    # the circle algebra is antisymmetric matrices, the split one diagonal
    assert so2_circle.basis[0].rows[0][1] == -so2_circle.basis[0].rows[1][0]
    assert so2_split.basis[0].rows[0][1] == 0


def test_form_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        make_classical("sp", 3)  # odd symplectic rank
    with pytest.raises(ValueError):
        make_classical("so", 2, form=[[0, 1], [-1, 0]])  # antisymmetric for so
    with pytest.raises(ValueError):
        make_classical("sp", 2, form=[[0, 1], [1, 0]])  # symmetric for sp
    with pytest.raises(ValueError):
        make_classical("so", 2, form=[[1, 1], [1, 1]])  # singular
    with pytest.raises(ValueError):
        make_classical("gl", 2, form=[[1, 0], [0, 1]])  # form is meaningless
    with pytest.raises(ValueError):
        make_classical("spin", 4)


def test_ambient_dimension_and_form_shape_are_refused():
    """A non-positive ambient dimension is refused by the constructor and
    by make_classical before any form is built; a form of the wrong shape
    names the shape it needs."""
    for build in (lambda: MatLieAlgebra(0, []), lambda: MatLieAlgebra(-3, []),
                  lambda: make_classical("gl", 0), lambda: make_classical("so", 0)):
        with pytest.raises(ValueError, match="^ambient dimension must be positive$"):
            build()
    with pytest.raises(ValueError, match="^form must be 3 x 3$"):
        make_classical("so", 3, form=[[1, 0], [0, 1]])


def test_user_basis_requires_closure_and_independence():
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    MatLieAlgebra(2, [e, f, h])  # sl2 closes
    with pytest.raises(BracketClosureError) as err:
        MatLieAlgebra(2, [e, f])
    assert err.value.pair == (0, 1)
    with pytest.raises(ValueError):
        MatLieAlgebra(2, [e, e])


def test_dict_basis_input_is_checked_like_dense_input():
    for key in ((0, 2), (2, 0), (-1, 0)):
        with pytest.raises(ValueError, match=r"outside 2 x 2$"):
            MatLieAlgebra(2, [{key: 1}])
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            MatLieAlgebra(2, [{(0, 1): bad}])
        with pytest.raises(TypeError):
            MatLieAlgebra(2, [[[0, bad], [0, 0]]])
    with pytest.raises(ValueError, match=r"^basis matrix of shape \(1, 2\) in ambient dimension 2$"):
        MatLieAlgebra(2, [[[0, 1]]])
    alg = MatLieAlgebra(2, [{(0, 1): "1/2", (1, 0): 0}])
    assert alg._sparse == [{(0, 1): Fraction(1, 2)}]
    assert alg.contains({(0, 1): 3, (1, 1): 0})
    assert not alg.contains({(1, 0): 1})


@pytest.mark.parametrize("kind, n", [("gl", 3), ("sl", 3), ("so", 5), ("gsp", 4), ("go", 4)])
def test_dense_and_dict_input_build_the_same_algebra(kind, n):
    alg = make_classical(kind, n)
    dense = MatLieAlgebra(n, alg.basis)
    as_dicts = [{(i, j): v for i, row in enumerate(b.rows) for j, v in enumerate(row)}
                for b in alg.basis]
    sparse = MatLieAlgebra(n, as_dicts)
    assert dense.basis == sparse.basis == alg.basis
    coefficients = tuple(Fraction(l + 1, 3) for l in range(alg.dim))
    probe = alg.basis[0] * coefficients[0]
    for c, b in zip(coefficients[1:], alg.basis[1:]):
        probe = probe + b * c
    assert dense.contains(probe) and sparse.contains(probe)
    assert sparse.contains(as_dicts[-1])
    identity = {(i, i): 1 for i in range(n)}
    assert dense.contains(identity) == sparse.contains(identity) == (kind in ("gl", "gsp", "go"))


def test_normalizer_violation_is_reported_with_index():
    so4 = make_classical("so", 4)
    with pytest.raises(NormalizationError) as err:
        adjoint_of_diagonal(so4, (5, 1, 0, 0))  # not mirror-symmetric
    assert isinstance(err.value.index, int)
    with pytest.raises(ValueError):
        adjoint_of_diagonal(so4, (1, 0))  # wrong length


def test_torus_normalizes_everything_diagonal():
    alg = make_classical("diag_torus", 4)
    assert adjoint_of_diagonal(alg, (9, -3, 0, 7)) == {0: 4}


def test_direct_sum_embeds_blocks_and_brackets():
    a = make_classical("sl", 2)
    b = make_classical("diag_torus", 2)
    s = direct_sum(a, b)
    assert s.ambient_dim == 4
    assert s.dim == a.dim + b.dim
    # cross brackets vanish: the two blocks commute
    for x in s.basis[:a.dim]:
        for y in s.basis[a.dim:]:
            assert bracket_matrices(x, y).is_zero()
