"""Shared generators and independent oracles for the test suite.

The oracles deliberately take different computational routes from the
package: grading dimensions come from sympy's characteristic-polynomial
eigenvalue multiplicities, on an ad matrix whose columns sympy solves
for, instead of echelon pivot counts, transcendence
degrees come from elimination (resultant cascade with a Groebner
fallback) instead of Jacobian ranks, irreducibility over Q is
sympy's answer instead of the package's modular test, spec shape
problems are jsonschema's instead of the package's own schema walk, and
chart coordinates come from a search over sympy minors and an inverse
instead of one elimination.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import jsonschema
import sympy

from hodgescreen import (
    FlagPoint,
    FunctionField,
    HodgeNumbers,
    QQ,
    make_classical,
    normalize_chart,
)
from hodgescreen.schema import SPEC_SCHEMA

FORM_KINDS = ("so", "sp", "gsp", "go")

ROOT = Path(__file__).resolve().parent.parent
# A child interpreter imports the package from this checkout's src/,
# installed or not.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def package_modules_after(code: str) -> set:
    """Run code in a fresh interpreter from the repository root and return
    the hodgescreen submodules it loaded, without the package prefix.

    The child fails the caller on a nonzero exit, so code may assert."""
    probe = code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('hodgescreen.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=ENV, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    return {name.removeprefix("hodgescreen.") for name in loaded}


# -- random classical instances ---------------------------------------------------

def random_classical_instance(rng, max_ambient=8):
    """(algebra, lambda) with diag(lambda) guaranteed to normalize.

    Form-preserving kinds get mirror-symmetric weights
    (lambda_i + lambda_{n+1-i} constant), which keeps diag(lambda) inside
    the similitude normalizer for the default antidiagonal forms.
    """
    kind = rng.choice(("gl", "sl", "so", "sp", "gsp", "go", "diag_torus"))
    if kind in ("gl", "sl"):
        n = rng.randint(2, min(6, max_ambient))
        lam = [rng.randint(-3, 3) for _ in range(n)]
    elif kind == "diag_torus":
        n = rng.randint(1, max_ambient)
        lam = [rng.randint(-4, 4) for _ in range(n)]
    else:
        n = rng.randint(2, max_ambient)
        if kind in ("sp", "gsp") and n % 2:
            n += 1
            n = min(n, max_ambient if max_ambient % 2 == 0 else max_ambient - 1)
        c = 2 * rng.randint(-2, 2)
        half = n // 2
        head = [rng.randint(-3, 3) for _ in range(half)]
        lam = head + ([c // 2] if n % 2 else []) + [c - h for h in reversed(head)]
    return make_classical(kind, n), tuple(lam)


# -- eigenvalue-multiplicity grading oracle ----------------------------------------

def brute_force_ad_matrix(algebra, lam):
    """Matrix of ad(diag(lambda)) in the algebra's basis: sympy's solution
    of basis * X = commutators, with each matrix flattened to a column."""
    basis = [sympy.Matrix(b.rows) for b in algebra.basis]
    d_mat = sympy.diag(*lam)
    flat = sympy.Matrix.hstack(*(b.reshape(len(b), 1) for b in basis))
    brackets = sympy.Matrix.hstack(
        *((d_mat * b - b * d_mat).reshape(len(b), 1) for b in basis))
    try:
        solution, _params = flat.gauss_jordan_solve(brackets)
    except ValueError:
        raise AssertionError("oracle input: lambda does not normalize") from None
    return solution


def oracle_levels(algebra, lam):
    """{k: dim g_k} via characteristic-polynomial multiplicities."""
    m = brute_force_ad_matrix(algebra, lam)
    out = {}
    for value, mult in m.eigenvals().items():
        k = sympy.nsimplify(value)
        if not (k.is_integer and k.is_number):
            raise AssertionError(f"non-integer adjoint eigenvalue {value}")
        out[int(k)] = out.get(int(k), 0) + int(mult)
    return {k: v for k, v in out.items() if v}


def oracle_flag_dim(algebra, lam):
    return sum(v for k, v in oracle_levels(algebra, lam).items() if k < 0)


def oracle_hcodim(algebra, lam):
    return sum(v for k, v in oracle_levels(algebra, lam).items() if k <= -2)


# -- elimination-based transcendence oracle -----------------------------------------

def poly_to_sympy(p, syms):
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exp):
            if e:
                term *= s ** e
        expr += term
    return expr


def _cleared(pairs, ys):
    return [sympy.expand(y * den - num) for y, (num, den) in zip(ys, pairs)]


def _resultant_cascade(polys, tsyms, ys):
    """Eliminate the t variables pairwise; a nonzero y-only survivor
    certifies dependence.  Returns True or None (inconclusive)."""
    current = list(polys)
    for t in tsyms:
        touched = [p for p in current if p.has(t)]
        rest = [p for p in current if not p.has(t)]
        if len(touched) <= 1:
            current = rest  # dropping loses information: fallback decides
            continue
        new = []
        for a, b in zip(touched, touched[1:]):
            new.append(sympy.resultant(a, b, t))
        current = rest + [p for p in new if p != 0]
    yset = set(ys)
    for p in current:
        if p != 0 and p.free_symbols and p.free_symbols <= yset:
            return True
    return None


def _dependent(pairs, tsyms):
    """Are the rational functions num/den algebraically dependent over Q?"""
    ys = tuple(sympy.Symbol(f"y{i}") for i in range(len(pairs)))
    polys = _cleared(pairs, ys)
    fast = _resultant_cascade(polys, tsyms, ys)
    if fast:
        return True
    dens = sympy.Integer(1)
    for _num, den in pairs:
        if den.free_symbols:
            dens *= den
    gens = list(tsyms) + list(ys)
    system = list(polys)
    if dens != 1:
        z = sympy.Symbol("zsat")
        system.append(sympy.expand(z * dens - 1))
        gens = [z] + gens
    basis = sympy.groebner(system, *gens, order="lex")
    yset = set(ys)
    for g in basis.exprs:
        if g.free_symbols and g.free_symbols <= yset:
            return True
    return False


def oracle_trdeg(flag):
    """Greedy independent-set size among the chart coordinates.

    Algebraic independence is a matroid, so the greedy scan is exact.
    """
    coords = normalize_chart(flag)
    names = flag.field.names
    if not names:
        return 0
    tsyms = tuple(sympy.Symbol(n) for n in names)
    chosen = []
    for rf in coords:
        if len(chosen) == len(tsyms):
            break
        num = poly_to_sympy(rf.num, tsyms)
        den = poly_to_sympy(rf.den, tsyms)
        if not (num / den).free_symbols:
            continue
        if not _dependent(chosen + [(num, den)], tsyms):
            chosen.append((num, den))
    return len(chosen)


# -- chart oracle -------------------------------------------------------------------

def ratfunc_to_sympy(f, syms):
    return poly_to_sympy(f.num, syms) / poly_to_sympy(f.den, syms)


def oracle_chart(flag):
    """Chart coordinates by their definition, as sympy expressions.

    Per step: the lexicographically first rows of the d x s basis
    matrix M whose minor B has a nonzero sympy determinant, then the
    entries of M B^{-1} (adjugate over determinant) outside those rows,
    row by row.
    """
    syms = tuple(sympy.Symbol(n) for n in flag.field.names)
    coords = []
    for _p, vectors in flag.steps:
        s = len(vectors)
        m = sympy.Matrix(flag.ambient_dim, s,
                         lambda i, j: ratfunc_to_sympy(vectors[j][i], syms))
        for rows in combinations(range(flag.ambient_dim), s):
            b = m.extract(list(rows), list(range(s)))
            det = sympy.cancel(b.det(method="berkowitz"))
            if det != 0:
                break
        reduced = m * b.adjugate() / det
        for i in range(flag.ambient_dim):
            if i not in rows:
                coords.extend(sympy.cancel(x) for x in reduced.row(i))
    return coords


# -- irreducibility oracle --------------------------------------------------------

def oracle_is_irreducible(coeffs):
    """sympy's irreducibility answer for a rational coefficient list
    (constant term first)."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**k
               for k, c in enumerate(coeffs))
    return sympy.Poly(expr, x, domain="QQ").is_irreducible


# -- spec shape oracle ---------------------------------------------------------------

_SPEC_VALIDATOR = jsonschema.Draft202012Validator(SPEC_SCHEMA)


def oracle_schema_problems(raw):
    """jsonschema's "path: message" list for a spec document, sorted
    stably by JSON path."""
    problems = []
    for err in sorted(_SPEC_VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        path = "/".join(str(part) for part in err.absolute_path) or "(document root)"
        problems.append(f"{path}: {err.message}")
    return problems


# -- random flag points -------------------------------------------------------------

def random_poly_flag(rng, max_params=3, max_degree=3):
    """A single-step flag in pivot form: identity block on top, random
    polynomial entries below.  The chart coordinates are then exactly the
    lower-block entries, which keeps the elimination oracle fast while
    the Jacobian route still runs in full generality.

    The entry pool is dependency-rich on purpose: powers and products of
    a few seed polynomials drive the rank strictly below min(rows, k)
    often enough to exercise both sides of the comparison.
    """
    k = rng.randint(1, max_params)
    names = tuple(f"t{i + 1}" for i in range(k))
    field = FunctionField(QQ, names)
    gens = field.gens()

    def seed_poly():
        total = field.zero()
        for _ in range(rng.randint(1, 2)):
            term = field.coerce(Fraction(rng.choice((-2, -1, 1, 2, 3))))
            degree = rng.randint(0, max_degree)
            for _ in range(degree):
                term = term * rng.choice(gens)
            total = total + term
        return total

    pool = [seed_poly() for _ in range(3)]
    pool.append(pool[0] * pool[0])
    pool.append(pool[0] * pool[1])
    pool.append(field.coerce(Fraction(rng.randint(-3, 3))))

    s = rng.randint(1, 3)
    d = s + rng.randint(1, 3)
    vectors = []
    for col in range(s):
        entries = [field.one() if row == col else field.zero() for row in range(s)]
        for _row in range(s, d):
            choice = rng.choice(pool)
            if choice.num.total_degree() > max_degree:
                choice = pool[-1]
            entries.append(choice)
        vectors.append(tuple(entries))
    return FlagPoint(field, d, ((1, tuple(vectors)),))


def random_span_flag(rng, two_steps: bool):
    """A one- or two-step flag over Q(t1, t2) with sparse entries: zeros,
    constants, affine-linear forms, their products with a parameter and
    quotients by a form.  A zero first row or equal second and third
    rows (in every vector) move the first nonsingular minor off the top
    rows.  Rejection-sampled until the
    steps are independent and nested.
    """
    field = FunctionField(QQ, ("t1", "t2"))
    gens = field.gens()

    def form():
        total = field.coerce(rng.randint(-3, 3))
        for g in gens:
            if rng.randrange(3):
                total = total + rng.choice((-2, -1, 1, 2)) * g
        return total

    def entry():
        roll = rng.random()
        if roll < 0.25:
            return field.zero()
        if roll < 0.35:
            return field.coerce(rng.randint(-3, 3))
        value = form()
        if rng.random() < 0.15:
            value = value * rng.choice(gens)
        if rng.random() < 0.2:
            den = form()
            if den:
                value = value / den
        return value

    def vector(d):
        v = [entry() for _ in range(d)]
        if zero_top:
            v[0] = field.zero()
        if repeat:
            v[2] = v[1]
        return tuple(v)

    while True:
        d = rng.randint(3, 4)
        zero_top, repeat = rng.random() < 0.3, rng.random() < 0.3
        if two_steps:
            small = rng.randint(1, d - 2)
            big = rng.randint(small + 1, d - 1)
            low = [vector(d) for _ in range(small)]
            steps = ((2, tuple(low)), (1, tuple(low + [vector(d) for _ in range(big - small)])))
        else:
            steps = ((1, tuple(vector(d) for _ in range(rng.randint(1, d - 1)))),)
        try:
            return FlagPoint(field, d, steps)
        except ValueError:
            continue


def random_hodge_table(rng):
    """Conjugation-symmetric dimension table of a random weight."""
    weight = rng.randrange(-2, 5)
    dims = {}
    for _ in range(rng.randrange(1, 4)):
        p = rng.randrange(-3, weight + 4)
        h = rng.randrange(1, 4)
        dims[(p, weight - p)] = dims.get((p, weight - p), 0) + h
        if p != weight - p:
            dims[(weight - p, p)] = dims.get((weight - p, p), 0) + h
    return HodgeNumbers(weight, dims)
