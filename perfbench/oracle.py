"""Expected outputs, computed without the package under test.

- Grading levels come from a closed-form root count over the weight
  differences lambda_i - lambda_j, not from ranks of the adjoint matrix.
- Hodge number algebra comes from per-type generating functions, not
  from enumerating subsets of a typed basis.
- The shipped specs have frozen exit codes and transcendence degrees;
  their flag_dim and hcodim come from the closed-form count.
- The transcendence degree of a flag is the Jacobian rank of its chart
  coordinates, computed here with exact rational evaluation at a random
  point (a lower bound).  When that bound is below min(#coords, k), the
  coordinates are polynomials and the rank is certified exactly: every
  bordered minor of a nonsingular r x r minor vanishes identically.
  Nothing here goes through the package's polys, ratfunc or linalg.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from workloads import poly_add, poly_mul

# Frozen results of the shipped specs: screen exit code and trdeg.
FROZEN_SPECS = {
    "elliptic-gsp2.json": {"screen_exit": 0, "trdeg": 0},
    "gsp4-cy-generic.json": {"screen_exit": 0, "trdeg": 4},
    "gsp4-cy.json": {"screen_exit": 10, "trdeg": 0},
    "torus-cm.json": {"screen_exit": 0, "trdeg": 0},
    "type2020-go4.json": {"screen_exit": 10, "trdeg": 0},
    "type3003-go6.json": {"screen_exit": 10, "trdeg": 0},
    "weight1-g2.json": {"screen_exit": 0, "trdeg": 3},
}


class OracleInconclusive(Exception):
    """The oracle cannot certify an answer for this input."""


# -- grading -----------------------------------------------------------------------


def grading_levels(kind: str, n: int, lam) -> dict:
    """{k: dim g_k} for a classical algebra with the default form.

    gl: one level per matrix position; sl: one fewer at level 0;
    diag_torus: n at level 0; so/go: half the off-antidiagonal positions;
    sp/gsp: that plus #{i : 2 lambda_i - c = k}, c the mirror sum;
    go/gsp: one more at level 0 for the scalars.
    """
    levels: dict = {}

    def bump(k, by=1):
        levels[k] = levels.get(k, 0) + by

    if kind == "diag_torus":
        bump(0, n)
    elif kind in ("gl", "sl"):
        for i in range(n):
            for j in range(n):
                bump(lam[i] - lam[j])
        if kind == "sl":
            bump(0, -1)
    else:
        off = {}
        for i in range(n):
            for j in range(n):
                if i + j != n - 1:
                    k = lam[i] - lam[j]
                    off[k] = off.get(k, 0) + 1
        for k, count in off.items():
            bump(k, count // 2)
        if kind in ("sp", "gsp"):
            c = lam[0] + lam[n - 1]
            for i in range(n):
                bump(2 * lam[i] - c)
        if kind in ("go", "gsp"):
            bump(0)
    return {k: d for k, d in levels.items() if d}


def invariants(levels: dict) -> dict:
    return {
        "levels": sorted([k, d] for k, d in levels.items()),
        "flag_dim": sum(d for k, d in levels.items() if k < 0),
        "hcodim": sum(d for k, d in levels.items() if k <= -2),
    }


# -- Hodge number algebra ------------------------------------------------------------


def _power_counts(dims: dict, k: int, exterior: bool) -> dict:
    """Types of the k-th exterior or symmetric power, one Hodge type at a
    time: j copies of a type with multiplicity h contribute C(h, j)
    (exterior) or C(h + j - 1, j) (symmetric) basis elements."""
    table = {(0, (0, 0)): 1}  # (degree used, type) -> count
    for (p, q), h in sorted(dims.items()):
        new: dict = {}
        for (used, (tp, tq)), count in table.items():
            for j in range(0, k - used + 1):
                ways = comb(h, j) if exterior else comb(h + j - 1, j)
                if ways:
                    key = (used + j, (tp + j * p, tq + j * q))
                    new[key] = new.get(key, 0) + count * ways
        table = new
    return {t: c for (used, t), c in table.items() if used == k}


def hodge_expected(op: str, specs: list, k, numbers: dict) -> dict:
    """{"weight", "dims"} of a Hodge number operation; numbers maps a
    spec name to (weight, {(p, q): h})."""
    weight, dims = numbers[specs[0]]
    if op == "dual":
        weight, dims = -weight, {(-p, -q): h for (p, q), h in dims.items()}
    elif op == "tensor":
        w2, d2 = numbers[specs[1]]
        out: dict = {}
        for (p1, q1), h1 in dims.items():
            for (p2, q2), h2 in d2.items():
                out[(p1 + p2, q1 + q2)] = out.get((p1 + p2, q1 + q2), 0) + h1 * h2
        weight, dims = weight + w2, out
    elif op in ("wedge", "sym"):
        weight, dims = weight * k, _power_counts(dims, k, op == "wedge")
    elif op == "twist":
        weight, dims = weight - 2 * k, {(p - k, q - k): h for (p, q), h in dims.items()}
    return {"weight": weight, "dims": sorted([p, q, h] for (p, q), h in dims.items() if h)}


def spec_numbers(path) -> tuple:
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    hn = raw["hodge_numbers"]
    return raw, (hn["weight"], {(p, q): h for p, q, h in hn["dims"]})


def cli_expected(op: dict, docs: dict) -> dict:
    """Expected exit code and checked fields of one CLI invocation."""
    cmd = op["cmd"]
    if cmd.startswith("hodge "):
        numbers = {name: docs[name][1] for name in op["specs"]}
        return {"exit": 0,
                "hodge_numbers": hodge_expected(cmd.split()[1], op["specs"], op.get("k"), numbers)}
    name = op["specs"][0]
    raw = docs[name][0]
    group = raw["group"]
    inv = invariants(grading_levels(group["kind"], group["n"], raw["cocharacter"]["lambda"]))
    frozen = FROZEN_SPECS[name]
    if cmd == "invariants":
        return {"exit": 0, "flag_dim": inv["flag_dim"], "hcodim": inv["hcodim"]}
    if cmd == "screen":
        return {"exit": frozen["screen_exit"], "flag_dim": inv["flag_dim"],
                "hcodim": inv["hcodim"], "trdeg": frozen["trdeg"]}
    if cmd == "trdeg":
        return {"exit": 0, "trdeg": frozen["trdeg"]}
    return {"exit": 0, "checks": True}


def cli_observed(cmd: str, code: int, stdout: str) -> dict:
    """The fields cli_expected names, read off one invocation's output."""
    out = {"exit": code}
    try:
        payload = json.loads(stdout)
    except ValueError:
        return out
    if cmd.startswith("hodge "):
        hn = payload.get("hodge_numbers") or {}
        out["hodge_numbers"] = {"weight": hn.get("weight"), "dims": sorted(hn.get("dims", []))}
        return out
    inv = payload.get("invariants") or {}
    if cmd in ("invariants", "screen"):
        out["flag_dim"], out["hcodim"] = inv.get("flag_dim"), inv.get("hcodim")
    if cmd in ("screen", "trdeg"):
        out["trdeg"] = (payload.get("trdeg") or {}).get("value")
    if cmd == "lie-check":
        out["checks"] = all((payload.get("checks") or {"": False}).values())
    return out


# -- transcendence degree --------------------------------------------------------------


def _peval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for x, ei in zip(point, e):
            if ei:
                term *= x ** ei
        total += term
    return total


def _pderiv(p: dict, j: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[j]:
            out[e[:j] + (e[j] - 1,) + e[j + 1:]] = c * e[j]
    return out


def _pscale(p: dict, c) -> dict:
    return {e: v * c for e, v in p.items()} if c else {}


def _rank(rows):
    """(rank, pivot rows, pivot columns) of a Fraction matrix."""
    m = [list(r) for r in rows]
    pivot_rows, pivot_cols = [], []
    order = list(range(len(m)))
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pick = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        order[r], order[pick] = order[pick], order[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_rows.append(order[r])
        pivot_cols.append(col)
        r += 1
    return r, pivot_rows, pivot_cols


def _inverse(a):
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pick = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[pick] = m[pick], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def _det_poly(matrix) -> dict:
    """Leibniz determinant of a small matrix of polynomials."""
    n = len(matrix)
    total: dict = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = None
        for i in range(n):
            entry = matrix[i][perm[i]]
            term = entry if term is None else poly_mul(term, entry)
            if not term:
                break
        if term:
            total = poly_add(total, _pscale(term, sign))
    return total


def trdeg(flag: dict, rng: random.Random, tries: int = 4) -> int:
    """Exact transcendence degree of a single-step flag record."""
    k, d, vectors = flag["k"], flag["d"], flag["vectors"]
    if k == 0:
        return 0
    s = len(vectors)
    m = [[vectors[c][i] for c in range(s)] for i in range(d)]  # d x s
    bound = min((d - s) * s, k)
    best = None
    for _ in range(tries):
        point = [Fraction(rng.randint(-10**6, 10**6)) for _ in range(k)]
        value = [[_peval(p, point) for p in row] for row in m]
        pivots = next((rows for rows in combinations(range(d), s)
                       if _rank([value[i] for i in rows])[0] == s), None)
        if pivots is None:
            continue
        binv = _inverse([value[i] for i in pivots])
        rest = [i for i in range(d) if i not in pivots]
        chart = [[sum(value[i][a] * binv[a][c] for a in range(s)) for c in range(s)]
                 for i in rest]
        # d/dt_j (M_N B^-1) = (dM_N - C dB) B^-1
        jac_cols = []
        for j in range(k):
            dv = [[_peval(_pderiv(p, j), point) for p in row] for row in m]
            col = []
            for r_idx, i in enumerate(rest):
                left = [dv[i][a] - sum(chart[r_idx][b] * dv[pivots[b]][a] for b in range(s))
                        for a in range(s)]
                col.extend(sum(left[a] * binv[a][c] for a in range(s)) for c in range(s))
            jac_cols.append(col)
        jac = [list(row) for row in zip(*jac_cols)]
        r, prow, pcol = _rank(jac)
        if r == bound:
            return r
        if best is None or r > best[0]:
            best = (r, prow, pcol, pivots)
    if best is None:
        raise OracleInconclusive("no point avoided the singular charts")
    return _certify_deficient(m, k, *best)


def _certify_deficient(m, k, r, prow, pcol, pivots) -> int:
    """rank == r exactly when every bordered (r+1)-minor of the symbolic
    Jacobian vanishes identically; the r x r minor at (prow, pcol) is
    nonzero at the evaluation point, hence nonzero as a polynomial."""
    s = len(pivots)
    b = [[m[i][c] for c in range(s)] for i in pivots]
    if any(any(e) for row in b for p in row for e in p):
        raise OracleInconclusive("deficient rank with a non-constant pivot block")
    binv = _inverse([[Fraction(p.get((0,) * k, 0)) for p in row] for row in b])
    rest = [i for i in range(len(m)) if i not in pivots]
    coords = []
    for i in rest:
        for c in range(s):
            entry: dict = {}
            for a in range(s):
                entry = poly_add(entry, _pscale(m[i][a], binv[a][c]))
            coords.append(entry)
    jac = [[_pderiv(p, j) for j in range(k)] for p in coords]
    for i in range(len(jac)):
        if i in prow:
            continue
        for j in range(k):
            if j in pcol:
                continue
            rows, cols = list(prow) + [i], list(pcol) + [j]
            if _det_poly([[jac[a][b] for b in cols] for a in rows]):
                raise OracleInconclusive("evaluated rank is below the symbolic rank")
    return r
