"""Seeded inputs for the four workloads, as plain JSON-able data.

Nothing here imports hodgescreen: the worker turns these records into
program objects, and the oracle checks the outputs without the package.

Every workload repeats one *round* of entries.  The heavy entries are
fixed ladders; the workload seed draws symmetric variants of them
(Weyl-group permutations and central shifts of a cocharacter, sign
flips of flag parameters and basis vectors).  A variant has the same
answer and does the same amount of work as its base entry, so runs with
different seeds measure the same thing while the program never sees the
same bytes twice.  Without this, the random instance mix alone moves
the median by a quarter from seed to seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli_specs", "grading_ladder", "trdeg_symbolic", "trdeg_seeded")

# Shipped spec documents, by file name under specs/.
SPECS = (
    "elliptic-gsp2.json",
    "gsp4-cy-generic.json",
    "gsp4-cy.json",
    "torus-cm.json",
    "type2020-go4.json",
    "type3003-go6.json",
    "weight1-g2.json",
)
SPEC_COMMANDS = ("invariants", "screen", "trdeg", "lie-check")

# Large groups graded by a full-spread cocharacter (n-1, ..., 1, 0).
GRADING_LADDER = (("gsp", 8), ("go", 10), ("gsp", 10), ("gl", 10))
# The acceptance-5 instance stream (tests/test_acceptance.py); its first
# 100 instances.  One round (with the ladder) takes 7-11 s, so a 30 s run
# measures three or four rounds.  The 90th percentile falls among the
# acceptance instances of 0.13-0.19 s, several of them close together.
ACCEPTANCE5_SEED = 20260819
ACCEPTANCE5_COUNT = 100

# Generic single-step flags (d, s, k): ambient dimension, step dimension,
# number of parameters.  Every entry is a dense random affine-linear form.
SYMBOLIC_SHAPES = ((5, 1, 4), (6, 1, 4), (5, 2, 1), (6, 3, 1))
# (shape, copies per round).  Five entries per round put the median
# inside the (4,2,2) block and the 90th percentile inside the (6,2,2)
# block, away from the gaps between shapes.
SEEDED_SHAPES = (((3, 2, 2), 2), ((4, 2, 2), 1), ((5, 2, 2), 1), ((6, 2, 2), 1))
GENERIC_BASE_SEED = 2308
# The acceptance-7 flag stream (tests/test_acceptance.py) and how many of
# its rank-deficient flags join each trdeg_symbolic round.  With 114 of
# them next to the four generic shapes, the median and the 90th
# percentile both fall among these small flags.
ACCEPTANCE7_SEED = 1618
DEFICIENT_PER_ROUND = 114

# Entries left out of a round, with the reason; see README.md.
TOO_SLOW = "exceeded 40 s on a 2-core machine (Python 3.11.7); never started"
TOO_LONG_FOR_ROUND = ("takes 2-7 s; with it a round took 14-22 s, so a 30 s run held "
                      "only one or two rounds, and ops_per_s and p90_s spread past "
                      "their bound from run to run")
LEFT_OUT = {
    "grading_ladder": [{"entry": ["gsp", 12], "reason": TOO_LONG_FOR_ROUND},
                       {"entry": ["go", 14], "reason": TOO_LONG_FOR_ROUND},
                       {"entry": ["sl", 12], "reason": TOO_LONG_FOR_ROUND}],
    "trdeg_symbolic": [{"entry": [3, 2, 2], "reason": TOO_SLOW},
                       {"entry": [4, 2, 2], "reason": TOO_SLOW},
                       {"entry": [6, 1, 5], "reason": TOO_LONG_FOR_ROUND},
                       {"entry": [7, 1, 5], "reason": TOO_LONG_FOR_ROUND}],
    "trdeg_seeded": [{"entry": [4, 3, 2], "reason": TOO_SLOW},
                     {"entry": [6, 3, 2], "reason": TOO_SLOW},
                     {"entry": [4, 2, 3], "reason": TOO_SLOW}],
}


# -- cli_specs --------------------------------------------------------------------


def cli_round(seed: int, dims: dict) -> list:
    """One round of CLI invocations: every command on every shipped spec,
    plus one call of each Hodge number operation on seeded operands.

    dims maps a spec name to its total Hodge dimension, so that wedge
    and sym powers stay within range.  The order is seeded.
    """
    rng = random.Random(seed)
    ops = [{"argv": [cmd, "--json", f"specs/{name}"], "cmd": cmd, "specs": [name]}
           for name in SPECS for cmd in SPEC_COMMANDS]
    a = rng.choice(SPECS)
    ops.append({"argv": ["hodge", "dual", "--json", f"specs/{a}"],
                "cmd": "hodge dual", "specs": [a]})
    a, b = rng.choice(SPECS), rng.choice(SPECS)
    ops.append({"argv": ["hodge", "tensor", "--json", f"specs/{a}", f"specs/{b}"],
                "cmd": "hodge tensor", "specs": [a, b]})
    for op in ("wedge", "sym"):
        a = rng.choice(SPECS)
        k = rng.randint(1, min(dims[a], 3))
        ops.append({"argv": ["hodge", op, "--json", f"specs/{a}", str(k)],
                    "cmd": f"hodge {op}", "specs": [a], "k": k})
    a = rng.choice(SPECS)
    m = rng.randint(-2, 2)
    ops.append({"argv": ["hodge", "twist", "--json", f"specs/{a}", str(m)],
                "cmd": "hodge twist", "specs": [a], "k": m})
    rng.shuffle(ops)
    return ops


# -- grading_ladder -----------------------------------------------------------------


def acceptance5_instances(rng, count: int, max_ambient: int = 8) -> list:
    """(kind, n, lambda) triples drawn exactly as tests/support.py's
    random_classical_instance draws them."""
    out = []
    for _ in range(count):
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
        out.append((kind, n, lam))
    return out


def weyl_variant(rng, kind: str, lam: list) -> list:
    """A seeded variant of lambda with the same grading.

    gl, sl and diag_torus: any permutation.  Form kinds (mirror-symmetric
    lambda for the antidiagonal form): permute the mirror pairs and swap
    within a pair.  Then shift every weight by the same integer, which
    leaves all differences lambda_i - lambda_j alone.
    """
    n = len(lam)
    if kind in ("gl", "sl", "diag_torus"):
        out = list(lam)
        rng.shuffle(out)
    else:
        half = n // 2
        pairs = [(lam[i], lam[n - 1 - i]) for i in range(half)]
        rng.shuffle(pairs)
        pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        out = [a for a, _b in pairs] + ([lam[half]] if n % 2 else [])
        out += [b for _a, b in reversed(pairs)]
    shift = rng.randint(-3, 3)
    return [w + shift for w in out]


def grading_round(seed: int) -> list:
    rng = random.Random(seed)
    entries = [(kind, n, list(range(n - 1, -1, -1))) for kind, n in GRADING_LADDER]
    entries += acceptance5_instances(random.Random(ACCEPTANCE5_SEED), ACCEPTANCE5_COUNT)
    ops = [{"kind": kind, "n": n, "lam": weyl_variant(rng, kind, lam)}
           for kind, n, lam in entries]
    rng.shuffle(ops)
    return ops


# -- flags ---------------------------------------------------------------------------
#
# A polynomial is a dict {exponent tuple: int coefficient}; a flag record
# is {"k", "d", "vectors"}: one step (p = 1) spanned by the vectors, each
# a list of d polynomials in k parameters.


def _mono(k: int, var: int | None = None) -> tuple:
    return tuple(1 if i == var else 0 for i in range(k))


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _total_degree(p: dict) -> int:
    return max((sum(e) for e in p), default=-1)


def generic_flag(rng, d: int, s: int, k: int) -> dict:
    """Single-step flag of s vectors in Q(t_1..t_k)^d, every entry a
    dense random affine-linear form c_0 + sum c_j t_j."""
    vectors = []
    for _ in range(s):
        vector = []
        for _ in range(d):
            entry = {}
            c0 = rng.randint(-3, 3)
            if c0:
                entry[_mono(k)] = c0
            for j in range(k):
                entry[_mono(k, j)] = rng.choice((-3, -2, -1, 1, 2, 3))
            vector.append(entry)
        vectors.append(vector)
    return {"k": k, "d": d, "vectors": vectors}


def acceptance7_flag(rng, max_params: int = 3, max_degree: int = 3) -> dict:
    """One flag drawn exactly as tests/support.py's random_poly_flag
    draws it: identity block on top, a dependency-rich pool below."""
    k = rng.randint(1, max_params)

    def seed_poly():
        total: dict = {}
        for _ in range(rng.randint(1, 2)):
            term = {_mono(k): rng.choice((-2, -1, 1, 2, 3))}
            degree = rng.randint(0, max_degree)
            for _ in range(degree):
                # rng.choice(gens) in the original: same draw as choice(range(k))
                term = poly_mul(term, {_mono(k, rng.choice(range(k))): 1})
            total = poly_add(total, term)
        return total

    pool = [seed_poly() for _ in range(3)]
    pool.append(poly_mul(pool[0], pool[0]))
    pool.append(poly_mul(pool[0], pool[1]))
    const = rng.randint(-3, 3)
    pool.append({_mono(k): const} if const else {})

    s = rng.randint(1, 3)
    d = s + rng.randint(1, 3)
    vectors = []
    for col in range(s):
        entries = [({_mono(k): 1} if row == col else {}) for row in range(s)]
        for _row in range(s, d):
            choice = rng.choice(pool)
            if _total_degree(choice) > max_degree:
                choice = pool[-1]
            entries.append(dict(choice))
        vectors.append(entries)
    return {"k": k, "d": d, "vectors": vectors}


def sign_variant(rng, flag: dict) -> dict:
    """t_j -> +-t_j and v -> +-v: same span up to the parameter signs,
    same transcendence degree, same work."""
    k = flag["k"]
    signs = [rng.choice((-1, 1)) for _ in range(k)]
    vectors = []
    for vector in flag["vectors"]:
        flip = rng.choice((-1, 1))
        out = []
        for entry in vector:
            new = {}
            for e, c in entry.items():
                sign = flip
                for sj, ej in zip(signs, e):
                    if ej % 2:
                        sign *= sj
                new[e] = sign * c
            out.append(new)
        vectors.append(out)
    return {"k": k, "d": flag["d"], "vectors": vectors}


def generic_base(d: int, s: int, k: int, full_rank) -> dict:
    """The fixed generic flag of one shape: the first draw of its own
    stream that the oracle certifies to have full Jacobian rank."""
    rng = random.Random(GENERIC_BASE_SEED * 1000 + 100 * d + 10 * s + k)
    while True:
        flag = generic_flag(rng, d, s, k)
        if full_rank(flag):
            return flag


def to_json_flag(flag: dict, trdeg_seed) -> dict:
    """JSON form: every polynomial as a list of [coefficient, exponents]."""
    return {
        "k": flag["k"],
        "d": flag["d"],
        "trdeg_seed": trdeg_seed,
        "vectors": [[[[c, list(e)] for e, c in sorted(entry.items())] for entry in v]
                    for v in flag["vectors"]],
    }
