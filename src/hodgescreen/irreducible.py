"""Irreducibility of a polynomial over Q by the modular method.

The one question a number field asks of its minimal polynomial is
answered here exactly, with the standard Zassenhaus route (Zassenhaus,
"On Hensel factorization I", J. Number Theory 1969; von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 15):

1. clear denominators to a primitive f in Z[x] of degree n;
2. a non-constant gcd(f, f') over Q means f has a repeated factor, so f
   is reducible.  This comes first: no prime makes a non-squarefree f
   squarefree mod p, so the prime search below needs it to end;
3. over the first few odd primes p that do not divide lc(f) and keep f
   squarefree mod p, count the irreducible factors mod p by
   distinct-degree factorization.  One factor at any prime proves f
   irreducible; otherwise the prime with the fewest factors r is kept;
4. split those factors with Cantor-Zassenhaus, driven by a local
   `random.Random(0)` so that runs are deterministic;
5. Hensel-lift each monic factor to p^k > 2B with B = 2^n ||f||_2.  For
   a factor g of f in Z[x], lc(f) * g / lc(g) is in Z[x] and its
   coefficients are at most 2^deg(g) M(f) <= B in absolute value (M the
   Mahler measure; Landau-Mignotte), so mod p^k it is known exactly;
6. f is reducible exactly when some product lc(f) * prod(g_i, i in S),
   reduced to the symmetric range mod p^k, divides lc(f) * f over Z
   for a subset S of total degree between 1 and n/2.

Recombination bound: each split of the r modular factors into two
non-empty parts is tested once, through its part of degree <= n/2, so
step 6 makes at most 2^(r-1) - 1 trial divisions.  Spec documents cap
the minimal polynomial at degree 16, so r <= 16 and at most 32767
divisions, each preceded by a constant-term test.

Polynomials are coefficient lists in ascending degree order.  The exact
Q[x] helpers at the top are also the number fields' product and
inverse routines.
This module imports only from the standard library.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

_PRIMES_TRIED = 5


# -- Q[x] ------------------------------------------------------------------


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(a, b):
    """Quotient and remainder in Q[x]; coefficient lists ascending."""
    a = _strip(a)
    b = _strip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    inv_lead = 1 / b[-1]
    while r and len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] * inv_lead
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] -= factor * bi
        r = _strip(r)
    return q, r


def _poly_xgcd(a, b):
    """Extended Euclid in Q[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = _strip(a), _strip(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
    return r0, u0, v0


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _strip(out)


def _poly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return _strip(out)


# -- (Z/m)[x] --------------------------------------------------------------


def _reduce(a, m):
    return _strip(c % m for c in a)


def _add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return _reduce(out, m)


def _sub(a, b, m):
    return _add(a, [-c for c in b], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _reduce(out, m)


def _divmod_monic(a, b, m):
    """Quotient and remainder mod m by a monic b."""
    r = _reduce(a, m)
    q = [0] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1]
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] -= factor * bi
        r = _reduce(r, m)
    return _strip(q), r


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _xgcd_p(a, b, p):
    """Extended Euclid in F_p[x]: (g, u, v) with u*a + v*b = g; g is monic
    when b is nonzero."""
    r0, r1 = _reduce(a, p), _reduce(b, p)
    u0, u1, v0, v1 = [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, u1, v1 = ([c * inv % p for c in x] for x in (r1, u1, v1))
        q, r = _divmod_monic(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _sub(u0, _mul(q, u1, p), p)
        v0, v1 = v1, _sub(v0, _mul(q, v1, p), p)
    return r0, u0, v0


def _powmod(base, e, modulus, p):
    """base^e mod (modulus, p), for a monic modulus."""
    result, base = [1], _divmod_monic(base, modulus, p)[1]
    while e:
        if e & 1:
            result = _divmod_monic(_mul(result, base, p), modulus, p)[1]
        base = _divmod_monic(_mul(base, base, p), modulus, p)[1]
        e >>= 1
    return result


# -- factoring mod p ---------------------------------------------------------


def _distinct_degree(f, p):
    """[(d, product of the irreducible factors of degree d)] of a monic
    squarefree f mod p."""
    out, x, h = [], [0, 1], [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _xgcd_p(_sub(h, x, p), f, p)[0]
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_monic(f, g, p)[0]
            h = _divmod_monic(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, d, p, rng):
    """Monic irreducible factors of g mod p, all of degree d."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _strip(rng.randrange(p) for _ in range(len(g) - 1))
        b = _sub(_powmod(a, (p**d - 1) // 2, g, p), [1], p)
        h = _xgcd_p(b, g, p)[0]
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod_monic(g, h, p)[0], d, p, rng))


def _odd_primes():
    found = []
    n = 3
    while True:
        if all(n % q for q in found if q * q <= n):
            found.append(n)
            yield n
        n += 2


# -- lifting and recombination -------------------------------------------------


def _hensel_lift(f, h, p, bound):
    """Lift the monic factor h of f mod p to a modulus m > bound
    (quadratic Hensel steps, Modern Computer Algebra Algorithm 15.10)."""
    m = p
    g = _divmod_monic(f, h, p)[0]
    _, s, t = _xgcd_p(g, h, p)
    while m <= bound:
        m *= m
        e = _sub(f, _mul(g, h, m), m)
        q, r = _divmod_monic(_mul(s, e, m), h, m)
        g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
        h = _add(h, r, m)
        b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
        c, d = _divmod_monic(_mul(s, b, m), h, m)
        s = _sub(s, d, m)
        t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return h, m


def _symmetric(a, m):
    return [c - m if 2 * c > m else c for c in a]


def _divides(a, b):
    """Does a divide b in Z[x]?"""
    r = list(b)
    while len(r) >= len(a):
        factor, rem = divmod(r[-1], a[-1])
        if rem:
            return False
        shift = len(r) - len(a)
        for i, ai in enumerate(a):
            r[shift + i] -= factor * ai
        r = _strip(r)
    return not r


def _has_factor(f, factors, m):
    """Is some subset product of the lifted factors, of degree <= n/2, a
    factor of f over Z?  Each split is tried once, through its small side."""
    half, lc = (len(f) - 1) // 2, f[-1]
    target = [lc * c for c in f]
    everything = range(len(factors))
    for size in range(1, len(factors)):
        for subset in combinations(everything[:-1], size):
            if sum(len(factors[i]) - 1 for i in subset) > half:
                subset = sorted(set(everything) - set(subset))
            constant = lc
            for i in subset:
                constant = constant * factors[i][0] % m
            constant = _symmetric([constant], m)[0]
            if constant and target[0] % constant:
                continue
            product = [lc]
            for i in subset:
                product = _mul(product, factors[i], m)
            if _divides(_symmetric(product, m), target):
                return True
    return False


def is_irreducible_over_q(coeffs) -> bool:
    """Is the polynomial with these rational coefficients (constant term
    first) irreducible over Q?  Constants are not."""
    rational = _strip(Fraction(c) for c in coeffs)
    n = len(rational) - 1
    if n < 1:
        return False
    scale = math.lcm(*(c.denominator for c in rational))
    f = [int(c * scale) for c in rational]
    content = math.gcd(*f)
    f = [c // content for c in f]
    derivative = [k * c for k, c in enumerate(rational)][1:]
    if len(_poly_xgcd(rational, derivative)[0]) > 1:
        return False

    best = None
    tried = 0
    for p in _odd_primes():
        if tried == _PRIMES_TRIED:
            break
        if f[-1] % p == 0:
            continue
        monic = _monic(_reduce(f, p), p)
        derivative_p = _reduce([k * c for k, c in enumerate(monic)][1:], p)
        if len(_xgcd_p(monic, derivative_p, p)[0]) > 1:
            continue
        tried += 1
        by_degree = _distinct_degree(monic, p)
        count = sum((len(g) - 1) // d for d, g in by_degree)
        if count == 1:
            return True
        if best is None or count < best[0]:
            best = (count, p, by_degree)

    _, p, by_degree = best
    rng = random.Random(0)
    modular = [h for d, g in by_degree for h in _equal_degree(g, d, p, rng)]
    bound = 2 * 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    lifted = []
    for h in modular:
        h, m = _hensel_lift(f, h, p, bound)
        lifted.append(h)
    return not _has_factor(f, lifted, m)
