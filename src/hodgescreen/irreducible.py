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

Polynomials are coefficient lists in ascending degree order.  The
univariate helpers at the top (strip, add, sub, mul, divmod, a monic
xgcd and the derivative) serve every coefficient ring here: each takes
the ring as a pair (reduce, inverse), RATIONAL for Q and residues_mod(m)
for Z/m.  Over Q they are also the number fields' product and inverse
routines, and poly_derivative is the derivative that interval Newton
refines with.  Loading this module imports only the standard library;
_powmod imports the package's one repeated-squaring routine,
fields.power, when it runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

_PRIMES_TRIED = 5


# -- univariate arithmetic over a coefficient ring ---------------------------
#
# A ring is a pair (reduce, inverse): reduce brings a coefficient to its
# normal form and inverse inverts a reduced unit.  Inputs may be
# unreduced; every result is reduced and stripped of leading zeros.


RATIONAL = (Fraction, lambda c: 1 / c)


def residues_mod(m):
    """Z/m as a ring; inverse is defined on the units mod m."""
    return (lambda c: c % m, lambda c: pow(c, -1, m))


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a, b, ring):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return strip(map(ring[0], out))


def poly_sub(a, b, ring):
    return poly_add(a, [-c for c in b], ring)


def poly_mul(a, b, ring):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return strip(map(ring[0], out))


def poly_divmod(a, b, ring):
    """Quotient and remainder by b, whose leading coefficient is a unit."""
    reduce, inverse = ring
    r, b = strip(map(reduce, a)), strip(map(reduce, b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = inverse(b[-1])
    q = [reduce(0)] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = reduce(r[-1] * inv_lead)
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] = reduce(r[shift + i] - factor * bi)
        r = strip(r)
    return q, r


def poly_xgcd(a, b, ring):
    """Extended Euclid: (g, u, v) with u*a + v*b = g, the monic gcd of a
    and b (g = [] when both are zero).  Over a field every nonzero
    remainder has a unit leading coefficient."""
    reduce, inverse = ring
    r0, r1 = strip(map(reduce, a)), strip(map(reduce, b))
    u0, u1, v0, v1 = [reduce(1)], [], [], [reduce(1)]
    while r1:
        q, r = poly_divmod(r0, r1, ring)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1, ring), ring)
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1, ring), ring)
    if not r0:
        return r0, u0, v0
    scale = [inverse(r0[-1])]
    return tuple(poly_mul(scale, x, ring) for x in (r0, u0, v0))


def poly_derivative(coeffs, ring):
    return strip(map(ring[0], (k * c for k, c in enumerate(coeffs) if k)))


def _powmod(base, e, modulus, ring):
    """base^e modulo the polynomial modulus."""
    from .fields import power  # here, so that loading this module loads no other

    def mul(a, b):
        return poly_divmod(poly_mul(a, b, ring), modulus, ring)[1]
    return power(poly_divmod(base, modulus, ring)[1], e, [1], mul)


# -- factoring mod p ---------------------------------------------------------


def _distinct_degree(f, p):
    """[(d, product of the irreducible factors of degree d)] of a monic
    squarefree f mod p."""
    ring = residues_mod(p)
    out, x, h = [], [0, 1], [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, ring)
        g = poly_xgcd(poly_sub(h, x, ring), f, ring)[0]
        if len(g) > 1:
            out.append((d, g))
            f = poly_divmod(f, g, ring)[0]
            h = poly_divmod(h, f, ring)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, d, p, rng):
    """Monic irreducible factors of g mod p, all of degree d."""
    if len(g) - 1 == d:
        return [g]
    ring = residues_mod(p)
    while True:
        a = strip(rng.randrange(p) for _ in range(len(g) - 1))
        b = poly_sub(_powmod(a, (p**d - 1) // 2, g, ring), [1], ring)
        h = poly_xgcd(b, g, ring)[0]
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(poly_divmod(g, h, ring)[0], d, p, rng))


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
    ring = residues_mod(p)
    g = poly_divmod(f, h, ring)[0]
    _, s, t = poly_xgcd(g, h, ring)
    while m <= bound:
        m *= m
        ring = residues_mod(m)
        e = poly_sub(f, poly_mul(g, h, ring), ring)
        q, r = poly_divmod(poly_mul(s, e, ring), h, ring)
        g = poly_add(g, poly_add(poly_mul(t, e, ring), poly_mul(q, g, ring), ring), ring)
        h = poly_add(h, r, ring)
        b = poly_sub(poly_add(poly_mul(s, g, ring), poly_mul(t, h, ring), ring), [1], ring)
        c, d = poly_divmod(poly_mul(s, b, ring), h, ring)
        s = poly_sub(s, d, ring)
        t = poly_sub(t, poly_add(poly_mul(t, b, ring), poly_mul(c, g, ring), ring), ring)
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
        r = strip(r)
    return not r


def _has_factor(f, factors, m):
    """Is some subset product of the lifted factors, of degree <= n/2, a
    factor of f over Z?  Each split is tried once, through its small side."""
    half, lc, ring = (len(f) - 1) // 2, f[-1], residues_mod(m)
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
                product = poly_mul(product, factors[i], ring)
            if _divides(_symmetric(product, m), target):
                return True
    return False


def is_irreducible_over_q(coeffs) -> bool:
    """Is the polynomial with these rational coefficients (constant term
    first) irreducible over Q?  Constants are not."""
    rational = strip(Fraction(c) for c in coeffs)
    n = len(rational) - 1
    if n < 1:
        return False
    scale = math.lcm(*(c.denominator for c in rational))
    f = [int(c * scale) for c in rational]
    content = math.gcd(*f)
    f = [c // content for c in f]
    derivative = poly_derivative(rational, RATIONAL)
    if len(poly_xgcd(rational, derivative, RATIONAL)[0]) > 1:
        return False

    best = None
    tried = 0
    for p in _odd_primes():
        if tried == _PRIMES_TRIED:
            break
        if f[-1] % p == 0:
            continue
        ring = residues_mod(p)
        monic = poly_mul([pow(f[-1], -1, p)], f, ring)
        if len(poly_xgcd(monic, poly_derivative(monic, ring), ring)[0]) > 1:
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
