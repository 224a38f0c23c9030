"""Sparse multivariate polynomials over an exact coefficient field.

Terms live in a dict keyed by exponent tuples; coefficients are elements
of a scalar field from `fields` (Q or a number field).  This is the
engine under the rational function field Q(theta)(t_1, ..., t_k): the
top floor of the fixed scalar tower.

gcds use the primitive polynomial remainder sequence: pick a main
variable, split off the content (a gcd in one variable fewer, so the
recursion terminates), and run pseudo-division on the primitive parts,
re-primitivizing every remainder and scaling it to lex-leading
coefficient one.  Content removal divides only by a monic polynomial,
so without that scaling the rational coefficients grow at every step.
Over a coefficient *field* the result is canonical once we scale the
lex leading coefficient to one, and that normalization is what makes
reduced rational functions a canonical form.
"""

from __future__ import annotations

from typing import Iterable


class PolyRing:
    """Polynomial ring field[names] with a fixed variable order.

    The ring builds its zero and one once, and zero(), one() and every
    constant equal to them hand out those same objects, so the
    denominator 1 of every polynomial rational function is one shared
    Poly.  Sharing is safe because a Poly is never mutated: its terms
    dict is filled before Poly() is called and only read after.
    """

    def __init__(self, field, names: Iterable[str]):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.names)
        self._unit = field.one()
        self._zero = Poly(self, {})
        self._one = Poly(self, {(0,) * self.nvars: self._unit})

    def zero(self) -> "Poly":
        return self._zero

    def one(self) -> "Poly":
        return self._one

    def const(self, value) -> "Poly":
        c = self.field.coerce(value)
        if self.field.is_zero(c):
            return self._zero
        if c == self._unit:
            return self._one
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, name: str) -> "Poly":
        idx = self.names.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return Poly(self, {exp: self.field.one()})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- constructors and coercion ------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise TypeError("polynomials from different rings")
            return other
        return self.ring.const(other)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def degree(self, var: int) -> int:
        """Degree in variable number var; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(exp[var] for exp in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def lex_leading(self):
        """(exponent, coefficient) of the lex-largest term."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp)
            s = c if acc is None else acc + c
            if field.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        field = self.ring.field
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                acc = out.get(exp)
                s = prod if acc is None else acc + prod
                if field.is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = self.ring.field.coerce(c)
        if self.ring.field.is_zero(c):
            return self.ring.zero()
        return Poly(self.ring, {exp: v * c for exp, v in self.terms.items()})

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # == coerces scalars to constants, so a constant hashes as its scalar
        if self.is_constant():
            return hash(next(iter(self.terms.values()), 0))
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and evaluation -----------------------------------------------

    def derivative(self, var: int) -> "Poly":
        field = self.ring.field
        out = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            nexp = tuple(x - 1 if i == var else x for i, x in enumerate(exp))
            nc = c * field.coerce(e)
            acc = out.get(nexp)
            s = nc if acc is None else acc + nc
            if field.is_zero(s):
                out.pop(nexp, None)
            else:
                out[nexp] = s
        return Poly(self.ring, out)

    def eval(self, values):
        """Full evaluation; values is a sequence of field elements, one per
        variable.  Returns a field element."""
        field = self.ring.field
        values = [field.coerce(v) for v in values]
        total = field.zero()
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def coeffs_in(self, var: int) -> dict:
        """Write self as a univariate polynomial in variable var;
        returns {degree: coefficient Poly free of var}."""
        out: dict = {}
        for exp, c in self.terms.items():
            e = exp[var]
            rest = tuple(0 if i == var else x for i, x in enumerate(exp))
            bucket = out.setdefault(e, {})
            bucket[rest] = bucket.get(rest, self.ring.field.zero()) + c
        return {
            e: Poly(self.ring, {k: v for k, v in bucket.items() if not self.ring.field.is_zero(v)})
            for e, bucket in out.items()
        }

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            monomial = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e > 0
            )
            cs = str(c)
            if monomial:
                if cs == "1":
                    parts.append(monomial)
                elif cs == "-1":
                    parts.append(f"-{monomial}")
                elif "+" in cs or (cs.count("-") and not cs.startswith("-")) or " " in cs:
                    parts.append(f"({cs})*{monomial}")
                else:
                    parts.append(f"{cs}*{monomial}")
            else:
                parts.append(cs if ("+" not in cs and " " not in cs) else f"({cs})")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# -- division and gcd ----------------------------------------------------------


def divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b in the polynomial ring; ValueError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("exact division by the zero polynomial")
    ring = a.ring
    field = ring.field
    eb, cb = b.lex_leading()
    rest = [(e, c) for e, c in b.terms.items() if e != eb]
    q = {}
    r = dict(a.terms)  # the remainder, updated in place
    while r:
        er = max(r)
        exp = tuple(x - y for x, y in zip(er, eb))
        if any(e < 0 for e in exp):
            raise ValueError("division is not exact")
        c = r.pop(er) / cb
        q[exp] = c
        for e, cv in rest:
            key = tuple(x + y for x, y in zip(exp, e))
            acc = r.get(key)
            s = -(c * cv) if acc is None else acc - c * cv
            if field.is_zero(s):
                r.pop(key, None)
            else:
                r[key] = s
    return Poly(ring, q)


def pseudo_rem(a: Poly, b: Poly, var: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable var."""
    db = b.degree(var)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lb = b.coeffs_in(var)[db]
    r = a
    while not r.is_zero() and r.degree(var) >= db:
        dr = r.degree(var)
        lr = r.coeffs_in(var)[dr]
        shift_exp = tuple(dr - db if i == var else 0 for i in range(a.ring.nvars))
        shift = Poly(a.ring, {shift_exp: a.ring.field.one()})
        r = lb * r - lr * shift * b
    return r


def _normalize(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, c = p.lex_leading()
    return p.scale(p.ring.field.one() / c)


def _content_primitive(p: Poly, var: int):
    """Split off the content with respect to var: p = content * primitive,
    content free of var."""
    coeffs = list(p.coeffs_in(var).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)
        if content.is_constant():
            break
    content = _normalize(content)
    return content, divexact(p, content)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd in field[x_1..x_n], normalized to lex-leading coefficient one."""
    if a.is_zero():
        return _normalize(b)
    if b.is_zero():
        return _normalize(a)
    if a.is_constant() or b.is_constant():
        return a.ring.one()
    var = next(
        i for i in range(a.ring.nvars) if a.degree(i) > 0 or b.degree(i) > 0
    )
    ca, pa = _content_primitive(a, var)
    cb, pb = _content_primitive(b, var)
    c = poly_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree(var) >= pb.degree(var) else (pb, pa)
    while not g.is_zero():
        r = pseudo_rem(f, g, var)
        if not r.is_zero():
            _, r = _content_primitive(r, var)
            r = _normalize(r)
        f, g = g, r
    _, f = _content_primitive(f, var)
    return _normalize(c * f)
