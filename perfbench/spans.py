"""Spans around the package's layer boundaries, installed from outside.

install() rebinds each traced function where its caller looks it up
(for example ratfunc.poly_gcd, flags.rank, grading.rank and
schema.make_classical), so src/ is never edited.  A span records its
name, its parent span and its self time (duration minus the time of its
direct child spans); calls and the parent -> child edges are counted at
the same boundaries.  Everything stays in memory until summary().
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, child seconds, Counter of direct children]
        self.active = Counter()
        self.calls = Counter()
        self.total = defaultdict(float)  # outermost calls only, so recursion counts once
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counters = Counter()
        self.maxima = {}

    def wrap(self, fn, name, on_exit=None):
        """fn inside a span; name is a string or a function of the call's
        positional arguments; on_exit(tracer, frame, args, kwargs, result)
        runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [label, 0.0, Counter()]
            tracer.stack.append(frame)
            tracer.active[label] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer.stack.pop()
                tracer.active[label] -= 1
                tracer.calls[label] += 1
                tracer.self_time[label] += duration - frame[1]
                if not tracer.active[label]:
                    tracer.total[label] += duration
                if parent is not None:
                    parent[1] += duration
                    parent[2][label] += 1
                tracer.edges[(parent[0] if parent else "", label)] += 1
            if on_exit is not None:
                on_exit(tracer, frame, args, kwargs, result)
            return result

        return wrapper

    def observe_max(self, key: str, value: int):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def merge(summaries) -> dict:
    """Sum several summaries (one per CLI child); maxima take the max."""
    out = {"calls": Counter(), "total": Counter(), "self": Counter(),
           "edges": Counter(), "counters": Counter(), "maxima": {}}
    for s in summaries:
        for key in ("calls", "total", "self", "counters"):
            out[key].update(s[key])
        for p, c, n in s["edges"]:
            out["edges"][(p, c)] += n
        for key, value in s["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
    return out


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return max((_bits(c) for c in getattr(x, "coords", ())), default=0)


def _observe_ratfuncs(tracer, prefix: str, entries):
    terms = bits = 0
    for f in entries:
        for p in (f.num, f.den):
            terms = max(terms, len(p.terms))
            bits = max([bits] + [_bits(c) for c in p.terms.values()])
    tracer.observe_max(prefix + "_max_terms", terms)
    tracer.observe_max(prefix + "_max_coeff_bits", bits)


def _after_trdeg(tracer, frame, args, kwargs, result):
    seed = kwargs.get("seed", args[1] if len(args) > 1 else None)
    if seed is not None:
        tracer.counters["trdeg.seeded"] += 1
        if not frame[2]["linalg.rank_qt"]:
            tracer.counters["trdeg.fast"] += 1
    _observe_ratfuncs(tracer, "chart", result.chart_coordinates)


def _after_jacobian(tracer, frame, args, kwargs, result):
    _observe_ratfuncs(tracer, "jacobian", [x for row in result.rows for x in row])


_RANK_NAMES = {"RationalField": "linalg.rank_q", "FunctionField": "linalg.rank_qt"}


def _rank_label(args) -> str:
    """linalg.rank split by the field of its argument: Q, Q(t), or Q(theta)."""
    return _RANK_NAMES.get(type(args[0].field).__name__, "linalg.rank_nf")


def install(tracer: Tracer):
    from hodgescreen import (cli, fields, flags, grading, hodge, lie, linalg,
                             polys, ratfunc, rendering, schema)

    def patch(owner, attr, name, on_exit=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, on_exit))

    for attr in ("poly_gcd", "divexact", "pseudo_rem"):
        patch(polys, attr, f"polys.{attr}")
    # ratfunc's gcd span encloses the (already wrapped) polys.poly_gcd span.
    ratfunc.poly_gcd = tracer.wrap(polys.poly_gcd, "ratfunc.gcd")
    patch(ratfunc, "divexact", "polys.divexact")
    patch(ratfunc.RatFunc, "derivative", "ratfunc.RatFunc.derivative")

    for owner in (linalg, grading, flags, hodge):
        patch(owner, "rank", _rank_label)
    for owner in (linalg, lie):
        patch(owner, "kernel_basis", "linalg.kernel_basis")
    for owner in (linalg, flags):
        patch(owner, "inverse", "linalg.inverse")

    for owner in (lie, schema):
        patch(owner, "make_classical", "lie.make_classical")
    patch(lie.MatLieAlgebra, "__init__", "lie.MatLieAlgebra.init")
    patch(grading, "adjoint_of_diagonal", "lie.adjoint_of_diagonal")
    patch(grading, "grade", "grading.grade")

    patch(flags.FlagPoint, "__init__", "flags.FlagPoint.init")
    patch(flags, "normalize_chart", "flags.normalize_chart")
    patch(flags, "jacobian_matrix", "flags.jacobian_matrix", _after_jacobian)
    for owner in (flags, cli):
        patch(owner, "trdeg", "flags.trdeg", _after_trdeg)

    patch(fields.NumberField, "__init__", "fields.NumberField.init")
    patch(fields, "certify_isolating", "intervals.certify_isolating")
    patch(cli, "load_document", "schema.load_document")
    patch(schema, "parse_document", "schema.parse_document")
    patch(schema, "_schema_problems", "schema.jsonschema_validate")

    patch(cli, "polarization_check", "hodge.polarization_check")
    for attr in ("dual", "tensor", "wedge", "sym", "tate_twist"):
        patch(cli, attr, "hodge.algebra")
    patch(cli, "evaluate", "verdicts.evaluate")
    for attr in ("to_json", "render_text"):
        patch(rendering, attr, "rendering.emit")
