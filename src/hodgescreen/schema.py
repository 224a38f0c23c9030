"""Spec documents: strict JSON schema plus semantic cross-validation.

A document declares everything and the tool computes everything: the
group (by classical kind or an explicit basis), the cocharacter, the
Hodge number table, optionally a parametric flag point, a polarization
form, and the conjecture toggles.  Unknown keys are rejected.  Numeric
entries are exact: JSON integers, "a/b" strings, or (where expressions
are allowed) strings over the declared parameter names.  Floats are
never accepted.

Validation is two-phase.  The structural pass checks the document against
SPEC_SCHEMA, read at import from src/hodgescreen/spec_schema.json (its
key order is the order of the problems at one path), with `jsonshape`,
and reports every shape problem with its JSON path, in jsonschema's words
and order; jsonschema is only the tests' oracle.  A shape-valid document
then has every float where the schema asks for an integer reported too
(JSON Schema counts 2.0 as an integer; this tool does not).  Sizes are
capped: group.n at 16, minpoly degree at 16, literal exponents, and their
products through nested powers, at MAX_EXPONENT, and each step of a flag
entry at MAX_STEP_PRODUCTS coefficient products.  The semantic pass then
builds the actual objects and cross-checks the sections against each
other (lambda length vs ambient dimension, lambda multiset vs the Hodge
table, flag step dimensions vs the filtration profile).  All collected
problems surface in one SpecValidationError.  Mathematical failures that
only a computation can detect (a basis not closed under bracket) stay
MathDomainError and are not converted.

The reader routes and the constructors check: each section goes as
written to the constructor that owns its checks, and _built files that
constructor's ValueError or TypeError under the section's label.  Besides
flag entries (parse_entry), only the embedding endpoints are read here, as
Interval is a plain container.
"""

from __future__ import annotations

import ast
import json
import keyword
import os
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import SpecValidationError
from .fields import NumberField, QQ, parse_rational
from .flags import FlagPoint
from .grading import HodgeCocharacter
from .hodge import HodgeNumbers, PolarizationForm, check_profile
from .jsonshape import integral_floats, shape_problems
from .lie import MatLieAlgebra, make_classical
from .ratfunc import FunctionField
from .verdicts import ConjectureSet

# Key order is behaviour: the problems at one JSON path come in keyword order.
with open(os.path.join(os.path.dirname(__file__), "spec_schema.json"),
          encoding="utf-8") as _handle:
    SPEC_SCHEMA = json.load(_handle)


# -- exact expression entries --------------------------------------------------

MAX_EXPONENT = 64  # larger literal powers are spec errors, raised before evaluation
# Coefficient products one step of an entry may take, bounded before it runs.
# The largest step of a shipped spec or a Tier-1 entry takes 29; the step
# (t1+t2+t3+t4+1)**16, at 250,179, took 1.1 s (2 cores, Python 3.11.7).
MAX_STEP_PRODUCTS = 300_000
_TOO_DEEP = "entry nests too deeply to evaluate"

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def _power_products(m: int, e: int) -> int:
    """Coefficient products of fields.power for the e-th power of an
    m-term polynomial, at most: x**j for j > 0 has at most C(j + m - 1, j)
    terms, and power squares x**(2**i) for each bit i of e below the top
    one and multiplies by x**(2**i) at each set bit i above the lowest one."""
    def terms(j):
        return comb(j + m - 1, j)
    return (sum(terms(2**i) ** 2 for i in range(e.bit_length() - 1))
            + sum(terms(e % 2**i) * terms(2**i) for i in range(e.bit_length())
                  if e >> i & 1 and e % 2**i))


def parse_entry(value, env: dict, field):
    """One exact scalar from an int or a small arithmetic expression.

    Grammar: integer literals, the names in env, + - * /, integer powers
    written ** (exponent at most MAX_EXPONENT, and so is the product of
    the exponents of nested powers: ((t1 + 1)**8)**9 is rejected before
    either power is evaluated), parentheses, unary signs.
    Nothing else; in particular no floats, no calls, and no '^' (bitwise
    xor precedence would turn i^2 + 1 into i**3 silently).
    Before each step runs, its coefficient products are bounded from its
    operands' term counts: m * n for + - * / on operands of m and n terms
    (numerator plus denominator), _power_products for a power.  A step
    over MAX_STEP_PRODUCTS is a ValueError.  The bound counts the
    cross-multiplied products only: not the gcds that reduce a step's
    result (of the denominators and then of the numerator for a sum, of
    the whole fraction for a product or a quotient), nor the exact
    divisions by them.
    """
    if isinstance(value, bool):
        raise ValueError("boolean is not a scalar entry")
    if isinstance(value, int):
        return field.coerce(Fraction(value))
    if not isinstance(value, str):
        raise ValueError(f"entry must be an integer or a string, got {value!r}")
    try:
        tree = ast.parse(value.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse entry {value!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        # The parser reports deep nesting (long operator chains, thousands
        # of unary signs) as one of these.
        raise ValueError(_TOO_DEEP) from None

    def bounded(products):
        if products > MAX_STEP_PRODUCTS:
            raise ValueError(
                f"entry {value!r} takes up to {products:,} coefficient products in "
                f"one step, above the cap of {MAX_STEP_PRODUCTS:,}"
            )

    def walk(node, power=1):
        # power: the product of the literal exponents enclosing node
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise ValueError(
                    f"only integer literals are exact; rewrite {node.value!r} "
                    f"as a fraction a/b"
                )
            return field.coerce(Fraction(node.value))
        if isinstance(node, ast.Name):
            if node.id not in env:
                allowed = ", ".join(sorted(env)) or "none"
                raise ValueError(f"unknown name {node.id!r} (allowed: {allowed})")
            return env[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = walk(node.operand, power)
            return inner if isinstance(node.op, ast.UAdd) else -inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.BitXor):
                raise ValueError(
                    "'^' is rejected (its precedence is surprising); write ** for powers"
                )
            if isinstance(node.op, ast.Pow):
                if not (isinstance(node.right, ast.Constant)
                        and isinstance(node.right.value, int)
                        and not isinstance(node.right.value, bool)
                        and node.right.value >= 0):
                    raise ValueError(
                        "exponents must be literal non-negative integers"
                    )
                exponent = node.right.value
                if exponent > MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {exponent} is above the cap of {MAX_EXPONENT}"
                    )
                if power * exponent > MAX_EXPONENT:
                    raise ValueError(
                        f"nested exponents multiply to {power * exponent}, "
                        f"above the cap of {MAX_EXPONENT}"
                    )
                base = walk(node.left, power * exponent)
                bounded(sum(_power_products(p.term_count(), exponent)
                            for p in (base.num, base.den)))
                return base ** exponent
            handler = _BINOPS.get(type(node.op))
            if handler is not None:
                operands = walk(node.left, power), walk(node.right, power)
                m, n = (x.num.term_count() + x.den.term_count() for x in operands)
                bounded(m * n)
                return handler(*operands)
        raise ValueError(f"unsupported syntax in entry {value!r}")

    try:
        return walk(tree)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in entry {value!r}") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


# -- semantic document ----------------------------------------------------------

class SpecDocument(NamedTuple):
    algebra: MatLieAlgebra
    cocharacter: HodgeCocharacter
    numbers: HodgeNumbers
    conjectures: ConjectureSet
    flag: FlagPoint | None = None
    trdeg_override: int | None = None
    polarization: PolarizationForm | None = None
    gand_algebra: MatLieAlgebra | None = None

    @property
    def flag_base_field(self):
        """The number field of the flag's coordinates, or None without a flag."""
        return self.flag.field.base if self.flag is not None else None


def _schema_problems(raw) -> list:
    return shape_problems(raw, SPEC_SCHEMA)


def _built(label: str, problems: list, build, *args, **kwargs):
    """build(*args, **kwargs), or None after filing its ValueError or TypeError under label."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        problems.append(f"{label}: {exc}")
        return None


def _build_algebra(section: dict, label: str, problems: list) -> MatLieAlgebra | None:
    kind = section["kind"]
    n = section["n"]
    if kind == "custom":
        if "basis" not in section:
            problems.append(f"{label}: kind 'custom' requires an explicit basis")
            return None
        if "form" in section:
            problems.append(f"{label}: 'form' has no meaning for a custom basis")
            return None
        return _built(label, problems, MatLieAlgebra, n, section["basis"], name="custom")
    if "basis" in section:
        problems.append(f"{label}: 'basis' is only for kind 'custom'")
        return None
    return _built(label, problems, make_classical, kind, n, form=section.get("form"))


def _number_field(section: dict) -> NumberField:
    from .intervals import Interval, Rectangle

    re, im = (Interval(parse_rational(lo), parse_rational(hi))
              for lo, hi in section["embedding"])
    return NumberField(section["minpoly"], Rectangle(re, im), name=section["name"],
                       conjugate_image=section.get("conjugate_image"))


def _hodge_numbers(section: dict) -> HodgeNumbers:
    dims = {(p, q): h for p, q, h in section["dims"]}
    if len(dims) != len(section["dims"]):
        raise ValueError("duplicate (p, q) rows in dims")
    return HodgeNumbers(section["weight"], dims)


def _build_flag(section: dict, numbers: HodgeNumbers | None, problems: list):
    """Returns the FlagPoint, or None after recording problems."""
    params = list(section["params"])
    for name in params:
        if not name.isidentifier() or keyword.iskeyword(name):
            problems.append(f"flag_point/params: {name!r} is not a usable name")
            return None
    if len(set(params)) != len(params):
        problems.append("flag_point/params: duplicate parameter names")
        return None

    base = QQ
    if "field" in section:
        base = _built("flag_point/field", problems, _number_field, section["field"])
        if base is None:
            return None
        if base.name in params:
            problems.append(
                f"flag_point: parameter {base.name!r} shadows the field generator"
            )
            return None

    func_field = FunctionField(base, params)
    env = {name: func_field.gen(name) for name in params}
    if base is not QQ:
        env[base.name] = func_field.coerce(base.gen())

    known = len(problems)
    steps = []
    for idx, step in enumerate(section["steps"]):
        vectors = tuple(
            tuple(_built(f"flag_point/steps/{idx}/basis/{jdx}/{kdx}", problems,
                         parse_entry, entry, env, func_field)
                  for kdx, entry in enumerate(vector))
            for jdx, vector in enumerate(step["basis"]))
        steps.append((step["p"], vectors))
    if len(problems) > known:
        return None

    if numbers is not None:
        ambient = _built("flag_point/steps", problems, check_profile, numbers, steps)
        if ambient is None:
            return None
    else:
        ambient = max(len(v) for _p, vectors in steps for v in vectors)

    return _built("flag_point", problems, FlagPoint, func_field, ambient, tuple(steps))


def parse_document(raw: dict) -> SpecDocument:
    problems = _schema_problems(raw) or integral_floats(raw, SPEC_SCHEMA)
    if problems:
        raise SpecValidationError(problems)

    algebra = _build_algebra(raw["group"], "group", problems)

    numbers = _built("hodge_numbers", problems, _hodge_numbers, raw["hodge_numbers"])

    cochar = None
    weights = tuple(raw["cocharacter"]["lambda"])
    if algebra is not None and len(weights) != algebra.ambient_dim:
        problems.append(
            f"cocharacter: lambda has length {len(weights)} but the group acts "
            f"on dimension {algebra.ambient_dim}"
        )
    elif numbers is not None:
        if numbers.total_dim() != len(weights):
            problems.append(
                f"cocharacter: lambda has length {len(weights)} but the Hodge "
                f"numbers sum to {numbers.total_dim()}"
            )
        else:
            cochar = _built("cocharacter", problems, HodgeCocharacter, weights,
                            declared_numbers=numbers)

    if (algebra is not None and numbers is not None
            and algebra.ambient_dim != numbers.total_dim()):
        problems.append(
            f"hodge_numbers: table sums to {numbers.total_dim()} but the group "
            f"acts on dimension {algebra.ambient_dim}"
        )

    flag = None
    if "flag_point" in raw:
        if "trdeg_override" in raw:
            problems.append(
                "flag_point and trdeg_override are mutually exclusive; "
                "declare one source of transcendence data"
            )
        else:
            flag = _build_flag(raw["flag_point"], numbers, problems)

    polarization = None
    if "polarization" in raw and numbers is not None:
        matrix = raw["polarization"]["matrix"]
        if len(matrix) != numbers.total_dim():
            problems.append(
                f"polarization: matrix is {len(matrix)} x {len(matrix[0])} but "
                f"the structure has dimension {numbers.total_dim()}"
            )
        else:
            polarization = _built("polarization", problems, PolarizationForm,
                                  numbers.weight, matrix)

    gand = None
    if "gand_group" in raw:
        gand = _build_algebra(raw["gand_group"], "gand_group", problems)
        if gand is not None and algebra is not None:
            if gand.ambient_dim != algebra.ambient_dim:
                problems.append(
                    f"gand_group: acts on dimension {gand.ambient_dim}, "
                    f"the group on {algebra.ambient_dim}"
                )
            elif not all(gand.contains(sp) for sp in algebra._sparse):
                problems.append(
                    "gand_group: does not contain the declared group algebra"
                )

    if problems:
        raise SpecValidationError(problems)

    conj = raw["conjectures"]
    return SpecDocument(
        algebra=algebra,
        cocharacter=cochar,
        numbers=numbers,
        conjectures=ConjectureSet(
            motivated=conj["motivated"], gpc=conj["gpc"], ggpc=conj["ggpc"],
        ),
        flag=flag,
        trdeg_override=raw.get("trdeg_override"),
        polarization=polarization,
        gand_algebra=gand,
    )


def load_document(path) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise SpecValidationError(f"spec file not found: {path}") from None
    except OSError as exc:
        raise SpecValidationError(f"cannot read spec file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SpecValidationError(
            f"{path} is not UTF-8 text: byte {exc.start}: {exc.reason}"
        ) from None
    except json.JSONDecodeError as exc:
        raise SpecValidationError(
            f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise SpecValidationError(f"{path} nests JSON too deeply to parse") from None
    if not isinstance(raw, dict):
        raise SpecValidationError(f"{path}: top level must be a JSON object")
    return parse_document(raw)
