"""Command-line frontend.

Subcommands: invariants, screen, trdeg, hodge, lie-check.  Input is a
strict-JSON spec document (see src/hodgescreen/spec_schema.json);
reports go to standard output, diagnostics to standard error.  Exit
codes partition the outcomes: 0 nothing screened out, 10 screened out,
2 input invalid, 3 input valid but mathematically malformed.  Each
subcommand returns one payload dict, its exit code inside; main writes
it once, as text or as JSON.  Repeated runs on the same input are
byte-identical, in text and in JSON mode alike.
"""

from __future__ import annotations

import argparse
import sys

from . import rendering as rp
from .errors import MathDomainError, SpecValidationError
from .fields import parse_integer
from .flags import TrdegResult, trdeg
from .grading import report as grade_report
from .hodge import (
    RealizedHodgeStructure,
    dual,
    polarization_check,
    sym,
    tensor,
    tate_twist,
    wedge,
)
from .schema import SpecDocument, load_document
from .verdicts import evaluate, exit_code_for

_INDEPENDENCE_NOTE = (
    "the declared parameters are assumed algebraically independent over Q; "
    "the transcendence degree refers to this parametric model"
)
_ASYMMETRY_NOTE = (
    "level dimensions are not symmetric under k -> -k, which cannot happen "
    "for a reductive algebra; check the declared basis"
)


def _common_payload(command: str, spec_path: str, doc: SpecDocument) -> dict:
    return {
        "command": command,
        "spec": spec_path,
        "group": rp.group_json(doc.algebra),
        "cocharacter": list(doc.cocharacter.weights),
        "hodge_numbers": rp.hodge_numbers_json(doc.numbers),
    }


def _gradings(doc: SpecDocument):
    gand = doc.gand_algebra
    return (grade_report(doc.algebra, doc.cocharacter),
            None if gand is None else grade_report(gand, doc.cocharacter))


def _invariants_payload(command: str, spec_path: str, doc: SpecDocument):
    """(payload with the invariant sections and the asymmetry warning,
    main report, gand report)."""
    main, gand = _gradings(doc)
    payload = {
        **_common_payload(command, spec_path, doc),
        "invariants": main._asdict(),
        "gand_invariants": gand._asdict() if gand else None,
        "warnings": [] if main.symmetric_grading else [_ASYMMETRY_NOTE],
    }
    return payload, main, gand


def _trdeg_section(doc: SpecDocument, seed):
    """(json section, warnings) from flag or override."""
    if doc.flag is not None:
        result = trdeg(doc.flag, seed=seed)
        warnings = [_INDEPENDENCE_NOTE] if result.params else []
        return rp.trdeg_json(result, seed), warnings
    if doc.trdeg_override is not None:
        result = TrdegResult(doc.trdeg_override, (), ())
        return rp.trdeg_json(result, None, "override"), []
    raise SpecValidationError(
        "this command needs transcendence data: declare flag_point or trdeg_override"
    )


def _polarization_section(doc: SpecDocument, warnings: list):
    if doc.polarization is None:
        return None
    if doc.flag is None:
        warnings.append(
            "polarization check skipped: it needs explicit flag_point coordinates"
        )
        return None
    if doc.flag.params:
        warnings.append(
            "polarization check skipped: the flag has free parameters, and "
            "positivity is decided only for fully specified coordinates"
        )
        return None
    if not doc.flag_base_field.has_conjugation:
        warnings.append(
            "polarization check skipped: the coordinate field declares no "
            "complex conjugation (set conjugate_image)"
        )
        return None
    structure = RealizedHodgeStructure(doc.flag, doc.numbers)
    return polarization_check(structure, doc.polarization)._asdict()


def cmd_invariants(args) -> dict:
    payload = _invariants_payload("invariants", args.spec, load_document(args.spec))[0]
    return {**payload, "exit_code": 0}


def cmd_screen(args) -> dict:
    doc = load_document(args.spec)
    payload, main, gand = _invariants_payload("screen", args.spec, doc)
    trdeg_section, warnings = _trdeg_section(doc, args.seed)
    warnings += payload["warnings"]
    verdicts, chains = evaluate(trdeg_section["value"], main, doc.conjectures,
                                gand_report=gand)
    return {
        **payload,
        "trdeg": trdeg_section,
        "conjectures": doc.conjectures._asdict(),
        # a ChainIdentity exists only when it holds
        "chain_identity": [{**c._asdict(), "holds": True} for c in chains],
        "verdicts": [v._asdict() for v in verdicts],
        "polarization": _polarization_section(doc, warnings),
        "warnings": warnings,
        "exit_code": exit_code_for(verdicts),
    }


def cmd_trdeg(args) -> dict:
    doc = load_document(args.spec)
    if doc.flag is None:
        raise SpecValidationError("trdeg needs a flag_point section with coordinates")
    section, warnings = _trdeg_section(doc, args.seed)
    return {**_common_payload("trdeg", args.spec, doc), "trdeg": section,
            "warnings": warnings, "exit_code": 0}


def cmd_lie_check(args) -> dict:
    doc = load_document(args.spec)
    _gradings(doc)
    # load_document and grade_report raise before this line if any check fails
    return {
        **_common_payload("lie-check", args.spec, doc),
        "checks": dict.fromkeys(
            ("basis_independent", "bracket_closed", "cocharacter_normalizes"), True),
        "gand_group": (
            rp.group_json(doc.gand_algebra) if doc.gand_algebra is not None else None
        ),
        "warnings": [],
        "exit_code": 0,
    }


_HODGE_ARITY = {"dual": (1, 0), "tensor": (2, 0), "wedge": (1, 1),
                "sym": (1, 1), "twist": (1, 1)}


def cmd_hodge(args) -> dict:
    nfiles, nints = _HODGE_ARITY[args.op]
    operands = args.operands
    if len(operands) != nfiles + nints:
        raise SpecValidationError(
            f"hodge {args.op} takes {nfiles} spec file(s)"
            + (" and one integer" if nints else "")
        )
    tables = [load_document(path).numbers for path in operands[:nfiles]]
    k = None
    if nints:
        try:
            k = parse_integer(operands[nfiles])
        except ValueError:
            raise SpecValidationError(
                f"hodge {args.op}: last argument must be an integer, "
                f"got {operands[nfiles]!r}"
            ) from None
    # looked up on each call, so a wrapper bound on this module is called
    operation = {"dual": dual, "tensor": tensor, "wedge": wedge, "sym": sym,
                 "twist": tate_twist}[args.op]
    try:
        result = operation(*tables, *([k] if nints else []))
    except ValueError as exc:
        raise MathDomainError(str(exc)) from None
    return {
        "command": f"hodge {args.op}",
        "spec": " ".join(str(x) for x in operands),
        "hodge_numbers": rp.hodge_numbers_json(result),
        "warnings": [],
        "exit_code": 0,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgescreen",
        description=(
            "Exact invariants of declared Hodge structures and "
            "conjecture-conditional geometric-origin screening."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if seed:
            p.add_argument(
                "--seed", type=int, default=None,
                help="try a seeded random evaluation before the symbolic rank",
            )

    p = sub.add_parser("invariants", help="grading invariants of the declared group")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("screen", help="run the conditional screening verdicts")
    p.add_argument("spec")
    common(p, seed=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("trdeg", help="transcendence degree of the flag point field")
    p.add_argument("spec")
    common(p, seed=True)
    p.set_defaults(func=cmd_trdeg)

    p = sub.add_parser("hodge", help="Hodge number algebra on spec tables")
    p.add_argument("op", choices=sorted(_HODGE_ARITY))
    p.add_argument("operands", nargs="+", metavar="arg")
    common(p)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("lie-check", help="validate the declared Lie data")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_lie_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except SpecValidationError as exc:
        for problem in exc.problems:
            print(f"spec error: {problem}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"math error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(rp.to_json(payload) if args.json else rp.render_text(payload))
    return payload["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
