"""Byte-for-byte CLI output and classical bases, against checked-in records.

tests/golden_cli.json holds the exit code, stdout and stderr of every
spec command (text and --json, unseeded and with --seed 5) on all shipped
specs, and of each `hodge` operation on them.  The test replays each run
in process through `cli.main` and compares the bytes.

tests/golden_bases.json holds the nonzero entries [i, j, "a/b"] of every
basis element, in basis order, of make_classical(kind, n) for each kind
and n = 1..10 (or the refusal text), of so(2) on the identity form and of
one direct sum.  Error indices and every CLI byte follow that order.

To record the current outputs of both, after a deliberate change, run
from the root of a checkout:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"
GOLDEN_BASES = ROOT / "tests" / "golden_bases.json"

SPEC_COMMANDS = (
    ("invariants",),
    ("screen",),
    ("screen", "--seed", "5"),
    ("trdeg",),
    ("trdeg", "--seed", "5"),
    ("lie-check",),
)


def _hodge_commands(spec):
    return (("hodge", "dual", spec), ("hodge", "tensor", spec, spec),
            ("hodge", "wedge", spec, "2"), ("hodge", "sym", spec, "3"),
            ("hodge", "twist", spec, "1"))


def golden_argvs():
    """Every recorded command line, spec paths relative to the root."""
    argvs = []
    for name in sorted(os.listdir(ROOT / "specs")):
        spec = f"specs/{name}"
        runs = [(*command, spec) for command in SPEC_COMMANDS] + list(_hodge_commands(spec))
        for argv in runs:
            argvs.append(list(argv))
            argvs.append([*argv, "--json"])
    return argvs


def replay(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run."""
    from hodgescreen.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _difference(expected, got) -> str:
    lines = [f"$ hodgescreen {' '.join(expected['argv'])}"]
    if got["exit"] != expected["exit"]:
        lines.append(f"exit code {got['exit']}, recorded {expected['exit']}")
    for stream in ("stdout", "stderr"):
        if got[stream] != expected[stream]:
            lines.extend(difflib.unified_diff(
                expected[stream].splitlines(), got[stream].splitlines(),
                f"recorded {stream}", f"new {stream}", lineterm=""))
    return "\n".join(lines)


def _bases_builds():
    """(label, build) for every recorded algebra."""
    from hodgescreen.lie import CLASSICAL_KINDS, direct_sum, make_classical

    builds = [(f"{kind}({n})", lambda kind=kind, n=n: make_classical(kind, n))
              for kind in CLASSICAL_KINDS for n in range(1, 11)]
    builds.append(("so(2) on [[1, 0], [0, 1]]",
                   lambda: make_classical("so", 2, form=[[1, 0], [0, 1]])))
    builds.append(("sp(4)+gl(2)",
                   lambda: direct_sum(make_classical("sp", 4), make_classical("gl", 2))))
    return builds


def record_basis(label, build) -> dict:
    """Nonzero basis entries of one build, or the text it is refused with."""
    try:
        algebra = build()
    except ValueError as exc:
        return {"algebra": label, "refused": str(exc)}
    basis = [[[i, j, str(v)] for i, row in enumerate(b.rows) for j, v in enumerate(row) if v]
             for b in algebra.basis]
    return {"algebra": label, "basis": basis}


def test_classical_bases_match_the_record():
    recorded = json.loads(GOLDEN_BASES.read_text(encoding="utf-8"))
    builds = _bases_builds()
    assert [entry["algebra"] for entry in recorded] == [label for label, _ in builds]
    mismatched = [label for (label, build), expected in zip(builds, recorded)
                  if record_basis(label, build) != expected]
    assert not mismatched, f"bases differ from the record: {mismatched}"


def test_cli_output_matches_the_record(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [run["argv"] for run in recorded] == golden_argvs()
    differences = []
    for expected in recorded:
        got = replay(expected["argv"])
        if got != expected:
            differences.append(_difference(expected, got))
    assert not differences, "\n\n".join(differences)


def _no_float(text):
    raise AssertionError(f"float {text} in a JSON record")


def test_json_records_are_exact():
    """Every recorded --json stdout parses with no float in it: exact
    scalars are written as integers or "a/b" strings."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    parsed = [json.loads(run["stdout"], parse_float=_no_float)
              for run in recorded if "--json" in run["argv"] and run["stdout"]]
    assert len(parsed) == len(recorded) // 2


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = [replay(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(runs)} runs in {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
    bases = [record_basis(label, build) for label, build in _bases_builds()]
    GOLDEN_BASES.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in bases) + "\n]\n",
                            encoding="utf-8")
    print(f"recorded {len(bases)} algebras in {GOLDEN_BASES.relative_to(ROOT)}", file=sys.stderr)
