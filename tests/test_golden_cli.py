"""Byte-for-byte CLI output on the shipped specs, against a checked-in record.

tests/golden_cli.json holds the exit code, stdout and stderr of every
spec command (text and --json, unseeded and with --seed 5) on all shipped
specs, and of each `hodge` operation on them.  The test replays each run
in process through `cli.main` and compares the bytes.  To record the
current outputs, after a deliberate output change, run from the root of a
checkout:

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


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = [replay(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(runs)} runs in {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
