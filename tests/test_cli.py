"""End-to-end runs of the command line, as a subprocess."""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from hodgescreen.cli import main
from hodgescreen.rendering import to_json
from hodgescreen.flags import FlagPoint
from hodgescreen.hodge import SYM_WORK_BOUND

from support import ENV, ROOT

SPECS = ROOT / "specs"

EXPECTED_EXIT = {
    "gsp4-cy.json": 10,
    "gsp4-cy-generic.json": 0,
    "weight1-g2.json": 0,
    "torus-cm.json": 0,
    "elliptic-gsp2.json": 0,
    "type2020-go4.json": 10,
    "type3003-go6.json": 10,
}


def run(*args, spec_text=None, tmp_path=None):
    argv = [sys.executable, "-m", "hodgescreen", *args]
    if spec_text is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_text))
        argv.append(str(path))
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=ENV)


def test_screen_exit_codes_for_every_shipped_spec():
    for name, code in EXPECTED_EXIT.items():
        proc = run("screen", str(SPECS / name))
        assert proc.returncode == code, (name, proc.stdout, proc.stderr)
        assert proc.stdout.strip().endswith(f"exit code {code}")


@pytest.mark.parametrize("name", ["torus-cm.json", "elliptic-gsp2.json"])
def test_screen_realizes_the_polarized_structure_on_the_spec_flag(name, monkeypatch, capsys):
    """The polarization check is built on the FlagPoint that the spec
    reader checked, so one screen builds exactly one flag."""
    built = []
    init = FlagPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlagPoint, "__init__", counting)
    assert main(["screen", "--json", str(SPECS / name)]) == 0
    assert json.loads(capsys.readouterr().out)["polarization"]["status"] == "valid"
    assert len(built) == 1


def test_rejections_always_name_their_hypotheses():
    for name in EXPECTED_EXIT:
        proc = run("screen", str(SPECS / name))
        for line in proc.stdout.splitlines():
            if "not from geometry" in line:
                assert "conditional on" in line, (name, line)


def test_json_output_is_deterministic():
    a = run("screen", "--json", "--seed", "5", str(SPECS / "gsp4-cy-generic.json"))
    b = run("screen", "--json", "--seed", "5", str(SPECS / "gsp4-cy-generic.json"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["trdeg"]["value"] == 4
    assert payload["trdeg"]["certificate"]["seed"] == 5
    assert any(v["kind"] == "maximal_transcendence" for v in payload["verdicts"])


def test_screen_json_shape_on_a_rejection():
    proc = run("screen", "--json", str(SPECS / "gsp4-cy.json"))
    assert proc.returncode == 10
    payload = json.loads(proc.stdout)
    assert payload["invariants"]["flag_dim"] == 4
    assert payload["invariants"]["hcodim"] == 2
    assert payload["trdeg"]["value"] == 0
    kinds = [v["kind"] for v in payload["verdicts"]]
    assert "not_from_geometry" in kinds and "shimura_violation" in kinds
    for v in payload["verdicts"]:
        if v["kind"] in ("not_from_geometry", "shimura_violation"):
            assert v["conditional_on"], v
    assert payload["exit_code"] == 10
    assert payload["chain_identity"][0]["holds"] is True


def test_invariants_command(tmp_path):
    doc = {
        "group": {"kind": "gsp", "n": 4},
        "cocharacter": {"lambda": [3, 2, 1, 0]},
        "hodge_numbers": {
            "weight": 3,
            "dims": [[3, 0, 1], [2, 1, 1], [1, 2, 1], [0, 3, 1]],
        },
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    proc = run("invariants", "--json", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    inv = payload["invariants"]
    assert inv["flag_dim"] == 4 and inv["hcodim"] == 2
    assert inv["levels"] == [[-3, 1], [-2, 1], [-1, 2], [0, 3], [1, 2], [2, 1], [3, 1]]
    assert inv["dim_g"] == 11
    assert inv["shimura_type"] is False
    text = run("invariants", spec_text=doc, tmp_path=tmp_path)
    assert "flag dim" in text.stdout and "exit code 0" in text.stdout


def test_trdeg_command_records_the_certificate():
    proc = run("trdeg", "--json", "--seed", "11", str(SPECS / "weight1-g2.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["trdeg"]["value"] == 3
    cert = payload["trdeg"]["certificate"]
    assert cert["seed"] == 11 and cert["evaluated_rank"] == 3
    unseeded = run("trdeg", "--json", str(SPECS / "weight1-g2.json"))
    assert json.loads(unseeded.stdout)["trdeg"]["certificate"] is None
    text = run("trdeg", "--seed", "11", str(SPECS / "weight1-g2.json"))
    point = ", ".join(str(x) for x in cert["point"])
    assert f"  certificate        rank 3 at ({point})" in text.stdout.splitlines()


def test_trdeg_requires_a_flag(tmp_path):
    doc = {
        "group": {"kind": "gsp", "n": 2},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
        "trdeg_override": 1,
    }
    proc = run("trdeg", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "flag_point" in proc.stderr


def test_screen_without_transcendence_data(tmp_path):
    doc = {
        "group": {"kind": "gsp", "n": 2},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    proc = run("screen", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert "transcendence data" in proc.stderr


def test_screen_with_override(tmp_path):
    doc = json.loads((SPECS / "gsp4-cy.json").read_text())
    del doc["flag_point"]
    doc["trdeg_override"] = 1
    proc = run("screen", "--json", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 10
    payload = json.loads(proc.stdout)
    assert payload["trdeg"]["source"] == "override"
    # the whole section, with and without a seed: an override has no seed
    section = {"value": 1, "source": "override", "params": [], "chart_length": 0,
               "seed": None, "certificate": None}
    text = ("transcendence degree\n  value              1\n  source             override\n"
            "  params             (none)\n  seed               (none)\n\n")
    for seed in ([], ["--seed", "5"]):
        proc = run("screen", "--json", *seed, spec_text=doc, tmp_path=tmp_path)
        assert json.loads(proc.stdout)["trdeg"] == section
        proc = run("screen", *seed, spec_text=doc, tmp_path=tmp_path)
        assert proc.returncode == 10
        assert text in proc.stdout
    doc["trdeg_override"] = 2
    proc = run("screen", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 0


def test_spec_errors_go_to_stderr_with_exit_2(tmp_path):
    doc = {
        "group": {"kind": "gsp", "n": 4},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    proc = run("invariants", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = [l for l in proc.stderr.splitlines() if l.startswith("spec error:")]
    assert len(lines) >= 2  # lambda length and table total


def test_spec_errors_at_one_path_come_in_schema_key_order(tmp_path):
    doc = {
        "group": {"kind": "gsp", "n": 0.5},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": False, "ggpc": True},
    }
    proc = run("screen", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "spec error: group/n: 0.5 is not of type 'integer'\n"
        "spec error: group/n: 0.5 is less than the minimum of 1\n"
    )


def test_math_errors_exit_3_with_the_offending_pair(tmp_path):
    doc = {
        "group": {
            "kind": "custom",
            "n": 2,
            "basis": [
                [["0", "1"], ["0", "0"]],
                [["0", "0"], ["1", "0"]],
            ],
        },
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    proc = run("invariants", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 3
    assert "math error (BracketClosureError)" in proc.stderr
    assert "basis[0], basis[1]" in proc.stderr
    # closed, but diag(1, 0) maps [[0, 1], [1, 0]] outside its span
    doc["group"]["basis"] = [[["0", "1"], ["1", "0"]]]
    proc = run("invariants", spec_text=doc, tmp_path=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "math error (NormalizationError): [diag(lambda), basis[0]] is not in the algebra"
    ]


def test_lie_check_reports_both_algebras():
    proc = run("lie-check", str(SPECS / "gsp4-cy.json"))
    assert proc.returncode == 0
    out = proc.stdout
    assert "bracket closed" in out and "ok" in out
    assert "cocharacter normalizes" in out
    json_proc = run("lie-check", "--json", str(SPECS / "gsp4-cy.json"))
    payload = json.loads(json_proc.stdout)
    assert payload["checks"] == {
        "basis_independent": True,
        "bracket_closed": True,
        "cocharacter_normalizes": True,
    }


def test_hodge_operations():
    proc = run("hodge", "dual", str(SPECS / "gsp4-cy.json"))
    assert proc.returncode == 0
    assert "weight" in proc.stdout
    two = run(
        "hodge", "tensor", "--json",
        str(SPECS / "elliptic-gsp2.json"), str(SPECS / "elliptic-gsp2.json"),
    )
    payload = json.loads(two.stdout)
    assert payload["hodge_numbers"]["weight"] == 2
    assert payload["hodge_numbers"]["total_dim"] == 4
    wedge2 = run("hodge", "wedge", "--json", str(SPECS / "elliptic-gsp2.json"), "2")
    assert json.loads(wedge2.stdout)["hodge_numbers"]["dims"] == [[1, 1, 1]]
    twist = run("hodge", "twist", "--json", str(SPECS / "elliptic-gsp2.json"), "1")
    assert json.loads(twist.stdout)["hodge_numbers"]["weight"] == -1
    sym3 = run("hodge", "sym", str(SPECS / "elliptic-gsp2.json"), "3")
    assert "hodge numbers      weight 3   h(3,0)=1  h(2,1)=1  h(1,2)=1  h(0,3)=1" in sym3.stdout
    sym40 = run("hodge", "sym", "--json", str(SPECS / "elliptic-gsp2.json"), "40")
    assert json.loads(sym40.stdout)["hodge_numbers"]["total_dim"] == 41
    wedge3 = run("hodge", "wedge", str(SPECS / "elliptic-gsp2.json"), "3")
    assert wedge3.returncode == 3 and wedge3.stdout == ""
    assert wedge3.stderr == "math error (MathDomainError): wedge^3 of a 2-dimensional structure vanishes\n"


def test_a_sym_power_just_over_the_work_bound_exits_3():
    # the elliptic table's work estimate is 2 * sum_{n<k} (n + 1) = k * (k + 1)
    k = math.isqrt(SYM_WORK_BOUND)
    while k * (k + 1) <= SYM_WORK_BOUND:
        k += 1
    proc = run("hodge", "sym", str(SPECS / "elliptic-gsp2.json"), str(k))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (f"math error (MathDomainError): sym^{k} of a 2-dimensional "
                           f"structure is over the work bound: dimension * p-sums over "
                           f"the k rows > {SYM_WORK_BOUND}\n")


def test_hodge_arity_errors():
    proc = run("hodge", "dual", str(SPECS / "elliptic-gsp2.json"), "2")
    assert proc.returncode == 2
    proc = run("hodge", "wedge", str(SPECS / "elliptic-gsp2.json"), "x")
    assert proc.returncode == 2
    proc = run("hodge", "twist", str(SPECS / "gsp4-cy.json"), "-99", "--json")
    assert proc.returncode == 0  # negative twists are fine


def test_the_hodge_integer_is_read_as_spec_documents_read_one(capsys):
    spec = str(SPECS / "gsp4-cy.json")
    assert main(["hodge", "wedge", spec, "2"]) == 0
    wedge2 = capsys.readouterr().out
    for same in ("+2", "4/2"):
        assert main(["hodge", "wedge", spec, same]) == 0
        assert capsys.readouterr().out == wedge2.replace(f"{spec} 2", f"{spec} {same}")
    for refused in ("1_0", "\u0662", "2.0", "1/0"):
        assert main(["hodge", "wedge", spec, refused]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("spec error: hodge wedge: last argument must be an "
                                f"integer, got {refused!r}\n")


def test_polarization_is_reported_for_the_cm_spec():
    proc = run("screen", "--json", str(SPECS / "torus-cm.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["polarization"]["status"] == "valid"
    text = run("screen", str(SPECS / "torus-cm.json"))
    assert "polarization" in text.stdout and "valid" in text.stdout


def test_missing_file_is_a_spec_error():
    proc = run("screen", "/nonexistent/nope.json")
    assert proc.returncode == 2
    assert "not found" in proc.stderr


def test_unreadable_files_are_spec_errors(tmp_path):
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path, problem in ((SPECS, "cannot read spec file"), (utf16, "is not UTF-8 text"),
                          (deep, "nests JSON too deeply")):
        proc = run("screen", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("spec error: ") and proc.stderr.count("\n") == 1
        assert problem in proc.stderr and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_deeply_nested_flag_entries_exit_2(tmp_path):
    spec = json.loads((SPECS / "gsp4-cy-generic.json").read_text())
    spec["flag_point"]["steps"][0]["basis"][0][1] = "-" * 3000 + "t1"
    proc = run("trdeg", spec_text=spec, tmp_path=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == ("spec error: flag_point/steps/0/basis/0/1: "
                           "entry nests too deeply to evaluate\n")


def test_sympy_stays_off_the_runtime_path(tmp_path):
    """Neither test-only package, sympy nor jsonschema, is imported by a
    run, whether the spec is valid or fails the schema.  Nor are
    dataclasses and the inspect module it pulls in: together they cost
    about 1 MB of resident memory and a few ms of start-up."""
    invalid = json.loads((SPECS / "torus-cm.json").read_text())
    invalid["group"]["n"] = "4"
    (tmp_path / "invalid.json").write_text(json.dumps(invalid))
    for spec, code in ((SPECS / "torus-cm.json", 0), (tmp_path / "invalid.json", 2)):
        argv = [sys.executable, "-X", "importtime", "-m", "hodgescreen", "screen", str(spec)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=ENV)
        assert proc.returncode == code, proc.stderr
        assert not [line for line in proc.stderr.splitlines()
                    if "sympy" in line or "jsonschema" in line]
        assert not [line for line in proc.stderr.splitlines()
                    if line.rsplit("|", 1)[-1].strip() in ("dataclasses", "inspect")]
    imports = re.compile(r"^\s*(import|from) (sympy|jsonschema|dataclasses)\b", re.M)
    assert not [p for p in (ROOT / "src").rglob("*.py") if imports.search(p.read_text())]


def test_gand_group_is_graded_and_reported(tmp_path):
    doc = json.loads((SPECS / "gsp4-cy.json").read_text())
    doc["gand_group"] = {"kind": "gl", "n": 4}
    payload = json.loads(run("screen", "--json", spec_text=doc, tmp_path=tmp_path).stdout)
    assert payload["invariants"]["dim_g"] == 11
    assert payload["gand_invariants"]["dim_g"] == 16
    assert len(payload["chain_identity"]) == 2
    text = run("screen", spec_text=doc, tmp_path=tmp_path)
    assert text.returncode == payload["exit_code"]
    lines = text.stdout.splitlines()
    side = lines.index("invariants (motivic Galois model side)")
    assert lines[side + 1] == "  dim g              16"
    check = json.loads(run("lie-check", "--json", spec_text=doc, tmp_path=tmp_path).stdout)
    assert check["gand_group"] == {"ambient_dim": 4, "dim": 16, "name": "gl(4)"}


SYMPLECTIC_4 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]


def test_polarization_check_skipped_warnings(tmp_path):
    no_flag = json.loads((SPECS / "gsp4-cy.json").read_text())
    del no_flag["flag_point"]
    no_flag["trdeg_override"] = 0
    no_flag["polarization"] = {"matrix": SYMPLECTIC_4}
    params = json.loads((SPECS / "gsp4-cy-generic.json").read_text())
    params["polarization"] = {"matrix": SYMPLECTIC_4}
    no_conj = json.loads((SPECS / "torus-cm.json").read_text())
    del no_conj["flag_point"]["field"]["conjugate_image"]
    for doc, code, warning in (
        (no_flag, 10, "polarization check skipped: it needs explicit flag_point coordinates"),
        (params, 0, "polarization check skipped: the flag has free parameters, and "
                    "positivity is decided only for fully specified coordinates"),
        (no_conj, 0, "polarization check skipped: the coordinate field declares no "
                     "complex conjugation (set conjugate_image)"),
    ):
        payload = json.loads(run("screen", "--json", spec_text=doc, tmp_path=tmp_path).stdout)
        assert payload["exit_code"] == code
        assert payload["polarization"] is None
        assert payload["warnings"][-1] == warning
        text = run("screen", spec_text=doc, tmp_path=tmp_path)
        assert text.returncode == code
        assert f"  - {warning}" in text.stdout.splitlines()
        assert "\npolarization\n" not in text.stdout


def test_asymmetric_levels_are_warned_about(tmp_path):
    """The upper-triangular Borel of gl(2) is closed and normalized by
    diag(1, 0), but has a level-1 piece and no level -1 piece."""
    doc = {
        "group": {"kind": "custom", "n": 2, "basis": [
            [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "trdeg_override": 0,
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    for command in ("invariants", "screen"):
        proc = run(command, "--json", spec_text=doc, tmp_path=tmp_path)
        payload = json.loads(proc.stdout)
        assert payload["invariants"]["symmetric_grading"] is False
        assert payload["warnings"][-1] == (
            "level dimensions are not symmetric under k -> -k, which cannot happen "
            "for a reductive algebra; check the declared basis")
        text = run(command, spec_text=doc, tmp_path=tmp_path)
        assert "  symmetric grading  no" in text.stdout.splitlines()
        assert "  - level dimensions are not symmetric" in text.stdout


INDEPENDENCE_NOTE = ("the declared parameters are assumed algebraically independent "
                     "over Q; the transcendence degree refers to this parametric model")
ASYMMETRY_NOTE = ("level dimensions are not symmetric under k -> -k, which cannot "
                  "happen for a reductive algebra; check the declared basis")


def test_a_failing_polarization_prints_its_rational_witness(tmp_path, capsys):
    """S = [[0, -1/3], [1/3, 0]] on the elliptic curve's flag gives
    i S(w, conj w) = -2/3 on H^1,0: the detail, the witness line and the
    JSON witness all write it exactly."""
    doc = json.loads((SPECS / "elliptic-gsp2.json").read_text())
    doc["polarization"] = {"matrix": [[0, "-1/3"], ["1/3", 0]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["screen", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("polarization")
    assert lines[start:start + 5] == [
        "polarization",
        "  status             positivity_fails",
        "  detail             i^(1-0) S(w, conj w) is not positive on H^1,0 (value -2/3)",
        "  witness            -2/3",
        "",
    ]
    assert main(["screen", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["polarization"] == {
        "status": "positivity_fails",
        "detail": "i^(1-0) S(w, conj w) is not positive on H^1,0 (value -2/3)",
        "witness": "-2/3",
    }
    assert '    "witness": "-2/3"\n' in out


def test_screen_warnings_come_in_a_fixed_order(tmp_path, capsys):
    """A parametric flag on the asymmetric Borel of gl(2), with a
    polarization: the independence note, then the asymmetry note, then
    the skipped polarization check; invariants gives the asymmetry note
    alone."""
    doc = {
        "group": {"kind": "custom", "n": 2, "basis": [
            [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "flag_point": {"params": ["t1"], "steps": [{"p": 1, "basis": [["1", "t1"]]}]},
        "polarization": {"matrix": [[0, 1], [-1, 0]]},
        "conjectures": {"motivated": True, "gpc": True, "ggpc": True},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    skipped = ("polarization check skipped: the flag has free parameters, and "
               "positivity is decided only for fully specified coordinates")
    for command, warnings in (("screen", [INDEPENDENCE_NOTE, ASYMMETRY_NOTE, skipped]),
                              ("invariants", [ASYMMETRY_NOTE])):
        assert main([command, "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == warnings
        assert main([command, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("warnings")
        assert lines[start:] == ["warnings", *(f"  - {w}" for w in warnings), "",
                                 "exit code 0"]


def test_to_json_writes_fractions_exactly_and_nothing_else():
    assert json.loads(to_json({"w": Fraction(-2, 3), "p": [Fraction(5)]})) == {
        "w": "-2/3", "p": [5]}
    assert '"p": [\n    5\n  ]' in to_json({"p": [Fraction(5)]})
    with pytest.raises(TypeError):
        to_json({"x": object()})
