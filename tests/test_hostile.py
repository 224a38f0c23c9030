"""Hostile spec values, run in process through cli.main: each one ends in
a documented exit code (0, 2, 3 or 10) within a time limit, and none
escapes as a traceback."""

import copy
import json
import random
import signal

import pytest

from hodgescreen.cli import main
from hodgescreen.schema import MAX_STEP_PRODUCTS

from support import ROOT

SPECS = ROOT / "specs"
HOSTILE = ("1/0", "", "nan", 0, -1, 10**40, True, None, [])
SWEEP_SPECS = ("elliptic-gsp2.json", "torus-cm.json", "gsp4-cy.json")

GL2_BASIS = [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
             [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]
# (label, group section or None to keep elliptic-gsp2's, path of the rational)
ZERO_DENOMINATOR_SITES = (
    ("polarization", None, ("polarization", "matrix", 0, 1)),
    ("flag_point/field", None, ("flag_point", "field", "minpoly", 0)),
    ("flag_point/field", None, ("flag_point", "field", "embedding", 1, 0)),
    ("flag_point/field", None, ("flag_point", "field", "conjugate_image", 1)),
    ("group", {"kind": "custom", "n": 2, "basis": GL2_BASIS}, ("group", "basis", 2, 1, 0)),
    ("group", {"kind": "gsp", "n": 2, "form": [["0", "1"], ["-1", "0"]]},
     ("group", "form", 0, 1)),
)
# the root of the minimal polynomial lies on an edge of the rectangle
EDGE_RECTANGLES = (
    (("flag_point", "field", "embedding"), [["0", "1/2"], ["1/2", "3/2"]]),
    (("flag_point", "field", "minpoly"), [1, -1, 1]),
)

# Fraction alone reads these: "1e2000000" as a 6.6-million-bit integer
NOT_RATIONALS = (
    ("flag_point/field", ("flag_point", "field", "embedding", 0, 1), "1e2000000"),
    ("polarization", ("polarization", "matrix", 0, 1), "1.5"),
)


def load(name):
    return json.loads((SPECS / name).read_text())


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def four_parameter_doc(entry):
    """elliptic-gsp2 over four parameters, with entry as its second flag
    coordinate."""
    doc = load("elliptic-gsp2.json")
    doc["flag_point"]["params"] = ["t1", "t2", "t3", "t4"]
    doc["flag_point"]["steps"][0]["basis"][0][1] = entry
    return doc


def zero_denominator_doc(group, path, value):
    doc = load("elliptic-gsp2.json")
    if group is not None:
        doc["group"] = group
    return replaced(doc, path, value)


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from leaves(child, path + (index,))
    else:
        yield path


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun


def screen(doc, tmp_path, capsys, *options, seconds=2):
    """(exit code, stderr) of screen on doc; fails the test past seconds."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code = main(["screen", *options, str(path)])
    except _Overrun:
        pytest.fail(f"over {seconds} s on {json.dumps(doc)}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", ["1/0", "0/0"])
@pytest.mark.parametrize("label,group,path", ZERO_DENOMINATOR_SITES)
def test_a_zero_denominator_is_a_spec_error(label, group, path, value, tmp_path, capsys):
    code, err = screen(zero_denominator_doc(group, path, value), tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"spec error: {label}: zero denominator in {value!r}"), err


@pytest.mark.parametrize("path,value", EDGE_RECTANGLES)
def test_a_root_on_the_rectangle_edge_fails_within_a_second(path, value, tmp_path, capsys):
    doc = replaced(load("elliptic-gsp2.json"), path, value)
    code, err = screen(doc, tmp_path, capsys, seconds=1)
    assert code == 2
    assert "cannot certify the isolating rectangle" in err


@pytest.mark.parametrize("label,path,value", NOT_RATIONALS)
def test_exponents_and_decimal_points_fail_within_a_second(label, path, value,
                                                          tmp_path, capsys):
    doc = replaced(load("elliptic-gsp2.json"), path, value)
    code, err = screen(doc, tmp_path, capsys, seconds=1)
    assert code == 2
    assert err.startswith(f"spec error: {label}: {value!r} is not a rational"), err


@pytest.mark.parametrize("exponent", [32, 64])
def test_a_flag_entry_over_the_step_bound_fails_within_a_second(exponent, tmp_path, capsys):
    doc = four_parameter_doc(f"i + (t1 + t2 + t3 + t4 + 1)**{exponent}")
    code, err = screen(doc, tmp_path, capsys, "--seed", "3", seconds=1)
    assert code == 2
    assert err.startswith("spec error: flag_point/steps/0/basis/0/1: entry "), err
    assert f"above the cap of {MAX_STEP_PRODUCTS:,}" in err


@pytest.mark.parametrize("entry", ["i + (t1 + t2 + t3 + t4 + 1)**8", "i + (t1 - t1)**2"])
def test_a_flag_entry_under_the_step_bound_is_read(entry, tmp_path, capsys):
    code, err = screen(four_parameter_doc(entry), tmp_path, capsys, "--seed", "3", seconds=5)
    assert code == 0, err


def test_hostile_leaves_end_in_a_documented_exit_code(tmp_path, capsys):
    specs = [load(name) for name in SWEEP_SPECS]
    cases = [(doc, path, value) for doc in specs for path in leaves(doc) for value in HOSTILE]
    docs = [replaced(*case) for case in random.Random(13).sample(cases, 150)]
    docs += [zero_denominator_doc(group, path, "1/0")
             for _label, group, path in ZERO_DENOMINATOR_SITES]
    docs += [replaced(load("elliptic-gsp2.json"), *edge) for edge in EDGE_RECTANGLES]
    for doc in docs:
        code, _err = screen(doc, tmp_path, capsys, "--seed", "3")
        assert code in (0, 2, 3, 10), doc
