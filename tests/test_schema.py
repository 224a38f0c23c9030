"""Document validation: JSON shape, entry grammar, cross-checks."""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hodgescreen import (
    FunctionField,
    QQ,
    SpecValidationError,
    load_document,
    parse_document,
)
from hodgescreen import cli, schema
from hodgescreen.schema import SPEC_SCHEMA, parse_entry

SPECS = Path(__file__).resolve().parent.parent / "specs"


def base_doc():
    return {
        "group": {"kind": "gsp", "n": 2},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": False, "ggpc": True},
    }


def problems_of(doc):
    with pytest.raises(SpecValidationError) as info:
        parse_document(doc)
    return "\n".join(str(p) for p in info.value.problems)


def test_shipped_specs_all_parse():
    paths = sorted(p for p in SPECS.glob("*.json") if p.name != "schema.json")
    assert len(paths) == 7
    for path in paths:
        doc = load_document(path)
        assert doc.algebra is not None
        assert doc.numbers.total_dim() == doc.algebra.ambient_dim
        assert doc.has_flag_data


def test_schema_file_is_in_sync():
    on_disk = json.loads((SPECS / "schema.json").read_text())
    assert on_disk == SPEC_SCHEMA


def test_minimal_document_parses():
    doc = parse_document(base_doc())
    assert doc.algebra.dim == 4  # gsp_2 = gl_2
    assert doc.cocharacter.weights == (1, 0)
    assert not doc.has_flag_data
    assert doc.flag is None and doc.trdeg_override is None


# -- entry grammar -------------------------------------------------------------


def entry_env():
    field = FunctionField(QQ, ("t1", "t2"))
    env = {name: field.gen(name) for name in field.names}
    return env, field


def test_entry_accepts_arithmetic():
    env, field = entry_env()
    t1, t2 = field.gens()
    assert parse_entry(3, env, field) == field.coerce(3)
    assert parse_entry("-1/2", env, field) == field.coerce(Fraction(-1, 2))
    assert parse_entry("t1*t2 - 2", env, field) == t1 * t2 - 2
    assert parse_entry("t1**3", env, field) == t1 * t1 * t1
    assert parse_entry("(t1 + 1)/(t2 - 3)", env, field) == (t1 + 1) / (t2 - 3)
    assert parse_entry("+t2", env, field) == t2


def test_entry_rejects_caret():
    env, field = entry_env()
    with pytest.raises(ValueError, match=r"write \*\* for powers"):
        parse_entry("t1^2 + 1", env, field)


def test_entry_rejects_junk():
    env, field = entry_env()
    for bad in (1.5, True, None, [1]):
        with pytest.raises(ValueError):
            parse_entry(bad, env, field)
    with pytest.raises(ValueError, match="unknown name"):
        parse_entry("t3", env, field)
    with pytest.raises(ValueError, match="exponent"):
        parse_entry("t1**-2", env, field)
    with pytest.raises(ValueError, match="exponent"):
        parse_entry("t1**t2", env, field)
    with pytest.raises(ValueError, match="division by zero"):
        parse_entry("1/(t1 - t1)", env, field)
    with pytest.raises(ValueError, match="unsupported"):
        parse_entry("__import__('os')", env, field)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_entry("t1 +", env, field)


# -- schema-level shape --------------------------------------------------------


def test_shape_problems_carry_json_paths():
    doc = base_doc()
    del doc["conjectures"]["ggpc"]
    doc["group"]["extra"] = 1
    text = problems_of(doc)
    assert "conjectures" in text and "ggpc" in text
    assert "group" in text and "extra" in text


def test_unknown_group_kind_is_a_shape_error():
    doc = base_doc()
    doc["group"]["kind"] = "spin"
    assert "kind" in problems_of(doc)


# -- cross-checks --------------------------------------------------------------


def test_lambda_length_must_match_ambient():
    doc = base_doc()
    doc["cocharacter"]["lambda"] = [1, 0, 0]
    assert "lambda has length 3" in problems_of(doc)


def test_lambda_multiset_must_match_hodge_numbers():
    doc = base_doc()
    doc["cocharacter"]["lambda"] = [2, 0]
    text = problems_of(doc)
    assert "cocharacter" in text


def test_table_total_must_match_ambient():
    doc = base_doc()
    doc["hodge_numbers"]["dims"] = [[1, 0, 2], [0, 1, 2]]
    text = problems_of(doc)
    assert "sums to 4" in text or "Hodge numbers sum to 4" in text


def test_flag_and_override_are_exclusive():
    doc = base_doc()
    doc["trdeg_override"] = 1
    doc["flag_point"] = {
        "params": ["t1"],
        "steps": [{"p": 1, "basis": [["1", "t1"]]}],
    }
    assert "mutually exclusive" in problems_of(doc)


def test_override_alone_is_transcendence_data():
    doc = base_doc()
    doc["trdeg_override"] = 2
    parsed = parse_document(doc)
    assert parsed.has_flag_data and parsed.trdeg_override == 2


def test_polarization_shape_and_parity():
    doc = base_doc()
    doc["polarization"] = {"matrix": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]}
    assert "dimension 2" in problems_of(doc)
    doc["polarization"] = {"matrix": [["1", "0"], ["0", "1"]]}
    assert "antisymmetric" in problems_of(doc)


def test_gand_group_must_contain_the_group():
    doc = base_doc()
    doc["gand_group"] = {"kind": "gl", "n": 2}
    assert parse_document(doc).gand_algebra is not None

    doc["gand_group"] = {"kind": "gl", "n": 3}
    assert "dimension 3" in problems_of(doc)

    doc["group"] = {"kind": "gl", "n": 2}
    doc["cocharacter"] = {"lambda": [1, 0]}
    doc["gand_group"] = {"kind": "sp", "n": 2}
    assert "does not contain" in problems_of(doc)


def test_custom_basis_rules():
    doc = base_doc()
    doc["group"] = {"kind": "custom", "n": 2}
    assert "requires an explicit basis" in problems_of(doc)
    doc["group"] = {
        "kind": "custom", "n": 2, "form": [["0", "1"], ["-1", "0"]],
        "basis": [[["1", "0"], ["0", "1"]]],
    }
    assert "no meaning" in problems_of(doc)
    doc["group"] = {"kind": "gl", "n": 2, "basis": [[["1", "0"], ["0", "1"]]]}
    assert "only for kind 'custom'" in problems_of(doc)
    doc["group"] = {"kind": "custom", "n": 2, "basis": [[["1", "0"], ["0", "1"]]]}
    doc["cocharacter"]["lambda"] = [1, 0]
    assert parse_document(doc).algebra.dim == 1


# -- flag section --------------------------------------------------------------


def flag_doc():
    doc = base_doc()
    doc["flag_point"] = {
        "params": ["t1"],
        "steps": [{"p": 1, "basis": [["1", "t1"]]}],
    }
    return doc


def test_flag_point_parses():
    doc = parse_document(flag_doc())
    assert doc.flag is not None
    assert doc.flag.params == ("t1",)
    assert doc.flag_base_field is QQ


def test_flag_param_name_rules():
    doc = flag_doc()
    doc["flag_point"]["params"] = ["2x"]
    assert "not a usable name" in problems_of(doc)
    doc["flag_point"]["params"] = ["for"]
    assert "not a usable name" in problems_of(doc)
    doc["flag_point"]["params"] = ["t1", "t1"]
    assert "duplicate parameter names" in problems_of(doc)


def test_flag_param_cannot_shadow_the_field_generator():
    doc = flag_doc()
    doc["flag_point"]["params"] = ["i"]
    doc["flag_point"]["field"] = {
        "name": "i",
        "minpoly": ["1", "0", "1"],
        "embedding": [["-1/2", "1/2"], ["1/2", "3/2"]],
        "conjugate_image": ["0", "-1"],
    }
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", "i"]]}]
    assert "shadows the field generator" in problems_of(doc)


def test_flag_field_problems_are_located():
    doc = flag_doc()
    doc["flag_point"]["field"] = {
        "name": "r",
        "minpoly": ["-1", "0", "1"],  # x^2 - 1 splits
        "embedding": [["1/2", "3/2"], ["-1/2", "1/2"]],
    }
    assert "flag_point/field" in problems_of(doc)


def test_oversized_minpoly_is_rejected_before_any_field_is_built(monkeypatch, capsys, tmp_path):
    def no_field(*args, **kwargs):
        raise AssertionError("a number field was built")

    monkeypatch.setattr(schema, "NumberField", no_field)
    doc = json.loads((SPECS / "torus-cm.json").read_text())
    doc["flag_point"]["field"]["minpoly"] = ["1"] + ["0"] * 16 + ["1"]  # degree 17
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["screen", str(path)]) == 2
    assert "spec error: flag_point/field/minpoly: " in capsys.readouterr().err


def test_flag_entry_problems_carry_their_position():
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", "t9"]]}]
    text = problems_of(doc)
    assert "flag_point/steps/0/basis/0/1" in text
    assert "unknown name" in text


def test_flag_steps_must_match_the_filtration_profile():
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 2, "basis": [["1", "t1"]]}]
    assert "filtration profile" in problems_of(doc)


# -- file loading ---------------------------------------------------------------


def test_load_document_failure_modes(tmp_path):
    with pytest.raises(SpecValidationError, match="not found"):
        load_document(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SpecValidationError, match="invalid JSON|line"):
        load_document(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(SpecValidationError, match="JSON object"):
        load_document(listy)


def test_copy_of_shipped_spec_round_trips(tmp_path):
    raw = json.loads((SPECS / "gsp4-cy.json").read_text())
    doc = parse_document(copy.deepcopy(raw))
    assert doc.raw == raw
    assert doc.conjectures.motivated and not doc.conjectures.gpc
