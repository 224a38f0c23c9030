"""Document validation: JSON shape, entry grammar, cross-checks."""

import copy
import json
import random
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
from hodgescreen import cli, lie, schema
from hodgescreen.jsonshape import shape_problems
from hodgescreen.schema import MAX_EXPONENT, SPEC_SCHEMA, parse_entry

from support import oracle_schema_problems

SPECS = Path(__file__).resolve().parent.parent / "specs"
SHIPPED = sorted(SPECS.glob("*.json"))
SCHEMA_FILE = Path(schema.__file__).with_name("spec_schema.json")


def base_doc():
    return {
        "group": {"kind": "gsp", "n": 2},
        "cocharacter": {"lambda": [1, 0]},
        "hodge_numbers": {"weight": 1, "dims": [[1, 0, 1], [0, 1, 1]]},
        "conjectures": {"motivated": True, "gpc": False, "ggpc": True},
    }


def problems_of(doc):
    assert schema._schema_problems(doc) == oracle_schema_problems(doc)
    with pytest.raises(SpecValidationError) as info:
        parse_document(doc)
    return "\n".join(str(p) for p in info.value.problems)


def test_shipped_specs_all_parse():
    assert len(SHIPPED) == 7
    for path in SHIPPED:
        doc = load_document(path)
        assert doc.algebra is not None
        assert doc.numbers.total_dim() == doc.algebra.ambient_dim
        assert doc.flag is not None or doc.trdeg_override is not None


def test_schema_file_is_in_sync():
    # SPEC_SCHEMA is read from this file, which stays in its written form.
    assert SCHEMA_FILE.read_text() == json.dumps(SPEC_SCHEMA, indent=2) + "\n"


def test_schema_group_kinds_are_the_classical_kinds_and_custom():
    props = SPEC_SCHEMA["properties"]
    assert props["group"]["properties"]["kind"]["enum"] == [*lie.CLASSICAL_KINDS, "custom"]
    assert props["gand_group"] == props["group"]


def test_minimal_document_parses():
    doc = parse_document(base_doc())
    assert doc.algebra.dim == 4  # gsp_2 = gl_2
    assert doc.cocharacter.weights == (1, 0)
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


def test_every_schema_keyword_is_supported():
    def subschemas(node):
        yield node
        for key, value in node.items():
            if key == "properties":
                for sub in value.values():
                    yield from subschemas(sub)
            elif key == "items":
                yield from subschemas(value)
            elif key == "anyOf":
                for sub in value:
                    yield from subschemas(sub)

    for node in subschemas(SPEC_SCHEMA):
        shape_problems(None, node)  # visits every keyword of the node
    for unsupported in ({"pattern": "^t"}, {"type": ["integer", "string"]},
                        {"additionalProperties": {"type": "integer"}},
                        {"enum": ["gl", 1]}):
        with pytest.raises(NotImplementedError, match="not supported"):
            shape_problems(None, unsupported)


JUNK = (True, False, 0, -1, 2.0, 1.5, None, "", "x", [], [1], {}, {"x": 1})


def mutate(doc, rng):
    """One random edit somewhere in doc: a key deleted, keys added, a
    value replaced by a wrong-typed one, an array emptied or grown, or
    group.n moved."""
    containers = []

    def collect(node):
        if isinstance(node, (dict, list)):
            containers.append(node)
            for child in (node.values() if isinstance(node, dict) else node):
                collect(child)

    collect(doc)
    node = rng.choice(containers)
    junk = copy.deepcopy(rng.choice(JUNK))
    op = rng.randrange(5)
    if op == 4 and isinstance(doc.get("group"), dict):
        doc["group"]["n"] = rng.choice((0, -3, 1, 16, 17, 2.0, 16.0, 17.0, 10**20))
    elif isinstance(node, dict):
        keys = list(node)
        if op == 0 and keys:
            del node[rng.choice(keys)]
        elif op == 1 or not keys:
            for name in rng.sample(("zeta", "extra", "n", "kind", "p", "lambda"), rng.randint(1, 2)):
                node[name] = junk
        else:
            node[rng.choice(keys)] = junk
    elif op == 0 or not node:
        node.clear()
    elif op == 1:
        node.append(copy.deepcopy(rng.choice(node)) if rng.randrange(2) else junk)
    else:
        node[rng.randrange(len(node))] = junk


def test_structural_problems_match_the_jsonschema_oracle():
    bases = [json.loads(p.read_text()) for p in SHIPPED] + [base_doc()]
    for doc in bases:
        assert schema._schema_problems(doc) == oracle_schema_problems(doc) == []
    for value in (None, [], 3, "spec"):
        assert schema._schema_problems(value) == oracle_schema_problems(value)
    rng = random.Random(20261018)
    invalid = 0
    for _ in range(1200):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        expected = oracle_schema_problems(doc)
        assert schema._schema_problems(doc) == expected, doc
        invalid += bool(expected)
    assert invalid > 1000


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
    assert parsed.flag is None and parsed.trdeg_override == 2


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


def test_a_shipped_spec_refuses_a_gand_group_without_its_scalars(capsys, tmp_path):
    # gsp(4) holds the scalars, which sl(4) lacks and gl(4) has.
    doc = json.loads((SPECS / "gsp4-cy.json").read_text())
    doc["gand_group"] = {"kind": "sl", "n": 4}
    assert problems_of(doc) == "gand_group: does not contain the declared group algebra"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["screen", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spec error: gand_group: does not contain the declared group algebra"]
    doc["gand_group"] = {"kind": "gl", "n": 4}
    assert parse_document(doc).gand_algebra.name == "gl(4)"


def test_a_decimal_flag_entry_and_a_repeated_dims_row_exit_2(capsys, tmp_path):
    decimal = json.loads((SPECS / "gsp4-cy-generic.json").read_text())
    decimal["flag_point"]["steps"][0]["basis"][0][1] = "t1 + 1.5"
    repeated = base_doc()
    repeated["hodge_numbers"]["dims"].append([1, 0, 1])
    repeated["trdeg_override"] = 0
    path = tmp_path / "spec.json"
    for doc, problem in (
        (decimal, "flag_point/steps/0/basis/0/1: only integer literals are exact; "
                  "rewrite 1.5 as a fraction a/b"),
        (repeated, "hodge_numbers: duplicate (p, q) rows in dims"),
    ):
        path.write_text(json.dumps(doc))
        assert cli.main(["screen", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"spec error: {problem}\n")

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


def test_group_n_above_16_is_rejected_before_any_algebra_is_built(monkeypatch, capsys, tmp_path):
    def no_algebra(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(schema, "make_classical", no_algebra)
    doc = base_doc()
    doc["group"]["n"] = 17
    doc["gand_group"] = {"kind": "gl", "n": 10**6}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["invariants", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "spec error: gand_group/n: 1000000 is greater than the maximum of 16",
        "spec error: group/n: 17 is greater than the maximum of 16",
    ]


def test_exponents_above_the_cap_are_rejected_before_evaluation():
    class NoPower:
        def __pow__(self, n):
            raise AssertionError("a power was evaluated")

    env, field = entry_env()
    t1 = env["t1"]
    assert parse_entry(f"t1**{MAX_EXPONENT}", env, field) == t1 ** MAX_EXPONENT
    for text in (f"t1**{MAX_EXPONENT + 1}", "(t1 + 1)**1000000000"):
        with pytest.raises(ValueError, match=f"above the cap of {MAX_EXPONENT}"):
            parse_entry(text, {"t1": NoPower()}, field)
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", "t1**65"]]}]
    assert problems_of(doc) == (
        "flag_point/steps/0/basis/0/1: exponent 65 is above the cap of 64"
    )


def test_nested_powers_are_capped_by_their_product():
    class NoPower:
        def __pow__(self, n):
            raise AssertionError("a power was evaluated")

    env, field = entry_env()
    t1 = env["t1"]
    assert parse_entry("((t1 + 1)**2)**3", env, field) == (t1 + 1) ** 6
    for text, total in (("((t1 + 1)**64)**64", 4096), ("((t1 + 1)**8)**9", 72),
                        ("-(2 * (t1 + 1)**2)**33", 66), ("((t1**2)**2)**17", 68)):
        with pytest.raises(ValueError, match=f"multiply to {total}, above the cap of 64"):
            parse_entry(text, {"t1": NoPower()}, field)
    with pytest.raises(ValueError, match="exponent 100 is above the cap"):
        parse_entry("(t1**100)**0", {"t1": NoPower()}, field)
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", "((t1 + 1)**64)**64"]]}]
    assert problems_of(doc) == (
        "flag_point/steps/0/basis/0/1: nested exponents multiply to 4096, "
        "above the cap of 64"
    )


def test_integral_floats_are_rejected_with_their_path(capsys, tmp_path):
    cases = (
        (("group", "n"), "group/n"),
        (("cocharacter", "lambda", 0), "cocharacter/lambda/0"),
        (("hodge_numbers", "weight"), "hodge_numbers/weight"),
        (("hodge_numbers", "dims", 1, 2), "hodge_numbers/dims/1/2"),
        (("flag_point", "steps", 0, "p"), "flag_point/steps/0/p"),
        (("flag_point", "steps", 0, "basis", 0, 0), "flag_point/steps/0/basis/0/0"),
    )
    for where, path in cases:
        doc = flag_doc()
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = float(node[where[-1]])
        assert problems_of(doc) == f"{path}: {node[where[-1]]!r} is a float, not an integer"
    doc = base_doc()
    doc["trdeg_override"] = 1.0
    assert problems_of(doc) == "trdeg_override: 1.0 is a float, not an integer"
    doc = base_doc()
    doc["group"]["n"] = 2.0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["screen", str(spec)]) == 2
    assert capsys.readouterr().err == "spec error: group/n: 2.0 is a float, not an integer\n"


def test_flag_entry_problems_carry_their_position():
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", "t9"]]}]
    text = problems_of(doc)
    assert "flag_point/steps/0/basis/0/1" in text
    assert "unknown name" in text


@pytest.mark.parametrize("entry", [
    "+".join(["t1"] * 20000),
    "-" * 3000 + "t1",
    "-" * 200000 + "t1",
])
def test_deeply_nested_entries_are_spec_errors(entry):
    doc = flag_doc()
    doc["flag_point"]["steps"] = [{"p": 1, "basis": [["1", entry]]}]
    assert problems_of(doc) == (
        "flag_point/steps/0/basis/0/1: entry nests too deeply to evaluate"
    )


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
    copied = copy.deepcopy(raw)
    doc = parse_document(copied)
    assert copied == raw
    assert doc.conjectures.motivated and not doc.conjectures.gpc
