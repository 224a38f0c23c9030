"""The package namespace: names load on first use, and only the layers a
call uses are imported."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import hodgescreen

from support import ENV, ROOT, package_modules_after


def test_every_public_name_is_its_home_module_object():
    for name in hodgescreen.__all__:
        home = importlib.import_module(f"hodgescreen.{hodgescreen._HOME[name]}")
        value = getattr(hodgescreen, name)
        assert value is getattr(home, name), name
        defined_in = getattr(value, "__module__", home.__name__)
        assert defined_in == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hodgescreen import *", namespace)
    assert set(hodgescreen.__all__) <= set(namespace)
    for name in hodgescreen.__all__:
        assert namespace[name] is getattr(hodgescreen, name)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        hodgescreen.no_such_name
    with pytest.raises(ImportError):
        exec("from hodgescreen import no_such_name", {})


def test_dir_lists_the_public_names():
    assert set(hodgescreen.__all__) <= set(dir(hodgescreen))
    assert "__version__" in dir(hodgescreen)


def test_importing_the_package_loads_no_submodule():
    assert package_modules_after("import hodgescreen") == set()


def test_grading_and_flags_load_no_spec_hodge_or_number_field_layer():
    loaded = package_modules_after("from hodgescreen import flags, grading, lie")
    assert {"flags", "grading", "lie"} <= loaded
    assert not loaded & {"schema", "jsonshape", "verdicts", "hodge", "intervals",
                         "irreducible", "cli", "rendering"}


def test_the_hodge_layer_loads_no_flag_or_function_field_layer():
    loaded = package_modules_after("import hodgescreen.hodge")
    assert "hodge" in loaded
    assert not loaded & {"flags", "ratfunc"}


def test_irreducible_loads_no_other_module_and_intervals_only_it():
    # fields loads both lazily, so neither may pull in another layer.
    assert package_modules_after("import hodgescreen.irreducible") == {"irreducible"}
    assert package_modules_after("import hodgescreen.intervals") == {"intervals", "irreducible"}


@pytest.mark.parametrize("spec, code, number_field", [
    ("gsp4-cy.json", 10, False),
    ("torus-cm.json", 0, True),
])
def test_number_field_helpers_load_only_for_a_number_field(spec, code, number_field):
    loaded = package_modules_after(
        "from hodgescreen.cli import main\n"
        f"assert main(['screen', 'specs/{spec}']) == {code}\n")
    assert "cli" in loaded
    assert ("intervals" in loaded) is number_field
    assert ("irreducible" in loaded) is number_field


# One small operation per in-process workload, in the job format of
# perfbench/worker.py, with its output: a graded gl(3), and the flag
# <(t1, 1, 2)> with no seed (the symbolic Jacobian) and with one (the
# evaluated fast path).
_FLAG = {"k": 1, "d": 3, "vectors": [[[[1, [1]]], [[1, [0]]], [[2, [0]]]]]}
WORKER_OPS = {
    "grading_ladder": ({"kind": "gl", "n": 3, "lam": [2, 1, 0]},
                       {"levels": [[-2, 1], [-1, 2], [0, 3], [1, 2], [2, 1]],
                        "flag_dim": 3, "hcodim": 1}),
    "trdeg_symbolic": ({**_FLAG, "trdeg_seed": None}, {"value": 1}),
    "trdeg_seeded": ({**_FLAG, "trdeg_seed": 5}, {"value": 1}),
}


def test_the_benchmark_tracer_finds_every_name_it_patches():
    """perfbench/spans.py rebinds package functions and methods by name
    (flags.inverse, RatFunc.derivative, ...), so deleting or renaming one
    of them breaks the traced benchmark run; install it in a fresh
    interpreter.  perfbench/worker.py and the tracer also read the fields
    of the package's result records (rep.levels, trdeg(...).value,
    chart_coordinates, the Jacobian's rows), so run one operation of each
    in-process workload through the worker, untraced and traced."""
    env = {**ENV, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), ENV["PYTHONPATH"]))}
    proc = subprocess.run([sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
                          capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    for workload, (op, out) in WORKER_OPS.items():
        job = {"workload": workload, "ops": [op], "seconds": 0, "deadline": 5,
               "pass_limit": 5, "trace": True, "probe": False}
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=120, env=ENV, cwd=ROOT)
        assert proc.returncode == 0, (workload, proc.stderr)
        ready, line = proc.stdout.splitlines()
        assert ready.startswith("ready"), workload
        passes = json.loads(line)
        for name in ("untraced", "traced"):
            results = [(r["status"], r["out"]) for r in passes[name]["results"]]
            assert results == [("ok", out)], (workload, name, results)


# The integer functions of math that the package uses; none returns a float.
INTEGER_MATH = {"comb", "gcd", "isqrt", "lcm"}


def test_no_floats_in_the_math():
    """No float literal, no float() call and no math function outside the
    integer ones, anywhere in the package source."""
    found = []
    for path in sorted((ROOT / "src" / "hodgescreen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{where}: float()")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in INTEGER_MATH):
                found.append(f"{where}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.extend(f"{where}: from math import {alias.name}"
                             for alias in node.names if alias.name not in INTEGER_MATH)
    assert not found, found


# Attributes that errors.py sets for the callers that catch its exceptions.
EXCEPTION_PAYLOADS = {("errors.py", "index"), ("errors.py", "pair"), ("errors.py", "problems")}


def test_no_state_is_written_and_never_read():
    """Every self.X = ... in the package source has a read of .X
    somewhere in it, apart from the exception payloads above."""
    writes, reads = set(), set()
    for path in sorted((ROOT / "src" / "hodgescreen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                writes.add((path.name, node.attr))
    assert EXCEPTION_PAYLOADS <= writes
    unread = sorted((name, attr) for name, attr in writes - EXCEPTION_PAYLOADS
                    if attr not in reads)
    assert not unread, unread


# Imports kept only so that perfbench/spans.py can patch them by name.
SPANS_PINS = {("flags.py", "inverse"), ("grading.py", "rank")}


def test_every_imported_name_is_read():
    """Each name a package module imports is read in that module, apart
    from the pins above, which are listed exactly."""
    unread = set()
    for path in sorted((ROOT / "src" / "hodgescreen").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.add((path.name, bound))
    assert unread == SPANS_PINS, sorted(unread)


# Methods that change a dict in place.
DICT_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__",
                 "__delitem__", "__ior__"}


def terms_mutations(source: str, filename: str = "<source>") -> list:
    """Every place in source that assigns a .terms attribute, or changes
    a .terms dict in place (directly, or through a local name bound to
    one), apart from the one assignment in Poly.__init__."""
    tree = ast.parse(source, filename)
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def scope(node):
        names = []
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
        return ".".join(reversed(names))

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    aliases = {(scope(node), target.id) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_terms(node.value)
               for target in node.targets if isinstance(target, ast.Name)}

    def is_terms_dict(node):
        return is_terms(node) or (isinstance(node, ast.Name)
                                  and (scope(node), node.id) in aliases)

    found = []
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and is_terms_dict(target.value):
                    found.append(f"{where}: item of .terms written")
                elif isinstance(node, ast.AugAssign) and is_terms_dict(target):
                    found.append(f"{where}: .terms updated in place")
                elif is_terms(target) and scope(target) != "Poly.__init__":
                    found.append(f"{where}: .terms assigned")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_MUTATORS and is_terms_dict(node.func.value)):
            found.append(f"{where}: .terms.{node.func.attr}()")
    return found


def test_no_polynomial_is_mutated():
    """A PolyRing hands out one zero and one one, so no code in the
    package may change a Poly's terms after Poly.__init__."""
    for snippet in ("p.terms[e] = c", "del p.terms[e]", "p.terms.pop(e)",
                    "p.terms |= q", "def f(p):\n    t = p.terms\n    t.update(q)",
                    "class Poly:\n    def scale(self):\n        self.terms = {}"):
        assert terms_mutations(snippet), snippet
    assert not terms_mutations("def f(p):\n    t = dict(p.terms)\n    t[e] = c")
    found = []
    for path in sorted((ROOT / "src" / "hodgescreen").glob("*.py")):
        found += terms_mutations(path.read_text(), path.name)
    assert not found, found


# Each oracle in support.py and the names of the route it checks, which
# it must not read, directly or through another function of support.py.
ORACLE_ROUTES = {
    "brute_force_ad_matrix": {"coordinates", "contains", "_reducer",
                              "adjoint_of_diagonal", "grade", "report"},
    "oracle_levels": {"coordinates", "contains", "_reducer",
                      "adjoint_of_diagonal", "grade", "report"},
    "oracle_chart": {"normalize_chart", "echelons", "fraction_free_rref"},
    "oracle_trdeg": {"trdeg", "jacobian_matrix", "evaluated_jacobian", "rank"},
    "oracle_is_irreducible": {"is_irreducible_over_q"},
}


def names_read(functions: dict, name: str) -> set:
    """Every name and attribute the function reads, with those read by
    the functions of the same module that it reads in turn."""
    seen, todo, read = set(), [name], set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(functions[current]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_the_oracles_read_nothing_of_the_routes_they_check():
    path = ROOT / "tests" / "support.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE_ROUTES) <= set(functions)
    leaks = {name: sorted(names_read(functions, name) & route)
             for name, route in ORACLE_ROUTES.items()}
    assert leaks == {name: [] for name in ORACLE_ROUTES}, leaks
