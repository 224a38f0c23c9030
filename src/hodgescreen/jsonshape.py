"""Shape check of a JSON document against a small subset of JSON Schema.

The subset is the keywords the spec schema uses, in the forms it uses
them: type, enum (of strings), minimum, maximum, minItems, maxItems,
minLength, required, properties, additionalProperties (false only),
items and anyOf; $schema and title are ignored.  Any other keyword
raises NotImplementedError as soon as the walk reaches it, so a schema
edit cannot be skipped unnoticed.  Type rules are Draft 2020-12's, and
every message and the order of the problems are those of jsonschema
4.x; the test suite checks that against jsonschema itself.  So
jsonschema, whose import cost more than the rest of loading a spec,
stays off the runtime path.  integral_floats is a second pass, outside
JSON Schema, for callers that want integers written as integers.
"""

from __future__ import annotations

import numbers

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # Draft 2020-12: 2.0 is an integer, and a bool is never a number.
    "integer": lambda v: (
        (isinstance(v, int) and not isinstance(v, bool))
        or (isinstance(v, float) and v.is_integer())
    ),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
}


def _walk(instance, node: dict, path: tuple, out: list) -> None:
    """Append (path, message) for each way instance breaks the schema node.

    Keyword order within a node, then depth first: jsonschema's order.
    """
    for key, value in node.items():
        if key in ("$schema", "title"):
            continue
        if key == "type" and isinstance(value, str) and value in _TYPES:
            if not _TYPES[value](instance):
                out.append((path, f"{instance!r} is not of type {value!r}"))
        elif key == "enum" and all(isinstance(each, str) for each in value):
            if instance not in value:
                out.append((path, f"{instance!r} is not one of {value!r}"))
        elif key == "minimum":
            if _TYPES["number"](instance) and instance < value:
                out.append((path, f"{instance!r} is less than the minimum of {value!r}"))
        elif key == "maximum":
            if _TYPES["number"](instance) and instance > value:
                out.append((path, f"{instance!r} is greater than the maximum of {value!r}"))
        elif key in ("minItems", "minLength"):
            if isinstance(instance, list if key == "minItems" else str) and len(instance) < value:
                message = "should be non-empty" if value == 1 else "is too short"
                out.append((path, f"{instance!r} {message}"))
        elif key == "maxItems":
            if isinstance(instance, list) and len(instance) > value:
                message = "is expected to be empty" if value == 0 else "is too long"
                out.append((path, f"{instance!r} {message}"))
        elif key == "required":
            if isinstance(instance, dict):
                for name in value:
                    if name not in instance:
                        out.append((path, f"{name!r} is a required property"))
        elif key == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        _walk(instance[name], sub, path + (name,), out)
        elif key == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                known = node.get("properties", {})
                extras = sorted(name for name in instance if name not in known)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    names = ", ".join(repr(name) for name in extras)
                    out.append((path, f"Additional properties are not allowed "
                                      f"({names} {verb} unexpected)"))
        elif key == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    _walk(item, value, path + (index,), out)
        elif key == "anyOf":
            for sub in value:
                trial = []
                _walk(instance, sub, path, trial)
                if not trial:
                    break
            else:
                out.append((path, f"{instance!r} is not valid under any of the given schemas"))
        else:
            raise NotImplementedError(f"schema keyword {key!r}: {value!r} is not supported")


def _floats(instance, node: dict, path: tuple, out: list) -> None:
    """Append (path, message) for each float where node asks for an integer."""
    if node.get("type") == "integer" and isinstance(instance, float):
        out.append((path, f"{instance!r} is a float, not an integer"))
    for sub in node.get("anyOf", ()):
        _floats(instance, sub, path, out)
    if isinstance(instance, dict):
        for name, sub in node.get("properties", {}).items():
            if name in instance:
                _floats(instance[name], sub, path + (name,), out)
    elif isinstance(instance, list) and "items" in node:
        for index, item in enumerate(instance):
            _floats(item, node["items"], path + (index,), out)


def _report(walk, instance, schema: dict) -> list:
    found = []
    walk(instance, schema, (), found)
    found.sort(key=lambda item: item[0])  # stable: keeps keyword order per path
    return [f"{'/'.join(str(part) for part in path) or '(document root)'}: {message}"
            for path, message in found]


def shape_problems(instance, schema: dict) -> list:
    """Every way instance breaks schema, as "path: message" strings,
    sorted stably by JSON path."""
    return _report(_walk, instance, schema)


def integral_floats(instance, schema: dict) -> list:
    """Every float (2.0 included) where schema asks for an integer, in
    shape_problems' form.  Draft 2020-12 counts 2.0 as an integer, so
    shape_problems lets it pass; an instance with shape problems may
    give an incomplete list."""
    return _report(_floats, instance, schema)
