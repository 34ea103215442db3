"""One restricted JSON-Schema interpreter for every interchange format.

Telemetry events, the serve submit stream, served responses and the lint
report are each defined by one JSON Schema document checked in under
``schemas/``.  :func:`validate` checks a decoded value against such a
document with Draft 2020-12 semantics for exactly the keywords they use —
``type``, ``enum``, ``const``, ``minLength``, ``properties``,
``required``, boolean ``additionalProperties``, ``items``, ``oneOf`` and
local ``$ref`` — and ignores annotations, so validation needs no
jsonschema package.  Tests check that the two agree where it is installed.
"""

from __future__ import annotations

from typing import Any, Mapping

#: JSON type names by Python type; ``bool`` precedes its base ``int``.
_TYPE_NAMES = (
    (dict, "object"), (str, "string"), (bool, "boolean"), (int, "integer"),
    (float, "number"), (list, "array"), (type(None), "null"),
)


def _json_type_of(value: Any) -> str:
    """JSON Schema type name of a decoded JSON value."""
    for kind, name in _TYPE_NAMES:
        if isinstance(value, kind):
            return name
    return type(value).__name__


def _has_type(value: Any, expected: str | list[str]) -> bool:
    allowed = (expected,) if isinstance(expected, str) else expected
    actual = _json_type_of(value)
    if actual in allowed:
        return True
    # Every integer is a number, and an integral number is an integer.
    if actual == "integer":
        return "number" in allowed
    return actual == "number" and value.is_integer() and "integer" in allowed


def _equal(value: Any, expected: Any) -> bool:
    """JSON equality for ``enum``/``const``: ``true`` is not ``1``."""
    return value == expected and isinstance(value, bool) is isinstance(expected, bool)


def _resolve(ref: str, root: Mapping[str, Any]) -> Any:
    """The node a local ``#/a/b`` JSON pointer names, or ``None``."""
    node: Any = root if ref.startswith("#") else None
    for part in ref[1:].split("/")[1:]:
        part = part.replace("~1", "/").replace("~0", "~")
        node = node.get(part) if isinstance(node, Mapping) else None
    return node


def _error(value: Any, schema: Mapping, root: Mapping, where: str) -> str | None:
    """The first violation as ``"<json path>: <reason>"``, or ``None``."""
    if "$ref" in schema:
        target = _resolve(schema["$ref"], root)
        if not isinstance(target, Mapping):
            return f"{where}: unresolvable $ref {schema['$ref']!r}"
        error = _error(value, target, root, where)
        if error is not None:
            return error
    expected = schema.get("type")
    if expected is not None and not _has_type(value, expected):
        names = expected if isinstance(expected, str) else "/".join(expected)
        return f"{where}: expected {names}, got {_json_type_of(value)}"
    if "const" in schema and not _equal(value, schema["const"]):
        return f"{where}: value {value!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        return f"{where}: value {value!r} not in {schema['enum']}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        return f"{where}: shorter than {schema['minLength']} characters"
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                return f"{where}: missing required field {name!r}"
        if schema.get("additionalProperties") is False:
            unknown = [name for name in value if name not in properties]
            if unknown:
                return f"{where}: unknown fields {sorted(unknown)}"
        for name, subschema in properties.items():
            if name in value:
                error = _error(value[name], subschema, root, f"{where}.{name}")
                if error is not None:
                    return error
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            error = _error(item, schema["items"], root, f"{where}[{index}]")
            if error is not None:
                return error
    if "oneOf" in schema:
        return _one_of(value, schema["oneOf"], root, where)
    return None


def _one_of(value: Any, alternatives: list, root: Mapping, where: str) -> str | None:
    errors = [_error(value, alt, root, where) for alt in alternatives]
    matched = errors.count(None)
    if matched:
        return None if matched == 1 else (
            f"{where}: matches {matched} oneOf alternatives, not exactly one"
        )
    if len(set(errors)) == 1:
        return errors[0]
    # Blame the one alternative that most of the object's fields satisfy.
    fields = value.items() if isinstance(value, dict) else ()
    scores = [
        sum(
            name in alt.get("properties", {})
            and _error(item, alt["properties"][name], root, "") is None
            for name, item in fields
        )
        for alt in alternatives
    ]
    best = max(scores)
    if best and scores.count(best) == 1:
        return errors[scores.index(best)]
    return f"{where}: matches none of the {len(alternatives)} oneOf alternatives"


def closed_object(
    properties: Mapping[str, Any], required: Any = None, **annotations: Any
) -> dict[str, Any]:
    """An object schema with exactly ``properties``, all required by default."""
    return {
        **annotations,
        "type": "object",
        "properties": {name: dict(sub) for name, sub in properties.items()},
        "required": sorted(properties if required is None else required),
        "additionalProperties": False,
    }


def validate(
    value: Any, schema: Mapping, error: type[Exception] = ValueError, *,
    root: Mapping | None = None, where: str = "$",
) -> None:
    """Raise ``error`` naming the JSON path of ``value``'s first violation.

    ``root`` is the document local ``$ref`` pointers resolve against
    (default: ``schema`` itself); ``where`` labels the value's own path.
    """
    message = _error(value, schema, schema if root is None else root, where)
    if message is not None:
        raise error(message)
