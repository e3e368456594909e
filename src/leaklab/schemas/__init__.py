"""Bundled JSON schemas and the checker that validates against them.

The checker interprets the subset of JSON Schema Draft 2020-12 that the
bundled schemas use:

- any value: ``type``, ``enum``, ``const``, ``allOf``, ``if``/``then``;
- objects: ``required``, ``properties``, ``additionalProperties`` (false
  or a schema), ``minProperties``;
- arrays: ``items``, ``minItems``, ``maxItems``, ``uniqueItems``;
- numbers: ``minimum``, ``maximum``, ``exclusiveMinimum``,
  ``exclusiveMaximum``;
- strings: ``pattern`` (matched with ``re.search``).

``$schema``, ``$id``, ``title`` and ``$comment`` are annotations and are
ignored.  Loading a schema that uses any other keyword raises
``ValueError``, so a schema edit the checker cannot honour fails loudly
instead of being skipped.  As in Draft 2020-12, a bool is never a number,
an integral float is an integer, and ``enum``, ``const`` and
``uniqueItems`` compare by JSON equality, so ``True != 1``.  A value that
fails raises :class:`SchemaError` for the error at the smallest JSON path.
"""

from __future__ import annotations

import json
import numbers
import re
from functools import lru_cache
from pathlib import Path

__all__ = ["SchemaError", "load_schema", "validate_config", "validate_report",
           "validate_manifest_row", "SCHEMA_NAMES"]

SCHEMA_NAMES = ("config", "report", "manifest")

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$comment"})
_KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties",
    "items", "minItems", "maxItems", "uniqueItems", "minimum", "maximum",
    "exclusiveMinimum", "exclusiveMaximum", "pattern", "minProperties", "allOf",
    "if", "then",
})


class SchemaError(ValueError):
    """Input failed schema validation; message carries a JSON path."""


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema: {name!r}")
    schema = json.loads(Path(__file__).with_name(f"{name}.schema.json").read_text())
    _check_keywords(schema)
    return schema


def _check_keywords(schema, where: str = "$") -> None:
    """Raise ValueError on any keyword in ``schema`` the checker lacks."""
    if isinstance(schema, bool):
        return
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: a schema is an object or a bool, not {schema!r}")
    for key, value in schema.items():
        if key not in _KEYWORDS and key not in _ANNOTATIONS:
            raise ValueError(f"{where}: unsupported schema keyword {key!r}")
        if key == "properties":
            for name, sub in value.items():
                _check_keywords(sub, f"{where}.properties.{name}")
        elif key == "allOf":
            for i, sub in enumerate(value):
                _check_keywords(sub, f"{where}.{key}[{i}]")
        elif key in ("additionalProperties", "items", "if", "then"):
            _check_keywords(value, f"{where}.{key}")


def _is_number(obj) -> bool:
    return isinstance(obj, numbers.Number) and not isinstance(obj, bool)


_TYPES = {
    "object": lambda obj: isinstance(obj, dict),
    "array": lambda obj: isinstance(obj, list),
    "string": lambda obj: isinstance(obj, str),
    "boolean": lambda obj: isinstance(obj, bool),
    "null": lambda obj: obj is None,
    "number": _is_number,
    "integer": lambda obj: (isinstance(obj, int) and not isinstance(obj, bool)
                            or isinstance(obj, float) and obj.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality: a bool equals only itself; lists and objects by member."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


def _valid(schema, obj) -> bool:
    return next(_errors(schema, obj, ()), None) is None


def _errors(schema, obj, path: tuple):
    """Yield ``(path, message)`` for each failed keyword, in schema order."""
    if schema is True:
        return
    if schema is False:
        yield path, f"False schema does not allow {obj!r}"
        return
    for key, value in schema.items():
        if key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](obj) for t in types):
                yield path, f"{obj!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_equal(each, obj) for each in value):
                yield path, f"{obj!r} is not one of {value!r}"
        elif key == "const":
            if not _equal(obj, value):
                yield path, f"{value!r} was expected"
        elif key == "allOf":
            for sub in value:
                yield from _errors(sub, obj, path)
        elif key == "if":
            if "then" in schema and _valid(value, obj):
                yield from _errors(schema["then"], obj, path)
        elif isinstance(obj, dict):
            if key == "required":
                for name in value:
                    if name not in obj:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in value.items():
                    if name in obj:
                        yield from _errors(sub, obj[name], path + (name,))
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = [name for name in obj if name not in known]
                if value is False and extras:
                    names = ", ".join(map(repr, sorted(extras)))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
                elif isinstance(value, dict):
                    for name in extras:
                        yield from _errors(value, obj[name], path + (name,))
            elif key == "minProperties" and len(obj) < value:
                message = "should be non-empty" if value == 1 else "does not have enough properties"
                yield path, f"{obj!r} {message}"
        elif isinstance(obj, list):
            if key == "items":
                for i, item in enumerate(obj):
                    yield from _errors(value, item, path + (i,))
            elif key == "minItems" and len(obj) < value:
                yield path, f"{obj!r} {'should be non-empty' if value == 1 else 'is too short'}"
            elif key == "maxItems" and len(obj) > value:
                yield path, f"{obj!r} {'is expected to be empty' if value == 0 else 'is too long'}"
            elif key == "uniqueItems" and value and any(
                    _equal(a, b) for i, a in enumerate(obj) for b in obj[i + 1:]):
                yield path, f"{obj!r} has non-unique elements"
        elif isinstance(obj, str):
            if key == "pattern" and not re.search(value, obj):
                yield path, f"{obj!r} does not match {value!r}"
        elif _is_number(obj):
            if key == "minimum" and obj < value:
                yield path, f"{obj!r} is less than the minimum of {value!r}"
            elif key == "maximum" and obj > value:
                yield path, f"{obj!r} is greater than the maximum of {value!r}"
            elif key == "exclusiveMinimum" and obj <= value:
                yield path, f"{obj!r} is less than or equal to the minimum of {value!r}"
            elif key == "exclusiveMaximum" and obj >= value:
                yield path, f"{obj!r} is greater than or equal to the maximum of {value!r}"


_PLAIN_NAME = re.compile("[a-zA-Z][a-zA-Z0-9_]*")


def _json_path(path: tuple) -> str:
    out = "$"
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        elif _PLAIN_NAME.fullmatch(part):
            out += "." + part
        else:
            out += "['" + part.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _validate(obj: dict, name: str) -> None:
    # the first error by path, compared part by part (so [2] precedes [10])
    first = min(_errors(load_schema(name), obj, ()), key=lambda e: e[0], default=None)
    if first is not None:
        raise SchemaError(f"{_json_path(first[0])}: {first[1]}")


def validate_config(obj: dict) -> None:
    _validate(obj, "config")


def validate_report(obj: dict) -> None:
    _validate(obj, "report")


def validate_manifest_row(obj: dict) -> None:
    _validate(obj, "manifest")
