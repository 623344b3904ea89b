"""Schema-validated, byte-deterministic JSON artifact emission.

The shipped schemas use seven JSON Schema keywords, and ``_check`` implements
exactly those: ``type``, ``enum``, ``minimum``, ``required``, ``properties``,
``additionalProperties`` and ``items``, with draft 2020-12's rules (a bool is
neither a number nor an integer, ``2.0`` is an integer, ``true`` is not
``1``).  ``$schema``, ``title`` and ``description`` are annotations.  A schema
with any other keyword fails to load, so nothing goes unchecked unnoticed.
"""

from __future__ import annotations

import json
import numbers
from functools import lru_cache
from importlib import resources
from pathlib import Path

__all__ = ["ArtifactSchemaError", "load_schema", "validate_artifact", "dump_json",
           "write_json_artifact"]

_ANNOTATIONS = {"$schema", "title", "description"}
_KEYWORDS = {"type", "enum", "minimum", "required", "properties",
             "additionalProperties", "items"}


class ArtifactSchemaError(ValueError):
    """An artifact breaks its schema; the message names the JSON path."""


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _refuse_unknown(schema, where: str) -> None:
    """Raise ValueError if ``schema`` or a subschema holds a keyword or a
    ``type`` that ``_check`` does not implement."""
    if isinstance(schema, bool):
        return
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"schema {where} uses unsupported keywords {sorted(unknown)}")
    kind = schema.get("type", "object")
    if not (isinstance(kind, str) and kind in _TYPES):
        raise ValueError(f"schema {where} uses unsupported type {kind!r}")
    subs = [*schema.get("properties", {}).values(),
            schema.get("additionalProperties", True), schema.get("items", True)]
    for sub in subs:
        _refuse_unknown(sub, where)


def _check(schema, value, path: str = "$") -> None:
    """Raise ArtifactSchemaError at the first place ``value`` breaks ``schema``."""
    if schema is True:
        return
    if schema is False:
        raise ArtifactSchemaError(f"{path}: not allowed by the schema")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise ArtifactSchemaError(f"{path}: expected {kind}, got {type(value).__name__}")
    if "enum" in schema and not any(
            value == e and isinstance(value, bool) == isinstance(e, bool)
            for e in schema["enum"]):
        raise ArtifactSchemaError(f"{path}: {value!r} is not one of {schema['enum']}")
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        raise ArtifactSchemaError(f"{path}: {value!r} is below {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ArtifactSchemaError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            _check(props.get(key, extra), item, f"{path}.{key}")
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(schema["items"], item, f"{path}[{i}]")


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    ref = resources.files("cubegen.schemas").joinpath(f"{name}.schema.json")
    schema = json.loads(ref.read_text())
    _refuse_unknown(schema, name)
    return schema


def validate_artifact(name: str, obj: dict) -> None:
    _check(load_schema(name), obj, f"{name}: $")


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json_artifact(path, name: str, obj: dict) -> None:
    """Validate against the shipped schema, then write canonical bytes."""
    validate_artifact(name, obj)
    Path(path).write_text(dump_json(obj))
