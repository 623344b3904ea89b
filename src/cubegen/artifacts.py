"""Schema-validated, byte-deterministic JSON artifact emission."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema

__all__ = ["load_schema", "validate_artifact", "dump_json", "write_json_artifact"]


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    ref = resources.files("cubegen.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text())


@lru_cache(maxsize=None)
def _validator(name: str):
    """One validator per schema, built once: ``jsonschema.validate`` would
    re-check the schema itself on every call (the tests check each once)."""
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_artifact(name: str, obj: dict) -> None:
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(obj))
    if error is not None:
        raise error


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json_artifact(path, name: str, obj: dict) -> None:
    """Validate against the shipped schema, then write canonical bytes."""
    validate_artifact(name, obj)
    Path(path).write_text(dump_json(obj))
