"""The artifact checker against jsonschema, its reference: the same verdict
on every JSON artifact the CLI writes and on mutated copies of each."""

import contextlib
import io
import json

import jsonschema
import pytest

from cubegen import artifacts
from cubegen.artifacts import ArtifactSchemaError, load_schema, validate_artifact

from test_cli import run, small_cfg

SCHEMAS = ("plan", "coverage", "context", "run_report", "timings", "metrics",
           "error", "dry_run")


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict:
    """{schema name: artifact} from one run of every subcommand that writes
    JSON, plus the error record of a failed one."""
    tmp = tmp_path_factory.mktemp("artifacts")
    cfg, out = small_cfg(tmp), tmp / "out"
    for sub in (["project"], ["plan"], ["context"], ["generate"],
                ["generate", "--dry-run"], ["metrics"]):
        assert run([*sub, "--config", cfg, "--out", out]) == 0
    docs = {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")
            if p.name != "poses.json"}
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"num_frames": 7}))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(["plan", "--config", bad, "--out", out]) == 1
    docs["error"] = json.loads(err.getvalue())
    assert set(docs) == set(SCHEMAS)
    return docs


def ours_accepts(schema, obj) -> bool:
    try:
        artifacts._check(schema, obj)
    except ArtifactSchemaError:
        return False
    return True


def mutations(schema, value):
    """Copies of ``value``, each changed at one place that ``schema``
    constrains; containers are rebuilt along the changed path only."""
    if schema is True or schema is False:
        return
    kind = schema.get("type")
    if kind in ("integer", "number"):
        yield from (True, False, 2.0, 2.5, "1", None)
    if kind == "string":
        yield from (1, True, None)
    if "minimum" in schema:
        yield from (schema["minimum"] - 1, schema["minimum"] - 0.5)
    if "enum" in schema:
        yield from ("not-in-enum", True, 1)
    if isinstance(value, dict):
        yield [value]
        for key in schema.get("required", ()):
            yield {k: v for k, v in value.items() if k != key}
        yield {**value, "unexpected": 0}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                for m in mutations(sub, value[key]):
                    yield {**value, key: m}
    if isinstance(value, list):
        yield {"0": value}
        if value and "items" in schema:
            for m in mutations(schema["items"], value[0]):
                yield [m, *value[1:]]
            for m in mutations(schema["items"], value[-1]):
                yield [*value[:-1], m]


@pytest.mark.parametrize("name", SCHEMAS)
def test_written_artifact_validates_under_both(written, name):
    validate_artifact(name, written[name])
    jsonschema.Draft202012Validator(load_schema(name)).validate(written[name])


@pytest.mark.parametrize("name", SCHEMAS)
def test_mutations_get_jsonschemas_verdict(written, name):
    schema = load_schema(name)
    reference = jsonschema.Draft202012Validator(schema)
    verdicts = []
    for mutant in mutations(schema, written[name]):
        verdict = reference.is_valid(mutant)
        assert ours_accepts(schema, mutant) == verdict, json.dumps(mutant)[:300]
        verdicts.append(verdict)
    assert verdicts.count(False) >= 10, verdicts


@pytest.mark.parametrize("schema", [
    {"enum": [1]}, {"enum": [True]}, {"enum": [False, "F"]}, {"enum": [0.0]},
    {"type": "integer"}, {"type": "number"}, {"type": "string"},
    {"type": "array", "items": {"type": "integer", "minimum": 1}},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "number", "minimum": 0}, {"minimum": 1},
], ids=str)
def test_scalars_get_jsonschemas_verdict(schema):
    # true is not 1, a bool is no number, 2.0 is an integer, -0.0 is not
    # below 0, and the keywords of one type ignore values of the others
    reference = jsonschema.Draft202012Validator(schema)
    for value in (True, False, 1, 0, 1.0, 0.0, -0.0, 2.0, 2.5, -1, "1", "F",
                  None, [], [1, 2], [0], {}, {"a": 1}, {"a": True}):
        assert ours_accepts(schema, value) == reference.is_valid(value), value


def test_violation_names_the_json_path():
    plan = {"steps": [{"face": "F", "s": 0, "e": 1}, {"face": "F", "s": 0, "e": 0}]}
    with pytest.raises(ArtifactSchemaError, match=r"^plan: \$\.steps\[1\]\.e: 0 is below 1$"):
        validate_artifact("plan", plan)
    assert issubclass(ArtifactSchemaError, ValueError)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^[A-Z]$"},
    {"properties": {"a": {"type": "number", "maximum": 1}}},
    {"items": {"anyOf": [{"type": "string"}]}},
    {"additionalProperties": {"format": "date"}},
    {"type": ["string", "null"]},
    {"type": "boolean"},
], ids=["pattern", "nested-maximum", "items-anyOf", "additional-format",
        "type-list", "type-boolean"])
def test_schema_outside_the_keyword_set_fails_to_load(tmp_path, monkeypatch, schema):
    (tmp_path / "odd.schema.json").write_text(json.dumps(schema))
    monkeypatch.setattr(artifacts.resources, "files", lambda package: tmp_path)
    with pytest.raises(ValueError, match="schema odd uses unsupported"):
        load_schema("odd")
