"""The standard-library schema checker against jsonschema's
Draft202012Validator as the oracle: valid documents of every bundled
schema, and mutations of them that drop a required key, add a key, change
a type, break a bound, or put a bool where an integer is expected."""

import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alexinv.schema import load_schema, violations

jsonschema = pytest.importorskip("jsonschema")

VALID = {
    "presentation": {
        "schema_version": 1,
        "generators": 2,
        "relators": [[[1, 1], [2, 1], [1, 1], [2, -1], [1, -1], [2, -1]]],
        "phi": [[1], [1]],
        "torsion": False,
    },
    "braids": {"schema_version": 1, "strands": 2, "braids": [[1], [1, -1]], "labels": {"1": "C", "2": "C"}},
    "curve": {
        "schema_version": 1,
        "degree": 6,
        "components": [{"label": "C", "degree": 4}, {"label": "L", "degree": 2}],
        "singularities": [
            {"pos": ["0", "0"], "type": "cusp", "incidence": ["C"]},
            {"pos": ["1/2", "1"], "type": "torus", "pq": [2, 5]},
            {"pos": ["2", "-1"], "germ": "x^2 - y^3"},
            {"pos": ["3", "5"], "germ": ["x - y", "x + y"], "incidence": ["C", "L"]},
        ],
    },
    "tree": {
        "schema_version": 1,
        "r": 1,
        "nodes": [
            {"id": 1, "a": [2], "c": 1, "adj": [3]},
            {"id": 2, "a": [3], "c": 2, "adj": [3]},
            {"id": 3, "a": [6], "c": 4, "adj": [1, 2], "strict": [[1, 1]]},
        ],
    },
    "character": {"schema_version": 1, "coords": ["1/6", "5/6"]},
}

# values of every JSON type, some of them integral floats and bools
OTHERS = ["x", "7", 0, -1, 3, 2.0, 2.5, True, False, None, [], [1], {}, {"k": 1}]


def _nodes(value, path=()):
    """Every (path, value) in a document, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def documents(draw):
    """A bundled schema's id and a valid document of it, mutated one to
    three times."""
    schema_id = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[schema_id])
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_nodes(doc))))
        kind = draw(st.sampled_from(["drop", "add", "type", "bound", "bool"]))
        if kind == "drop" and isinstance(value, dict) and value:
            del value[draw(st.sampled_from(sorted(value)))]
        elif kind == "add" and isinstance(value, dict):
            key = draw(st.sampled_from(["extra", "9", "schema_version", "degree"]))
            value[key] = copy.deepcopy(draw(st.sampled_from(OTHERS)))
        elif kind == "bound" and isinstance(value, list):
            if value and draw(st.booleans()):
                del value[draw(st.integers(0, len(value) - 1)):]
            else:
                value.append(copy.deepcopy(value[0]) if value else 1)
        elif kind == "bound" and isinstance(value, int) and not isinstance(value, bool):
            doc = _replace(doc, path, draw(st.sampled_from([0, -1, -5])))
        elif kind == "bool" and isinstance(value, int):
            doc = _replace(doc, path, draw(st.booleans()))
        else:
            doc = _replace(doc, path, copy.deepcopy(draw(st.sampled_from(OTHERS))))
    return schema_id, doc


def _oracle(schema_id, doc):
    validator = jsonschema.Draft202012Validator(load_schema(schema_id))
    return sorted(tuple(e.path) for e in validator.iter_errors(doc))


@pytest.mark.parametrize("schema_id", sorted(VALID))
def test_valid_documents_pass(schema_id):
    assert violations(load_schema(schema_id), VALID[schema_id]) == []
    assert _oracle(schema_id, VALID[schema_id]) == []


@given(documents())
@example(("tree", {"r": 1.0, "nodes": [{"id": 2.0, "a": [0.5], "c": -0.5}]}))
@example(("presentation", {"generators": True, "relators": [[[1.0, True]]], "torsion": 0}))
def test_checker_matches_jsonschema(case):
    schema_id, doc = case
    found = violations(load_schema(schema_id), doc)
    assert [path for path, _ in found] == _oracle(schema_id, doc)


# every keyword the checker implements, and the annotations it ignores
KEYWORDS = {
    "type", "const", "enum", "oneOf", "required", "properties", "patternProperties",
    "additionalProperties", "prefixItems", "items", "minItems", "maxItems", "minimum",
}
ANNOTATIONS = {"$schema", "$id", "title"}


def _subschemas(schema):
    yield schema
    for key, sub in schema.items():
        if key in ("properties", "patternProperties"):
            sub = list(sub.values())
        elif key == "items":
            sub = [sub]
        elif key not in ("oneOf", "prefixItems"):
            continue
        for s in sub:
            yield from _subschemas(s)


@pytest.mark.parametrize("schema_id", sorted(VALID))
def test_bundled_schemas_use_only_checked_keywords(schema_id):
    subschemas = list(_subschemas(load_schema(schema_id)))
    assert len(subschemas) > 3
    for sub in subschemas:
        assert set(sub) <= KEYWORDS | ANNOTATIONS, sub
        assert sub.get("additionalProperties", False) is False
