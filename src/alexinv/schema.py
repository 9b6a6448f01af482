"""Checking a JSON document against one of the bundled schemas, with the
standard library alone.

The checker covers the JSON Schema (draft 2020-12) keywords the bundled
schemas use: type, const, enum, oneOf, required, properties,
patternProperties, additionalProperties (false only), prefixItems, items,
minItems, maxItems and minimum.  Other keywords ($schema, $id, title) are
ignored.  It reports every violation with the path to the offending value.
"""

from __future__ import annotations

import json
import os
import re
from typing import List, Tuple

JsonPath = Tuple[object, ...]


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # a number with no fractional part, 2.0 included, as the draft says
    "integer": lambda v: _number(v) and (isinstance(v, int) or v.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality: true and 1 are different values."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def load_schema(schema_id: str) -> dict:
    """The bundled schema of that name, read from ``schemas/`` next to this
    module."""
    with open(os.path.join(os.path.dirname(__file__), "schemas", f"{schema_id}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def violations(schema: dict, value) -> List[Tuple[JsonPath, str]]:
    """Every (path, message) at which value breaks schema, sorted by path;
    the path lists the object keys and array indices from the root."""
    out: List[Tuple[JsonPath, str]] = []
    _collect(schema, value, (), out)
    return sorted(out, key=lambda v: v[0])


def _collect(schema: dict, value, path: JsonPath, out: List[Tuple[JsonPath, str]]) -> None:
    def fail(message: str) -> None:
        out.append((path, message))

    if "type" in schema and not _TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "const" in schema and not _same(value, schema["const"]):
        fail(f"{schema['const']!r} was expected")
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if "oneOf" in schema:
        valid = sum(not violations(s, value) for s in schema["oneOf"])
        if valid != 1:
            fail(f"{value!r} is valid under {valid} of the given schemas, not exactly one")
    if _number(value) and "minimum" in schema and value < schema["minimum"]:
        fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        extra = []
        for key, item in value.items():
            subs = [properties[key]] if key in properties else []
            subs += [s for p, s in patterns.items() if re.search(p, key)]
            for sub in subs:
                _collect(sub, item, path + (key,), out)
            if not subs:
                extra.append(key)
        if extra and schema.get("additionalProperties") is False:
            fail(f"additional properties are not allowed: {', '.join(map(repr, extra))}")
    if isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                _collect(sub, item, path + (i,), out)
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} is too short (minItems {schema['minItems']})")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} is too long (maxItems {schema['maxItems']})")
