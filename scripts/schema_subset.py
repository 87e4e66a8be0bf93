"""The JSON-Schema subset the `check_*.py` scripts validate against.

Stdlib-only. Supported keywords: `$ref` (into the `defs` mapping, i.e.
`#/definitions/<name>`), `anyOf`, `enum`, `type` (including "integer"
and "null"; a bool is neither an integer nor a number), `minimum`,
`required`, `properties`, `additionalProperties` (as a schema),
`items` and `minItems`. Any other keyword is ignored.
"""

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
    "null": type(None),
}


class Invalid(Exception):
    pass


def fail(path, message):
    raise Invalid(f"{path or '$'}: {message}")


def validate(value, schema, defs=None, path=""):
    if "$ref" in schema:
        name = schema["$ref"].rsplit("/", 1)[-1]
        validate(value, defs[name], defs, path)
        return
    if "anyOf" in schema:
        errors = []
        for option in schema["anyOf"]:
            try:
                validate(value, option, defs, path)
                return
            except Invalid as err:
                errors.append(str(err))
        fail(path, f"no anyOf branch matched: {errors}")
    if "enum" in schema:
        if value not in schema["enum"]:
            fail(path, f"{value!r} not in {schema['enum']}")
        return
    typ = schema.get("type")
    if typ == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"expected integer, got {type(value).__name__}")
    elif typ is not None:
        expected = TYPES[typ]
        if not isinstance(value, expected) or (
            typ == "number" and isinstance(value, bool)
        ):
            fail(path, f"expected {typ}, got {type(value).__name__}")
    if "minimum" in schema and value < schema["minimum"]:
        fail(path, f"{value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(path, f"missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            if key in props:
                validate(item, props[key], defs, f"{path}.{key}")
            elif isinstance(extra, dict):
                validate(item, extra, defs, f"{path}.{key}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            fail(path, f"{len(value)} items < minItems {schema['minItems']}")
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for i, item in enumerate(value):
                validate(item, item_schema, defs, f"{path}[{i}]")
