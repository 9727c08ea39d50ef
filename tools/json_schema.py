"""Stdlib validator for the JSON-Schema subset of the lcsf contracts.

tools/metrics_schema.json, tools/lint_schema.json and
tools/serve_schema.json are written in this subset, and
check_metrics.py, lint_compare.py and check_serve.py validate through
validate() below instead of depending on a jsonschema package.

Supported keywords (anything else, such as "$comment", is ignored):

  type                  a name or a list of names: object, array, string,
                        boolean, integer, number; integer and number
                        reject booleans
  const, enum, minimum
  required, properties
  additionalProperties  false (a closed object) or a schema for every
                        member that `properties` does not name
  items                 a schema for every array element
"""

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass in Python; keep it out of the numbers.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
}


def validate(instance, schema, path="$"):
    """Check `instance` against `schema`; returns "path: problem" strings
    (empty when valid). A type mismatch stops the checks below it."""
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_TYPES[name](instance) for name in names):
            return [f"{path}: expected {' or '.join(names)}, "
                    f"got {type(instance).__name__}"]
    errors = []
    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, "
                      f"got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if ("minimum" in schema and _TYPES["number"](instance)
            and instance < schema["minimum"]):
        errors.append(f"{path}: {instance} < minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                errors.extend(validate(value, props[key], f"{path}.{key}"))
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                errors.extend(validate(value, extra, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors
