"""The jsonschema-backed validator, kept as a differential oracle.

This is ``leaklab.schemas._validate`` as it was before the package
interpreted its schemas itself: ``jsonschema.Draft202012Validator`` over
the bundled schema, raising for the error at the smallest path.  The
in-module checker must agree with it on every input: both accept, or
both raise for the same JSON path.
"""

import jsonschema

from leaklab.schemas import SchemaError, load_schema


def oracle_validate(obj: dict, name: str) -> None:
    validator = jsonschema.Draft202012Validator(load_schema(name))
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        raise SchemaError(f"{e.json_path}: {e.message}")
