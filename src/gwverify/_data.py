"""Shared access to the shipped data files (tables and diagrams).

The environment variable GWVERIFY_DATA_DIR overrides the packaged data root.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import SchemaError


# the JSON type of each value json.load returns, with its article
JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def require(value, kind: type, where: str, what: str):
    """``value`` when it is a ``kind`` (dict, list or str), else a
    :class:`SchemaError` saying that ``what`` must be that JSON type."""
    if not isinstance(value, kind):
        got = JSON_TYPES.get(type(value), type(value).__name__)
        raise SchemaError(f"{where}: {what} must be {JSON_TYPES[kind]}, not {got}")
    return value


def _json_typed(value, kind: type, noun: str, what: str):
    """``value`` when its type is exactly ``kind``, else a TypeError saying
    that ``what`` must be ``noun``; a float is named by its value."""
    if type(value) is not kind:
        got = value if type(value) is float else JSON_TYPES.get(type(value), type(value).__name__)
        raise TypeError(f"{what} must be {noun}, not {got}")
    return value


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer, else a TypeError saying that
    ``what`` must be one: a float, a boolean or a numeric string is not
    converted.  Callers add the file and the row to the message."""
    return _json_typed(value, int, "an integer", what)


def json_bool(value, what: str) -> bool:
    """``value`` when it is a JSON boolean; a string such as "false" or a
    number is a TypeError, as in :func:`json_int`."""
    return _json_typed(value, bool, "a boolean", what)


def json_str(value, what: str) -> str:
    """``value`` when it is a JSON string; a number is a TypeError, as in
    :func:`json_int`, so 0.5 is not read as a decimal."""
    return _json_typed(value, str, "a string", what)


def data_root():
    override = os.environ.get("GWVERIFY_DATA_DIR")
    if override:
        return Path(override)
    return resources.files("gwverify").joinpath("data")


def read_json(source, noun: str) -> Any:
    """Parse the JSON file at a path or packaged resource; a missing,
    unreadable or malformed file is a SchemaError naming it as the noun."""
    try:
        text = source.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise SchemaError(f"{source}: no such {noun}") from exc
    except OSError as exc:
        raise SchemaError(f"{source}: cannot read {noun} ({exc.strerror})") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{source}: invalid JSON ({exc})") from exc


def load_json(*parts: str) -> tuple[Any, str]:
    """Load a JSON data file; returns (payload, display path)."""
    node = data_root()
    for p in parts:
        node = node.joinpath(p)
    return read_json(node, "data file"), str(node)
