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


def data_root():
    override = os.environ.get("GWVERIFY_DATA_DIR")
    if override:
        return Path(override)
    return resources.files("gwverify").joinpath("data")


def load_json(*parts: str) -> tuple[Any, str]:
    """Load a JSON data file; returns (payload, display path)."""
    node = data_root()
    for p in parts:
        node = node.joinpath(p)
    where = str(node)
    try:
        text = node.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise SchemaError(f"{where}: data file missing") from exc
    except OSError as exc:
        raise SchemaError(f"{where}: cannot read data file ({exc.strerror})") from exc
    try:
        return json.loads(text), where
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from exc
