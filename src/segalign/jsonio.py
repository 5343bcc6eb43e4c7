"""The one reader of whole JSON files, and the value checks its callers
share; every failure is a ValueError, which the CLI reports as one JSON line."""

import json
import math

import numpy as np


def read_json(path, parse):
    """``parse`` of the JSON value in ``path``.  A missing file, invalid JSON
    or UTF-8, or a ValueError from ``parse``, is a ValueError whose message
    starts with ``<path>: ``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except FileNotFoundError:
        raise ValueError(f"{path}: file not found") from None
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def json_object(obj, *keys: str) -> dict:
    """``obj``, if it is a JSON object that holds every one of ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    return obj


def number(value, kind: type, name: str):
    """``value``, if it is a JSON number of ``kind``: an int (a bool is not
    one) for int, and a finite int or float for float."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)) or not -math.inf < value < math.inf:
        raise ValueError(f"field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def positive_int(value, name: str) -> int:
    """``value``, if it is a JSON int of at least 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"field {name!r} must be a positive integer, got {value!r}")
    return value


def numeric_array(value) -> np.ndarray | None:
    """``value`` as a float64 array if it is a JSON number, or lists of JSON
    numbers (not bools) nested to a rectangular shape; None otherwise."""
    try:
        cells = np.asarray(value, dtype=object)  # ragged rows stay lists
        return cells.astype(np.float64) if set(map(type, cells.ravel())) <= {int, float} else None
    except OverflowError:  # an int beyond float64
        return None
