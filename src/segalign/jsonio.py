"""The one reader of whole JSON files, the two writers of JSON and JSON-lines
files, the one encoding of float matrices in them, and the value checks
their callers share; every read failure is a ValueError, which the CLI
reports as one JSON line.

Every JSON artifact has one layout: each object on one line of
``json.dumps(obj, sort_keys=True)``, ended by a newline, written atomically.
A float matrix is a JSON list of rows, each row the lowercase hex of its
little-endian float64 bytes (``hex_rows``), so a file stores the values
exactly and a row reads back with ``np.frombuffer(bytes.fromhex(row), "<f8")``.
Printing and parsing the same values as decimal JSON numbers took most of
a corpus command's own time."""

import json
import math

import numpy as np

from .atomic import write_atomic


def write_jsonl(path, objs) -> None:
    """Write each of ``objs`` to ``path`` as one line of JSON, keys sorted."""
    write_atomic(path, "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs))


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as one line of JSON, keys sorted."""
    write_jsonl(path, [obj])


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


def hex_rows(X) -> list[str]:
    """Each row of the 2-D float matrix ``X`` as the lowercase hex of its
    little-endian float64 bytes, so ``unhex_rows`` reads back the same bits."""
    X = np.ascontiguousarray(X, "<f8")
    text = X.tobytes().hex()
    width = 16 * X.shape[1]
    return [text[i : i + width] for i in range(0, len(text), width)]


def unhex_rows(rows, d: int | None, where: str, writer: str | None) -> np.ndarray:
    """The (len(rows), d) float64 matrix that ``hex_rows`` wrote, all finite;
    with ``d`` None, the first row's length sets it.  Anything else is a
    ValueError that starts with ``where``; a row that is a list (or a bare
    float) of decimal floats is the older encoding, and the message names
    ``writer``, the command that writes the file anew, or if None hex_rows."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{where}: expected a non-empty list of rows")
    if d is None:
        d = len(rows[0]) // 16 if isinstance(rows[0], str) and len(rows[0]) % 16 == 0 else 0
    width = 16 * d
    if not width or not all(isinstance(r, str) and len(r) == width for r in rows):
        digits = f"{width} hex digits" if width else "16 hex digits per value"
        remedy = f"rerun {writer}" if writer else "encode each row with segalign.jsonio.hex_rows"
        older = any(isinstance(r, (list, float)) for r in rows)
        raise ValueError(
            f"{where}: each row must be a string of {digits}, the little-endian float64 bytes of its values"
            + (f" (a file of float lists is older: {remedy})" if older else "")
        )
    try:
        raw = bytearray.fromhex("".join(rows))
    except ValueError:
        raise ValueError(f"{where}: rows are not hex") from None
    # fromhex skips whitespace, so a row of the right length may decode short
    if len(raw) != 8 * d * len(rows):
        raise ValueError(f"{where}: {len(raw)} bytes decoded, expected {8 * d * len(rows)}")
    X = np.frombuffer(raw, "<f8").reshape(-1, d)
    if not np.isfinite(X).all():
        raise ValueError(f"{where}: non-finite value")
    return X
