"""Atomic file writes: a temporary file in the target's directory, then a
rename over the target, so a reader sees the old content or the new, never
a part, and a failed write leaves no temporary file behind.  The target's
directory is created first if it is missing."""

from __future__ import annotations

import os


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` to ``path``, creating its directory; text is UTF-8.
    The file gets the permissions a plain ``open`` would give it."""
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".tmp-{os.urandom(8).hex()}")
    text = isinstance(data, str)
    # exclusive create: never writes through a file that is not ours
    fh = open(tmp, "x" if text else "xb", encoding="utf-8" if text else None)
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
