"""Atomic file writes: a reader sees the old file or the new one, never a
part.  Checkpoints, snapshots and JSON documents are all written here."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress


@contextmanager
def open_atomic(path, mode: str = "wb"):
    """Open a temporary file beside ``path`` for writing, and rename it over
    ``path`` when the block ends: a reader sees the old file or the new one,
    never a part, and a failed write leaves the old file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through ``open_atomic``."""
    with open_atomic(path) as fh:
        fh.write(data)


def write_manifest(path, manifest: dict, allow_nan: bool = True) -> None:
    """Write a JSON document (run manifest, sweep summary, diagnose report)
    atomically; with ``allow_nan=False`` a NaN or infinity in it is a
    ValueError, not a non-standard token."""
    write_atomic(path, (json.dumps(manifest, indent=2, allow_nan=allow_nan) + "\n").encode())
