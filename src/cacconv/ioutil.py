"""Atomic file writes: temp file in the target directory, then rename.

The file gets the mode ``open(path, "w")`` gives a new file: 0o666 less
the process umask (``mkstemp`` alone would leave it 0o600)."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            umask = os.umask(0)  # read it the one way there is: set, then restore
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
