"""Atomic file replacement shared by the cache and model-container writers."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename.

    The bytes go to a unique temp file in the target directory, so
    concurrent writers never share one, and a failed or interrupted write
    leaves the previous file intact and no temp file behind.  The file is
    created with ``tempfile.mkstemp``'s mode 0600.
    """
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
