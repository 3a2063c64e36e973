"""Writing output files.

Every file the package writes is opened with ``open_output``. It rewrites
an existing file in place and cuts it to the new length when the writer is
done, instead of truncating it to zero on open as ``open(path, "w")`` does.
On ext4 a truncation to zero of a file whose earlier contents are still
being written back waits for that write-back: 30-80 ms per call on a
virtual disk, paid on every rewrite of the same path. The finished file,
its inode and its permissions are the same either way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def open_output(path: str, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for ``mode`` "w" or "wb", without the
    truncation to zero on open; the file ends where the writer stopped,
    also when the writer raises."""
    if mode not in ("w", "wb"):
        raise ValueError(f"open_output mode must be 'w' or 'wb', got {mode!r}")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, mode, **kwargs) as fh:
        try:
            yield fh
        finally:
            fh.truncate()
