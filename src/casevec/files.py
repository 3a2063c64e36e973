"""Reading and writing the package's line-oriented text files.

CSV, TSV and JSON-lines files are read and written here. They are UTF-8
with ``\\n`` line ends; tables are quoted by ``csv.writer``'s minimal rules,
and JSON lines hold one sorted-key object per line, non-ASCII text as
UTF-8, not ``\\uXXXX`` escapes. A line a reader cannot parse raises the
caller's error class with ``<path>:<line>: <message>``, the line being the
one the row ends on, or for a byte that is not UTF-8 the one that holds
it. The weight table's reader in ``relevance`` parses a valid file a block
of rows at a time and reads a file it rejects again through ``read_rows``,
which locates the first error.

A key a file may hold only once (a case id, a query id, a token, a
(query, case) pair) is checked with ``claim``; a repeat raises
``<path>:<line>: <what> <key> repeats line <first line>``, the key as its
``repr``. The weight CSV's row-by-row reader keeps only a set of its N²
pairs, not their lines, and cites the repeat's line alone.

Every file the package writes is opened with ``open_output``. It rewrites
an existing file in place and cuts it to the new length when the writer is
done, instead of truncating it to zero on open as ``open(path, "w")`` does.
On ext4 a truncation to zero of a file whose earlier contents are still
being written back waits for that write-back: 30-80 ms per call on a
virtual disk, paid on every rewrite of the same path. The finished file,
its inode and its permissions are the same either way.
"""

from __future__ import annotations

import csv
import json
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


def read_rows(path: str, error: type[Exception], delimiter: str = ","):
    """Yield ``(line, row)`` for every row of a CSV file, or a TSV file with
    ``delimiter="\\t"``, empty rows included; ``line`` is the line the row
    ends on. A row ``csv.reader`` cannot read raises
    ``error("<path>:<line>: <message>")``."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise decode_error(path, error) from None


def claim(first_line: dict, key, path: str, line: int, error: type[Exception],
          what: str) -> None:
    """Record ``line`` in ``first_line`` as where ``key`` first appears, or
    raise ``error`` citing both lines if ``key`` appeared before."""
    if key in first_line:
        raise error(f"{path}:{line}: {what} {key!r} repeats line {first_line[key]}")
    first_line[key] = line


def write_rows(path: str, rows, delimiter: str = ",") -> None:
    """Write ``rows`` in the format :func:`read_rows` reads."""
    with open_output(path, encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(rows)


def read_json_objects(path: str, error: type[Exception]):
    """Yield ``(lineno, obj)`` for each nonblank line of a JSON-lines file.
    A line that is not a JSON object raises ``error("<path>:<line>: ...")``."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
                if not isinstance(obj, dict):
                    raise error(f"{path}:{lineno}: expected a JSON object")
                yield lineno, obj
        except UnicodeDecodeError:
            raise decode_error(path, error) from None


def decode_error(path: str, error: type[Exception]) -> Exception:
    """``error("<path>:<line>: <reason>")`` for the first byte of ``path``
    that is not UTF-8, to raise where reading it as text failed. The text
    layer decodes up to 8 KB ahead of the line it hands out, so the line
    that holds the byte is found by reading the bytes again, split where
    the text layer splits them."""
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}:{lineno}: {exc}")
    return error(f"{path}: not UTF-8")  # the file changed since the failed read


def write_json_lines(path: str, objects) -> None:
    """Write each of ``objects`` as one line of sorted-key JSON."""
    with open_output(path, encoding="utf-8", newline="") as fh:
        fh.writelines(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"
                      for obj in objects)
