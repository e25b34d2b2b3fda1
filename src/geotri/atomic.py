"""Atomic file writes, and the one reader and writer behind every TSV file."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write ``text`` via a temp file in the target directory, then rename.

    Readers see either the old file or the complete new one, never a
    partial write; the temp file is removed when anything fails.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """A UTF-8 file's text, less a leading byte-order mark, with every line end as ``\\n``.

    Bytes that do not decode fail as ``path:line``, counting the mark.
    """
    data = Path(path).read_bytes()
    text = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    try:
        return text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        start = exc.start + len(data) - len(text)  # the offset in the file, mark included
        lineno = len((data[:start] + b"?").splitlines())  # bytes.splitlines ends lines at \r\n, \r, \n too
        raise ValueError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} at byte {start}") from exc


def read_tsv(path, parse) -> list:
    """``parse(fields)`` for every row of a TSV file read by ``read_text``, in file order.

    Blank lines and lines whose first non-space character is ``#`` are
    comments. Other lines are split on tabs. A ValueError from ``parse`` is
    re-raised as ``path:line: message``.
    """
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            rows.append(parse(line.split("\t")))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_tsv(path, rows) -> None:
    """Write each row's fields with ``str()``, tab-joined, one row per line.

    Raises ValueError, before anything is written, for a row that would not
    read back as written: a field holding a tab or a line break, or a line
    that ``read_tsv`` would skip as blank or a comment.
    """
    lines = []
    for lineno, row in enumerate(rows, start=1):
        fields = [str(field) for field in row]
        line = "\t".join(fields)
        head = line.lstrip()
        if line.count("\t") != len(fields) - 1 or "\n" in line or "\r" in line or not head or head[0] == "#":
            raise ValueError(f"{path}:{lineno}: row would not read back as written: {fields!r}")
        lines.append(line + "\n")
    write_text(path, "".join(lines))
