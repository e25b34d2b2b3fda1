"""Atomic text file writes shared by every writer in the package."""

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
