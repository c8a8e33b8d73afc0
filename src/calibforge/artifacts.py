"""Artifact writing shared by every module that emits files.

Artifacts are written to a temporary file in the target directory and moved
into place with ``os.replace``, so an interrupted stage leaves either the
previous file or the complete new one, never a truncated file for a later
stage to read.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

import numpy as np


def write_lines(path, lines: Iterable[str]) -> None:
    """Atomically write each line followed by a newline to ``path``.

    ``lines`` may be a generator; if producing a line raises, the previous
    content of ``path`` is kept and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def format_numbers(values) -> list[str]:
    """Shortest round-trip decimal text of each float in a 1-D sequence;
    integral values are written without a fractional part."""
    return [
        str(int(v)) if v.is_integer() else repr(v)
        for v in np.asarray(values, dtype=float).tolist()
    ]
