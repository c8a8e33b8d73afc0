"""Artifact reading and writing shared by every module.

Artifacts are written to a temporary file in the target directory and moved
into place with ``os.replace``, so an interrupted stage leaves either the
previous file or the complete new one, never a truncated file for a later
stage to read.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class FormatError(ValueError):
    """An input file exists but cannot be read as its format; the message
    names the file."""


def read_json_object(path, error=FormatError) -> dict:
    """The JSON object in the UTF-8 file ``path``. A file that is not UTF-8,
    not JSON, nested too deep to parse, or not an object raises ``error``
    (FormatError or a subclass) naming the file; OSError passes through."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object")
    return doc


def json_number(value) -> float | None:
    """``value`` as a float when it is a JSON number: an int or a float, not
    a bool (a subclass of int), and an int only within the float range;
    otherwise None. A float may be NaN or infinite, which JSON readers
    accept; the caller checks the range it needs."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an int written out in more digits than a float holds
        return None


def sha256_of(fh, chunk_bytes: int = 1 << 20) -> str:
    """The hex sha256 of an open binary file's bytes from its start, read
    ``chunk_bytes`` at a time."""
    digest = hashlib.sha256()
    fh.seek(0)
    while chunk := fh.read(chunk_bytes):
        digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def replacing(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing in ``mode`` ("w"
    for UTF-8 text, "wb" for bytes) and move it onto ``path`` when the block
    ends without an exception; otherwise the previous content of ``path`` is
    kept. The temporary file never outlives the block."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_lines(path, lines: Iterable[str]) -> None:
    """Atomically write each line followed by a newline to ``path``.

    ``lines`` may be a generator; if producing a line raises, the previous
    content of ``path`` is kept and the temporary file is removed.
    """
    with replacing(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


def write_json(path, doc) -> None:
    """Atomically write ``doc`` as JSON indented by 2, with a final newline."""
    write_lines(path, [json.dumps(doc, indent=2)])


def write_csv(
    path, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """Atomically write a CSV table: a "# comment" line when ``comment`` is
    set, the header, then one line per row holding the repr of each value
    (the shortest round-trip text of a Python float), or nothing for None.
    A numpy scalar's repr names its type, as in "np.float64(0.5)", so values
    are Python numbers."""
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    lines.extend(",".join("" if v is None else repr(v) for v in row) for row in rows)
    write_lines(path, lines)


# the most characters a finite float64's repr takes, as in
# "-2.2250738585072014e-308": a sign, 17 significant digits, the point and
# a four-character exponent
FLOAT_TEXT_BYTES = 24


def float_text(values) -> np.ndarray:
    """The repr text of each float of an array, as ASCII bytes NUL-padded to
    FLOAT_TEXT_BYTES (numpy dtype ``S24``), in an array of the same shape.
    Every float of eval's predictions dump is formatted here."""
    values = np.asarray(values, dtype=float)
    text = list(map(repr, values.ravel().tolist()))
    return np.array(text, dtype=f"S{FLOAT_TEXT_BYTES}").reshape(values.shape)


def format_numbers(values) -> list[str]:
    """Shortest round-trip decimal text of each float in a 1-D sequence;
    integral values are written without a fractional part."""
    return [
        str(int(v)) if v.is_integer() else repr(v)
        for v in np.asarray(values, dtype=float).tolist()
    ]
