"""Synthetic per-minute match states with known win probability.

Each sample is one minute of a two-team match: in-game minute, gold and
experience differences, kill counts, a sparse champion-composition block
and filler context features. A latent advantage combines the difference
features; dividing it by an input-dependent noise temperature that shrinks
as the game progresses (early states are genuinely harder to call) gives
the ground-truth win probability, and the label is a Bernoulli draw from
it. Because that probability is stored with every sample, calibration can
be measured against the truth instead of only against noisy labels.

Difference features are team-red minus team-blue, so a positive latent
advantage favors the red team and p_true is the probability of label 1
(red win). Feature values are quantized at generation time, and the stored
probability is computed from the quantized features, so a written dataset
is exactly reproducible from its own file.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import itertools
import math
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import artifacts, nn
from .artifacts import FLOAT_TEXT_BYTES, FormatError, format_numbers, replacing, sha256_of
from .duloss import sigmoid

SCALAR_COLUMNS = ["minute", "gold_diff", "xp_diff", "kills_blue", "kills_red"]

# feature magnitudes (gold and xp differences are in thousands)
GOLD_STD_PER_SQRT_MINUTE = 0.8
XP_STD_PER_SQRT_MINUTE = 0.5
KILL_RATE_PER_MINUTE = 0.35

# latent-advantage weights
C_GOLD = 0.55
C_XP = 0.35
C_KILL = 0.18
C_INTERACTION = 0.30  # gold_diff * minute / 40
COMP_COEF_STD = 0.05  # per-champion latent effect, deliberately small

_PICKS_PER_TEAM = 5

# Every block-wise pass over a dataset takes this many rows at a time, which
# bounds its arrays to one block whatever the dataset size: GeneratedDataset
# draws its picks and p_true and makes its feature rows, write_dataset formats
# an array, a parse runs np.loadtxt, scan_dataset reads a sidecar, and a miss
# of model_outputs runs nn.forward, nn.probabilities and, for eval, the float
# text on each block a scan yields. p_true takes
# each block's comp @ champ_coef, which OpenBLAS's matrix-vector kernel sums
# in groups of 4 rows with a different path for the rest: blocks of 2, 3, 6
# or 7 rows changed some p_true bits, while every multiple of 4 reproduced one
# whole-matrix product. 256 is a multiple of any such group.
BLOCK_ROWS = 256
# a read hashes a file, counts its data lines, and decodes and splits them
# for a parse, this many bytes at a time
BLOCK_BYTES = 1 << 20
# a scan reads a sidecar's rows this many bytes at a time: a zip member's
# readinto copies through a bytes object of the size it is asked for
SIDECAR_READ_BYTES = 1 << 16


class DatasetFormatError(FormatError):
    """Raised for malformed dataset files; the message names the line."""


class Dataset(NamedTuple):
    """A dataset file's rows as arrays."""

    x: np.ndarray
    y: np.ndarray
    p_true: np.ndarray | None


@dataclass
class SyntheticConfig:
    """Generator knobs. The noise temperature is
    noise_floor + noise_gain / (1 + minute / 10), so earlier minutes carry
    at least as much label noise as later ones."""

    n_matches: int
    n_features: int = 295
    roster_size: int = 160
    coef_scale: float = 1.0
    noise_floor: float = 0.4
    noise_gain: float = 7.0
    minute_min: int = 1
    minute_max: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_matches < 1:
            raise ValueError("n_matches must be at least 1")
        if self.roster_size < 2 * _PICKS_PER_TEAM:
            raise ValueError("roster_size must allow ten distinct picks")
        if self.n_features < len(SCALAR_COLUMNS) + self.roster_size:
            raise ValueError("n_features too small for the scalar and roster blocks")
        for key in ("coef_scale", "noise_floor", "noise_gain"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        for key in ("noise_floor", "noise_gain", "minute_min"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative, got {getattr(self, key)!r}")
        if self.noise_floor + self.noise_gain <= 0:
            raise ValueError("noise_floor and noise_gain must not both be 0")
        if self.minute_max < self.minute_min:
            raise ValueError(
                f"minute range is empty: minute_max {self.minute_max!r} < "
                f"minute_min {self.minute_min!r}"
            )

    @property
    def filler_size(self) -> int:
        return self.n_features - len(SCALAR_COLUMNS) - self.roster_size


def noise_temperature(minute, config: SyntheticConfig):
    """Input-dependent label-noise temperature; decreasing in the minute."""
    minute = np.asarray(minute, dtype=float)
    tau = config.noise_floor + config.noise_gain / (1.0 + minute / 10.0)
    return float(tau) if tau.ndim == 0 else tau


def champion_coefficients(config: SyntheticConfig) -> np.ndarray:
    """Per-champion latent effects, derived from the top-level seed so the
    same seed always describes the same roster."""
    rng = np.random.default_rng([config.rng_seed, 17])
    return rng.normal(0.0, COMP_COEF_STD, size=config.roster_size)


def latent_advantage(
    minute, gold_diff, xp_diff, kills_blue, kills_red, comp, champ_coef, config
):
    """Red-team advantage combining the difference features."""
    minute = np.asarray(minute, dtype=float)
    kill_diff = np.asarray(kills_red, dtype=float) - np.asarray(kills_blue, dtype=float)
    a = (
        C_GOLD * np.asarray(gold_diff, dtype=float)
        + C_XP * np.asarray(xp_diff, dtype=float)
        + C_KILL * kill_diff
        + C_INTERACTION * np.asarray(gold_diff, dtype=float) * minute / 40.0
    )
    return config.coef_scale * a + np.asarray(comp, dtype=float) @ champ_coef


def win_probability(
    minute, gold_diff, xp_diff, kills_blue, kills_red, comp, champ_coef, config
):
    """Ground-truth probability of label 1 (red win) for given features."""
    a = latent_advantage(
        minute, gold_diff, xp_diff, kills_blue, kills_red, comp, champ_coef, config
    )
    return sigmoid(a / noise_temperature(minute, config))


def _row_slices(start: int, stop: int, size: int) -> list[slice]:
    """Consecutive slices of at most ``size`` rows covering [start, stop)."""
    return [slice(i, min(i + size, stop)) for i in range(start, stop, size)]


class GeneratedDataset:
    """A seeded synthetic dataset whose (n, F) feature matrix is made on
    demand, block by block, so that no caller needs to hold it.

    Draw order is fixed (minute, gold, xp, kills, picks, filler, labels), so
    a config reproduces its dataset exactly. The stream is read twice.
    Construction draws the scalars, then the picks BLOCK_ROWS rows at a
    time, keeping each row's ten pick indices and p_true; it then draws the
    filler only to advance the stream to the labels, from which it takes
    ``y``. ``features`` redraws the filler from a copy of the generator taken
    where the filler starts. Consecutive row blocks of a draw hold the
    values of one whole-matrix draw, so no block size changes a value.
    """

    def __init__(self, config: SyntheticConfig):
        self.config = config
        n = config.n_matches
        rng = np.random.default_rng(config.rng_seed)
        minute = rng.integers(config.minute_min, config.minute_max + 1, size=n)
        scale = np.sqrt(np.maximum(minute, 1))
        gold_diff = np.round(rng.normal(0.0, GOLD_STD_PER_SQRT_MINUTE * scale), 3)
        xp_diff = np.round(rng.normal(0.0, XP_STD_PER_SQRT_MINUTE * scale), 3)
        kills_blue = rng.poisson(KILL_RATE_PER_MINUTE * minute)
        kills_red = rng.poisson(KILL_RATE_PER_MINUTE * minute)
        self._scalars = (minute, gold_diff, xp_diff, kills_blue, kills_red)

        champ_coef = champion_coefficients(config)
        self._picks = np.empty((n, 2 * _PICKS_PER_TEAM), dtype=np.intp)
        self.p_true = np.empty(n)
        for rows in _row_slices(0, n, BLOCK_ROWS):
            order = np.argsort(rng.random((rows.stop - rows.start, config.roster_size)), axis=1)
            self._picks[rows] = order[:, : 2 * _PICKS_PER_TEAM]
            self.p_true[rows] = win_probability(
                *(values[rows] for values in self._scalars), self._comp(rows), champ_coef, config
            )
        self._filler_rng = copy.deepcopy(rng)
        for rows in _row_slices(0, n, BLOCK_ROWS):
            rng.standard_normal((rows.stop - rows.start, config.filler_size))
        self.y = (rng.random(n) < self.p_true).astype(int)
        self._next_row = 0

    def _comp(self, rows: slice) -> np.ndarray:
        """The +1 (red) / -1 (blue) champion-composition block of ``rows``."""
        picks = self._picks[rows]
        comp = np.zeros((len(picks), self.config.roster_size))
        picked = np.arange(len(picks))[:, None]
        comp[picked, picks[:, :_PICKS_PER_TEAM]] = 1.0
        comp[picked, picks[:, _PICKS_PER_TEAM:]] = -1.0
        return comp

    def features(self, stop: int):
        """Yield the feature rows from the first row not yet made up to row
        ``stop``, as (rows, F) float arrays of at most BLOCK_ROWS rows.
        The filler is one stream, so the rows come in order: ``features(k)``
        then ``features(n)`` make rows [0, k) and then [k, n)."""
        config = self.config
        comp_end = len(SCALAR_COLUMNS) + config.roster_size
        for rows in _row_slices(self._next_row, stop, BLOCK_ROWS):
            block = np.empty((rows.stop - rows.start, config.n_features))
            for col, values in enumerate(self._scalars):
                block[:, col] = values[rows]
            block[:, len(SCALAR_COLUMNS) : comp_end] = self._comp(rows)
            filler = self._filler_rng.standard_normal((len(block), config.filler_size))
            block[:, comp_end:] = np.round(filler, 4)
            self._next_row = rows.stop
            yield block


def split(n: int, val_fraction: float, seed: int):
    """Seeded disjoint partition of n rows into (train, val) index arrays.
    The val size is the exact floor of val_fraction * n, for a val_fraction
    in [0, 1]; the other rows go to train."""
    if not 0.0 <= val_fraction <= 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1], got {val_fraction!r}")
    n_train = n - int(np.floor(val_fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def dataset_header(roster_size: int, filler_size: int, with_p_true: bool) -> str:
    cols = list(SCALAR_COLUMNS)
    cols += [f"comp_{i}" for i in range(roster_size)]
    cols += [f"filler_{i}" for i in range(filler_size)]
    cols.append("label")
    if with_p_true:
        cols.append("p_true")
    return ",".join(cols)


def write_dataset(
    path, x, y, p_true, roster_size: int, comment: str | None = None
) -> None:
    """Write (x, y, p_true) as CSV, and beside it the sidecar that a read of
    the CSV would write; pass p_true=None for data without a known
    win probability. Values round-trip exactly through scan_dataset.

    ``x`` is the (n, F) feature array, or an iterator over its consecutive
    row blocks (as ``GeneratedDataset.features`` yields them), whose first
    block gives the feature count; then no (n, F) matrix is ever held. Each
    block is checked, written as CSV text and hashed, and its parsed rows
    go to the sidecar, before the next block is taken.

    Raises ValueError naming the first row that scan_dataset would reject
    (a non-finite feature, a label other than 0/1, a p_true outside
    [0, 1]), and a comment of more than one line before writing anything.
    Both files are written to temporary files and moved into place only
    when every row has been written, so a failed write keeps the previous
    ones.
    """
    if comment and comment.splitlines() != [comment]:
        raise ValueError(f"comment {comment!r} must be one line")
    y = np.asarray(y, dtype=float)
    n_rows = len(y)
    if p_true is not None:
        p_true = np.asarray(p_true, dtype=float)
        if len(p_true) != n_rows:
            raise ValueError("x, y and p_true must have one entry per row")
    if isinstance(x, Iterator):
        first = next(x, None)
        if first is None:
            raise ValueError("x yields no row block")
        blocks = itertools.chain([first], x)
        n_features = np.shape(first)[-1]
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) != n_rows:
            raise ValueError("x, y and p_true must have one entry per row")
        blocks = (x[rows] for rows in _row_slices(0, n_rows, BLOCK_ROWS))
        n_features = x.shape[1]
    filler_size = n_features - len(SCALAR_COLUMNS) - roster_size
    if filler_size < 0:
        raise ValueError("roster_size larger than the feature vector allows")
    head = [f"# {comment}"] if comment else []
    head.append(dataset_header(roster_size, filler_size, p_true is not None))
    digest = hashlib.sha256()

    def parsed_blocks(fh):
        # the CSV text goes to fh and the digest as it is made
        def emit(chunk: bytes):
            fh.write(chunk)
            digest.update(chunk)

        emit("".join(f"{line}\n" for line in head).encode("utf-8"))
        for text, parsed in _csv_blocks(_checked_blocks(blocks, n_features, y, p_true), y, p_true):
            emit(text)
            yield parsed

    n_cols = n_features + 1 + (p_true is not None)
    with replacing(path, "wb") as fh, replacing(sidecar_path(path), "wb") as side:
        _save_sidecar(side, (n_rows, n_cols), parsed_blocks(fh), digest.hexdigest)


def _checked_blocks(blocks, n_features: int, y, p_true):
    """(rows, block, parsed) of each float row block of x: its row range,
    the block, and the float64 rows a parse of its CSV lines gives (-0.0
    reads back as 0), once those pass the checks scan_dataset runs. A
    failed check raises ValueError naming its row (0-based), and so does a
    block count of rows other than len(y)."""
    start = 0
    for block in blocks:
        block = np.asarray(block, dtype=float)
        rows = slice(start, start + len(block))
        if block.ndim != 2 or block.shape[1] != n_features or rows.stop > len(y):
            raise ValueError("x, y and p_true must have one entry per row")
        parsed = np.empty((len(block), n_features + 1 + (p_true is not None)))
        np.add(block, 0.0, out=parsed[:, :n_features])
        parsed[:, n_features] = y[rows] + 0.0
        if p_true is not None:
            parsed[:, -1] = p_true[rows]
        failure = _first_failure(parsed, n_features, p_true is not None)
        if failure is not None:
            row, message = failure
            raise ValueError(f"row {start + row}: {message}")
        yield rows, block, parsed
        start = rows.stop
    if start != len(y):
        raise ValueError("x, y and p_true must have one entry per row")


def _first_failure(matrix, n_feat: int, with_p_true: bool) -> tuple[int, str] | None:
    """(row, message) of the first row of a parsed (rows, columns) matrix
    that fails a value check, with the first check in check order that it
    fails (a non-finite feature, a label other than 0/1, a p_true outside
    [0, 1]); None when every row passes."""
    y = matrix[:, n_feat]
    checks = [
        (~np.isfinite(matrix[:, :n_feat]).all(axis=1), "features must be finite"),
        ((y != 0.0) & (y != 1.0), "label must be 0 or 1"),
    ]
    if with_p_true:
        p_true = matrix[:, n_feat + 1]
        checks.append((~((p_true >= 0.0) & (p_true <= 1.0)), "p_true must lie in [0, 1]"))
    failures = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()]
    if not failures:
        return None
    row, order = min(failures)
    return row, checks[order][1]


# A decimal cell (see _decimal_words) is v = k / 1e4 for an integer k with
# |k| < _CELL_SCALE * _CELL_INT_BOUND, and its text, with the comma that
# follows it, fits one word of _CELL_BYTES bytes.
_CELL_SCALE = 10_000
_CELL_INT_BOUND = 1024
_CELL_BYTES = 8


@functools.cache
def _cell_words() -> tuple[np.ndarray, np.ndarray]:
    """The word tables of decimal cells' text, built at the first write:
    entry i of the first holds the integer part i from the word's first
    byte (entry _CELL_INT_BOUND + i: "-" and i), and entry f of the second
    holds the fraction f / _CELL_SCALE with its trailing zeros stripped
    (nothing for 0) and the comma, up to the word's last byte. A word's
    bytes are read in memory order, and unused bytes are NUL."""
    heads = b"".join(f"{sign}{i}".encode().ljust(_CELL_BYTES, b"\0")
                     for sign in ("", "-") for i in range(_CELL_INT_BOUND))
    fractions = (f".{f:04d}".rstrip("0") if f else "" for f in range(_CELL_SCALE))
    tails = b"".join(text.encode().rjust(_CELL_BYTES - 1, b"\0") + b"," for text in fractions)
    return np.frombuffer(heads, dtype="<u8"), np.frombuffer(tails, dtype="<u8")


def _decimal_words(block: np.ndarray) -> np.ndarray | None:
    """The (rows, F) little-endian words of a float block's cells, each its
    format_numbers text and a comma padded with NUL bytes, or None when a
    cell is not decimal or its text and comma take more than _CELL_BYTES.

    A cell v is decimal when k = rint(v * 1e4) has |k| < 1024e4 and
    k / 1e4 == v. Its text here is "-" when k < 0 (so -0.0, whose k is 0,
    takes none), the integer part of |k| / 1e4 and, unless it is 0, "." and
    the four-digit fraction with its trailing zeros stripped. That is
    format_numbers' text. When 1e4 divides k, v is integral, and str(int(v))
    is that sign and integer part. Otherwise the text is the decimal
    d = k / 10^4, which reads back as v because k / 1e4 is rounded
    correctly, and repr(v) is the decimal with the fewest digits that reads
    back as v, written without an exponent since 1e-4 <= |v| < 1e16. Two
    decimals that read back as v lie within one ulp of v (at most 2**-43
    here) of each other, so one with fewer digits than d has its leading
    digit at d's place (it could only move if d were a power of ten, and no
    decimal has fewer digits than that) and so has at most 4 places; but any
    other decimal of at most 4 places lies 1e-4 or more from d. So repr(v)
    is d.
    """
    with np.errstate(over="ignore"):  # a huge v makes k infinite: not decimal
        k = np.rint(block * float(_CELL_SCALE))
    bound = float(_CELL_SCALE * _CELL_INT_BOUND)
    if not ((np.abs(k) < bound).all() and (k / _CELL_SCALE == block).all()):
        return None
    k = k.astype(np.int32)
    size = np.abs(k)
    whole = size // _CELL_SCALE
    fraction = size - whole * _CELL_SCALE
    whole |= (k >> 31) & _CELL_INT_BOUND  # the entries with "-" where k < 0
    heads, tails = _cell_words()
    head, tail = heads.take(whole), tails.take(fraction)
    # every text byte (digits, "-", "." and ",") has the 0x20 bit set, so
    # two texts overlap in the word where their AND is not 0
    if (head & tail).any():
        return None
    return np.bitwise_or(head, tail, out=head)


def _csv_blocks(checked, y, p_true):
    """(text, parsed) of each checked row block: its CSV lines as UTF-8
    bytes, in the format_numbers text of each value, and its parsed rows.

    Each cell of a block whose cells are all decimal is one NUL-padded word
    (see _decimal_words). The label and p_true (by repr) end each row, also
    NUL-padded to one width, and the block's text is its bytes without the
    NULs. Any other block is written cell by cell with format_numbers.
    """
    for rows, block, parsed in checked:
        labels = [str(int(label)) for label in y[rows].tolist()]
        if p_true is None:
            ends = [f"{label}\n" for label in labels]
        else:
            ends = [f"{label},{v!r}\n" for label, v in zip(labels, p_true[rows].tolist())]
        n_feat = block.shape[1]
        words = _decimal_words(block) if len(block) else None
        if words is None:
            cells = format_numbers(block.ravel())
            text = "".join(
                "".join(f"{cell}," for cell in cells[i * n_feat : (i + 1) * n_feat]) + end
                for i, end in enumerate(ends)
            )
            yield text.encode(), parsed
            continue
        ends = np.array(ends, dtype=np.bytes_).view(np.uint8).reshape(len(block), -1)
        lines = np.concatenate((words.view(np.uint8), ends), axis=1).ravel()
        yield np.compress(lines != 0, lines).tobytes(), parsed


def _parse_error(path, numbered_lines, n_cols: int) -> DatasetFormatError:
    """Name the first data line that does not hold n_cols numbers."""
    for line_no, line in numbered_lines:
        fields = line.split(",")
        if len(fields) != n_cols:
            return DatasetFormatError(
                f"{path}: line {line_no}: expected {n_cols} columns, got {len(fields)}"
            )
        try:
            for v in fields:
                float(v)
        except ValueError as exc:
            return DatasetFormatError(f"{path}: line {line_no}: {exc}")
    return DatasetFormatError(f"{path}: data rows are not numeric CSV")


def _line_blocks(fh, size: int):
    """The bytes of a binary file from its current position, in blocks of
    about ``size`` bytes that each end just after a newline byte (the last
    one at the end of the file)."""
    while chunk := fh.read(size):
        yield chunk + fh.readline()


def _decode(path, chunk: bytes, line_no: int) -> str:
    """The text of ``chunk``, whose first line is line ``line_no`` (1-based)
    of the file ``path``. Bytes that are not UTF-8 raise DatasetFormatError
    naming the line they are on."""
    try:
        return chunk.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count their line breaks
        line_no += len((chunk[: exc.start].decode("utf-8") + ".").splitlines()) - 1
        raise DatasetFormatError(f"{path}: line {line_no}: not UTF-8 text: {exc.reason}") from exc


def _numbered_lines(path, blocks, header_idx: int):
    """(1-based file line, line) of each non-blank line after the header
    line, in file order, from the UTF-8 bytes of the whole file ``path`` in
    blocks that each end just after a newline byte, which UTF-8 never puts
    inside a multi-byte character. Each block is decoded and split on its
    own, so the lines are those of the whole text's ``splitlines()`` (whose
    one two-character break, "\\r\\n", also ends in a newline) and only one
    block's text and lines are alive at a time."""
    no = 0
    for block in blocks:
        for line in _decode(path, block, no + 1).splitlines():
            if no > header_idx and line:
                yield no + 1, line
            no += 1


def _count_rows(path, fh, header_idx: int) -> int:
    """The data-row count of the open binary dataset file ``path``: its
    non-blank lines after the header line, read BLOCK_BYTES at a time."""
    fh.seek(0)
    return sum(1 for _ in _numbered_lines(path, _line_blocks(fh, BLOCK_BYTES), header_idx))


def _leading_lines(path, fh) -> list[str]:
    """The lines of the open binary file ``path`` up to its first line that
    is not a '#' comment. Only those lines are read; each decoded chunk ends
    at a newline byte, so it splits into the same lines as the whole text."""
    lines = []
    while all(line.startswith("#") for line in lines):
        chunk = fh.readline()
        if not chunk:
            break
        lines += _decode(path, chunk, len(lines) + 1).splitlines()
    return lines


def _parse_header(path, lines: list[str]) -> tuple[int, int, int, bool]:
    """Index of the header line, column count, feature count and whether a
    p_true column follows the label. The header line must be
    ``dataset_header`` of its own count of comp_ and filler_ columns, with
    p_true if its last column is p_true."""
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx >= len(lines) or not lines[idx]:
        raise DatasetFormatError(f"{path}: line {idx + 1}: missing header")
    header = lines[idx].split(",")
    with_p_true = header[-1] == "p_true"
    n_comp = sum(1 for c in header if c.startswith("comp_"))
    n_filler = sum(1 for c in header if c.startswith("filler_"))
    if lines[idx] != dataset_header(n_comp, n_filler, with_p_true):
        raise DatasetFormatError(
            f"{path}: line {idx + 1}: header must be {','.join(SCALAR_COLUMNS)},"
            "comp_0,comp_1,...,filler_0,filler_1,...,label[,p_true]"
        )
    return idx, len(header), len(header) - 1 - with_p_true, with_p_true


def sidecar_path(path) -> Path:
    """Where the parsed matrix of a dataset CSV is cached: the file's name
    with ``.npz`` appended, in the same directory."""
    path = Path(path)
    return path.with_name(path.name + ".npz")


def _save_sidecar(fh, shape, blocks, sha256: Callable[[], str], **members) -> None:
    """Write to a binary file the bytes that
    ``np.savez(fh, data=matrix, sha256=np.array(sha256()), **members)``
    writes, where ``matrix`` is the (n, columns) float64 matrix whose
    C-contiguous row blocks ``blocks`` yields, ``sha256()`` is taken after
    the last one, and ``members`` are C-contiguous arrays.

    Each ``.npy`` member is written from the arrays' own buffers, where
    ``np.savez`` would copy the matrix in 16 MiB chunks. Zip members are
    dated 1980-01-01, so the same arrays always give the same file.
    """
    data_header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                   "fortran_order": False, "shape": tuple(shape)}
    with zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
        with zf.open("data.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array_header_1_0(member, data_header)
            for block in blocks:
                member.write(block.data)
        for name, array in {"sha256": np.array(sha256()), **members}.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array)
                )
                member.write(array.data)


class DatasetInfo(NamedTuple):
    """What a scan knows of a dataset file before its first row: its path,
    its data-row count and feature count, whether a p_true column follows
    the label, and the sha256 of its bytes."""

    path: str
    n_rows: int
    n_features: int
    with_p_true: bool
    sha256: str


class Block(NamedTuple):
    """Consecutive data rows of a dataset file: their row range and (rows, F)
    features, labels (as the floats 0 and 1) and p_true (None without the
    column). The arrays are views of the scan's buffer, valid until the next
    block is taken."""

    rows: slice
    x: np.ndarray
    y: np.ndarray
    p_true: np.ndarray | None


class _Layout(NamedTuple):
    """A dataset file's header line index, column count, feature count and
    whether a p_true column follows the label; for a sidecar, also the
    column count of the text member it must hold (0: none is read)."""

    header_idx: int
    n_cols: int
    n_feat: int
    with_p_true: bool
    text_cols: int = 0


class _StaleSidecar(Exception):
    """The sidecar is absent or unreadable, or does not hold the parsed
    matrix of the file's bytes."""


def _read_into(member, raw: np.ndarray) -> None:
    """Fill the uint8 array ``raw`` from an open zip member,
    SIDECAR_READ_BYTES at a time. The member checks its CRC-32 as its last
    byte is read. A short read is _StaleSidecar."""
    for piece in range(0, len(raw), SIDECAR_READ_BYTES):
        into = raw[piece : piece + SIDECAR_READ_BYTES]
        if member.readinto(into) != len(into):
            raise _StaleSidecar


def _sidecar_blocks(member, layout: _Layout, n_rows: int):
    """Read the ``n_rows`` rows of an open ``data.npy`` zip member,
    positioned at its first row, BLOCK_ROWS at a time into one reused
    (BLOCK_ROWS, columns) buffer, and yield each block once its values pass
    the checks a parse runs. A short read, a failed check or a bad CRC is
    _StaleSidecar."""
    buf = np.empty((min(BLOCK_ROWS, n_rows), layout.n_cols))
    raw = buf.reshape(-1).view(np.uint8)
    for rows in _row_slices(0, n_rows, BLOCK_ROWS):
        size = (rows.stop - rows.start) * layout.n_cols * buf.itemsize
        try:
            _read_into(member, raw[:size])
        except (OSError, EOFError, zipfile.BadZipFile) as exc:
            raise _StaleSidecar from exc
        matrix, n_feat = buf[: rows.stop - rows.start], layout.n_feat
        if _first_failure(matrix, n_feat, layout.with_p_true) is not None:
            raise _StaleSidecar
        p_true = matrix[:, n_feat + 1] if layout.with_p_true else None
        yield Block(rows, matrix[:, :n_feat], matrix[:, n_feat], p_true)


# what reading a zip member's .npy array can raise for a damaged or foreign
# file; RuntimeError: an encrypted member
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, RuntimeError, NotImplementedError,
               zipfile.BadZipFile)


def _array_header(zf, member):
    """The shape and dtype in the .npy header of ``member``, an open member
    of the zip file ``zf``, read up to its first array byte. A member that
    is Fortran-ordered, or whose size is not its header's and its array's,
    is _StaleSidecar; an unreadable header raises an _UNREADABLE error."""
    fmt = np.lib.format
    read_header = {(1, 0): fmt.read_array_header_1_0,
                   (2, 0): fmt.read_array_header_2_0}[fmt.read_magic(member)]
    shape, fortran_order, dtype = read_header(member)
    size = zf.getinfo(member.name).file_size
    if fortran_order or size != member.tell() + math.prod(shape) * dtype.itemsize:
        raise _StaleSidecar
    return shape, dtype


def _read_text(zf, n_rows: int, n_cols: int) -> np.ndarray:
    """The (n_rows, n_cols) float text (see artifacts.float_text) of a
    sidecar's ``text.npy`` member, read SIDECAR_READ_BYTES at a time. A
    member that is absent, of another shape or dtype, short or with a bad
    CRC is _StaleSidecar."""
    try:
        with zf.open("text.npy") as member:
            shape, dtype = _array_header(zf, member)
            if shape != (n_rows, n_cols) or dtype != np.dtype(f"S{FLOAT_TEXT_BYTES}"):
                raise _StaleSidecar
            text = np.empty(shape, dtype)
            _read_into(member, text.reshape(-1).view(np.uint8))
    except _UNREADABLE as exc:
        raise _StaleSidecar from exc
    return text


def _scan_sidecar(path, sidecar, layout: _Layout, sha256: str, consume):
    """(consume(info, blocks), text) over the rows of a sidecar of the
    dataset file ``path``, read BLOCK_ROWS rows at a time; ``sidecar`` is
    its path or an open binary file. ``text`` is its text member where
    ``layout.text_cols`` asks for one, and None otherwise.

    Before any row is read, the sidecar's ``sha256`` member must hold
    ``sha256``, its ``data.npy`` member must hold just a C-ordered (n,
    columns) float64 matrix, and a text member asked for must hold just the
    (n, layout.text_cols) text; that member is read in full. The rows are
    then read in order, and after ``consume`` returns or raises any rows it
    left are read, so the member's CRC is always checked. A sidecar that
    fails any of this, or whose rows fail a value check, raises
    _StaleSidecar, in place of any error of ``consume``, and what
    ``consume`` made of its rows is to be thrown away.
    """
    with contextlib.ExitStack() as stack:
        try:
            zf = stack.enter_context(zipfile.ZipFile(sidecar))
            with zf.open("sha256.npy") as member:
                stored = np.lib.format.read_array(member, allow_pickle=False)
            member = stack.enter_context(zf.open("data.npy"))
            shape, dtype = _array_header(zf, member)
        except _UNREADABLE as exc:
            raise _StaleSidecar from exc
        if (
            stored.shape != () or stored.item() != sha256
            or dtype != np.float64 or len(shape) != 2 or shape[1] != layout.n_cols
        ):
            raise _StaleSidecar
        text = _read_text(zf, shape[0], layout.text_cols) if layout.text_cols else None
        info = DatasetInfo(str(path), shape[0], layout.n_feat, layout.with_p_true, sha256)
        blocks = _sidecar_blocks(member, layout, shape[0])
        try:
            return consume(info, blocks), text
        finally:
            for _ in blocks:
                pass


def _parsed_blocks(path, fh, layout: _Layout):
    """The checked (rows, columns) float64 matrix of each BLOCK_ROWS
    consecutive data lines of an open binary dataset file, in file order.
    The bytes are decoded and split into lines BLOCK_BYTES at a time, so
    beside one block only one chunk's text and lines are alive. Raises
    DatasetFormatError naming the line of the first malformed or failing
    row."""
    fh.seek(0)
    lines = _numbered_lines(path, _line_blocks(fh, BLOCK_BYTES), layout.header_idx)
    while numbered := list(itertools.islice(lines, BLOCK_ROWS)):
        try:
            block = np.loadtxt([line for _, line in numbered], delimiter=",", comments=None,
                               ndmin=2)
        except ValueError:
            block = None
        if block is None or block.shape[1] != layout.n_cols:
            # loadtxt numbers rows inconsistently in its errors
            raise _parse_error(path, numbered, layout.n_cols)
        failure = _first_failure(block, layout.n_feat, layout.with_p_true)
        if failure is not None:
            row, message = failure
            raise DatasetFormatError(f"{path}: line {numbered[row][0]}: {message}")
        yield block


def take_rows(info: DatasetInfo, blocks, rows=None, features=np.empty) -> Dataset:
    """A Dataset of the data rows that the index array ``rows`` selects (in
    its order; every row when None) from the blocks of a scan. Each array is
    allocated once at its final size and filled block by block, so beside
    them only the scan's buffer is held. The (n, F) features are held in
    ``features((n, F))``: a float64 array by default; train passes
    nn.ColumnRuns, whose refusal of a value float32 cannot hold is raised as
    a ValueError naming the file and the data row.

    ``rows`` must be a 1-D integer array of indices into the file's data
    rows (0-based, in file order); anything else, such as a boolean mask or
    an index outside the data rows, raises DatasetFormatError before any
    block is taken."""
    n = info.n_rows
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or not (rows.size == 0 or np.issubdtype(rows.dtype, np.integer)):
            raise DatasetFormatError(f"{info.path}: rows must be a 1-D integer index array")
        rows = rows.astype(np.intp, copy=False)
        outside = (rows < 0) | (rows >= info.n_rows)
        if outside.any():
            raise DatasetFormatError(
                f"{info.path}: row index {rows[np.argmax(outside)]} is outside the file's "
                f"{info.n_rows} data rows"
            )
        order = np.argsort(rows, kind="stable")
        in_order, n = rows[order], len(rows)
    x = features((n, info.n_features))
    y = np.empty(n, dtype=int)
    p_true = np.empty(n) if info.with_p_true else None
    for block in blocks:
        dest, src = block.rows, slice(None)
        if rows is not None:
            lo, hi = np.searchsorted(in_order, (block.rows.start, block.rows.stop))
            dest, src = order[lo:hi], in_order[lo:hi] - block.rows.start
        try:
            x[dest] = block.x[src]
        except nn.Float32RangeError as exc:
            row = np.arange(block.rows.start, block.rows.stop)[src][exc.row]
            raise ValueError(f"{info.path}: data row {row}: {exc}") from exc
        y[dest] = block.y[src]
        if p_true is not None:
            p_true[dest] = block.p_true[src]
    return Dataset(x, y, p_true)


def scan_dataset(path, consume):
    """Return ``consume(info, blocks)``: ``info`` is the file's DatasetInfo,
    and ``blocks`` yields a Block for each BLOCK_ROWS consecutive data rows
    (the last one may be shorter), in order. This is how a caller keeps only
    what it needs of each block, instead of the whole (n, F) matrix.

    The rows always come from the sidecar at ``sidecar_path(path)``: its
    uncompressed ``data.npy`` member is read in order, one block at a time,
    into one reused buffer. A cold scan, of a file without a matching
    sidecar, first parses the CSV into a new sidecar in that place,
    BLOCK_ROWS lines at a time, and then scans it as a warm scan does (see
    _cached). If an existing sidecar turns out to be unusable part way (a
    value check fails, or the member ends early or has the wrong CRC, which
    is only known at its end), ``consume`` is run again from the start on
    the rows of the sidecar a parse writes, even if it raised on the broken
    rows. Any other error that it raises is raised as it is, and a sidecar
    the scan wrote stays.

    Raises DatasetFormatError naming the 1-based line of the first
    malformed or failing row, selected by ``consume`` or not: a wrong column
    count, a value that is not a number, a non-finite feature, a label other
    than 0/1, or a p_true outside [0, 1]; or of a bad header. Leading '#'
    comment lines and blank lines are skipped; a header-only file yields
    zero rows.
    """
    with open(path, "rb") as fh:
        layout = _Layout(*_parse_header(path, _leading_lines(path, fh)))
        return _scan(path, fh, layout, sha256_of(fh, BLOCK_BYTES), consume)


def _scan(path, fh, layout: _Layout, digest: str, consume):
    """scan_dataset of the dataset file ``path``, open as ``fh``, whose
    header gave ``layout`` and whose bytes have the sha256 ``digest``."""

    def parse():
        shape = (_count_rows(path, fh, layout.header_idx), layout.n_cols)
        return shape, _parsed_blocks(path, fh, layout), {}

    return _cached(path, sidecar_path(path), layout, digest, consume, parse)[0]


def _cached(path, sidecar, layout: _Layout, key: str, consume, fill):
    """(consume(info, blocks), text) over the rows of the sidecar
    ``sidecar`` of the dataset file ``path``, keyed ``key`` (see
    _scan_sidecar). A miss writes the shape, row blocks and other members
    (a dict of arrays by name) that ``fill()`` gives to a new one that then
    moves into place, or to a temporary file where the directory refuses the
    write; one that fails its own scan is removed and raises OSError."""
    try:
        return _scan_sidecar(path, sidecar, layout, key, consume)
    except _StaleSidecar:
        pass
    shape, blocks, members = fill()
    with contextlib.ExitStack() as stack:
        try:
            side = stack.enter_context(replacing(sidecar, "wb"))
        except OSError:  # a directory that refuses the write
            side = sidecar = stack.enter_context(tempfile.TemporaryFile())
        _save_sidecar(side, shape, blocks, lambda: key, **members)
        del blocks, members  # what the write held is not held beside what is read back
        if side is not sidecar:
            stack.close()  # moves the new sidecar into place
        try:
            return _scan_sidecar(path, sidecar, layout, key, consume)
        except _StaleSidecar as exc:
            if side is not sidecar:
                sidecar.unlink(missing_ok=True)
            raise OSError(f"{path}: the sidecar just written for it fails its scan") from exc


def outputs_path(path, model_path) -> Path:
    """Where model_outputs keeps the outputs of the model file ``model_path``
    on a dataset CSV: ``<CSV name>.<model file name>.npz`` beside the CSV."""
    path = Path(path)
    return path.with_name(f"{path.name}.{Path(model_path).name}.npz")


class Outputs(NamedTuple):
    """A model's outputs on the rows of a dataset file: its (n, n_outputs)
    raw outputs (see nn.split_outputs), its own (n, 2) class probabilities
    (nn.probabilities), the labels, p_true (None without the column) and,
    where asked for, ``text``: the float text (see artifacts.float_text) of
    each column of ``np.column_stack([raw, probs, p_true])``, p_true's
    only where the file has it."""

    raw: np.ndarray
    probs: np.ndarray
    y: np.ndarray
    p_true: np.ndarray | None
    text: np.ndarray | None


def model_outputs(model: nn.ModelFile, path, data_sha256: str | None = None,
                  text: bool = False) -> Outputs:
    """The Outputs of ``model`` on the dataset file ``path``, from the
    sidecar at ``outputs_path(path, model.path)``: the dataset sidecar's
    format and checks with the raw outputs and probabilities as its feature
    columns, and with ``text=True`` a ``text.npy`` member holding the text.
    It is keyed by ``"<model sha256> <file sha256> <probability rule>"``
    (nn.probability_rule), so a sidecar whose probabilities came by another
    rule is a miss, and so, where ``text`` is asked for, is one without it.
    A miss (see _cached) runs the network on each block of a scan, refusing
    non-finite outputs, takes the block's probabilities and, with ``text``,
    its text, and writes the rows it returns; a hit and a miss return the
    rows read back.

    First, before a weight is parsed, the network runs or a sidecar is
    written, the pair is checked cheapest first, each refusal a ValueError
    naming the file: the file's width (from its header line) against the
    model's; its sha256 against ``data_sha256``, the training file's, when
    given (the rows are counted only to name them); the scan's row count
    against 0, and for a training file against the header's ``data_rows``
    (a ModelFormatError). A cold scan keeps the dataset sidecar it wrote."""
    with open(path, "rb") as fh:
        layout = _Layout(*_parse_header(path, _leading_lines(path, fh)))
        if layout.n_feat != model.layer_sizes[0]:
            raise ValueError(
                f"{path} has {layout.n_feat} features, but {model.path} takes "
                f"{model.layer_sizes[0]} inputs"
            )
        digest = sha256_of(fh, BLOCK_BYTES)
        if data_sha256 is not None and digest != data_sha256:
            raise ValueError(
                f"{path} is not the training data of {model.path}: it has "
                f"{_count_rows(path, fh, layout.header_idx)} data rows where the model header "
                f"records {int(model.header['data_rows'])}, and its sha256 differs"
            )
        n_out, with_p_true = model.n_outputs, layout.with_p_true
        # the floats of a row: the outputs, the two probabilities and p_true
        n_floats = n_out + 2 + with_p_true
        stored = _Layout(0, n_floats + 1, n_out + 2, with_p_true, n_floats if text else 0)

        def counted(info):
            if info.n_rows == 0:
                raise ValueError(f"{path}: dataset is empty")
            if data_sha256 is not None and info.n_rows != int(model.header["data_rows"]):
                raise nn.ModelFormatError(f"{model.path}: model header field 'data_rows' is not "
                                          f"the {info.n_rows} data rows of {path}")
            return info

        def forward(info, blocks):
            rows = np.empty((counted(info).n_rows, stored.n_cols))
            cells = np.empty((info.n_rows, stored.text_cols), dtype=f"S{FLOAT_TEXT_BYTES}")
            params = model.params()
            for block in blocks:
                with np.errstate(over="ignore", invalid="ignore"):  # refused below
                    raw = nn.forward(params, block.x)
                if not np.isfinite(raw).all():
                    raise ValueError(f"{model.path} gives non-finite outputs on {path}")
                floats = np.column_stack([raw, nn.probabilities(model, raw)]
                                         + [block.p_true] * with_p_true)
                rows[block.rows] = np.insert(floats, n_out + 2, block.y, axis=1)
                for col in range(stored.text_cols):  # a column at a time bounds the strings held
                    cells[block.rows, col] = artifacts.float_text(floats[:, col])
            # those of the new outputs sidecar
            return rows.shape, [rows], {"text": cells} if text else {}

        def keep(info, blocks):
            x, y, p_true = take_rows(counted(info), blocks)
            return x[:, :n_out], x[:, n_out:], y, p_true

        key = f"{model.sha256} {digest} {nn.probability_rule(model)}"
        kept, cells = _cached(path, outputs_path(path, model.path), stored, key, keep,
                              lambda: _scan(path, fh, layout, digest, forward))
    return Outputs(*kept, cells)
