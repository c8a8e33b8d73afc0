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

import itertools
from dataclasses import dataclass

import numpy as np

from .artifacts import format_numbers, write_lines
from .duloss import sigmoid
from .metrics import bin_indices, predict

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

# write_dataset formats this many rows at a time, which bounds its sort,
# index and string arrays to one block whatever the dataset size
WRITE_BLOCK_ROWS = 1024


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; the message names the line."""


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


def generate_dataset(config: SyntheticConfig):
    """Draw a seeded dataset as (x, y, p_true) arrays: (n, F) float features,
    (n,) 0/1 labels and (n,) win probabilities of label 1.

    Draw order is fixed (minute, gold, xp, kills, picks, filler, labels), so
    a config reproduces its dataset exactly.
    """
    n = config.n_matches
    rng = np.random.default_rng(config.rng_seed)
    minute = rng.integers(config.minute_min, config.minute_max + 1, size=n)
    scale = np.sqrt(np.maximum(minute, 1))
    gold_diff = np.round(rng.normal(0.0, GOLD_STD_PER_SQRT_MINUTE * scale), 3)
    xp_diff = np.round(rng.normal(0.0, XP_STD_PER_SQRT_MINUTE * scale), 3)
    kills_blue = rng.poisson(KILL_RATE_PER_MINUTE * minute)
    kills_red = rng.poisson(KILL_RATE_PER_MINUTE * minute)

    order = np.argsort(rng.random((n, config.roster_size)), axis=1)
    comp = np.zeros((n, config.roster_size))
    rows = np.arange(n)[:, None]
    comp[rows, order[:, :_PICKS_PER_TEAM]] = 1.0  # red picks
    comp[rows, order[:, _PICKS_PER_TEAM : 2 * _PICKS_PER_TEAM]] = -1.0  # blue picks
    # freed before the filler and feature arrays are built, to keep it out of gen's peak RSS
    del order

    filler = np.round(rng.standard_normal((n, config.filler_size)), 4)

    champ_coef = champion_coefficients(config)
    p_true = win_probability(
        minute, gold_diff, xp_diff, kills_blue, kills_red, comp, champ_coef, config
    )
    labels = (rng.random(n) < p_true).astype(int)

    features = np.column_stack(
        [
            minute.astype(float),
            gold_diff,
            xp_diff,
            kills_blue.astype(float),
            kills_red.astype(float),
            comp,
            filler,
        ]
    )
    return features, labels, p_true


def _true_confidence(probs, p_true) -> tuple[np.ndarray, np.ndarray]:
    """Predicted confidence of each row and the true probability of the
    predicted class: p_true for class 1 and 1 - p_true for class 0."""
    confidence, predicted = predict(probs)
    p_true = np.asarray(p_true, dtype=float)  # None becomes a 0-d NaN
    if p_true.shape != confidence.shape:
        raise ValueError("p_true must hold one probability per row of probs")
    if len(p_true) == 0:
        raise ValueError("the prediction set must be nonempty")
    return confidence, np.where(predicted == 1, p_true, 1.0 - p_true)


def oracle_ece(probs, p_true) -> float:
    """Mean absolute gap between predicted confidence and the true
    confidence of the predicted class.

    Being an expectation over the known per-sample truth, it needs no
    binning and no labels, so it has none of the label noise of the binned
    estimate. It is a per-row L1 error, so it mixes calibration with
    sharpness. The gaps are summed sequentially in row order.
    """
    confidence, true_conf = _true_confidence(probs, p_true)
    return float(np.cumsum(np.abs(confidence - true_conf))[-1]) / len(true_conf)


def true_ece(probs, p_true, m_bins: int) -> float:
    """The binned ECE of ``metrics.build_report`` on the same M confidence
    bins, with the true probability of the predicted class in place of the
    0/1 correctness of each row.

    It has no label noise: with p_true equal to the 0/1 labels it is the
    label ECE, and with calibrated truth it is 0 whatever the test size.
    """
    confidence, true_conf = _true_confidence(probs, p_true)
    idx = bin_indices(confidence, m_bins) - 1
    counts = np.bincount(idx, minlength=m_bins).tolist()
    truth_sums = np.bincount(idx, weights=true_conf, minlength=m_bins).tolist()
    conf_sums = np.bincount(idx, weights=confidence, minlength=m_bins).tolist()
    total = 0.0
    for count, truth, conf in zip(counts, truth_sums, conf_sums):
        if count > 0:
            total += (count / len(idx)) * abs(truth / count - conf / count)
    return total


def split(n: int, fractions, seed: int):
    """Seeded disjoint partition of n rows into (train, val, test) index
    arrays.

    ``fractions`` lists (train, val[, test]) shares; they must be
    nonnegative and sum to at most 1. The val and test sizes are exact
    floors; whatever remains goes to train.
    """
    fracs = list(fractions)
    if len(fracs) == 2:
        fracs.append(0.0)
    if len(fracs) != 3:
        raise ValueError("fractions must list (train, val[, test]) shares")
    if any(f < 0 for f in fracs):
        raise ValueError("fractions must be nonnegative")
    if sum(fracs) > 1.0 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    n_val = int(np.floor(fracs[1] * n))
    n_test = int(np.floor(fracs[2] * n))
    perm = np.random.default_rng(seed).permutation(n)
    n_train = n - n_val - n_test
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


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
    """Write (x, y, p_true) arrays as CSV; pass p_true=None for data without
    a known win probability. Values round-trip exactly through read_dataset.

    Raises ValueError naming the first row that read_dataset would reject
    (a non-finite feature, a label other than 0/1, a p_true outside
    [0, 1]) before anything is written, so a previous file is kept.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_rows, n_features = x.shape
    if len(y) != n_rows or (p_true is not None and len(p_true) != n_rows):
        raise ValueError("x, y and p_true must have one entry per row")
    filler_size = n_features - len(SCALAR_COLUMNS) - roster_size
    if filler_size < 0:
        raise ValueError("roster_size larger than the feature vector allows")
    checks = [
        (~np.isfinite(x).all(axis=1), "features must be finite"),
        ((y != 0.0) & (y != 1.0), "label must be 0 or 1"),
    ]
    if p_true is not None:
        p_true = np.asarray(p_true, dtype=float)
        checks.append((~((p_true >= 0.0) & (p_true <= 1.0)), "p_true must lie in [0, 1]"))
    problems = [(int(np.argmax(bad)), message) for bad, message in checks if bad.any()]
    if problems:
        row, message = min(problems)
        raise ValueError(f"row {row}: {message}")
    tails = [str(int(label)) for label in y.tolist()]
    if p_true is not None:
        tails = [f"{t},{p!r}" for t, p in zip(tails, p_true.tolist())]
    head = [f"# {comment}"] if comment else []
    head.append(dataset_header(roster_size, filler_size, p_true is not None))
    write_lines(path, itertools.chain(head, _csv_rows(x, tails)))


def _csv_rows(x, tails):
    """Yield each row of finite x as format_numbers text, comma-joined and
    ended by its tail.

    Each distinct value is formatted once: the sorted distinct values of x
    are merged from per-block sets, and every block of WRITE_BLOCK_ROWS rows
    looks its cells up in their text. Finite floats that compare equal
    differ in text only as 0.0 and -0.0, which both format to "0", so the
    lookup gives every cell the text format_numbers would give it.
    """
    starts = range(0, len(x), WRITE_BLOCK_ROWS)
    blocks = [np.unique(x[i : i + WRITE_BLOCK_ROWS]) for i in starts]
    values = np.unique(np.concatenate(blocks)) if blocks else np.empty(0)
    text = np.array(format_numbers(values), dtype=object)
    for i in starts:
        block = x[i : i + WRITE_BLOCK_ROWS]
        distinct, inverse = np.unique(block, return_inverse=True)
        cells = text[np.searchsorted(values, distinct)][inverse].reshape(block.shape)
        for row, tail in zip(cells.tolist(), tails[i : i + WRITE_BLOCK_ROWS]):
            row.append(tail)
            yield ",".join(row)


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


def read_dataset(path, rows=None):
    """Parse a dataset CSV into (x, y, p_true) arrays; p_true is None when
    the file has no p_true column.

    ``rows``, when given, is an index array into the data rows (0-based, in
    file order): only those rows are parsed and checked, and they are
    returned in the order of ``rows``, so ``read_dataset(path, rows=idx)``
    equals ``read_dataset(path)`` indexed by ``idx`` whenever the whole file
    is valid. An index outside the data rows raises DatasetFormatError.

    Raises DatasetFormatError naming the 1-based line for a malformed row, a
    wrong column count, a bad header, a non-finite feature, a label other
    than 0/1, or a p_true outside [0, 1]. Leading '#' comment lines and
    blank lines are skipped; a header-only file yields zero rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx >= len(lines) or not lines[idx]:
        raise DatasetFormatError(f"{path}: line {idx + 1}: missing header")
    header = lines[idx].split(",")
    if header[: len(SCALAR_COLUMNS)] != SCALAR_COLUMNS:
        raise DatasetFormatError(
            f"{path}: line {idx + 1}: header must start with {','.join(SCALAR_COLUMNS)}"
        )
    rest = header[len(SCALAR_COLUMNS) :]
    with_p_true = bool(rest) and rest[-1] == "p_true"
    if with_p_true:
        rest = rest[:-1]
    if not rest or rest[-1] != "label":
        raise DatasetFormatError(f"{path}: line {idx + 1}: header must contain label")
    rest = rest[:-1]
    n_comp = sum(1 for c in rest if c.startswith("comp_"))
    n_filler = len(rest) - n_comp
    expected = [f"comp_{i}" for i in range(n_comp)] + [
        f"filler_{i}" for i in range(n_filler)
    ]
    if rest != expected:
        raise DatasetFormatError(
            f"{path}: line {idx + 1}: malformed comp/filler column block"
        )
    n_cols = len(header)
    n_feat = len(SCALAR_COLUMNS) + n_comp + n_filler

    # loadtxt numbers rows inconsistently in its errors, so the file line of
    # each data row is kept to name a bad row
    numbered = [(no + 1, line) for no, line in enumerate(lines) if no > idx and line]
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or not (rows.size == 0 or np.issubdtype(rows.dtype, np.integer)):
            raise ValueError("rows must be a 1-D integer index array")
        outside = (rows < 0) | (rows >= len(numbered))
        if outside.any():
            raise DatasetFormatError(
                f"{path}: row index {rows[np.argmax(outside)]} is outside the file's "
                f"{len(numbered)} data rows"
            )
        numbered = [numbered[i] for i in rows.tolist()]
    data = np.empty((0, n_cols))
    if numbered:
        try:
            data = np.loadtxt(
                [line for _, line in numbered], delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            raise _parse_error(path, numbered, n_cols) from None
        if data.shape[1] != n_cols:
            raise _parse_error(path, numbered, n_cols)
    x = np.ascontiguousarray(data[:, :n_feat])
    y = data[:, n_feat]
    p_true = data[:, n_feat + 1].copy() if with_p_true else None
    checks = [
        (~np.isfinite(x).all(axis=1), "features must be finite"),
        ((y != 0.0) & (y != 1.0), "label must be 0 or 1"),
    ]
    if with_p_true:
        checks.append((~((p_true >= 0.0) & (p_true <= 1.0)), "p_true must lie in [0, 1]"))
    for bad, message in checks:
        if bad.any():
            raise DatasetFormatError(f"{path}: line {numbered[np.argmax(bad)][0]}: {message}")
    return x, y.astype(int), p_true
