"""Reliability binning and calibration metrics for two-class predictions.

A prediction set is an (n, 2) array of class probabilities plus an (n,)
array of 0/1 labels. Confidence means the maximum class probability a model
assigns to its prediction. The set is partitioned into M equal-width,
right-closed confidence bins ((m-1)/M, m/M]; per-bin accuracy and mean
confidence feed the expected and maximum calibration errors, and the
negative log-likelihood is computed directly from the predicted probability
of the true label. Where the true win probability of every row is known
(synthetic data), the report also scores the confidence against it.

Every sum accumulates sequentially in row order (``np.bincount`` and plain
loops, never the pairwise ``np.sum``), so every number in a report can be
reproduced exactly by a straightforward loop over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json, write_lines

DEFAULT_BINS = 10

# Lower clamp applied to a probability before taking its log. Probabilities
# equal to 1 are left untouched so a perfect prediction scores exactly 0.
PROB_FLOOR = 1e-12


@dataclass
class BinStats:
    """Statistics of one confidence bin ((index-1)/M, index/M].

    ``accuracy`` and ``mean_confidence`` are None for empty bins; such bins
    contribute nothing to ECE and are skipped by MCE, but they stay in the
    report so diagrams show the full partition.
    """

    index: int
    lo: float
    hi: float
    count: int
    accuracy: float | None
    mean_confidence: float | None

    @property
    def empty(self) -> bool:
        return self.count == 0

    @property
    def gap(self) -> float | None:
        if self.empty:
            return None
        return abs(self.accuracy - self.mean_confidence)


@dataclass
class CalibrationReport:
    """Summary of a prediction set: accuracy, ECE, MCE, NLL and the bins.

    ``nll_sum`` is the plain sum of per-sample negative log-likelihoods;
    ``nll_mean`` divides by the sample count and is the comparable quantity
    across datasets of different size. ``oracle_ece`` and ``true_ece`` score
    the set against its known truth, and are None where it is not known.
    """

    accuracy: float
    ece: float
    mce: float
    nll_sum: float
    nll_mean: float
    n: int
    bins: list[BinStats]
    oracle_ece: float | None = None
    true_ece: float | None = None


def predict(probs) -> tuple[np.ndarray, np.ndarray]:
    """Confidence (the maximum class probability) and predicted label of
    each row of an (n, 2) probability array. Ties go to class 0."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise ValueError("probs must have shape (n, 2)")
    predicted = (probs[:, 1] > probs[:, 0]).astype(int)
    return np.where(predicted == 1, probs[:, 1], probs[:, 0]), predicted


def _prediction_set(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[1] != 2 or labels.shape != probs.shape[:1]:
        raise ValueError("probs must have shape (n, 2) and labels shape (n,)")
    if len(labels) == 0:
        raise ValueError("the prediction set must be nonempty")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return probs, labels.astype(int)


def check_m_bins(m_bins: int) -> None:
    """Binned metrics need at least one confidence bin."""
    if m_bins < 1:
        raise ValueError("m_bins must be a positive integer")


def bin_indices(confidences, m_bins: int) -> np.ndarray:
    """Return the 1-based bin of each confidence among M right-closed bins.

    Bin m covers ((m-1)/M, m/M]. A confidence of exactly 0 falls into bin 1
    so the bins partition [0, 1] completely.
    """
    check_m_bins(m_bins)
    conf = np.asarray(confidences, dtype=float)
    inside = (conf >= 0.0) & (conf <= 1.0)
    if not inside.all():
        bad = float(conf[~inside].flat[0])
        raise ValueError(f"confidence {bad!r} outside [0, 1]")
    edges = np.arange(1, m_bins + 1) / m_bins
    return np.minimum(np.searchsorted(edges, conf, side="left"), m_bins - 1) + 1


def _bin_stats(counts: list, hits: list, conf_sums: list) -> list[BinStats]:
    """The confidence bins from each bin's row count, sum of correctness (0/1
    for a hit, or the probability of one) and sum of confidence. A bin's
    accuracy is its rows' mean correctness; 0/1 values sum to an exact
    integer."""
    m_bins = len(counts)
    bins = []
    for b in range(m_bins):
        if counts[b] > 0:
            acc = hits[b] / counts[b]
            conf = conf_sums[b] / counts[b]
        else:
            acc = None
            conf = None
        bins.append(
            BinStats(
                index=b + 1,
                lo=b / m_bins,
                hi=(b + 1) / m_bins,
                count=counts[b],
                accuracy=acc,
                mean_confidence=conf,
            )
        )
    return bins


def ece(bins: list[BinStats], n: int) -> float:
    """Expected calibration error: count-weighted mean of per-bin
    |accuracy - mean confidence|. Empty bins contribute 0."""
    if n <= 0:
        raise ValueError("n must be positive")
    if sum(b.count for b in bins) != n:
        raise ValueError("bin counts do not sum to n")
    total = 0.0
    for b in bins:
        if not b.empty:
            total += (b.count / n) * abs(b.accuracy - b.mean_confidence)
    return total


def mce(bins: list[BinStats]) -> float:
    """Maximum calibration error: the largest per-bin gap over nonempty bins."""
    gaps = [abs(b.accuracy - b.mean_confidence) for b in bins if not b.empty]
    if not gaps:
        raise ValueError("all bins are empty")
    return max(gaps)


def _nll_sum(p_label: np.ndarray) -> float:
    # one subtraction a row, in row order: sum() compensates from Python 3.12 on
    total = 0.0
    for p in np.maximum(p_label, PROB_FLOOR).tolist():
        total -= math.log(p)
    return total


def nll(probs, labels) -> float:
    """Summed negative log-likelihood of the true labels.

    Probabilities are floored at PROB_FLOOR before the log; a probability of
    exactly 1 therefore contributes exactly 0. Logs are taken with
    ``math.log``, whose last bit can differ from ``np.log``.
    """
    probs, labels = _prediction_set(probs, labels)
    return _nll_sum(probs[np.arange(len(labels)), labels])


def build_report(probs, labels, m_bins: int = DEFAULT_BINS, p_true=None) -> CalibrationReport:
    """Compute the full calibration summary of a prediction set in one pass
    over its rows: each row is predicted and binned once.

    Where the (n,) true probabilities of class 1, ``p_true``, are given, the
    report also scores each row's confidence against the true probability of
    its predicted class (p_true for class 1, 1 - p_true for class 0):

    - ``oracle_ece`` is the mean absolute gap between the two. Being an
      expectation over the known per-row truth, it needs no binning and no
      labels, so it has none of the label noise of the binned estimate. It
      is a per-row L1 error, so it mixes calibration with sharpness.
    - ``true_ece`` is the binned ECE on the same M bins, with that true
      probability in place of the 0/1 correctness of each row. It has no
      label noise: with p_true equal to the 0/1 labels it is the label ECE,
      and with calibrated truth it is 0 whatever the test size.
    """
    probs, labels = _prediction_set(probs, labels)
    n = len(labels)
    if p_true is not None:
        p_true = np.asarray(p_true, dtype=float)
        if p_true.shape != labels.shape:
            raise ValueError("p_true must hold one probability per row of probs")
    confidence, predicted = predict(probs)
    idx = bin_indices(confidence, m_bins) - 1
    correct = predicted == labels

    def bin_sums(weights) -> list:
        return np.bincount(idx, weights=weights, minlength=m_bins).tolist()

    counts = np.bincount(idx, minlength=m_bins).tolist()
    conf_sums = bin_sums(confidence)
    bins = _bin_stats(counts, bin_sums(correct), conf_sums)
    nll_sum = _nll_sum(probs[np.arange(n), labels])
    oracle = true = None
    if p_true is not None:
        true_conf = np.where(predicted == 1, p_true, 1.0 - p_true)
        # the gaps are summed sequentially in row order
        oracle = float(np.cumsum(np.abs(confidence - true_conf))[-1]) / n
        true = ece(_bin_stats(counts, bin_sums(true_conf), conf_sums), n)
    return CalibrationReport(
        accuracy=int(np.count_nonzero(correct)) / n,
        ece=ece(bins, n),
        mce=mce(bins),
        nll_sum=nll_sum,
        nll_mean=nll_sum / n,
        n=n,
        bins=bins,
        oracle_ece=oracle,
        true_ece=true,
    )


def report_to_dict(report: CalibrationReport, extra: dict | None = None) -> dict:
    """JSON-ready view of a report. Empty bins carry null accuracy and
    confidence plus an explicit empty marker. The ``extra`` top-level
    fields (tool version, resolved config, method) follow the bins, and the
    truth scores, when the report has them, come last."""
    doc = {
        "accuracy": report.accuracy,
        "ece": report.ece,
        "mce": report.mce,
        "nll_sum": report.nll_sum,
        "nll_mean": report.nll_mean,
        "n": report.n,
        "bins": [
            {
                "m": b.index,
                "lo": b.lo,
                "hi": b.hi,
                "count": b.count,
                "acc": b.accuracy,
                "conf": b.mean_confidence,
                "empty": b.empty,
            }
            for b in report.bins
        ],
    }
    doc.update(extra or {})
    if report.oracle_ece is not None:
        doc["oracle_ece"] = report.oracle_ece
        doc["true_ece"] = report.true_ece
    return doc


def write_report_json(report: CalibrationReport, path, extra: dict | None = None) -> None:
    """Write ``report_to_dict(report, extra)`` as JSON."""
    write_json(path, report_to_dict(report, extra))


def write_reliability_csv(report: CalibrationReport, path, comment: str | None = None) -> None:
    """Write the per-bin reliability table.

    Columns: bin_lo,bin_hi,count,accuracy,confidence,gap. Empty bins keep
    their row with blank statistics so the partition stays visible.
    """
    header = ("bin_lo", "bin_hi", "count", "accuracy", "confidence", "gap")
    rows = ((b.lo, b.hi, b.count, b.accuracy, b.mean_confidence, b.gap) for b in report.bins)
    write_csv(path, header, rows, comment)


def render_reliability_svg(report: CalibrationReport, title: str = "reliability") -> str:
    """Render the reliability diagram as a standalone SVG string.

    Accuracy bars per bin against the identity diagonal, with a tick at each
    bin's mean confidence. Output is deterministic for identical reports.
    """
    size, margin = 420, 50
    plot = size - 2 * margin

    def sx(v: float) -> float:
        return margin + v * plot

    def sy(v: float) -> float:
        return size - margin - v * plot

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for b in report.bins:
        if b.empty:
            continue
        x0, x1 = sx(b.lo), sx(b.hi)
        y = sy(b.accuracy)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{sy(0.0) - y:.2f}" fill="#7a9cc6" stroke="#33557f" stroke-width="1"/>'
        )
        cx = sx(b.mean_confidence)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{sy(0.0):.2f}" x2="{cx:.2f}" y2="{sy(1.0):.2f}" '
            f'stroke="#c04040" stroke-width="1" stroke-dasharray="3,3"/>'
        )
    parts.append(
        f'<line x1="{sx(0.0):.2f}" y1="{sy(0.0):.2f}" x2="{sx(1.0):.2f}" y2="{sy(1.0):.2f}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    # axes with ticks every 0.2
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(6):
        v = i / 5
        parts.append(
            f'<text x="{sx(v):.2f}" y="{size - margin + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{v:.1f}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(v) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{size / 2:.1f}" y="{size - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">confidence</text>'
    )
    parts.append(
        f'<text x="16" y="{size / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {size / 2:.1f})">accuracy</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_reliability_svg(
    report: CalibrationReport, path, title: str = "reliability", comment: str | None = None
) -> None:
    # XML forbids "--" inside a comment; it can only come from a string of
    # the embedded config JSON, where the escape "\u002d" decodes to "-"
    lines = ["<!-- " + comment.replace("--", "-\\u002d") + " -->"] if comment else []
    lines.append(render_reliability_svg(report, title=title).removesuffix("\n"))
    write_lines(path, lines)
