"""Reliability binning and calibration metrics for two-class predictions.

A prediction set is an (n, 2) array of class probabilities plus an (n,)
array of 0/1 labels. Confidence means the maximum class probability a model
assigns to its prediction. The set is partitioned into M equal-width,
right-closed confidence bins ((m-1)/M, m/M]; per-bin accuracy and mean
confidence feed the expected and maximum calibration errors, and the
negative log-likelihood is computed directly from the predicted probability
of the true label.

Every sum accumulates sequentially in row order (``np.bincount`` and plain
loops, never the pairwise ``np.sum``), so every number in a report can be
reproduced exactly by a straightforward loop over the rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_lines

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
    across datasets of different size.
    """

    accuracy: float
    ece: float
    mce: float
    nll_sum: float
    nll_mean: float
    n: int
    bins: list[BinStats]


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


def bin_indices(confidences, m_bins: int) -> np.ndarray:
    """Return the 1-based bin of each confidence among M right-closed bins.

    Bin m covers ((m-1)/M, m/M]. A confidence of exactly 0 falls into bin 1
    so the bins partition [0, 1] completely.
    """
    if m_bins < 1:
        raise ValueError("m_bins must be a positive integer")
    conf = np.asarray(confidences, dtype=float)
    inside = (conf >= 0.0) & (conf <= 1.0)
    if not inside.all():
        bad = float(conf[~inside].flat[0])
        raise ValueError(f"confidence {bad!r} outside [0, 1]")
    edges = np.arange(1, m_bins + 1) / m_bins
    return np.minimum(np.searchsorted(edges, conf, side="left"), m_bins - 1) + 1


def compute_bins(probs, labels, m_bins: int) -> list[BinStats]:
    """Partition a prediction set by confidence and compute per-bin accuracy
    and mean confidence. Always returns exactly ``m_bins`` entries."""
    probs, labels = _prediction_set(probs, labels)
    confidence, predicted = predict(probs)
    idx = bin_indices(confidence, m_bins) - 1
    counts = np.bincount(idx, minlength=m_bins).tolist()
    hits = np.bincount(idx[predicted == labels], minlength=m_bins).tolist()
    conf_sums = np.bincount(idx, weights=confidence, minlength=m_bins).tolist()
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


def nll(probs, labels) -> float:
    """Summed negative log-likelihood of the true labels.

    Probabilities are floored at PROB_FLOOR before the log; a probability of
    exactly 1 therefore contributes exactly 0. Logs are taken with
    ``math.log``, whose last bit can differ from ``np.log``.
    """
    probs, labels = _prediction_set(probs, labels)
    total = 0.0
    for p in probs[np.arange(len(labels)), labels].tolist():
        total -= math.log(max(p, PROB_FLOOR))
    return total


def accuracy(probs, labels) -> float:
    """Fraction of rows whose predicted label matches the true label."""
    probs, labels = _prediction_set(probs, labels)
    _, predicted = predict(probs)
    return int(np.count_nonzero(predicted == labels)) / len(labels)


def build_report(probs, labels, m_bins: int = DEFAULT_BINS) -> CalibrationReport:
    """Compute the full calibration summary of a prediction set."""
    bins = compute_bins(probs, labels, m_bins)
    n = len(labels)
    nll_sum = nll(probs, labels)
    return CalibrationReport(
        accuracy=accuracy(probs, labels),
        ece=ece(bins, n),
        mce=mce(bins),
        nll_sum=nll_sum,
        nll_mean=nll_sum / n,
        n=n,
        bins=bins,
    )


def report_to_dict(report: CalibrationReport) -> dict:
    """JSON-ready view of a report. Empty bins carry null accuracy and
    confidence plus an explicit empty marker."""
    return {
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


def write_report_json(report: CalibrationReport, path, extra: dict | None = None) -> None:
    """Write the report as JSON, optionally merged with extra top-level
    fields (tool version, resolved config, oracle metrics)."""
    doc = report_to_dict(report)
    if extra:
        doc.update(extra)
    write_lines(path, [json.dumps(doc, indent=2)])


def write_reliability_csv(report: CalibrationReport, path, comment: str | None = None) -> None:
    """Write the per-bin reliability table.

    Columns: bin_lo,bin_hi,count,accuracy,confidence,gap. Empty bins keep
    their row with blank statistics so the partition stays visible.
    """
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("bin_lo,bin_hi,count,accuracy,confidence,gap")
    for b in report.bins:
        if b.empty:
            lines.append(f"{b.lo!r},{b.hi!r},0,,,")
        else:
            lines.append(
                f"{b.lo!r},{b.hi!r},{b.count},{b.accuracy!r},{b.mean_confidence!r},{b.gap!r}"
            )
    write_lines(path, lines)


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
    lines = [f"<!-- {comment} -->"] if comment else []
    lines.append(render_reliability_svg(report, title=title).removesuffix("\n"))
    write_lines(path, lines)
