"""Reliability binning and calibration metrics for two-class predictions.

A prediction set is an (n, 2) array of class probabilities plus an (n,)
array of 0/1 labels. Confidence means the maximum class probability a model
assigns to its prediction. ``build_report`` is the one way to score a set:
it partitions the set into M equal-width, right-closed confidence bins
((m-1)/M, m/M], and one routine over the per-bin sums gives the bins, the
expected and maximum calibration errors and, where the true win probability
of every row is known (synthetic data), the binned error against that
truth. The negative log-likelihood is computed directly from the predicted
probability of the true label.

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

# A report holds one row per bin, so its memory and file size grow with M;
# this is far above the 10-25 bins any comparison uses.
MAX_BINS = 10_000

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
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    return probs, labels.astype(int)


def check_m_bins(m_bins: int) -> None:
    """Binned metrics need at least one confidence bin, and at most MAX_BINS."""
    if not 1 <= m_bins <= MAX_BINS:
        raise ValueError(f"m_bins must be an integer in [1, {MAX_BINS}], got {m_bins}")


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


def _binned(counts: list, sums: list, conf_sums: list, n: int) -> tuple[list, float, float]:
    """The confidence bins from each bin's row count, sum of correctness (0/1
    for a hit, or the probability of one) and sum of confidence, with their
    expected and maximum calibration errors (ECE, MCE). A bin's accuracy is
    its rows' mean correctness; 0/1 values sum to an exact integer. The ECE
    adds each nonempty bin's ``(count / n) * |accuracy - mean confidence|``
    in bin order, and the MCE is the largest of those gaps."""
    m_bins = len(counts)
    bins, ece, mce = [], 0.0, 0.0
    for b, count in enumerate(counts):
        acc = conf = None
        if count > 0:
            acc, conf = sums[b] / count, conf_sums[b] / count
            gap = abs(acc - conf)
            ece += (count / n) * gap
            mce = max(mce, gap)
        bins.append(BinStats(b + 1, b / m_bins, (b + 1) / m_bins, count, acc, conf))
    return bins, ece, mce


def _nll_sum(p_label: np.ndarray) -> float:
    # one subtraction a row, in row order: sum() compensates from Python 3.12 on
    total = 0.0
    for p in np.maximum(p_label, PROB_FLOOR).tolist():
        total -= math.log(p)
    return total


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
        if not ((p_true >= 0.0) & (p_true <= 1.0)).all():
            raise ValueError("p_true must lie in [0, 1]")
    confidence, predicted = predict(probs)
    idx = bin_indices(confidence, m_bins) - 1
    correct = predicted == labels

    def bin_sums(weights) -> list:
        return np.bincount(idx, weights=weights, minlength=m_bins).tolist()

    counts = np.bincount(idx, minlength=m_bins).tolist()
    conf_sums = bin_sums(confidence)
    bins, ece, mce = _binned(counts, bin_sums(correct), conf_sums, n)
    nll_sum = _nll_sum(probs[np.arange(n), labels])
    oracle = true = None
    if p_true is not None:
        true_conf = np.where(predicted == 1, p_true, 1.0 - p_true)
        # the gaps are summed sequentially in row order
        oracle = float(np.cumsum(np.abs(confidence - true_conf))[-1]) / n
        true = _binned(counts, bin_sums(true_conf), conf_sums, n)[1]
    return CalibrationReport(
        accuracy=int(np.count_nonzero(correct)) / n,
        ece=ece,
        mce=mce,
        nll_sum=nll_sum,
        nll_mean=nll_sum / n,
        n=n,
        bins=bins,
        oracle_ece=oracle,
        true_ece=true,
    )


def write_report_json(report: CalibrationReport, path, extra: dict | None = None) -> None:
    """Write a report as JSON. Empty bins carry null accuracy and confidence
    plus an explicit empty marker. The ``extra`` top-level fields (tool
    version, resolved config, method) follow the bins, and the truth
    scores, when the report has them, come last."""
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
    write_json(path, doc)


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
