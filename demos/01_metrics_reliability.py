"""Reliability binning and calibration metrics on a hand-built prediction set.

Builds two small prediction sets, one overconfident and one calibrated,
and walks through the per-bin statistics, ECE, MCE and NLL. Writes the
reliability diagram of the overconfident set next to this script.
"""

from pathlib import Path

import numpy as np

from calibforge import metrics

rng = np.random.default_rng(0)

print("== an overconfident predictor ==")
print("it claims 90% confidence but is right only ~70% of the time\n")
# a prediction set is an (n, 2) probability array plus 0/1 labels; class 0
# is always the predicted class here, so label 1 marks a wrong prediction
probs, labels = [], []
for i in range(200):
    correct = rng.random() < 0.70
    probs.append((0.90, 0.10))
    labels.append(0 if correct else 1)
# add a smattering of mid-confidence predictions that are roughly honest
for i in range(100):
    conf = float(rng.uniform(0.5, 0.65))
    correct = rng.random() < conf
    probs.append((conf, 1 - conf))
    labels.append(0 if correct else 1)

report = metrics.build_report(np.array(probs), np.array(labels), m_bins=10)
print(f"n = {report.n}, accuracy = {report.accuracy:.3f}")
print(f"ECE = {report.ece:.4f}   MCE = {report.mce:.4f}")
print(f"NLL = {report.nll_sum:.2f} (sum), {report.nll_mean:.4f} (per sample)\n")
print("bin        count   accuracy   confidence   gap")
for b in report.bins:
    lo, hi = b.lo, b.hi
    if b.empty:
        print(f"({lo:.1f},{hi:.1f}]    0        -          -         -")
    else:
        print(
            f"({lo:.1f},{hi:.1f}]  {b.count:5d}     {b.accuracy:.3f}      "
            f"{b.mean_confidence:.3f}     {b.gap:.3f}"
        )

out = Path(__file__).with_name("reliability_overconfident.svg")
metrics.write_reliability_svg(report, out, title="overconfident predictor")
print(f"\nwrote {out.name}: accuracy bars vs the identity diagonal")

print("\n== the same metrics on a perfectly calibrated set ==")
probs, labels = [], []
for conf in (0.55, 0.65, 0.75, 0.85, 0.95):
    for i in range(100):
        correct = i < round(conf * 100)
        probs.append((conf, 1 - conf))
        labels.append(0 if correct else 1)
report = metrics.build_report(np.array(probs), np.array(labels), m_bins=10)
print(f"ECE = {report.ece:.4f}   MCE = {report.mce:.4f}  (both ~0 by construction)")
