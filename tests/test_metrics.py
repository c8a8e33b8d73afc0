"""Metrics tests: frozen hand-computed values, the brute-force reference
implementation (``conftest.ref_metrics``), and the binning/metric
invariants. Every report field is read from ``build_report``, the one path
from a prediction set to its scores."""

import json
import math

import numpy as np
import pytest

from calibforge import metrics
from calibforge.datagen import SyntheticConfig

from conftest import generate_dataset, ref_bin_of, ref_metrics, reference_rows


def prediction_set(*rows):
    """(probs, labels) arrays from ((p0, p1), true_label) rows."""
    probs = np.array([r[0] for r in rows], dtype=float)
    labels = np.array([r[1] for r in rows], dtype=int)
    return probs, labels


def random_set(rng, n):
    rows = []
    for _ in range(n):
        p1 = float(rng.random())
        rows.append(((1.0 - p1, p1), int(rng.integers(0, 2))))
    return prediction_set(*rows)


# --- bin_indices -----------------------------------------------------------

def test_bin_index_examples():
    assert metrics.bin_indices([0.55, 1.0, 0.5], 10).tolist() == [6, 10, 5]  # 0.5 in (0.4, 0.5]


def test_bin_index_zero_edge_rule():
    assert metrics.bin_indices([0.0], 10).tolist() == [1]
    assert metrics.bin_indices([0.0], 1).tolist() == [1]


def test_bin_index_rejects_bad_args():
    with pytest.raises(ValueError):
        metrics.bin_indices([0.5], 0)
    with pytest.raises(ValueError):
        metrics.bin_indices([0.2, 1.5], 10)
    with pytest.raises(ValueError):
        metrics.bin_indices([float("nan")], 10)


def test_bin_index_matches_reference_everywhere():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 10, 17):
        confs = list(rng.random(200)) + [0.0, 1.0, 0.5, 1.0 / m, (m - 1) / m]
        assert metrics.bin_indices(confs, m).tolist() == [ref_bin_of(c, m) for c in confs]


# --- the report's bins ----------------------------------------------------

def test_compute_bins_hand_enumeration():
    confs = [0.55, 0.58, 0.95, 0.72]
    probs, labels = prediction_set(*[((1.0 - c, c), 1) for c in confs])
    bins = metrics.build_report(probs, labels, 10).bins
    populated = [b.index for b in bins if not b.empty]
    assert populated == [6, 8, 10]
    assert bins[5].count == 2  # bin 6 holds 0.55 and 0.58
    assert bins[7].count == 1
    assert bins[9].count == 1


def test_compute_bins_all_correct_full_confidence():
    probs, labels = prediction_set(*[((1.0, 0.0), 0)] * 4)
    bins = metrics.build_report(probs, labels, 10).bins
    assert bins[9].count == 4
    assert bins[9].accuracy == 1.0
    assert bins[9].mean_confidence == 1.0


def test_compute_bins_single_bin_degenerate():
    rng = np.random.default_rng(0)
    probs, labels = random_set(rng, 30)
    rep = metrics.build_report(probs, labels, 1)
    bins = rep.bins
    assert len(bins) == 1
    assert bins[0].count == 30
    assert bins[0].accuracy == rep.accuracy
    rows = reference_rows(probs, labels)
    assert bins[0].accuracy == sum(r.predicted_label == r.true_label for r in rows) / 30
    assert bins[0].mean_confidence == sum(r.confidence for r in rows) / 30


def test_compute_bins_rejects_empty():
    with pytest.raises(ValueError):
        metrics.build_report(np.empty((0, 2)), np.empty(0, dtype=int), 10)
    with pytest.raises(ValueError):  # label outside {0, 1}
        metrics.build_report(*prediction_set(((0.3, 0.7), 2)), 10)
    with pytest.raises(ValueError):  # one label per probability row
        metrics.build_report(np.array([[0.3, 0.7]]), np.array([0, 1]), 10)


def test_mean_confidence_stays_inside_interval():
    rng = np.random.default_rng(3)
    for b in metrics.build_report(*random_set(rng, 500), 10).bins:
        if not b.empty:
            assert b.lo < b.mean_confidence <= b.hi


# --- ece / mce -------------------------------------------------------------

def two_bin_fixture():
    # (count 3, acc 1.0, conf 0.9) and (count 1, acc 0.0, conf 0.6)
    return prediction_set(*[((0.9, 0.1), 0)] * 3, ((0.6, 0.4), 1))


@pytest.mark.parametrize("probs, p_true", [
    ([[-0.2, 0.1], [0.6, 0.4]], None),  # the NLL would floor the negative probability
    ([[0.6, float("nan")], [0.6, 0.4]], None),  # NaN in the class not predicted
    ([[0.3, 0.7], [0.6, 0.4]], [2.0, 0.5]),
    ([[0.3, 0.7], [0.6, 0.4]], [-0.1, 0.5]),
    ([[0.3, 0.7], [0.6, 0.4]], [float("nan"), 0.5]),  # would give NaN truth scores
])
def test_report_refuses_values_outside_the_unit_interval(probs, p_true):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        metrics.build_report(np.array(probs), np.array([0, 0]), 10, p_true)


def test_report_refuses_more_than_max_bins():
    probs, labels = two_bin_fixture()
    assert len(metrics.build_report(probs, labels, metrics.MAX_BINS).bins) == metrics.MAX_BINS
    with pytest.raises(ValueError, match=str(metrics.MAX_BINS + 1)):
        metrics.build_report(probs, labels, metrics.MAX_BINS + 1)


def test_ece_two_bin_arithmetic():
    rep = metrics.build_report(*two_bin_fixture(), 10)
    assert rep.ece == pytest.approx(0.75 * 0.1 + 0.25 * 0.6, abs=1e-15)


def test_mce_two_bin_arithmetic():
    rep = metrics.build_report(*two_bin_fixture(), 10)
    assert rep.mce == pytest.approx(0.6, abs=1e-15)


def test_perfectly_calibrated_gives_zero():
    # accuracy in each bin equals its mean confidence
    rows = []
    for conf, correct_of_4 in ((0.75, 3), (0.5, 2)):
        for i in range(4):
            true = 0 if i < correct_of_4 else 1
            rows.append(((conf, 1.0 - conf), true))
    rep = metrics.build_report(*prediction_set(*rows), 4)
    assert rep.ece == 0.0
    assert rep.mce == 0.0


def test_single_nonempty_bin_ece_equals_mce():
    rows = [((0.82, 0.18), r % 2) for r in range(6)]
    rep = metrics.build_report(*prediction_set(*rows), 10)
    assert rep.ece == rep.mce


# --- nll -------------------------------------------------------------------

def nll(probs, labels) -> float:
    return metrics.build_report(probs, labels).nll_sum


def test_nll_perfect_prediction_is_exactly_zero():
    assert nll(*prediction_set(((1.0, 0.0), 0))) == 0.0


def test_nll_half_prob_is_ln2():
    assert nll(*prediction_set(((0.5, 0.5), 1))) == pytest.approx(math.log(2.0), abs=1e-15)


def test_nll_three_records_frozen():
    probs, labels = prediction_set(((0.9, 0.1), 0), ((0.8, 0.2), 0), ((0.7, 0.3), 0))
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.7))  # 0.68517...
    assert nll(probs, labels) == pytest.approx(expected, abs=1e-15)
    assert nll(probs, labels) == pytest.approx(0.6851790109107685, abs=1e-12)


def test_nll_zero_probability_is_clamped():
    assert nll(*prediction_set(((0.0, 1.0), 0))) == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_nll_sum_is_the_row_loop_bit_for_bit():
    floor = metrics.PROB_FLOOR
    p = np.array([0.0, 5e-324, floor, np.nextafter(floor, 1.0), 0.3, 1.0 / 3.0, 1.0])
    p = np.concatenate([p, np.random.default_rng(5).random(1000)])
    expected = 0.0
    for value in p.tolist():
        expected -= math.log(max(value, floor))
    assert metrics._nll_sum(p).hex() == expected.hex()


def test_nll_nonnegative_and_zero_iff_certain():
    rng = np.random.default_rng(11)
    for _ in range(50):
        probs, labels = random_set(rng, 20)
        value = nll(probs, labels)
        assert value >= 0.0
        rows = reference_rows(probs, labels)
        assert (value == 0.0) == all(r.prob_vector[r.true_label] == 1.0 for r in rows)


# --- build_report and emission ----------------------------------------------

def test_report_matches_brute_force_bit_for_bit():
    rng = np.random.default_rng(42)
    probs, labels = random_set(rng, 1000)
    rep = metrics.build_report(probs, labels, 10)
    ref = ref_metrics(reference_rows(probs, labels), 10)
    assert rep.accuracy == ref["accuracy"]
    assert rep.ece == ref["ece"]
    assert rep.mce == ref["mce"]
    assert rep.nll_sum == ref["nll_sum"]
    assert rep.nll_mean == ref["nll_sum"] / 1000
    assert rep.n == 1000


def test_report_fields_equal_component_ops():
    probs, labels = two_bin_fixture()
    rep = metrics.build_report(probs, labels, 10)
    _, predicted = metrics.predict(probs)
    assert rep.accuracy == np.count_nonzero(predicted == labels) / len(labels)


def test_report_perfect_set():
    rep = metrics.build_report(*prediction_set(*[((1.0, 0.0), 0)] * 5), 10)
    assert rep.accuracy == 1.0
    assert rep.ece == 0.0
    assert rep.mce == 0.0


def test_report_json_schema(tmp_path):
    rep = metrics.build_report(*two_bin_fixture(), 10)
    path = tmp_path / "report.json"
    metrics.write_report_json(rep, path, extra={"version": "x"})
    doc = json.loads(path.read_text())
    for key in ("accuracy", "ece", "mce", "nll_sum", "nll_mean", "n", "bins", "version"):
        assert key in doc
    assert len(doc["bins"]) == 10
    assert {"m", "lo", "hi", "count", "acc", "conf", "empty"} <= set(doc["bins"][0])
    empties = [b for b in doc["bins"] if b["count"] == 0]
    assert all(b["empty"] and b["acc"] is None for b in empties)


def test_reliability_csv_layout(tmp_path):
    rep = metrics.build_report(*two_bin_fixture(), 10)
    path = tmp_path / "rel.csv"
    metrics.write_reliability_csv(rep, path, comment="meta")
    lines = path.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "bin_lo,bin_hi,count,accuracy,confidence,gap"
    assert len(lines) == 12
    # empty bins keep their row with blank statistics
    assert lines[2].endswith(",0,,,")
    row = lines[2 + 8].split(",")  # bin 9 holds the 0.9-confidence records
    assert int(row[2]) == 3
    assert float(row[3]) == 1.0
    assert float(row[4]) == pytest.approx(0.9)


def test_reliability_svg_renders(tmp_path):
    rep = metrics.build_report(*two_bin_fixture(), 10)
    path = tmp_path / "rel.svg"
    metrics.write_reliability_svg(rep, path, comment="meta")
    text = path.read_text()
    assert text.startswith("<!-- meta -->")
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert text.count("<rect") >= 3  # background, frame, at least one bar


# --- oracle_ece and true_ece -------------------------------------------------

def test_oracle_ece_zero_for_perfect_predictions():
    _, y, p_true = generate_dataset(
        SyntheticConfig(n_matches=100, n_features=25, roster_size=12, rng_seed=2)
    )
    # the truth itself as the prediction
    probs = np.column_stack([1.0 - p_true, p_true])
    assert metrics.build_report(probs, y, 10, p_true).oracle_ece == 0.0


def test_oracle_ece_constant_overconfidence():
    # certain of class 1 (and of class 0) where the truth for it is 0.7
    probs = np.array([[0.0, 1.0]] * 13 + [[1.0, 0.0]] * 12)
    p_true = np.array([0.7] * 13 + [0.3] * 12)
    labels = np.arange(25) % 2
    assert metrics.build_report(probs, labels, 10, p_true).oracle_ece == pytest.approx(
        0.3, abs=1e-15
    )


def test_oracle_ece_matches_brute_force():
    rng = np.random.default_rng(4)
    confs = rng.uniform(0.5, 1.0, 500)
    trues = rng.uniform(0.0, 1.0, 500)
    pairs = list(zip(confs, trues))
    expected = sum(abs(c - t) for c, t in pairs) / 500
    # every row predicts class 1, whose truth is p_true itself
    probs = np.column_stack([1.0 - confs, confs])
    labels = rng.integers(0, 2, 500)
    report = metrics.build_report(probs, labels, 10, trues)
    assert report.oracle_ece == pytest.approx(expected, abs=1e-12)


def test_oracle_ece_requires_p_true():
    with pytest.raises(ValueError):
        metrics.build_report(np.empty((0, 2)), np.empty(0, dtype=int), 10, np.empty(0))
    # without p_true the report has no truth scores
    report = metrics.build_report(np.array([[0.1, 0.9]]), np.array([1]), 10, None)
    assert report.oracle_ece is None and report.true_ece is None
    with pytest.raises(ValueError):
        metrics.build_report(np.array([[0.1, 0.9]]), np.array([1]), 10, np.array([0.5, 0.5]))


def test_true_ece_with_labels_as_truth_is_the_label_ece():
    rng = np.random.default_rng(6)
    p1 = rng.uniform(0.0, 1.0, 700)
    labels = rng.integers(0, 2, 700)
    probs = np.column_stack([1.0 - p1, p1])
    for m_bins in (10, 15):
        report = metrics.build_report(probs, labels, m_bins, labels.astype(float))
        assert report.true_ece == report.ece  # one binned-ECE implementation


def test_true_ece_two_bin_hand_case():
    # four bins of width 0.25; the confidences fill (0.5, 0.75] and (0.75, 1]
    probs = np.array([[0.4, 0.6], [0.7, 0.3], [0.1, 0.9], [0.2, 0.8]])
    p_true = np.array([0.7, 0.2, 0.5, 0.9])
    # truth of the predicted class: 0.7, 0.8 | 0.5, 0.9
    # bin 3: |0.75 - 0.65| = 0.10, bin 4: |0.70 - 0.85| = 0.15, each of weight 1/2
    report = metrics.build_report(probs, np.array([1, 0, 1, 1]), 4, p_true)
    assert report.true_ece == pytest.approx(0.125, abs=1e-15)


def test_truth_scores_match_brute_force_with_ties_and_empty_bins():
    # probabilities of class 1 on a grid of twentieths: rows share a
    # confidence, fall on bin edges and tie at 0.5 (predicting class 0),
    # and at most 12 rows leave some of the 10 or 25 bins empty
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        p1 = rng.integers(0, 21, n) / 20
        probs = np.column_stack([1.0 - p1, p1])
        labels = rng.integers(0, 2, n)
        p_true = rng.integers(0, 11, n) / 10
        for m_bins in (10, 25):
            report = metrics.build_report(probs, labels, m_bins, p_true)
            ref = ref_metrics(reference_rows(probs, labels), m_bins, p_true.tolist())
            assert any(count == 0 for count, _, _ in ref["bins"])
            assert report.oracle_ece == ref["oracle_ece"]
            assert report.true_ece == ref["true_ece"]
            assert report.ece == ref["ece"]
            assert [(b.count, b.accuracy, b.mean_confidence) for b in report.bins] == ref["bins"]


# --- invariants -------------------------------------------------------------

def test_partition_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs, labels = random_set(rng, int(rng.integers(1, 100)))
        for m in (1, 3, 10, 25):
            bins = metrics.build_report(probs, labels, m).bins
            assert sum(b.count for b in bins) == len(labels)


def test_ece_never_exceeds_mce_and_both_bounded():
    rng = np.random.default_rng(6)
    for _ in range(50):
        probs, labels = random_set(rng, int(rng.integers(1, 80)))
        rep = metrics.build_report(probs, labels, 10)
        e, m = rep.ece, rep.mce
        assert 0.0 <= e <= m <= 1.0


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    probs, labels = random_set(rng, 200)
    rep = metrics.build_report(probs, labels, 10)
    order = np.arange(len(labels))
    rng.shuffle(order)
    rep2 = metrics.build_report(probs[order], labels[order], 10)
    assert rep2.ece == pytest.approx(rep.ece, abs=1e-12)
    assert rep2.mce == pytest.approx(rep.mce, abs=1e-12)
    assert rep2.accuracy == rep.accuracy


def test_adding_matching_record_keeps_gap():
    # bin with acc == conf == 1.0 stays unchanged when another perfect,
    # correct record is added to it
    rows = [((1.0, 0.0), 0)] * 3
    before = metrics.build_report(*prediction_set(*rows), 10).bins[9]
    rows.append(((1.0, 0.0), 0))
    after = metrics.build_report(*prediction_set(*rows), 10).bins[9]
    assert before.gap == after.gap == 0.0

    # and a bin whose accuracy is 0: every record wrong at confidence 0.75
    rows = [((0.75, 0.25), 1)] * 3
    before = metrics.build_report(*prediction_set(*rows), 10).bins[7]
    rows.append(((0.75, 0.25), 1))
    after = metrics.build_report(*prediction_set(*rows), 10).bins[7]
    assert before.gap == after.gap == 0.75


def test_argmax_tie_breaks_low():
    confidence, predicted = metrics.predict(np.array([[0.5, 0.5]]))
    assert predicted.tolist() == [0]
    assert confidence.tolist() == [0.5]
