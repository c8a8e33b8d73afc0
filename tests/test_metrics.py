"""Metrics tests: frozen hand-computed values, a brute-force reference
implementation, and the binning/metric invariants."""

import json
import math

import numpy as np
import pytest

from calibforge import metrics

from conftest import reference_rows


# --- brute-force reference, written straight from the definitions ---------

def ref_bin_of(conf, m):
    # right-closed bins ((j-1)/m, j/m]; confidence 0 falls into bin 1
    for j in range(1, m + 1):
        if conf <= j / m:
            return j
    return m


def ref_metrics(records, m):
    n = len(records)
    members = {j: [] for j in range(1, m + 1)}
    for r in records:
        members[ref_bin_of(r.confidence, m)].append(r)
    ece = 0.0
    gaps = []
    for j in range(1, m + 1):
        group = members[j]
        if not group:
            continue
        acc = sum(1 for r in group if r.predicted_label == r.true_label) / len(group)
        conf = sum(r.confidence for r in group) / len(group)
        ece += (len(group) / n) * abs(acc - conf)
        gaps.append(abs(acc - conf))
    nll = -sum(math.log(max(r.prob_vector[r.true_label], 1e-12)) for r in records)
    acc_all = sum(1 for r in records if r.predicted_label == r.true_label) / n
    return acc_all, ece, max(gaps), nll


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


# --- compute_bins ----------------------------------------------------------

def test_compute_bins_hand_enumeration():
    confs = [0.55, 0.58, 0.95, 0.72]
    probs, labels = prediction_set(*[((1.0 - c, c), 1) for c in confs])
    bins = metrics.compute_bins(probs, labels, 10)
    populated = [b.index for b in bins if not b.empty]
    assert populated == [6, 8, 10]
    assert bins[5].count == 2  # bin 6 holds 0.55 and 0.58
    assert bins[7].count == 1
    assert bins[9].count == 1


def test_compute_bins_all_correct_full_confidence():
    probs, labels = prediction_set(*[((1.0, 0.0), 0)] * 4)
    bins = metrics.compute_bins(probs, labels, 10)
    assert bins[9].count == 4
    assert bins[9].accuracy == 1.0
    assert bins[9].mean_confidence == 1.0


def test_compute_bins_single_bin_degenerate():
    rng = np.random.default_rng(0)
    probs, labels = random_set(rng, 30)
    bins = metrics.compute_bins(probs, labels, 1)
    assert len(bins) == 1
    assert bins[0].count == 30
    assert bins[0].accuracy == metrics.accuracy(probs, labels)
    assert bins[0].mean_confidence == sum(r.confidence for r in reference_rows(probs, labels)) / 30


def test_compute_bins_rejects_empty():
    with pytest.raises(ValueError):
        metrics.compute_bins(np.empty((0, 2)), np.empty(0, dtype=int), 10)
    with pytest.raises(ValueError):  # label outside {0, 1}
        metrics.compute_bins(*prediction_set(((0.3, 0.7), 2)), 10)
    with pytest.raises(ValueError):  # one label per probability row
        metrics.compute_bins(np.array([[0.3, 0.7]]), np.array([0, 1]), 10)


def test_mean_confidence_stays_inside_interval():
    rng = np.random.default_rng(3)
    for b in metrics.compute_bins(*random_set(rng, 500), 10):
        if not b.empty:
            assert b.lo < b.mean_confidence <= b.hi


# --- ece / mce -------------------------------------------------------------

def two_bin_fixture():
    # (count 3, acc 1.0, conf 0.9) and (count 1, acc 0.0, conf 0.6)
    return prediction_set(*[((0.9, 0.1), 0)] * 3, ((0.6, 0.4), 1))


def test_ece_two_bin_arithmetic():
    bins = metrics.compute_bins(*two_bin_fixture(), 10)
    assert metrics.ece(bins, 4) == pytest.approx(0.75 * 0.1 + 0.25 * 0.6, abs=1e-15)


def test_mce_two_bin_arithmetic():
    bins = metrics.compute_bins(*two_bin_fixture(), 10)
    assert metrics.mce(bins) == pytest.approx(0.6, abs=1e-15)


def test_perfectly_calibrated_gives_zero():
    # accuracy in each bin equals its mean confidence
    rows = []
    for conf, correct_of_4 in ((0.75, 3), (0.5, 2)):
        for i in range(4):
            true = 0 if i < correct_of_4 else 1
            rows.append(((conf, 1.0 - conf), true))
    bins = metrics.compute_bins(*prediction_set(*rows), 4)
    assert metrics.ece(bins, len(rows)) == 0.0
    assert metrics.mce(bins) == 0.0


def test_single_nonempty_bin_ece_equals_mce():
    bins = metrics.compute_bins(*prediction_set(*[((0.82, 0.18), r % 2) for r in range(6)]), 10)
    assert metrics.ece(bins, 6) == metrics.mce(bins)


def test_ece_mce_error_paths():
    bins = metrics.compute_bins(*two_bin_fixture(), 10)
    with pytest.raises(ValueError):
        metrics.ece(bins, 0)
    with pytest.raises(ValueError):
        metrics.ece(bins, 5)  # counts sum to 4
    empty = [metrics.BinStats(1, 0.0, 1.0, 0, None, None)]
    with pytest.raises(ValueError):
        metrics.mce(empty)


# --- nll -------------------------------------------------------------------

def test_nll_perfect_prediction_is_exactly_zero():
    assert metrics.nll(*prediction_set(((1.0, 0.0), 0))) == 0.0


def test_nll_half_prob_is_ln2():
    assert metrics.nll(*prediction_set(((0.5, 0.5), 1))) == pytest.approx(math.log(2.0), abs=1e-15)


def test_nll_three_records_frozen():
    probs, labels = prediction_set(((0.9, 0.1), 0), ((0.8, 0.2), 0), ((0.7, 0.3), 0))
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.7))  # 0.68517...
    assert metrics.nll(probs, labels) == pytest.approx(expected, abs=1e-15)
    assert metrics.nll(probs, labels) == pytest.approx(0.6851790109107685, abs=1e-12)


def test_nll_zero_probability_is_clamped():
    assert metrics.nll(*prediction_set(((0.0, 1.0), 0))) == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_nll_nonnegative_and_zero_iff_certain():
    rng = np.random.default_rng(11)
    for _ in range(50):
        probs, labels = random_set(rng, 20)
        value = metrics.nll(probs, labels)
        assert value >= 0.0
        rows = reference_rows(probs, labels)
        assert (value == 0.0) == all(r.prob_vector[r.true_label] == 1.0 for r in rows)


# --- build_report and emission ----------------------------------------------

def test_report_matches_brute_force_bit_for_bit():
    rng = np.random.default_rng(42)
    probs, labels = random_set(rng, 1000)
    rep = metrics.build_report(probs, labels, 10)
    acc, e, m, nll = ref_metrics(reference_rows(probs, labels), 10)
    assert rep.accuracy == acc
    assert rep.ece == e
    assert rep.mce == m
    assert rep.nll_sum == nll
    assert rep.nll_mean == nll / 1000
    assert rep.n == 1000


def test_report_fields_equal_component_ops():
    probs, labels = two_bin_fixture()
    rep = metrics.build_report(probs, labels, 10)
    bins = metrics.compute_bins(probs, labels, 10)
    assert rep.ece == metrics.ece(bins, len(labels))
    assert rep.mce == metrics.mce(bins)
    assert rep.nll_sum == metrics.nll(probs, labels)
    assert rep.accuracy == metrics.accuracy(probs, labels)


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


# --- invariants -------------------------------------------------------------

def test_partition_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs, labels = random_set(rng, int(rng.integers(1, 100)))
        for m in (1, 3, 10, 25):
            bins = metrics.compute_bins(probs, labels, m)
            assert sum(b.count for b in bins) == len(labels)


def test_ece_never_exceeds_mce_and_both_bounded():
    rng = np.random.default_rng(6)
    for _ in range(50):
        probs, labels = random_set(rng, int(rng.integers(1, 80)))
        bins = metrics.compute_bins(probs, labels, 10)
        e, m = metrics.ece(bins, len(labels)), metrics.mce(bins)
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
    before = metrics.compute_bins(*prediction_set(*rows), 10)[9]
    rows.append(((1.0, 0.0), 0))
    after = metrics.compute_bins(*prediction_set(*rows), 10)[9]
    assert before.gap == after.gap == 0.0

    # and a bin whose accuracy is 0: every record wrong at confidence 0.75
    rows = [((0.75, 0.25), 1)] * 3
    before = metrics.compute_bins(*prediction_set(*rows), 10)[7]
    rows.append(((0.75, 0.25), 1))
    after = metrics.compute_bins(*prediction_set(*rows), 10)[7]
    assert before.gap == after.gap == 0.75


def test_argmax_tie_breaks_low():
    confidence, predicted = metrics.predict(np.array([[0.5, 0.5]]))
    assert predicted.tolist() == [0]
    assert confidence.tolist() == [0.5]
