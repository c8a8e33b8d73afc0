"""Generator tests: label/probability statistics against binomial and
chi-square oracles, file round-trips, and split bookkeeping."""

import numpy as np
import pytest
from scipy import stats

from calibforge import datagen, metrics
from calibforge.datagen import SyntheticConfig


def small_config(n, seed=0, **kw):
    defaults = dict(n_matches=n, n_features=25, roster_size=12, rng_seed=seed)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


# --- config validation ------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SyntheticConfig(n_matches=0)
    with pytest.raises(ValueError):
        small_config(10, noise_floor=-0.1)
    with pytest.raises(ValueError):
        small_config(10, noise_floor=0.0, noise_gain=0.0)
    with pytest.raises(ValueError):
        small_config(10, minute_min=20, minute_max=10)
    with pytest.raises(ValueError):
        SyntheticConfig(n_matches=10, n_features=10, roster_size=12)


# --- generation -------------------------------------------------------------

def test_feature_layout_and_shapes():
    config = small_config(50)
    x, y, p_true = datagen.generate_dataset(config)
    assert x.shape == (50, 25) and x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]
    assert y.shape == (50,) and set(y.tolist()) <= {0, 1}
    assert p_true.shape == (50,)
    assert np.all((0.0 < p_true) & (p_true < 1.0))
    comp = x[:, 5 : 5 + 12]
    assert np.all(np.sum(comp == 1.0, axis=1) == 5) and np.all(np.sum(comp == -1.0, axis=1) == 5)


def test_p_true_recomputable_from_stored_features():
    config = small_config(200, seed=3)
    x, _, p_true = datagen.generate_dataset(config)
    coef = datagen.champion_coefficients(config)
    for f, pt in zip(x[:50], p_true[:50]):
        p = datagen.win_probability(
            f[0], f[1], f[2], f[3], f[4], f[5 : 5 + 12], coef, config
        )
        assert p == pytest.approx(pt, abs=1e-12)


def test_symmetric_teams_give_exactly_half():
    config = small_config(10)
    coef = datagen.champion_coefficients(config)
    p = datagen.win_probability(15, 0.0, 0.0, 3, 3, np.zeros(12), coef, config)
    assert p == 0.5


def test_zero_noise_limit_labels_follow_advantage_sign():
    config = small_config(2000, seed=8, noise_gain=0.0, noise_floor=1e-6)
    x, y, _ = datagen.generate_dataset(config)
    coef = datagen.champion_coefficients(config)
    checked = 0
    for f, label in zip(x, y):
        a = datagen.latent_advantage(
            f[0], f[1], f[2], f[3], f[4], f[5 : 5 + 12], coef, config
        )
        if abs(a) > 1e-3:  # skip knife-edge advantages
            assert label == (1 if a > 0 else 0)
            checked += 1
    assert checked > 1900


def test_mean_p_true_is_balanced():
    _, _, p_true = datagen.generate_dataset(small_config(20000, seed=5))
    mean = np.mean(p_true)
    assert abs(mean - 0.5) <= 0.02


def test_empirical_win_rate_within_three_standard_errors():
    _, y, p = datagen.generate_dataset(small_config(10000, seed=7))
    se = np.sqrt(np.sum(p * (1.0 - p))) / len(p)
    assert abs(y.mean() - p.mean()) <= 3.0 * se


def test_label_frequencies_chi_square_across_seeds():
    # group by p_true deciles; compare observed label-1 counts against the
    # sum of per-sample probabilities with a chi-square statistic
    for seed in range(20):
        _, y, p = datagen.generate_dataset(small_config(100000, seed=seed))
        edges = np.quantile(p, np.linspace(0.0, 1.0, 11))
        idx = np.clip(np.searchsorted(edges[1:-1], p, side="right"), 0, 9)
        chi2 = 0.0
        dof = 0
        for g in range(10):
            mask = idx == g
            if mask.sum() < 50:
                continue
            expected = p[mask].sum()
            var = np.sum(p[mask] * (1.0 - p[mask]))
            chi2 += (y[mask].sum() - expected) ** 2 / var
            dof += 1
        p_value = stats.chi2.sf(chi2, dof)
        assert p_value > 0.001


def test_noise_temperature_monotone_and_positive():
    config = small_config(10)
    minutes = np.arange(config.minute_min, config.minute_max + 1)
    tau = datagen.noise_temperature(minutes, config)
    assert np.all(tau > 0)
    assert np.all(np.diff(tau) <= 0)


def test_generation_deterministic():
    a = datagen.generate_dataset(small_config(100, seed=13))
    b = datagen.generate_dataset(small_config(100, seed=13))
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s, t)


# --- oracle_ece ----------------------------------------------------------------

def test_oracle_ece_zero_for_perfect_predictions():
    _, _, p_true = datagen.generate_dataset(small_config(100, seed=2))
    # the truth itself as the prediction
    probs = np.column_stack([1.0 - p_true, p_true])
    assert datagen.oracle_ece(probs, p_true) == 0.0


def test_oracle_ece_constant_overconfidence():
    # certain of class 1 (and of class 0) where the truth for it is 0.7
    probs = np.array([[0.0, 1.0]] * 13 + [[1.0, 0.0]] * 12)
    p_true = np.array([0.7] * 13 + [0.3] * 12)
    assert datagen.oracle_ece(probs, p_true) == pytest.approx(0.3, abs=1e-15)


def test_oracle_ece_matches_brute_force():
    rng = np.random.default_rng(4)
    confs = rng.uniform(0.5, 1.0, 500)
    trues = rng.uniform(0.0, 1.0, 500)
    pairs = list(zip(confs, trues))
    expected = sum(abs(c - t) for c, t in pairs) / 500
    # every row predicts class 1, whose truth is p_true itself
    probs = np.column_stack([1.0 - confs, confs])
    assert datagen.oracle_ece(probs, trues) == pytest.approx(expected, abs=1e-12)


def test_oracle_ece_requires_p_true():
    with pytest.raises(ValueError):
        datagen.oracle_ece(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        datagen.oracle_ece(np.array([[0.1, 0.9]]), None)
    with pytest.raises(ValueError):
        datagen.oracle_ece(np.array([[0.1, 0.9]]), np.array([0.5, 0.5]))


# --- true_ece -------------------------------------------------------------------

def test_true_ece_with_labels_as_truth_is_the_label_ece():
    rng = np.random.default_rng(6)
    p1 = rng.uniform(0.0, 1.0, 700)
    labels = rng.integers(0, 2, 700)
    probs = np.column_stack([1.0 - p1, p1])
    for m_bins in (10, 15):
        report = metrics.build_report(probs, labels, m_bins)
        true_ece = datagen.true_ece(probs, labels.astype(float), m_bins)
        assert true_ece == pytest.approx(report.ece, abs=1e-12)


def test_true_ece_two_bin_hand_case():
    # four bins of width 0.25; the confidences fill (0.5, 0.75] and (0.75, 1]
    probs = np.array([[0.4, 0.6], [0.7, 0.3], [0.1, 0.9], [0.2, 0.8]])
    p_true = np.array([0.7, 0.2, 0.5, 0.9])
    # truth of the predicted class: 0.7, 0.8 | 0.5, 0.9
    # bin 3: |0.75 - 0.65| = 0.10, bin 4: |0.70 - 0.85| = 0.15, each of weight 1/2
    assert datagen.true_ece(probs, p_true, 4) == pytest.approx(0.125, abs=1e-15)


# --- file io ---------------------------------------------------------------------

def test_roundtrip_preserves_everything(tmp_path):
    x, y, p_true = datagen.generate_dataset(small_config(100, seed=21))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12, comment="meta")
    xb, yb, pb = datagen.read_dataset(path)
    assert xb.shape == (100, 25) and xb.flags["C_CONTIGUOUS"]
    np.testing.assert_allclose(xb, x, atol=1e-9)
    np.testing.assert_array_equal(yb, y)
    np.testing.assert_allclose(pb, p_true, atol=1e-9)


def test_roundtrip_without_p_true(tmp_path):
    x = np.stack([np.arange(25, dtype=float), np.arange(25, dtype=float) * 0.5])
    path = tmp_path / "real.csv"
    datagen.write_dataset(path, x, np.array([1, 0]), None, roster_size=12)
    assert "p_true" not in path.read_text().splitlines()[0]
    xb, yb, pb = datagen.read_dataset(path)
    assert pb is None
    np.testing.assert_array_equal(xb, x)
    assert yb.tolist() == [1, 0]


def test_write_is_byte_deterministic(tmp_path):
    data = datagen.generate_dataset(small_config(50, seed=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    datagen.write_dataset(a, *data, roster_size=12)
    datagen.write_dataset(b, *data, roster_size=12)
    assert a.read_bytes() == b.read_bytes()


def reference_bytes(x, y, p_true, roster_size, comment=None):
    """The dataset text cell by cell: integral values as integers, others
    as their repr, the label as an integer and p_true as its repr."""
    lines = [f"# {comment}"] if comment else []
    filler_size = x.shape[1] - len(datagen.SCALAR_COLUMNS) - roster_size
    lines.append(datagen.dataset_header(roster_size, filler_size, p_true is not None))
    for i, row in enumerate(np.asarray(x, dtype=float).tolist()):
        cells = [str(int(v)) if v.is_integer() else repr(v) for v in row]
        cells.append(str(int(y[i])))
        if p_true is not None:
            cells.append(repr(float(p_true[i])))
        lines.append(",".join(cells))
    return "".join(f"{line}\n" for line in lines).encode()


def assert_writes_reference_bytes(path, x, y, p_true, roster_size=12, comment=None):
    datagen.write_dataset(path, x, y, p_true, roster_size=roster_size, comment=comment)
    assert path.read_bytes() == reference_bytes(x, y, p_true, roster_size, comment)


def test_write_matches_per_value_rule_on_generated_data(tmp_path):
    x, y, p_true = datagen.generate_dataset(small_config(300, seed=11))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true, comment="meta")
    assert_writes_reference_bytes(tmp_path / "n.csv", x, y, None)


def test_write_matches_per_value_rule_on_signed_zeros(tmp_path):
    x, y, p_true = datagen.generate_dataset(small_config(40, seed=2))
    x[:, 1] = np.where(np.arange(40) % 3 == 0, -0.0, 0.0)
    x[::5, 7] = -0.0
    assert np.signbit(x[:, 1]).any() and not np.signbit(x[:, 1]).all()
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true)
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert all(line.split(",")[1] == "0" for line in lines[1:])


def test_write_matches_per_value_rule_on_edge_values(tmp_path):
    edge = [1e-07, 5e-324, 2.0**53, 2.0**53 + 2, 1e300, 0.1 + 0.2]
    edge += [-v for v in edge]
    x = np.resize(np.array(edge), (30, 25))
    p_true = np.array([0.0, 1.0, 0.1 + 0.2] * 10)
    assert_writes_reference_bytes(tmp_path / "d.csv", x, np.arange(30) % 2, p_true)
    cells = (tmp_path / "d.csv").read_text().splitlines()[1].split(",")
    assert cells[:6] == ["1e-07", "5e-324", "9007199254740992", "9007199254740994",
                         str(int(1e300)), "0.30000000000000004"]


def test_write_matches_per_value_rule_on_all_distinct_values(tmp_path):
    x = np.random.default_rng(3).standard_normal((400, 25))
    assert np.unique(x).size == x.size
    _, y, p_true = datagen.generate_dataset(small_config(400, seed=3))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_write_matches_per_value_rule_around_the_block_edge(tmp_path, n):
    x, y, p_true = datagen.generate_dataset(small_config(n, seed=n))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true, comment="meta")


def test_write_block_size_changes_no_byte(tmp_path, monkeypatch):
    data = datagen.generate_dataset(small_config(100, seed=4))
    assert datagen.WRITE_BLOCK_ROWS == 1024
    datagen.write_dataset(tmp_path / "a.csv", *data, roster_size=12)
    monkeypatch.setattr(datagen, "WRITE_BLOCK_ROWS", 7)
    datagen.write_dataset(tmp_path / "b.csv", *data, roster_size=12)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == reference_bytes(*data, roster_size=12)


def test_write_empty_dataset_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    datagen.write_dataset(path, np.empty((0, 25)), np.empty(0), np.empty(0), roster_size=12)
    assert path.read_text() == datagen.dataset_header(12, 8, True) + "\n"


@pytest.mark.parametrize(
    "column, row, value, message",
    [
        ("y", 3, 0.7, "label must be 0 or 1"),
        ("y", 3, 2, "label must be 0 or 1"),
        ("y", 3, float("nan"), "label must be 0 or 1"),
        ("x", 3, float("nan"), "features must be finite"),
        ("x", 3, float("-inf"), "features must be finite"),
        ("p", 3, 1.5, r"p_true must lie in \[0, 1\]"),
        ("p", 3, -0.25, r"p_true must lie in \[0, 1\]"),
        ("p", 3, float("nan"), r"p_true must lie in \[0, 1\]"),
    ],
)
def test_write_refuses_what_read_would_reject(tmp_path, column, row, value, message):
    x, y, p_true = datagen.generate_dataset(small_config(8, seed=6))
    path = tmp_path / "d.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12)
    before = path.read_bytes()
    y = y.astype(float)
    target = {"x": x[:, 2], "y": y, "p": p_true}[column]
    target[row] = value
    with pytest.raises(ValueError, match=f"row {row}: {message}"):
        datagen.write_dataset(path, x, y, p_true, roster_size=12)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["d.csv"]


def test_write_names_the_first_bad_row(tmp_path):
    x, y, p_true = datagen.generate_dataset(small_config(8, seed=6))
    x[5, 0] = np.nan
    y[2] = 3
    p_true[4] = 2.0
    with pytest.raises(ValueError, match=r"row 2: label must be 0 or 1"):
        datagen.write_dataset(tmp_path / "d.csv", x, y, p_true, roster_size=12)
    assert not (tmp_path / "d.csv").exists()


def test_header_only_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(datagen.dataset_header(12, 8, True) + "\n")
    x, y, p_true = datagen.read_dataset(path)
    assert x.shape == (0, 25) and y.shape == (0,) and p_true.shape == (0,)


def test_parse_error_names_line(tmp_path):
    data = datagen.generate_dataset(small_config(5, seed=1))
    path = tmp_path / "bad.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    good = path.read_text().splitlines()
    # (column, bad value): gold_diff unparseable or non-finite, label not
    # 0/1, p_true outside [0, 1]; each corrupts data line 3
    for column, value in ((1, "not-a-number"), (1, "nan"), (2, "inf"), (-2, "2"), (-1, "1.7")):
        lines = list(good)
        fields = lines[3].split(",")
        fields[column] = value
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(datagen.DatasetFormatError, match="line 4"):
            datagen.read_dataset(path)


def test_read_rows_equals_full_read_indexed(tmp_path):
    x, y, p_true = datagen.generate_dataset(small_config(60, seed=5))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12, comment="meta")
    full = datagen.read_dataset(path)
    idx = np.random.default_rng(0).permutation(60)[:25]
    part = datagen.read_dataset(path, rows=idx)
    for whole, picked in zip(full, part):
        assert picked.dtype == whole.dtype and picked.flags["C_CONTIGUOUS"]
        assert picked.tobytes() == whole[idx].tobytes()
    x0, y0, p0 = datagen.read_dataset(path, rows=np.array([], dtype=int))
    assert x0.shape == (0, 25) and y0.shape == (0,) and p0.shape == (0,)


@pytest.mark.parametrize("rows", [[0, 5], [-1], [2, 60, 3]])
def test_read_rows_rejects_index_outside_the_data(tmp_path, rows):
    data = datagen.generate_dataset(small_config(5, seed=1))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    with pytest.raises(datagen.DatasetFormatError, match="outside the file's 5 data rows"):
        datagen.read_dataset(path, rows=rows)


def test_read_rows_rejects_a_boolean_mask(tmp_path):
    data = datagen.generate_dataset(small_config(5, seed=1))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    with pytest.raises(ValueError, match="integer index array"):
        datagen.read_dataset(path, rows=np.ones(5, dtype=bool))


def test_read_rows_names_the_line_of_a_bad_selected_row(tmp_path):
    data = datagen.generate_dataset(small_config(6, seed=1))
    path = tmp_path / "bad.csv"
    datagen.write_dataset(path, *data, roster_size=12, comment="meta")
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")  # comment, header, then data row 3
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 6"):
        datagen.read_dataset(path, rows=[4, 3])
    # a row that is not selected is not parsed
    x, _, _ = datagen.read_dataset(path, rows=[4, 0])
    assert np.isfinite(x).all()


def test_wrong_column_count_is_schema_error(tmp_path):
    data = datagen.generate_dataset(small_config(5, seed=1))
    path = tmp_path / "bad.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + ",0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 3"):
        datagen.read_dataset(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 1"):
        datagen.read_dataset(path)


# --- split ------------------------------------------------------------------------

def test_split_sizes_exact():
    train, val, test = datagen.split(100, (0.8, 0.1, 0.1), seed=1)
    assert (len(train), len(val), len(test)) == (80, 10, 10)


def test_split_remainder_goes_to_train():
    train, val, test = datagen.split(103, (0.8, 0.1, 0.1), seed=1)
    assert (len(val), len(test)) == (10, 10)
    assert len(train) == 83


def test_split_deterministic():
    a = datagen.split(60, (0.7, 0.2, 0.1), seed=9)
    b = datagen.split(60, (0.7, 0.2, 0.1), seed=9)
    for part_a, part_b in zip(a, b):
        assert part_a.tolist() == part_b.tolist()


def test_split_union_is_original_multiset():
    train, val, test = datagen.split(77, (0.6, 0.25, 0.15), seed=3)
    combined = sorted(np.concatenate([train, val, test]).tolist())
    assert combined == list(range(77))


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        datagen.split(10, (0.8, 0.3, 0.2), seed=0)
    with pytest.raises(ValueError):
        datagen.split(10, (0.8, -0.1, 0.1), seed=0)
