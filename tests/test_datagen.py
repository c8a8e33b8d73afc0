"""Generator tests: label/probability statistics against binomial and
chi-square oracles, file round-trips, and split bookkeeping."""

import hashlib
import io
import os
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from scipy import stats

from calibforge import artifacts, cli, datagen, nn
from calibforge.datagen import SyntheticConfig

from conftest import generate_dataset, read_dataset, read_dataset_info


def small_config(n, seed=0, **kw):
    defaults = dict(n_matches=n, n_features=25, roster_size=12, rng_seed=seed)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def traced_peak(call):
    """call()'s result and the tracemalloc peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


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
    x, y, p_true = generate_dataset(config)
    assert x.shape == (50, 25) and x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]
    assert y.shape == (50,) and set(y.tolist()) <= {0, 1}
    assert p_true.shape == (50,)
    assert np.all((0.0 < p_true) & (p_true < 1.0))
    comp = x[:, 5 : 5 + 12]
    assert np.all(np.sum(comp == 1.0, axis=1) == 5) and np.all(np.sum(comp == -1.0, axis=1) == 5)


def test_p_true_recomputable_from_stored_features():
    config = small_config(200, seed=3)
    x, _, p_true = generate_dataset(config)
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
    x, y, _ = generate_dataset(config)
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
    _, _, p_true = generate_dataset(small_config(20000, seed=5))
    mean = np.mean(p_true)
    assert abs(mean - 0.5) <= 0.02


def test_empirical_win_rate_within_three_standard_errors():
    _, y, p = generate_dataset(small_config(10000, seed=7))
    se = np.sqrt(np.sum(p * (1.0 - p))) / len(p)
    assert abs(y.mean() - p.mean()) <= 3.0 * se


def test_label_frequencies_chi_square_across_seeds():
    # group by p_true deciles; compare observed label-1 counts against the
    # sum of per-sample probabilities with a chi-square statistic
    for seed in range(20):
        _, y, p = generate_dataset(small_config(100000, seed=seed))
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
    a = generate_dataset(small_config(100, seed=13))
    b = generate_dataset(small_config(100, seed=13))
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s, t)


def test_generation_block_size_changes_no_value(monkeypatch):
    # 1000 rows span four default blocks and 125 blocks of 8; the last
    # block is short in both
    assert datagen.BLOCK_ROWS == 256
    config = small_config(1000, seed=13)
    whole = generate_dataset(config)
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 8)
    for got, want in zip(generate_dataset(config), whole):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_generation_holds_one_feature_matrix():
    # the picks and the filler are drawn block by block into the feature
    # matrix, so no full-height comp, filler or stacked copy exists beside it
    config = SyntheticConfig(n_matches=8192, rng_seed=5)
    (x, _, _), peak = traced_peak(lambda: generate_dataset(config))
    assert x.shape == (8192, 295)
    assert peak <= 1.2 * x.nbytes


def test_gen_csv_bodies_are_pinned(tmp_path, capsys):
    # 1100 generated rows span more than three generation blocks; the digests
    # were taken from whole-matrix draws, so they pin the draw order
    out = tmp_path / "gen"
    assert cli.main(["gen", "--n-train", "900", "--n-test", "200", "--n-features", "25",
                     "--roster-size", "12", "--seed", "11", "--out", str(out)]) == 0
    assert 1100 > 3 * datagen.BLOCK_ROWS
    digests = {}
    for name in ("train.csv", "test.csv"):
        lines = (out / name).read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        digests[name] = hashlib.sha256(body).hexdigest()
    assert digests == {
        "train.csv": "00422abadf3479e14b97247bccec012ad44cc43feeaa5ce4887d583952f39b53",
        "test.csv": "013e15035a49b12f54a8ba1b6065ebf95ff9c1308f3ffa1f53ab9f6c76ac411d",
    }


# the sha256 of whole gen files (comment line included), taken from the
# whole-matrix generator and writer that came before GeneratedDataset
GEN_FILE_DIGESTS = {
    7: {
        "train.csv": "5c1e1c9c611b53c8210b914aac0404080b016806a7a9b77aa31eb9f84b9ee1b1",
        "test.csv": "bf6691e0d958e2758abdb6241fa5fb1c38eb0f7e0f2bb61ba69efb55f23e437f",
    },
    42: {
        "train.csv": "91c4da7222a227a45daa33ef12515875beec5f1eab340ba214a1b7f476385a4c",
        "test.csv": "9e3ee28312bfe9fa628cbf3c6f77793cabc2a3914e60f41ec020940e7265da69",
    },
}
# 1000 train rows end inside a generation block, so the test file starts
# part way through one
PINNED_GEN = ["gen", "--n-train", "1000", "--n-test", "300", "--n-features", "40",
              "--roster-size", "16", "--out", "gen"]


@pytest.mark.parametrize("seed", sorted(GEN_FILE_DIGESTS))
def test_gen_files_are_pinned(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)  # a relative --out keeps the comment line fixed
    assert cli.main([*PINNED_GEN, "--seed", str(seed)]) == 0
    digests = {name: hashlib.sha256((tmp_path / "gen" / name).read_bytes()).hexdigest()
               for name in ("train.csv", "test.csv")}
    assert digests == GEN_FILE_DIGESTS[seed]


def test_gen_block_size_changes_no_byte(tmp_path, monkeypatch, capsys):
    # 8-row blocks put the train/test cut and the block edges elsewhere
    monkeypatch.chdir(tmp_path)
    assert cli.main([*PINNED_GEN, "--seed", "7"]) == 0
    files = ("train.csv", "test.csv", "train.csv.npz", "test.csv.npz")
    expected = {name: (tmp_path / "gen" / name).read_bytes() for name in files}
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 8)
    assert cli.main([*PINNED_GEN, "--seed", "7"]) == 0
    assert {name: (tmp_path / "gen" / name).read_bytes() for name in files} == expected


def test_gen_sidecars_are_those_of_a_cold_read(tmp_path, capsys):
    out = tmp_path / "gen"
    assert cli.main(["gen", "--n-train", "600", "--n-test", "90", "--n-features", "25",
                     "--roster-size", "12", "--seed", "3", "--out", str(out)]) == 0
    for name in ("train.csv", "test.csv"):
        sidecar = datagen.sidecar_path(out / name)
        written = sidecar.read_bytes()
        sidecar.unlink()
        read_dataset(out / name)  # parses, then saves the sidecar
        assert sidecar.read_bytes() == written


def test_write_dataset_sidecar_is_that_of_a_cold_read_with_signed_zeros(tmp_path):
    # -0.0 is written as "0", so the sidecar must hold +0.0 where x and y
    # hold -0.0; p_true is written by repr, so its -0.0 stays
    x, y, p_true = generate_dataset(small_config(40, seed=2))
    y = y.astype(float)
    x[[0, 5, 39], [3, 20, 24]] = -0.0
    y[y == 0.0] = -0.0
    p_true[7] = -0.0
    path = tmp_path / "zeros.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12)
    written = datagen.sidecar_path(path).read_bytes()
    datagen.sidecar_path(path).unlink()
    read_dataset(path)
    assert datagen.sidecar_path(path).read_bytes() == written


def test_generating_and_writing_holds_no_feature_matrix(tmp_path, capsys):
    # gen makes and writes the rows block by block: 9000 more rows add their
    # per-row vectors (scalars, pick indices, p_true, labels, the float
    # copies written per file) and distinct values to the text table, about
    # 180 bytes a row here, but no (n, F) matrix of 2360 bytes a row
    def gen_peak(n_rows):
        out = tmp_path / str(n_rows)
        _, peak = traced_peak(lambda: cli.main([
            "gen", "--n-train", str(n_rows - 500), "--n-test", "500", "--seed", "3",
            "--out", str(out),
        ]))
        return peak

    growth = gen_peak(12000) - gen_peak(3000)
    assert growth <= 9000 * 400


# --- file io ---------------------------------------------------------------------

def test_roundtrip_preserves_everything(tmp_path):
    x, y, p_true = generate_dataset(small_config(100, seed=21))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12, comment="meta")
    xb, yb, pb = read_dataset(path)
    assert xb.shape == (100, 25) and xb.flags["C_CONTIGUOUS"]
    np.testing.assert_allclose(xb, x, atol=1e-9)
    np.testing.assert_array_equal(yb, y)
    np.testing.assert_allclose(pb, p_true, atol=1e-9)


def test_roundtrip_without_p_true(tmp_path):
    x = np.stack([np.arange(25, dtype=float), np.arange(25, dtype=float) * 0.5])
    path = tmp_path / "real.csv"
    datagen.write_dataset(path, x, np.array([1, 0]), None, roster_size=12)
    assert "p_true" not in path.read_text().splitlines()[0]
    xb, yb, pb = read_dataset(path)
    assert pb is None
    np.testing.assert_array_equal(xb, x)
    assert yb.tolist() == [1, 0]


@pytest.mark.parametrize("comment", ["a\nb", "a\rb", "a\x0cb", "a\u2028b", "a\n"])
def test_write_dataset_refuses_a_comment_its_reader_splits(tmp_path, comment):
    # the reader splits the comment lines with str.splitlines, so any of its
    # line breaks would end the comment line and make the rest a bad header
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match=re.escape(repr(comment))):
        datagen.write_dataset(path, *generate_dataset(small_config(10)), roster_size=12,
                              comment=comment)
    assert list(tmp_path.iterdir()) == []


def test_write_is_byte_deterministic(tmp_path):
    data = generate_dataset(small_config(50, seed=3))
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
    x, y, p_true = generate_dataset(small_config(300, seed=11))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true, comment="meta")
    assert_writes_reference_bytes(tmp_path / "n.csv", x, y, None)


def test_write_matches_per_value_rule_on_signed_zeros(tmp_path):
    x, y, p_true = generate_dataset(small_config(40, seed=2))
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


def _in_a_decimal_block(value, n=30):
    """An (n, 25) block of four-place cells below 10 in magnitude, whose
    text and comma fit a word, with ``value`` in one cell."""
    x = np.round(np.random.default_rng(8).uniform(-10.0, 10.0, (n, 25)), 4)
    x[n // 2, 7] = value
    return x


def test_write_matches_per_value_rule_around_the_cell_bounds(tmp_path):
    # a block whose cells all have at most four places, an integer part
    # below the bound and a text that fits one word with its comma is
    # written a word per cell; any other block cell by cell
    k = float(datagen._CELL_INT_BOUND)
    edge = [k, k + 1, k - 0.5, k + 0.5, 1.0 + 2**-52, 1.0 - 2**-53, 3.0, -0.0]
    edge += [-v for v in edge]
    x = np.resize(np.array(edge), (30, 25))
    _, y, p_true = generate_dataset(small_config(30, seed=6))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true)
    cells = (tmp_path / "d.csv").read_text().splitlines()[1].split(",")
    assert cells[:4] == ["1024", "1025", "1023.5", "1024.5"]

    def fits(v):
        text = str(int(v)) if v.is_integer() else repr(v)
        places = len(text.partition(".")[2])
        return ("e" not in text and places <= 4 and abs(v) < k
                and len(text) + 1 <= datagen._CELL_BYTES)

    around = [k - 1, k - 0.5, k - 0.25, k - 0.0001, k, 99.9999, 12.3456, 1.2345, 1e-05]
    around += [-v for v in around]
    assert [fits(v) for v in around[:9]] == [True, True, True, False, False, True, True,
                                             True, False]
    assert [fits(v) for v in around[9:]] == [True, True, False, False, False, False, False,
                                             True, False]
    for i, value in enumerate(around):
        x = _in_a_decimal_block(value)
        assert (datagen._decimal_words(x) is not None) == fits(value)
        assert_writes_reference_bytes(tmp_path / f"a{i}.csv", x, y, p_true)


def test_write_matches_per_value_rule_on_every_four_place_value(tmp_path):
    # every four-place value in [-2, 2] is a decimal cell; each edge value,
    # put in a block of decimal cells, leaves that block on the word path or
    # sends it cell by cell, and either way the text is the per-value rule's
    x = np.resize(np.arange(-20000, 20001) / 1e4, (1601, 25))
    assert datagen._decimal_words(x) is not None
    n = len(x)
    y, p_true = np.arange(n) % 2, np.linspace(0.0, 1.0, n)
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true, comment="meta")
    edge = [1023.9999, 1024.0, 1024.5, 0.0001, 12.3456]
    edge += [-v for v in edge] + [1e-05, 0.1 + 0.2, -0.0]
    blocks = [_in_a_decimal_block(value) for value in edge]
    assert {datagen._decimal_words(block) is None for block in blocks} == {True, False}
    for i, block in enumerate(blocks):
        assert_writes_reference_bytes(tmp_path / f"e{i}.csv", block, y[:30], p_true[:30])


def test_write_matches_per_value_rule_on_all_distinct_values(tmp_path):
    x = np.random.default_rng(3).standard_normal((400, 25))
    assert np.unique(x).size == x.size
    _, y, p_true = generate_dataset(small_config(400, seed=3))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_write_matches_per_value_rule_around_the_block_edge(tmp_path, n):
    x, y, p_true = generate_dataset(small_config(n, seed=n))
    assert_writes_reference_bytes(tmp_path / "d.csv", x, y, p_true, comment="meta")


def test_write_block_size_changes_no_byte(tmp_path, monkeypatch):
    data = generate_dataset(small_config(100, seed=4))
    assert datagen.BLOCK_ROWS == 256
    datagen.write_dataset(tmp_path / "a.csv", *data, roster_size=12)
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 7)
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
    x, y, p_true = generate_dataset(small_config(8, seed=6))
    path = tmp_path / "d.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12)
    before = path.read_bytes()
    sidecar_before = datagen.sidecar_path(path).read_bytes()
    y = y.astype(float)
    target = {"x": x[:, 2], "y": y, "p": p_true}[column]
    target[row] = value
    with pytest.raises(ValueError, match=f"row {row}: {message}"):
        datagen.write_dataset(path, x, y, p_true, roster_size=12)
    assert path.read_bytes() == before
    assert datagen.sidecar_path(path).read_bytes() == sidecar_before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", "d.csv.npz"]


def test_write_names_the_first_bad_row(tmp_path):
    x, y, p_true = generate_dataset(small_config(8, seed=6))
    x[5, 0] = np.nan
    y[2] = 3
    p_true[4] = 2.0
    with pytest.raises(ValueError, match=r"row 2: label must be 0 or 1"):
        datagen.write_dataset(tmp_path / "d.csv", x, y, p_true, roster_size=12)
    assert not (tmp_path / "d.csv").exists()


def test_header_only_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(datagen.dataset_header(12, 8, True) + "\n")
    x, y, p_true = read_dataset(path)
    assert x.shape == (0, 25) and y.shape == (0,) and p_true.shape == (0,)


def test_read_names_the_first_bad_row(tmp_path):
    # data row 2 has label 2 and data row 5 a NaN feature: the first failing
    # row is named, not the first row of the first failing check, by a full
    # read and by a rows= read that selects neither
    data = generate_dataset(small_config(8, seed=6))
    path = tmp_path / "d.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    lines = path.read_text().splitlines()
    for line_no, column, value in ((4, -2, "2"), (7, 0, "nan")):
        fields = lines[line_no - 1].split(",")
        fields[column] = value
        lines[line_no - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    for rows in (None, [0]):
        with pytest.raises(datagen.DatasetFormatError, match="line 4: label must be 0 or 1"):
            read_dataset(path, rows=rows)


def test_parse_error_names_line(tmp_path):
    data = generate_dataset(small_config(5, seed=1))
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
            read_dataset(path)


def test_read_rows_equals_full_read_indexed(tmp_path):
    x, y, p_true = generate_dataset(small_config(60, seed=5))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12, comment="meta")
    full_info, full = read_dataset_info(path)
    idx = np.random.default_rng(0).permutation(60)[:25]
    part_info, part = read_dataset_info(path, rows=idx)
    assert part_info.sha256 == full_info.sha256
    for whole, picked in zip(full, part):
        assert picked.dtype == whole.dtype and picked.flags["C_CONTIGUOUS"]
        assert picked.tobytes() == whole[idx].tobytes()
    x0, y0, p0 = read_dataset(path, rows=np.array([], dtype=int))
    assert x0.shape == (0, 25) and y0.shape == (0,) and p0.shape == (0,)


@pytest.mark.parametrize("rows", [[0, 5], [-1], [2, 60, 3]])
def test_read_rows_rejects_index_outside_the_data(tmp_path, rows):
    data = generate_dataset(small_config(5, seed=1))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    with pytest.raises(datagen.DatasetFormatError, match="outside the file's 5 data rows"):
        read_dataset(path, rows=rows)


def test_read_rows_rejects_a_boolean_mask(tmp_path):
    data = generate_dataset(small_config(5, seed=1))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    with pytest.raises(ValueError, match="integer index array"):
        read_dataset(path, rows=np.ones(5, dtype=bool))


@pytest.mark.parametrize("rows, message", [
    (np.ones(30, dtype=bool), "rows must be a 1-D integer index array"),
    ([2, 30], "row index 30 is outside the file's 30 data rows"),
], ids=["mask", "outside"])
def test_take_rows_in_a_scan_rejects_a_mask_or_an_index_outside_the_data(tmp_path, rows, message):
    path = _written(tmp_path)
    with pytest.raises(datagen.DatasetFormatError, match=message):
        datagen.scan_dataset(path, lambda info, blocks: datagen.take_rows(info, blocks, rows))


def test_column_runs_of_a_scan_hold_the_float32_rows_take_rows_selects(tmp_path):
    # 600 rows are three blocks; the rows are taken in a shuffled order
    path = _written(tmp_path, n=600)
    rows = np.random.default_rng(2).permutation(600)[:500]
    info, (runs, y, _) = read_dataset_info(path, rows=rows, features=nn.ColumnRuns)
    dense_info, dense = read_dataset_info(path, rows=rows)
    assert info.sha256 == dense_info.sha256
    # the minute, then the two kill counts and the 12 picks
    assert [(run.dtype, run.shape[1]) for run in runs.runs] == [
        (np.int8, 1), (np.float32, 2), (np.int8, 14), (np.float32, 8),
    ]
    taken = runs.take(np.arange(500), np.empty((500, 25), np.float32))
    assert taken.tobytes() == dense.x.astype(np.float32).tobytes()
    assert np.array_equal(y, dense.y)


def test_read_rows_names_the_line_of_a_bad_selected_row(tmp_path):
    data = generate_dataset(small_config(6, seed=1))
    path = tmp_path / "bad.csv"
    datagen.write_dataset(path, *data, roster_size=12, comment="meta")
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")  # comment, header, then data row 3
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 6"):
        read_dataset(path, rows=[4, 3])
    # a cold read parses every row, so a bad row that is not selected fails it
    with pytest.raises(datagen.DatasetFormatError, match="line 6"):
        read_dataset(path, rows=[4, 0])


@pytest.mark.parametrize("block_chars", [1, 7, 300])
def test_parse_block_size_changes_no_value_or_line_number(tmp_path, monkeypatch, block_chars):
    data = generate_dataset(small_config(40, seed=3))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, *data, roster_size=12, comment="meta")
    lines = path.read_text().splitlines()

    def write(lines):
        # CRLF and LF line ends and two blank lines, all of which the
        # block-wise split must treat as one whole-text split does
        text = "\r\n".join(lines[:20]) + "\r\n\n\n" + "\n".join(lines[20:]) + "\n\n"
        path.write_bytes(text.encode())

    write(lines)
    expected = read_dataset(path)
    datagen.sidecar_path(path).unlink()
    monkeypatch.setattr(datagen, "BLOCK_BYTES", block_chars)
    got = read_dataset(path)
    for read, whole, generated in zip(got, expected, data):
        assert read.tobytes() == whole.tobytes()
        np.testing.assert_array_equal(read, generated)
    part = read_dataset(path, rows=[30, 2])
    assert part.x.tobytes() == expected.x[[30, 2]].tobytes()

    fields = lines[25].split(",")  # data row 23, file line 28 after the blank lines
    fields[1] = "nan"
    lines[25] = ",".join(fields)
    write(lines)
    with pytest.raises(datagen.DatasetFormatError, match="line 28: features must be finite"):
        read_dataset(path)


def test_wrong_column_count_is_schema_error(tmp_path):
    data = generate_dataset(small_config(5, seed=1))
    path = tmp_path / "bad.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + ",0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 3"):
        read_dataset(path)


# the header of 2 comp_ and 1 filler_ columns with p_true, as dataset_header writes it
HEADER = "minute,gold_diff,xp_diff,kills_blue,kills_red,comp_0,comp_1,filler_0,label,p_true"


def test_bad_header_rejected(tmp_path):
    assert datagen.dataset_header(2, 1, True) == HEADER
    path = tmp_path / "bad.csv"
    for text, line_no in (
        ("foo,bar\n1,2\n", 1),
        # a wrong scalar prefix, no label, a gap in the comp_ columns,
        # filler_0 before comp_0, p_true before label
        ("# meta\n" + HEADER.replace("gold_diff", "gold") + "\n" + "0," * 9 + "0.5\n", 2),
        (HEADER.replace(",label", "") + "\n" + "0," * 8 + "0.5\n", 1),
        (HEADER.replace("comp_1", "comp_2") + "\n" + "0," * 9 + "0.5\n", 1),
        ("# meta\n" + HEADER.replace("comp_0,comp_1,filler_0", "filler_0,comp_0,comp_1")
         + "\n" + "0," * 9 + "0.5\n", 2),
        (HEADER.replace("label,p_true", "p_true,label") + "\n" + "0," * 8 + "0.5,0\n", 1),
    ):
        path.write_text(text)
        with pytest.raises(datagen.DatasetFormatError,
                           match=re.escape(f"{path}: line {line_no}: header must be")):
            read_dataset(path)


@pytest.mark.parametrize("n_comp, n_filler, with_p_true", [
    (0, 0, False), (0, 2, True), (3, 0, False), (2, 1, True),
])
def test_every_header_dataset_header_writes_is_read(tmp_path, n_comp, n_filler, with_p_true):
    path = tmp_path / "d.csv"
    width = 5 + n_comp + n_filler
    row = ",".join(["1"] * width + ["0"] + (["0.5"] if with_p_true else []))
    path.write_text(datagen.dataset_header(n_comp, n_filler, with_p_true) + "\n" + row + "\n")
    x, y, p_true = read_dataset(path)
    assert x.shape == (1, width) and y.tolist() == [0]
    assert (p_true is not None) == with_p_true


@pytest.mark.parametrize("block_chars", [1, 300, datagen.BLOCK_BYTES])
def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, monkeypatch, block_chars):
    # a bad byte in the second comment line, or in data line 10 (file line
    # 12) after CRLF line ends: the line is the one the whole text's
    # splitlines() numbers, whatever the size of the parse's blocks
    data = generate_dataset(small_config(20, seed=2))
    path = tmp_path / "d.csv"
    datagen.write_dataset(path, *data, roster_size=12, comment="meta")
    lines = path.read_bytes().splitlines()
    monkeypatch.setattr(datagen, "BLOCK_BYTES", block_chars)
    crlf = b"\r\n".join(lines[:6]) + b"\r\n"
    bad_row = lines[11][:7] + b"\xff" + lines[11][8:]
    for text, line_no in (
        (b"\n".join([lines[0], b"# caf\xe9", *lines[1:]]) + b"\n", 2),
        (crlf + b"\n".join([*lines[6:11], bad_row, *lines[12:]]), 12),
    ):
        path.write_bytes(text)
        with pytest.raises(datagen.DatasetFormatError,
                           match=re.escape(f"{path}: line {line_no}: not UTF-8 text")):
            read_dataset(path)


# --- parsed-array sidecar --------------------------------------------------------

def _written(tmp_path, n=30, seed=5):
    x, y, p_true = generate_dataset(small_config(n, seed=seed))
    path = tmp_path / "data.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=12, comment="meta")
    return path


def _no_parse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a sidecar hit")

    monkeypatch.setattr(np, "loadtxt", refuse)


def test_sidecar_hit_equals_a_cold_parse(tmp_path, monkeypatch):
    path = _written(tmp_path)
    datagen.sidecar_path(path).unlink()  # the one write_dataset wrote
    cold = read_dataset_info(path)
    idx = np.array([7, 0, 29, 7, 12])
    cold_part = read_dataset_info(path, rows=idx)
    assert datagen.sidecar_path(path).exists()
    assert cold[0].sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    _no_parse(monkeypatch)
    for (warm_info, warm), (info, reference) in ((read_dataset_info(path), cold),
                                                 (read_dataset_info(path, rows=idx), cold_part)):
        assert warm_info.sha256 == info.sha256
        for got, want in zip(warm, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags["C_CONTIGUOUS"]
            assert got.tobytes() == want.tobytes()
    with pytest.raises(datagen.DatasetFormatError, match="outside the file's 30 data rows"):
        read_dataset(path, rows=[30])


def test_sidecar_is_replaced_after_an_edit_and_a_bad_edit_still_names_its_line(tmp_path):
    path = _written(tmp_path)
    read_dataset(path)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")  # comment, header, then data row 2
    fields[1] = "12.5"
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    info, (x, _, _) = read_dataset_info(path)
    assert x[2, 1] == 12.5
    with np.load(datagen.sidecar_path(path), allow_pickle=False) as cached:
        assert cached["sha256"].item() == info.sha256
        assert cached["data"][2, 1] == 12.5
    fields[1] = "nan"
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    for rows in (None, [2]):
        with pytest.raises(datagen.DatasetFormatError, match="line 5: features must be finite"):
            read_dataset(path, rows=rows)


def _fake_sidecar(path, damage):
    """Overwrite the sidecar of path in one of several broken ways."""
    sidecar = datagen.sidecar_path(path)
    with np.load(sidecar, allow_pickle=False) as cached:
        data, digest = cached["data"], cached["sha256"]
    if damage == "flipped byte":
        # the lowest mantissa bit of one feature value: the value stays
        # finite and passes every check, so only the zip CRC can tell
        raw = bytearray(sidecar.read_bytes())
        at = raw.find(data[3].tobytes())
        assert at > 0
        raw[at + 8 * 4] ^= 1
        sidecar.write_bytes(bytes(raw))
        return
    if damage == "short header":
        # the header counts 5 rows fewer than the member holds
        with zipfile.ZipFile(sidecar, "w") as zf:
            with zf.open("data.npy", "w") as member:
                np.lib.format.write_array_header_1_0(member, {
                    "descr": "<f8", "fortran_order": False,
                    "shape": (len(data) - 5, data.shape[1]),
                })
                member.write(data.tobytes())
            with zf.open("sha256.npy", "w") as member:
                np.lib.format.write_array(member, digest)
        return
    if damage in ("truncated", "empty"):
        keep = sidecar.stat().st_size // 2 if damage == "truncated" else 0
        sidecar.write_bytes(sidecar.read_bytes()[:keep])
        return
    bad = data.copy()
    bad[3, -2] = 5.0  # a label the checks refuse
    arrays = {
        "npy": None,
        "narrow": {"data": data[:, :-1], "sha256": digest},
        "float32": {"data": data.astype(np.float32), "sha256": digest},
        "other digest": {"data": data + 1.0, "sha256": np.array("0" * 64)},
        "no digest": {"data": data},
        "bad values": {"data": bad, "sha256": digest},
    }[damage]
    with open(sidecar, "wb") as fh:
        if arrays is None:
            np.save(fh, data)
        else:
            np.savez(fh, **arrays)


@pytest.mark.parametrize("n_rows", [30, 0])
def test_sidecar_bytes_are_those_of_np_savez(tmp_path, n_rows):
    # sidecars written by np.savez stay valid, and the same matrix always
    # gives the same file
    path = _written(tmp_path)
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)[:n_rows]
    assert data.shape == (n_rows, 25 + 2)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    with open(datagen.sidecar_path(path), "wb") as fh:
        datagen._save_sidecar(fh, data.shape, [data], lambda: digest)
    written = datagen.sidecar_path(path).read_bytes()
    expected = io.BytesIO()
    np.savez(expected, data=data, sha256=np.array(digest))
    assert written == expected.getvalue()
    # a warm read takes those bytes as they are: 0 rows are 0 rows
    cached = datagen.scan_dataset(path, lambda info, blocks: np.concatenate(
        [np.column_stack([b.x, b.y, b.p_true]) for b in blocks] or [np.empty((0, 27))]
    ))
    assert cached.shape == data.shape and cached.tobytes() == data.tobytes()


def test_sidecar_write_does_not_copy_the_matrix(tmp_path):
    data = np.random.default_rng(0).normal(0.0, 1.0, (8192, 512))  # 32 MiB
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        with open(datagen.sidecar_path(path), "wb") as fh:
            datagen._save_sidecar(fh, data.shape, [data], lambda: "0" * 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with np.load(datagen.sidecar_path(path), allow_pickle=False) as cached:
        assert cached["sha256"].item() == "0" * 64
        assert cached["data"].tobytes() == data.tobytes()


def _scanned(path):
    """A scan_dataset read of every row in 7-row blocks, as read_dataset's
    arrays; each block is copied as it comes, since its views are reused."""
    def consume(info, blocks):
        parts = [(b.x.copy(), b.y.astype(int), b.p_true.copy()) for b in blocks]
        return tuple(np.concatenate(column) for column in zip(*parts))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datagen, "BLOCK_ROWS", 7)
        return datagen.scan_dataset(path, consume)


@pytest.mark.parametrize("damage", [
    "truncated", "empty", "npy", "narrow", "float32", "other digest", "no digest", "bad values",
    "flipped byte", "short header",
])
def test_a_broken_sidecar_is_ignored_and_rewritten(tmp_path, damage):
    path = _written(tmp_path)
    sidecar = datagen.sidecar_path(path)
    sidecar.unlink()
    cold = read_dataset(path)
    good = sidecar.read_bytes()
    # each read meets a freshly broken sidecar and equals the cold parse
    _fake_sidecar(path, damage)
    part = read_dataset(path, rows=[3, 1, 29])
    for got, want in zip(part, cold):
        assert got.tobytes() == want[[3, 1, 29]].tobytes()
    for read in (_scanned, read_dataset):
        sidecar.write_bytes(good)
        _fake_sidecar(path, damage)
        for got, want in zip(read(path), cold):
            assert got.tobytes() == want.tobytes()
        assert sidecar.read_bytes() == good  # a full read rewrote it


def test_a_compressed_sidecar_is_read_without_a_parse(tmp_path, monkeypatch):
    # zipfile inflates the member as it reads it, so a sidecar written by
    # np.savez_compressed serves a read as one written by np.savez does
    path = _written(tmp_path)
    sidecar = datagen.sidecar_path(path)
    expected_info, expected = read_dataset_info(path)
    with np.load(sidecar, allow_pickle=False) as cached:
        arrays = {name: cached[name] for name in ("data", "sha256")}
    np.savez_compressed(sidecar, **arrays)
    compressed = sidecar.read_bytes()
    _no_parse(monkeypatch)
    warm_info, warm = read_dataset_info(path)
    assert warm_info.sha256 == expected_info.sha256
    for got, want in zip(warm, expected):
        assert got.tobytes() == want.tobytes()
    assert sidecar.read_bytes() == compressed


def test_a_scan_that_stops_early_still_checks_the_crc(tmp_path, monkeypatch):
    # the flipped byte lies in the last row, and the CRC is checked only
    # when the member's last byte is read; a consumer that takes only the
    # first 7-row block still gets a scan that reads on to the CRC, falls
    # back to a parse and rewrites the sidecar
    path = _written(tmp_path)
    sidecar = datagen.sidecar_path(path)
    good = sidecar.read_bytes()
    with np.load(sidecar, allow_pickle=False) as cached:
        last = cached["data"][-1].tobytes()
    raw = bytearray(good)
    raw[raw.find(last) + 8 * 4] ^= 1
    sidecar.write_bytes(bytes(raw))
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 7)
    first = datagen.scan_dataset(path, lambda info, blocks: next(blocks).x.copy())
    assert sidecar.read_bytes() == good
    assert first.tobytes() == read_dataset(path).x[:7].tobytes()


def test_a_consumer_that_raises_on_a_sidecar_that_fails_its_crc_runs_again_on_a_parse(
    tmp_path, monkeypatch
):
    # the consumer refuses the first block, whose rows a flipped byte in the
    # last row makes suspect; the scan still reads on to the CRC, which
    # fails, so the error is not raised and the consumer runs again on the
    # rows of a parse
    path = _written(tmp_path)
    sidecar = datagen.sidecar_path(path)
    good = sidecar.read_bytes()
    with np.load(sidecar, allow_pickle=False) as cached:
        last = cached["data"][-1].tobytes()
    raw = bytearray(good)
    raw[raw.find(last) + 8 * 4] ^= 1
    sidecar.write_bytes(bytes(raw))
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 7)
    calls = []

    def consume(info, blocks):
        calls.append(next(blocks).x.copy())
        if len(calls) == 1:
            raise ValueError("refused")
        return calls[-1]

    first = datagen.scan_dataset(path, consume)
    assert len(calls) == 2
    assert sidecar.read_bytes() == good
    assert first.tobytes() == read_dataset(path).x[:7].tobytes()


def test_a_file_that_fails_its_checks_leaves_no_sidecar(tmp_path):
    path = _written(tmp_path)
    datagen.sidecar_path(path).unlink()  # the one write_dataset wrote
    lines = path.read_text().splitlines()
    fields = lines[6].split(",")
    fields[-1] = "1.5"  # p_true of data row 4
    lines[6] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(datagen.DatasetFormatError, match="line 7: p_true"):
        read_dataset(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_a_cold_read_whose_consumer_fails_keeps_its_sidecar(tmp_path, monkeypatch):
    # the index 30 of a 30-row file fails inside the scan's consumer, after
    # the parse: the sidecar it wrote stays, so the next read parses nothing
    path = _written(tmp_path)
    sidecar = datagen.sidecar_path(path)
    written = sidecar.read_bytes()
    sidecar.unlink()
    with pytest.raises(datagen.DatasetFormatError, match="row index 30 is outside"):
        read_dataset(path, rows=[30])
    assert sidecar.read_bytes() == written
    _no_parse(monkeypatch)
    assert read_dataset(path, rows=[29]).x.shape == (1, 25)


def test_a_sidecar_that_fails_its_own_scan_is_an_os_error(tmp_path, monkeypatch):
    # the parse's sidecar is written with another digest, so its scan fails
    path = _written(tmp_path)
    datagen.sidecar_path(path).unlink()
    save = datagen._save_sidecar
    monkeypatch.setattr(datagen, "_save_sidecar", lambda fh, shape, blocks, sha256: save(
        fh, shape, blocks, lambda: "0" * 64))
    with pytest.raises(OSError, match="fails its scan"):
        read_dataset(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_read_in_a_read_only_directory_writes_no_sidecar(tmp_path, monkeypatch):
    path = _written(tmp_path)
    expected = read_dataset(path)
    datagen.sidecar_path(path).unlink()
    tmp_path.chmod(0o555)
    try:
        if os.access(tmp_path, os.W_OK):
            # permission bits do not bind this user: refuse the write the
            # way a read-only directory does
            def refuse(file, mode="r", *args, **kwargs):
                if "w" in mode:
                    raise PermissionError(13, "Permission denied", str(file))
                return open(file, mode, *args, **kwargs)

            monkeypatch.setattr(artifacts, "open", refuse, raising=False)
        got = read_dataset(path)
    finally:
        tmp_path.chmod(0o755)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A 3000-row dataset at the default 295-feature width (4.0 MB of CSV),
    written without a sidecar, and the arrays it was written from."""
    data = generate_dataset(SyntheticConfig(n_matches=3000, rng_seed=3))
    path = tmp_path_factory.mktemp("wide") / "data.csv"
    datagen.write_dataset(path, *data, roster_size=160, comment="meta")
    return path, data


def test_a_cold_read_writes_its_sidecar_and_holds_its_output_and_one_block(wide_csv):
    # a cold read parses the CSV into its sidecar one BLOCK_ROWS block
    # at a time and then scans that sidecar, so beside its arrays it holds
    # about one block of rows, never the parsed matrix
    path, data = wide_csv
    datagen.sidecar_path(path).unlink(missing_ok=True)
    cold, peak = traced_peak(lambda: read_dataset(path))
    assert datagen.sidecar_path(path).exists()
    for got, want in zip(cold, data):
        np.testing.assert_array_equal(got, want)  # -0.0 is written as 0
    n_rows, n_feat = data[0].shape
    assert peak <= 1.25 * (n_rows + datagen.BLOCK_ROWS) * (n_feat + 2) * 8


def test_a_warm_read_holds_one_matrix(wide_csv):
    # x is a view of the loaded sidecar matrix with its feature columns moved
    # to the front; the finite check's boolean mask is the only other array
    # of note
    path, data = wide_csv
    read_dataset(path)  # writes the sidecar
    with np.load(datagen.sidecar_path(path), allow_pickle=False) as cached:
        matrix_bytes = cached["data"].nbytes
    warm, peak = traced_peak(lambda: read_dataset(path))
    assert warm.x.flags["C_CONTIGUOUS"]
    for got, want in zip(warm, data):
        np.testing.assert_array_equal(got, want)
    assert peak <= 1.2 * matrix_bytes


def test_a_warm_rows_read_holds_its_rows_and_one_block(wide_csv, monkeypatch):
    # the sidecar's rows are read one BLOCK_ROWS block at a time and
    # only the selected ones kept, so the read holds about 300 + 256 rows
    # of the 3000; 64 KiB hash reads keep the file's hashing out of the peak
    path, (x, _, _) = wide_csv
    read_dataset(path)  # makes sure the sidecar is there
    monkeypatch.setattr(datagen, "BLOCK_BYTES", 1 << 16)
    rows = np.random.default_rng(1).permutation(3000)[:300]
    part, peak = traced_peak(lambda: read_dataset(path, rows=rows))
    np.testing.assert_array_equal(part.x, x[rows])
    row_bytes = (x.shape[1] + 2) * 8
    assert peak <= 1.25 * (len(rows) + datagen.BLOCK_ROWS) * row_bytes


class _OtherData(Exception):
    """What a consumer raises when the scanned file's digest is not the one
    it expects; it carries the file's row count, as calibrate's refusal
    does."""

    def __init__(self, n_rows):
        super().__init__(n_rows)
        self.n_rows = n_rows


def _refuse_other_digest(sha256):
    def consume(info, blocks):
        if info.sha256 != sha256:
            raise _OtherData(info.n_rows)
        return info, datagen.take_rows(info, blocks, rows=[0])
    return consume


def test_a_read_with_another_digest_counts_rows_in_blocks(wide_csv, monkeypatch):
    # the wrong file is only hashed, BLOCK_BYTES at a time, and its row
    # count comes from the sidecar's header: no row of it is held
    path, _ = wide_csv
    read_dataset(path)  # makes sure the sidecar is there
    monkeypatch.setattr(datagen, "BLOCK_BYTES", 1 << 16)

    def read():
        with pytest.raises(_OtherData) as info:
            datagen.scan_dataset(path, _refuse_other_digest("0" * 64))
        return info.value.n_rows

    n_rows, peak = traced_peak(read)
    assert n_rows == 3000
    assert peak < 0.25 * path.stat().st_size


def test_read_with_another_digest_counts_rows_and_parses_nothing(tmp_path, monkeypatch):
    path = _written(tmp_path)
    digest = read_dataset_info(path)[0].sha256
    _no_parse(monkeypatch)
    with pytest.raises(_OtherData) as info:
        datagen.scan_dataset(path, _refuse_other_digest("0" * 64))
    assert info.value.n_rows == 30
    assert datagen.scan_dataset(path, _refuse_other_digest(digest))[0].sha256 == digest

# --- split ------------------------------------------------------------------------

def test_split_sizes_exact():
    train, val = datagen.split(100, 0.1, seed=1)
    assert (len(train), len(val)) == (90, 10)


def test_split_remainder_goes_to_train():
    train, val = datagen.split(103, 0.1, seed=1)
    assert len(val) == 10
    assert len(train) == 93


def test_split_deterministic():
    a = datagen.split(60, 0.2, seed=9)
    b = datagen.split(60, 0.2, seed=9)
    for part_a, part_b in zip(a, b):
        assert part_a.tolist() == part_b.tolist()
    # the seeded permutation, cut at the val size: a model header's
    # split_seed and val_fraction locate the same rows in every version
    perm = np.random.default_rng(9).permutation(60)
    assert a[0].tolist() == perm[:48].tolist() and a[1].tolist() == perm[48:].tolist()


def test_split_union_is_original_multiset():
    train, val = datagen.split(77, 0.25, seed=3)
    combined = sorted(np.concatenate([train, val]).tolist())
    assert combined == list(range(77))


def test_split_rejects_bad_fractions():
    for val_fraction in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="val_fraction"):
            datagen.split(10, val_fraction, seed=0)
