"""CLI surface tests: exit codes, artifact schemas, determinism, and the
auditability contract (reports recomputable from the per-sample dumps)."""

import argparse
import itertools
import json
import shutil

import numpy as np
import pytest

from calibforge import cli, datagen, duloss, metrics

from conftest import MINI_GEN, MINI_TRAIN, load_report, run_cli


# --- gen -----------------------------------------------------------------

def test_gen_is_byte_deterministic(tmp_path):
    out = tmp_path / "a"
    args = ["gen", "--n", "1000", "--seed", "7", "--n-features", "45",
            "--roster-size", "20", "--out", out]
    run_cli(args)
    first = ((out / "train.csv").read_bytes(), (out / "test.csv").read_bytes())
    run_cli(args)  # identical invocation overwrites with identical bytes
    assert (out / "train.csv").read_bytes() == first[0]
    assert (out / "test.csv").read_bytes() == first[1]
    # --n 1000 puts 1000 rows in train and 125 in test
    assert len(first[0].decode().splitlines()) == 1002  # comment + header
    assert len(first[1].decode().splitlines()) == 127


def test_gen_zero_rows_is_config_error(tmp_path):
    proc = run_cli(["gen", "--n", "0", "--out", tmp_path], check=False)
    assert proc.returncode == 2
    assert proc.stderr.strip()


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--coef-scale", "nan", "coef_scale"),
        ("--coef-scale", "inf", "coef_scale"),
        ("--noise-floor", "nan", "noise_floor"),
        ("--noise-gain", "inf", "noise_gain"),
    ],
)
def test_gen_non_finite_knob_is_config_error(tmp_path, flag, value, key):
    out = tmp_path / "o"
    proc = run_cli(["gen", "--n", "50", "--n-features", "45", "--roster-size", "20",
                    flag, value, "--out", out], check=False)
    assert proc.returncode == 2
    assert f"{key} must be finite" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--noise-floor", "-1"], "noise_floor must be nonnegative, got -1.0"),
        (["--noise-gain", "-0.5"], "noise_gain must be nonnegative, got -0.5"),
        (["--noise-floor", "0", "--noise-gain", "0"], "noise_floor and noise_gain"),
        (["--minute-min", "-5"], "minute_min must be nonnegative, got -5"),
        (["--minute-min", "30", "--minute-max", "20"],
         "minute range is empty: minute_max 20 < minute_min 30"),
    ],
    ids=["noise-floor", "noise-gain", "both-zero", "minute-min", "empty-range"],
)
def test_gen_out_of_range_knob_names_the_key(tmp_path, flags, message):
    out = tmp_path / "o"
    proc = run_cli(["gen", "--n", "50", "--n-features", "45", "--roster-size", "20",
                    *flags, "--out", out], check=False)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not out.exists()


def test_gen_config_file_with_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_train": 50, "n_test": 10, "frobnicate": 1}))
    proc = run_cli(["gen", "--config", cfg, "--out", tmp_path], check=False)
    assert proc.returncode == 2
    assert "frobnicate" in proc.stderr


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("gen", {"n_train": 50.7}),
        ("gen", {"n_train": None}),
        ("train", {"antithetic": "false"}),
    ],
    ids=["non-integral-int", "null-without-null-default", "string-for-bool"],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, mini_run, command, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n_test": 10, "n_features": 45, "roster_size": 20, **overrides}
        if command == "gen" else overrides
    ))
    args = [command, "--config", cfg, "--out", tmp_path / "o"]
    if command == "train":
        args += ["--data", mini_run / "train.csv", *MINI_TRAIN]
    proc = run_cli(args, check=False)
    assert proc.returncode == 2
    (key,) = overrides
    assert key in proc.stderr


@pytest.mark.parametrize("command, key", [("calibrate", "kind"), ("train", "loss")])
def test_config_value_outside_choices_is_config_error(tmp_path, mini_run, command, key):
    # a config file cannot get around the choices of the key's flag: nothing
    # is loaded and the output directory is not created
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "foo"}))
    out = tmp_path / "o"
    args = [command, "--config", cfg, "--data", mini_run / "train.csv", "--out", out]
    if command == "calibrate":
        args += ["--model", mini_run / "model_ce.txt"]
    proc = run_cli(args, check=False)
    assert proc.returncode == 2
    assert f"config key {key!r} must be one of" in proc.stderr and '"foo"' in proc.stderr
    assert not out.exists()


def test_gen_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n_train": 50, "n_test": 10, "n_features": 45, "roster_size": 20}
    ))
    out = tmp_path / "o"
    run_cli(["gen", "--config", cfg, "--n-train", "60", "--out", out])
    assert len((out / "train.csv").read_text().splitlines()) == 62


# --- train -----------------------------------------------------------------

def test_train_model_file_roundtrips(mini_run):
    from calibforge import nn

    params, header = nn.load_model(mini_run / "model_ce.txt")
    assert header["loss"] == "ce"
    assert params.du_head_enabled is False
    assert params.layer_sizes == [45, 16, 2]
    log_lines = (mini_run / "train_log_ce.csv").read_text().splitlines()
    assert log_lines[1] == "epoch,loss,train_acc"
    assert len(log_lines) == 4  # comment, header, 2 epochs


def test_train_du_same_seed_identical_model_files(tmp_path):
    gen_out = tmp_path / "data"
    run_cli(["gen", *MINI_GEN, "--out", gen_out])
    out = tmp_path / "run"
    args = [
        "train", "--data", gen_out / "train.csv", "--loss", "du", "--k", "32",
        *MINI_TRAIN, "--out", out,
    ]
    run_cli(args)
    first = (out / "model_du.txt").read_bytes()
    run_cli(args)
    assert (out / "model_du.txt").read_bytes() == first


def test_train_zero_lr_keeps_initial_params(tmp_path):
    import numpy as np
    from calibforge import nn

    gen_out = tmp_path / "data"
    run_cli(["gen", *MINI_GEN, "--out", gen_out])
    out = tmp_path / "run"
    run_cli([
        "train", "--data", gen_out / "train.csv", "--lr", "0", *MINI_TRAIN, "--out", out,
    ])
    params, _ = nn.load_model(out / "model_ce.txt")
    init = nn.init_params([45, 16, 2], seed=np.random.SeedSequence(11).spawn(2)[0])
    for a, b in zip(params.weights + params.biases, init.weights + init.biases):
        np.testing.assert_array_equal(a, b)


def test_train_missing_data_is_io_error(tmp_path):
    proc = run_cli(
        ["train", "--data", tmp_path / "nope.csv", "--out", tmp_path], check=False
    )
    assert proc.returncode == 3


def test_train_bad_loss_flag_rejected(tmp_path):
    proc = run_cli(
        ["train", "--data", "x.csv", "--loss", "mse", "--out", tmp_path], check=False
    )
    assert proc.returncode == 2


def test_train_non_finite_lr_is_config_error(tmp_path, mini_run):
    out = tmp_path / "o"
    proc = run_cli([
        "train", "--data", mini_run / "train.csv", "--lr", "nan", *MINI_TRAIN, "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert "learning_rate" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["0", "8,0", "-4", "8,x"])
def test_train_hidden_size_below_one_is_config_error(tmp_path, mini_run, hidden):
    out = tmp_path / "o"
    proc = run_cli([
        "train", "--data", mini_run / "train.csv", *MINI_TRAIN, f"--hidden={hidden}",
        "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert f"hidden='{hidden}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# --- calibrate ---------------------------------------------------------------

def test_calibrate_emits_scaler_and_log(mini_run):
    doc = json.loads((mini_run / "scaler_temperature.json").read_text())
    assert doc["kind"] == "temperature"
    assert doc["T"] > 0
    assert "version" in doc and "config" in doc
    log = (mini_run / "calib_log_temperature.csv").read_text().splitlines()
    assert log[0] == "iter,nll,grad_norm"
    for kind in ("vector", "matrix"):
        doc = json.loads((mini_run / f"scaler_{kind}.json").read_text())
        assert doc["kind"] == kind


def test_calibrate_missing_model_is_io_error(tmp_path, mini_run):
    proc = run_cli([
        "calibrate", "--model", tmp_path / "ghost.txt",
        "--data", mini_run / "train.csv", "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3


def test_calibrate_rejects_du_model(tmp_path, mini_run):
    proc = run_cli([
        "calibrate", "--model", mini_run / "model_du.txt",
        "--data", mini_run / "train.csv", "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("kind", ["temperature", "vector", "matrix"])
@pytest.mark.parametrize("flag, named", [
    ("--lr=nan", "lr"), ("--lr=-1", "lr"), ("--max-iters=-1", "max_iters"),
    ("--tol=inf", "tol"), ("--tol=nan", "tol"), ("--tol=-1", "tol"),
])
def test_calibrate_bad_optimiser_settings_are_config_errors(tmp_path, mini_run, kind, flag, named):
    # --lr and --max-iters no longer exist, so any value of them is rejected
    # as an unrecognised argument, spelt as the flag was typed
    out = tmp_path / "o"
    proc = run_cli([
        "calibrate", "--model", mini_run / "model_ce.txt", "--data", mini_run / "train.csv",
        "--kind", kind, flag, "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert named.replace("_", "-") in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("lr", 1e-2), ("max_iters", 300)])
def test_calibrate_takes_no_step_size_or_iteration_budget(tmp_path, mini_run, key, value, via):
    # every scaler is fit by Newton to --tol; the old Adam settings exit 2
    assert set(cli.COMMAND_DEFAULTS["calibrate"]) == {"seed", "out", "model", "data", "kind", "tol"}
    out = tmp_path / "o"
    args = [
        "calibrate", "--model", mini_run / "model_ce.txt", "--data", mini_run / "train.csv",
        "--kind", "vector", "--out", out,
    ]
    if via == "flag":
        flag = f"--{key.replace('_', '-')}={value}"
        args.append(flag)
        expected = f"unrecognized arguments: {flag}"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", cfg]
        expected = f"unknown config keys: {key}"
    proc = run_cli(args, check=False)
    assert proc.returncode == 2
    assert expected in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("edit", ["test-set", "edited-training-file"])
def test_calibrate_refuses_data_other_than_the_training_file(tmp_path, mini_run, edit):
    if edit == "test-set":
        data = mini_run / "test.csv"
    else:
        lines = (mini_run / "train.csv").read_text().splitlines()
        fields = lines[-1].split(",")
        fields[-3] = "0.5"  # last filler feature of the last row
        lines[-1] = ",".join(fields)
        data = tmp_path / "train.csv"
        data.write_text("\n".join(lines) + "\n")
    n_rows = len(datagen.read_dataset(data)[1])
    out = tmp_path / "o"
    proc = run_cli([
        "calibrate", "--model", mini_run / "model_ce.txt", "--data", data, "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert str(data) in proc.stderr
    assert f"{n_rows} data rows" in proc.stderr and "records 400" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("split_seed", "abc"),
    ("split_seed", "-1"),
    ("split_seed", None),
    ("val_fraction", "1.5"),
    ("val_fraction", "nan"),
    ("val_fraction", None),
    ("data_rows", "0"),
    ("data_rows", "4e2"),
    ("data_rows", None),
    ("data_sha256", "abc"),
    ("data_sha256", None),
])
def test_calibrate_rejects_bad_split_header_fields(tmp_path, mini_run, key, value):
    lines = [
        line for line in (mini_run / "model_ce.txt").read_text().splitlines()
        if not (value is None and line.startswith(f"{key}="))
    ]
    if value is not None:
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]
    model = tmp_path / "model_ce.txt"
    model.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    proc = run_cli([
        "calibrate", "--model", model, "--data", mini_run / "train.csv", "--out", out,
    ], check=False)
    assert proc.returncode == 3
    assert str(model) in proc.stderr and repr(key) in proc.stderr
    if value is None:
        assert "retrain" in proc.stderr
    assert not out.exists()


def _count_loadtxt_rows(monkeypatch) -> list:
    """Patch np.loadtxt to record the number of lines of each call; the
    lines may come as any iterable."""
    loadtxt = np.loadtxt
    parsed = []

    def counting_loadtxt(lines, *args, **kwargs):
        lines = list(lines)
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    return parsed


def test_calibrate_parses_only_the_validation_rows(tmp_path, mini_run, monkeypatch):
    # a copy has the training file's bytes but no parsed-array sidecar yet
    data = tmp_path / "train.csv"
    shutil.copyfile(mini_run / "train.csv", data)
    parsed = _count_loadtxt_rows(monkeypatch)
    out = tmp_path / "o"
    code = cli.main([
        "calibrate", "--model", str(mini_run / "model_ce.txt"),
        "--data", str(data), "--out", str(out),
    ])
    assert code == 0
    _, val, _ = datagen.split(400, (0.9, 0.1), 11)  # MINI_GEN rows, MINI_TRAIN seed
    assert parsed == [len(val)]
    assert not datagen.sidecar_path(data).exists()  # a partial read caches nothing
    fitted = json.loads((out / "scaler_temperature.json").read_text())
    assert fitted["T"] == json.loads((mini_run / "scaler_temperature.json").read_text())["T"]


def test_calibrate_on_a_read_training_file_parses_nothing(tmp_path, mini_run, monkeypatch):
    # train read mini_run/train.csv in full, which left its sidecar
    assert datagen.sidecar_path(mini_run / "train.csv").exists()
    parsed = _count_loadtxt_rows(monkeypatch)
    out = tmp_path / "o"
    code = cli.main([
        "calibrate", "--model", str(mini_run / "model_ce.txt"),
        "--data", str(mini_run / "train.csv"), "--out", str(out),
    ])
    assert code == 0
    assert parsed == []
    fitted = json.loads((out / "scaler_temperature.json").read_text())
    assert fitted["T"] == json.loads((mini_run / "scaler_temperature.json").read_text())["T"]


# --- eval ---------------------------------------------------------------------

def test_eval_writes_full_artifact_set(mini_run):
    for label in ("none", "temperature", "vector", "matrix", "du"):
        assert (mini_run / f"report_{label}.json").exists()
        assert (mini_run / f"reliability_{label}.csv").exists()
        assert (mini_run / f"reliability_{label}.svg").exists()
        assert (mini_run / f"predictions_{label}.csv").exists()
        doc = load_report(mini_run, label)
        assert doc["method"] == label
        assert "oracle_ece" in doc  # synthetic data carries p_true
        assert 0.0 <= doc["true_ece"] <= 1.0
        assert len(doc["bins"]) == 10


def test_eval_is_deterministic(tmp_path, mini_run):
    out = tmp_path / "redo"
    run_cli([
        "eval", "--model", mini_run / "model_du.txt", "--data", mini_run / "test.csv",
        "--seed", "11", "--out", out,
    ])
    first = (mini_run / "report_du.json").read_text()
    again = (out / "report_du.json").read_text()
    # identical apart from the embedded output directory in the config echo
    assert json.loads(first)["ece"] == json.loads(again)["ece"]
    assert json.loads(first)["bins"] == json.loads(again)["bins"]
    assert (mini_run / "predictions_du.csv").read_text().splitlines()[1:] == (
        out / "predictions_du.csv"
    ).read_text().splitlines()[1:]


def test_du_eval_does_not_depend_on_the_seed(tmp_path, mini_run):
    rows = {}
    for seed in ("1", "2"):
        out = tmp_path / seed
        run_cli([
            "eval", "--model", mini_run / "model_du.txt", "--data", mini_run / "test.csv",
            "--seed", seed, "--out", out,
        ])
        rows[seed] = (out / "predictions_du.csv").read_text().splitlines()[1:]
    assert rows["1"] == rows["2"]
    assert rows["1"] == (mini_run / "predictions_du.csv").read_text().splitlines()[1:]
    assert load_report(mini_run, "du")["probability_rule"] == duloss.EXACT_RULE


@pytest.mark.parametrize("m_bins", ["0", "-3"])
def test_eval_checks_m_bins_before_reading_anything(tmp_path, mini_run, monkeypatch, m_bins):
    reads = []
    read_dataset = datagen.read_dataset

    def counting_read(*args, **kwargs):
        reads.append(args)
        return read_dataset(*args, **kwargs)

    monkeypatch.setattr(datagen, "read_dataset", counting_read)
    out = tmp_path / "o"
    code = cli.main([
        "eval", "--model", str(mini_run / "model_ce.txt"), "--data", str(mini_run / "test.csv"),
        "--m-bins", m_bins, "--out", str(out),
    ])
    assert code == 2
    assert reads == []
    assert not out.exists()


def test_cold_and_warm_eval_write_identical_artifacts(tmp_path, mini_run, monkeypatch):
    data = tmp_path / "test.csv"
    shutil.copyfile(mini_run / "test.csv", data)
    out = tmp_path / "o"
    argv = [
        "eval", "--model", str(mini_run / "model_ce.txt"), "--data", str(data),
        "--scaler", str(mini_run / "scaler_vector.json"), "--out", str(out),
    ]
    assert not datagen.sidecar_path(data).exists()
    assert cli.main(argv) == 0
    assert datagen.sidecar_path(data).exists()
    cold = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "predictions_vector.csv" in cold
    parsed = _count_loadtxt_rows(monkeypatch)
    assert cli.main(argv) == 0
    assert parsed == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == cold


def test_eval_takes_no_sampling_or_label_settings(tmp_path, mini_run):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for action in sub.choices["eval"]._actions for flag in action.option_strings}
    assert flags == {
        "-h", "--help", "--seed", "--config", "--out", "--model", "--data", "--scaler", "--m-bins",
    }
    assert set(cli.COMMAND_DEFAULTS["eval"]) == {"seed", "out", "model", "data", "scaler", "m_bins"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"antithetic": True}))
    out = tmp_path / "o"
    proc = run_cli([
        "eval", "--model", mini_run / "model_du.txt", "--data", mini_run / "test.csv",
        "--config", cfg, "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert "unknown config keys: antithetic" in proc.stderr
    assert not out.exists()


def test_eval_temperature_keeps_accuracy_field(mini_run):
    plain = load_report(mini_run, "none")
    scaled = load_report(mini_run, "temperature")
    assert plain["accuracy"] == scaled["accuracy"]


def test_eval_report_recomputable_from_prediction_dump(mini_run):
    for label in ("none", "du"):
        doc = load_report(mini_run, label)
        lines = (mini_run / f"predictions_{label}.csv").read_text().splitlines()
        assert lines[1] == "z0,z1,s_raw,p0,p1,confidence,predicted,true,p_true"
        fields = [line.split(",") for line in lines[2:]]
        probs = np.array([(float(f[3]), float(f[4])) for f in fields])
        labels = np.array([int(f[7]) for f in fields])
        confidence, predicted = metrics.predict(probs)
        assert predicted.tolist() == [int(f[6]) for f in fields]
        assert confidence.tolist() == [float(f[5]) for f in fields]
        rep = metrics.build_report(probs, labels, 10)
        assert rep.accuracy == doc["accuracy"]
        assert rep.ece == doc["ece"]
        assert rep.mce == doc["mce"]
        assert rep.nll_sum == doc["nll_sum"]


def test_eval_rejects_scaler_on_du_model(tmp_path, mini_run):
    proc = run_cli([
        "eval", "--model", mini_run / "model_du.txt", "--data", mini_run / "test.csv",
        "--scaler", mini_run / "scaler_temperature.json", "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 2


def test_eval_rejects_infinite_temperature_scaler(tmp_path, mini_run):
    # json reads Infinity; T = inf would flatten every probability to 0.5
    doc = json.loads((mini_run / "scaler_temperature.json").read_text())
    doc["T"] = float("inf")
    scaler = tmp_path / "scaler_inf.json"
    scaler.write_text(json.dumps(doc))
    proc = run_cli([
        "eval", "--model", mini_run / "model_ce.txt", "--data", mini_run / "test.csv",
        "--scaler", scaler, "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3
    assert "scaler_inf.json" in proc.stderr
    assert not (tmp_path / "report_temperature.json").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("temperature", "T", True),
    ("temperature", "T", "1.5"),
    ("vector", "w_diag", [True, 2]),
    ("matrix", "W", [[1, 0], [0, False]]),
    ("matrix", "b", [0, "0"]),
])
def test_eval_rejects_non_numeric_scaler_entries(tmp_path, mini_run, kind, key, value):
    doc = json.loads((mini_run / f"scaler_{kind}.json").read_text())
    doc[key] = value
    scaler = tmp_path / "scaler_edited.json"
    scaler.write_text(json.dumps(doc))
    proc = run_cli([
        "eval", "--model", mini_run / "model_ce.txt", "--data", mini_run / "test.csv",
        "--scaler", scaler, "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3
    assert "scaler_edited.json" in proc.stderr
    assert repr(key) in proc.stderr
    assert not (tmp_path / f"report_{kind}.json").exists()


@pytest.mark.parametrize("doc", [[{"kind": "temperature", "T": 1.5}], {"kind": "bogus"}],
                         ids=["json-list", "unknown-kind"])
def test_eval_rejects_malformed_scaler_file(tmp_path, mini_run, doc):
    scaler = tmp_path / "scaler_bad.json"
    scaler.write_text(json.dumps(doc))
    proc = run_cli([
        "eval", "--model", mini_run / "model_ce.txt", "--data", mini_run / "test.csv",
        "--scaler", scaler, "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3
    assert proc.stderr.count("scaler_bad.json") == 1


def test_eval_without_p_true_omits_oracle_metric(tmp_path, mini_run):
    # real match data carries no ground-truth probability: strip the column
    lines = (mini_run / "test.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-1] == "p_true"
    stripped = [",".join(line.split(",")[:-1]) for line in lines[1:]]
    bare = tmp_path / "real.csv"
    bare.write_text("\n".join(stripped) + "\n")
    out = tmp_path / "run"
    run_cli([
        "eval", "--model", mini_run / "model_ce.txt", "--data", bare,
        "--seed", "11", "--out", out,
    ])
    doc = json.loads((out / "report_none.json").read_text())
    assert "oracle_ece" not in doc and "true_ece" not in doc
    assert doc["accuracy"] == load_report(mini_run, "none")["accuracy"]


def test_eval_missing_model_is_io_error(tmp_path, mini_run):
    proc = run_cli([
        "eval", "--model", tmp_path / "ghost.txt", "--data", mini_run / "test.csv",
        "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3


# --- compare -----------------------------------------------------------------

def test_compare_table_matches_reports(mini_run):
    run_cli(["compare", "--out", mini_run])
    doc = json.loads((mini_run / "comparison.json").read_text())
    table = (mini_run / "comparison.txt").read_text()
    for label, name in (
        ("none", "No calibration"),
        ("temperature", "Temperature scaling"),
        ("vector", "Vector scaling"),
        ("matrix", "Matrix scaling"),
        ("du", "DU loss"),
    ):
        rep = load_report(mini_run, label)
        assert doc["methods"][label]["ece"] == rep["ece"]
        assert doc["methods"][label]["accuracy"] == rep["accuracy"]
        row = next(line for line in table.splitlines() if line.startswith(name))
        assert f"{100 * rep['ece']:.2f}" in row
        assert f"{rep['nll_mean']:.3f}" in row


def test_compare_missing_report_exits_4(tmp_path, mini_run):
    partial = tmp_path / "partial"
    partial.mkdir()
    for label in ("none", "temperature", "vector"):
        (partial / f"report_{label}.json").write_text(
            (mini_run / f"report_{label}.json").read_text()
        )
    proc = run_cli(["compare", "--dir", partial, "--out", tmp_path], check=False)
    assert proc.returncode == 4
    assert "report_matrix.json" in proc.stderr
    assert "report_du.json" in proc.stderr


@pytest.mark.parametrize("corrupt, named", [
    (lambda doc: {k: v for k, v in doc.items() if k != "nll_mean"}, "nll_mean"),
    (lambda doc: [doc], "JSON object"),
], ids=["missing_key", "json_list"])
def test_compare_malformed_report_exits_3(tmp_path, mini_run, corrupt, named):
    src = tmp_path / "reports"
    src.mkdir()
    for label in ("none", "temperature", "vector", "matrix", "du"):
        doc = load_report(mini_run, label)
        if label == "vector":
            doc = corrupt(doc)
        (src / f"report_{label}.json").write_text(json.dumps(doc))
    proc = run_cli(["compare", "--dir", src, "--out", tmp_path], check=False)
    assert proc.returncode == 3
    assert "report_vector.json" in proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr



@pytest.mark.parametrize("label, key, value", [
    ("vector", "ece", float("nan")),
    ("vector", "accuracy", float("inf")),
    ("none", "nll_mean", float("inf")),
    ("du", "nll_mean", -0.25),
    ("matrix", "mce", 1.5),
    ("temperature", "ece", -float("inf")),
])
def test_compare_rejects_non_finite_or_out_of_range_numbers(tmp_path, mini_run, label, key, value):
    src = tmp_path / "reports"
    src.mkdir()
    for name in ("none", "temperature", "vector", "matrix", "du"):
        doc = load_report(mini_run, name)
        if name == label:
            doc[key] = value  # json.dumps writes NaN and Infinity, and json.load reads them
        (src / f"report_{name}.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = run_cli(["compare", "--dir", src, "--out", out], check=False)
    assert proc.returncode == 3
    assert f"report_{label}.json" in proc.stderr and repr(key) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()

# --- misc ---------------------------------------------------------------------

def test_no_command_prints_help():
    proc = run_cli([], check=False)
    assert proc.returncode == 2


def test_version_flag():
    proc = run_cli(["--version"], check=False)
    assert proc.returncode == 0
    assert "calibforge" in proc.stdout


def test_every_artifact_carries_version_and_config(mini_run):
    assert (mini_run / "train.csv").read_text().splitlines()[0].startswith(
        "# calibforge v"
    )
    assert (mini_run / "reliability_none.csv").read_text().splitlines()[0].startswith(
        "# calibforge v"
    )
    assert (mini_run / "reliability_none.svg").read_text().startswith("<!-- calibforge v")
    model_lines = (mini_run / "model_ce.txt").read_text().splitlines()
    model_header = list(itertools.takewhile(lambda line: not line.startswith("param "), model_lines))
    assert any(line.startswith("version=") for line in model_header)
    assert any(line.startswith("config=") for line in model_header)
    doc = load_report(mini_run, "none")
    assert doc["version"]
    assert doc["config"]["m_bins"] == 10
