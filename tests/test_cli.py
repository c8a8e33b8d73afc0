"""CLI surface tests: exit codes, artifact schemas, determinism, and the
auditability contract (reports recomputable from the per-sample dumps)."""

import argparse
import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import re
import shutil
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path

import numpy as np
import pytest

from calibforge import artifacts, cli, datagen, duloss, metrics, nn, scaling

from conftest import (
    MINI_GEN, MINI_TRAIN, generate_dataset, load_model, load_report, read_dataset, ref_metrics,
    reference_rows, run_cli,
)

# the comparison's method labels, in table order
LABELS = [method.label for method in cli.METHODS]


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


def test_gen_echoes_the_config_its_files_embed(tmp_path, capsys):
    # --n sets n_train and n_test where the options are resolved, so the
    # echoed config is the one in the comment line of each file
    out = tmp_path / "o"
    assert cli.main(["gen", "--n", "40", "--n-features", "45", "--roster-size", "20",
                     "--n-test", "999", "--out", str(out)]) == 0
    (echo,) = [line.removeprefix("gen config: ") for line in capsys.readouterr().out.splitlines()
               if line.startswith("gen config: ")]
    echoed = json.loads(echo)
    assert (echoed["n"], echoed["n_train"], echoed["n_test"]) == (40, 40, 5)
    for name in ("train.csv", "test.csv"):
        with open(out / name, encoding="utf-8") as fh:
            comment = fh.readline()
        assert json.loads(comment.split(" config=", 1)[1]) == echoed


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
        ("train", {"epochs": True}),
        ("gen", {"coef_scale": 10**400}),
        ("train", {"lr": -(10**400)}),
    ],
    ids=["non-integral-int", "null-without-null-default", "bool-for-int",
         "int-beyond-float-range", "negative-int-beyond-float-range"],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, mini_run, command, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n_test": 10, "n_features": 45, "roster_size": 20, **overrides}
        if command == "gen" else overrides
    ))
    args = [command, "--config", cfg, "--out", tmp_path / "o"]
    if command == "train":
        args += ["--data", mini_run / "train.csv", *MINI_TRAIN, "--seed", "11"]
    proc = run_cli(args, check=False)
    assert proc.returncode == 2
    (key,) = overrides
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_a_config_file_does_not_outlive_its_command_line(tmp_path, capsys):
    # a config file becomes the parser's defaults, which every subcommand
    # shares through the common options, so each command line needs a fresh
    # parser: the benchmark tracer runs many command lines in one process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "n_test": 10}))
    gen = ["gen", "--n-train", "50", "--n-features", "45", "--roster-size", "20"]
    assert cli.main([*gen, "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*gen, "--out", str(tmp_path / "b")]) == 0
    first, second = [
        json.loads(line.removeprefix("gen config: "))
        for line in capsys.readouterr().out.splitlines() if line.startswith("gen config: ")
    ]
    assert (first["seed"], first["n_test"]) == (5, 10)  # flag > file > default
    assert (second["seed"], second["n_test"]) == (42, 2500)


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

    params, header = load_model(mini_run / "model_ce.txt")
    assert header["loss"] == "ce"
    assert params.du_head_enabled is False
    assert params.layer_sizes == [45, 16, 2]
    log_lines = (mini_run / "train_log_ce.csv").read_text().splitlines()
    assert log_lines[1] == "epoch,loss,train_acc"
    assert len(log_lines) == 4  # comment, header, 2 epochs


def test_train_du_same_seed_identical_model_files(tmp_path):
    gen_out = tmp_path / "data"
    run_cli(["gen", *MINI_GEN, "--seed", "11", "--out", gen_out])
    out = tmp_path / "run"
    args = [
        "train", "--data", gen_out / "train.csv", "--loss", "du", "--k", "32",
        *MINI_TRAIN, "--seed", "11", "--out", out,
    ]
    run_cli(args)
    first = (out / "model_du.txt").read_bytes()
    run_cli(args)
    assert (out / "model_du.txt").read_bytes() == first


def test_train_zero_lr_keeps_initial_params(tmp_path):
    import numpy as np
    from calibforge import nn

    gen_out = tmp_path / "data"
    run_cli(["gen", *MINI_GEN, "--seed", "11", "--out", gen_out])
    out = tmp_path / "run"
    run_cli([
        "train", "--data", gen_out / "train.csv", "--lr", "0", *MINI_TRAIN, "--seed", "11",
        "--out", out,
    ])
    params, _ = load_model(out / "model_ce.txt")
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
        "train", "--data", mini_run / "train.csv", "--lr", "nan", *MINI_TRAIN, "--seed", "11",
        "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert "learning_rate" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["0", "8,0", "-4", "8,x", "8,,8", "8,", "", "1_6", "+8"])
def test_train_hidden_size_below_one_is_config_error(tmp_path, mini_run, hidden):
    out = tmp_path / "o"
    proc = run_cli([
        "train", "--data", mini_run / "train.csv", *MINI_TRAIN, "--seed", "11",
        f"--hidden={hidden}", "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert f"hidden='{hidden}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# sizes whose arrays need 2^58 bytes or more: beyond any x86-64 address space,
# so the allocation fails at once, yet small enough that numpy does not
# refuse the size itself as overflowing
@pytest.mark.parametrize("argv", [
    ["gen", "--n-train", "36028797018963968"],
    ["gen", "--n", "10", "--n-features", "36028797018963968"],
    ["train", *MINI_TRAIN, "--hidden", "4503599627370496"],
    ["train", *MINI_TRAIN, "--loss", "du", "--k", "1125899906842624"],
], ids=["gen-rows", "gen-features", "train-hidden", "train-k"])
def test_an_allocation_that_cannot_be_made_is_a_config_error(tmp_path, mini_run, argv):
    if argv[0] == "train":
        argv = [*argv, "--data", mini_run / "train.csv"]
    out = tmp_path / "o"
    proc = run_cli([*argv, "--out", out], check=False)
    assert proc.returncode == 2
    assert "Unable to allocate" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _recorded_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record the arguments of each call."""
    real, calls = getattr(module, name), []

    def call(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, call)
    return calls


def test_train_holds_its_rows_as_int8_and_float32_column_runs(tmp_path, monkeypatch):
    # 163 of the 295 columns of a generated file hold small integers, so
    # the training rows take (163 + 4 * 132) / (4 * 295) = 0.586 of their
    # float32 bytes; the file is scanned once
    data = tmp_path / "data"
    assert cli.main(["gen", "--n", "2000", "--seed", "5", "--out", str(data)]) == 0
    trained = []

    def no_training(x, y, config):
        trained.append(x)
        return nn.init_params([x.shape[1], *config.hidden, 2]), [nn.EpochLog(1, 0.0, 0.0)]

    monkeypatch.setattr(nn, "train", no_training)
    argv = ["train", "--data", str(data / "train.csv"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0  # what a first run leaves cached is not counted
    trained.clear()
    scans = _recorded_calls(monkeypatch, datagen, "scan_dataset")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert cli.main(argv) == 0
        gc.collect()  # the parser's reference cycles
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (rows,) = trained
    n, width = rows.shape
    assert (n, width) == (1800, 295)
    assert held <= 0.6 * n * width * 4
    assert len(scans) == 1


def test_a_column_broken_only_in_the_last_block_is_widened_in_one_scan(tmp_path, monkeypatch):
    # the minute column is integral except in the last row, of the third
    # block, so the first block's int8 columns are laid out and the last
    # block widens the minute to float32 in the same scan; the model is the
    # dense rows'
    config = datagen.SyntheticConfig(n_matches=600, n_features=45, roster_size=20, rng_seed=3)
    x, y, p_true = generate_dataset(config)
    x[-1, 0] = 0.5
    path = tmp_path / "train.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=20)
    scans = _recorded_calls(monkeypatch, datagen, "scan_dataset")
    trained = _recorded_calls(monkeypatch, nn, "train")
    out = tmp_path / "o"
    assert cli.main([
        "train", "--data", str(path), "--epochs", "2", "--hidden", "8", "--batch-size", "64",
        "--seed", "4", "--out", str(out),
    ]) == 0
    assert len(scans) == 1
    (runs, *_), = trained
    assert [run.dtype for run in runs.runs] == [np.float32, np.int8, np.float32]
    train, _ = datagen.split(600, 0.1, 4)
    dense = read_dataset(path, rows=train)
    expected, _ = nn.train(
        dense.x.astype(np.float32), dense.y,
        nn.TrainConfig(epochs=2, batch_size=64, rng_seed=4, hidden=(8,)),
    )
    params, _ = load_model(out / "model_ce.txt")
    for a, b in zip(params.weights + params.biases, expected.weights + expected.biases):
        assert a.tobytes() == b.tobytes()


def test_train_refuses_a_feature_float32_cannot_hold_before_training(
    tmp_path, monkeypatch, capsys
):
    # 1e39 is finite in float64, so the reader passes it, but its float32
    # cast is infinite: train refuses it as its rows are taken, naming the
    # file and the row, before any training or casting warning
    config = datagen.SyntheticConfig(n_matches=300, n_features=45, roster_size=20, rng_seed=3)
    x, y, p_true = generate_dataset(config)
    row = int(datagen.split(300, 0.1, 42)[0][7])
    x[row, -1] = 1e39
    path = tmp_path / "train.csv"
    datagen.write_dataset(path, x, y, p_true, roster_size=20)
    trained = _recorded_calls(monkeypatch, nn, "train")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["train", "--data", str(path), "--seed", "42", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}: data row {row}: feature 44 is 1e+39" in err
    assert trained == []
    assert not (out / "model_ce.txt").exists() and not (out / "train_log_ce.csv").exists()


# --- calibrate ---------------------------------------------------------------

def test_calibrate_emits_scaler_and_log(mini_run):
    doc = json.loads((mini_run / "scaler_temperature.json").read_text())
    assert doc["kind"] == "temperature"
    assert doc["T"] > 0
    assert "version" in doc and "config" in doc
    log = (mini_run / "calib_log_temperature.csv").read_text().splitlines()
    assert log[0] == "iter,nll,grad_norm"
    for kind in ("temperature", "vector", "matrix"):
        doc = json.loads((mini_run / f"scaler_{kind}.json").read_text())
        assert doc["kind"] == kind
        assert doc["model_sha256"] == _sha256(mini_run / "model_ce.txt")


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
def test_calibrate_bad_optimiser_settings_are_config_errors(
    tmp_path, mini_run, kind, flag, named, capsys
):
    # --lr, --max-iters and --tol no longer exist, so any value of them is
    # rejected as an unrecognised argument, spelt as the flag was typed;
    # argparse exits 2 before the command runs, so the check runs in-process
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        cli.main([
            "calibrate", "--model", str(mini_run / "model_ce.txt"),
            "--data", str(mini_run / "train.csv"), "--kind", kind, flag, "--out", str(out),
        ])
    assert info.value.code == 2
    assert named.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


def _subparsers() -> dict:
    """Each command's parser, from a fresh ``cli.build_parser()``."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(command: str) -> set:
    """The config keys of a command: the dests of its parser's options."""
    return {action.dest for action in _subparsers()[command]._actions} - {"help", "config"}


def test_parser_defaults_are_the_library_defaults():
    defaults = {command: {action.dest: action for action in parser._actions}
                for command, parser in _subparsers().items()}
    # gen's generator options are SyntheticConfig's fields, in field order,
    # less the row count and the seed
    gen = defaults["gen"]
    assert list(gen) == ["help", "seed", "config", "out", "n", "n_train", "n_test", "n_features",
                         "roster_size", "coef_scale", "noise_floor", "noise_gain", "minute_min",
                         "minute_max"]
    fields = {field.name: field.default for field in dataclasses.fields(datagen.SyntheticConfig)}
    assert set(fields) - {"n_matches", "rng_seed"} == set(list(gen)[7:])
    for name in list(gen)[7:]:
        assert gen[name].option_strings == ["--" + name.replace("_", "-")]
        assert gen[name].default == fields[name] and gen[name].type is type(fields[name])
    train, config = defaults["train"], nn.TrainConfig()
    assert (train["loss"].default, train["epochs"].default, train["lr"].default,
            train["batch_size"].default, train["k"].default) == (
        config.loss_kind, config.epochs, config.learning_rate, config.batch_size, config.k_train)
    assert config.k_train == duloss.MCConfig().k
    assert cli._hidden_sizes(train["hidden"].default) == config.hidden
    assert defaults["eval"]["m_bins"].default == metrics.DEFAULT_BINS
    seed = inspect.signature(cli.pipeline).parameters["seed"].default
    assert {options["seed"].default for options in defaults.values()} == {seed}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    pytest.param("calibrate", "lr", 1e-2, id="lr-0.01"),
    pytest.param("calibrate", "max_iters", 300, id="max_iters-300"),
    pytest.param("calibrate", "tol", 1e-3, id="tol-0.001"),
    pytest.param("train", "antithetic", True, id="antithetic-True"),
    pytest.param("train", "antithetic", False, id="antithetic-False"),
])
def test_calibrate_takes_no_step_size_or_iteration_budget(
    tmp_path, mini_run, command, key, value, via
):
    # every scaler is fit by Newton to a fixed tolerance and training always
    # pairs its draws; the removed settings exit 2 before anything is read
    assert _options("calibrate") == {"seed", "out", "model", "data", "kind"}
    assert key not in _options(command)
    out = tmp_path / "o"
    args = [command, "--data", mini_run / "train.csv", "--out", out]
    if command == "calibrate":
        args += ["--model", mini_run / "model_ce.txt", "--kind", "vector"]
    else:
        args += [*MINI_TRAIN, "--seed", "11"]
    if via == "flag":
        name = key.replace("_", "-")
        if isinstance(value, bool):
            flag = f"--{name}" if value else f"--no-{name}"
        else:
            flag = f"--{name}={value}"
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
    n_rows = len(read_dataset(data)[1])
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


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_a_model_block_not_as_declared_is_refused_naming_its_line(tmp_path, mini_run, command):
    # the reader takes each block by its declared name and shape, so a W0
    # block under another name is refused before a weight is parsed
    lines = (mini_run / "model_ce.txt").read_text().splitlines()
    line_no = lines.index("param W0 45 16") + 1
    lines[line_no - 1] = "param Wzz 45 16"
    model = tmp_path / "renamed.txt"
    model.write_text("\n".join(lines) + "\n")
    data = tmp_path / "train.csv"
    shutil.copyfile(mini_run / "train.csv", data)
    out = tmp_path / "o"
    proc = run_cli([command, "--model", model, "--data", data, "--out", out], check=False)
    assert proc.returncode == 3
    assert f"{model}: line {line_no}: expected 'param W0 45 16'" in proc.stderr
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


def test_a_cold_calibrate_parses_every_row_once_and_leaves_the_sidecar(
    tmp_path, mini_run, monkeypatch
):
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
    assert sum(parsed) == 400  # MINI_GEN rows
    # the same bytes give the sidecar gen wrote
    sidecar = datagen.sidecar_path(data).read_bytes()
    assert sidecar == datagen.sidecar_path(mini_run / "train.csv").read_bytes()
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


def test_calibrate_refuses_a_wrong_file_from_its_sidecar_without_a_parse(
    tmp_path, mini_run, monkeypatch, capsys
):
    # the test set's digest refuses it before its sidecars are read, and its
    # rows are counted without a parse to name them, so no line is parsed
    data = mini_run / "test.csv"
    assert datagen.sidecar_path(data).exists()
    parsed = _count_loadtxt_rows(monkeypatch)
    out = tmp_path / "o"
    code = cli.main([
        "calibrate", "--model", str(mini_run / "model_ce.txt"), "--data", str(data),
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data} is not the training data" in err
    assert "50 data rows" in err and "records 400" in err
    assert parsed == []
    assert not out.exists()


def _calibrate(model, data, out, kind="temperature") -> int:
    return cli.main(["calibrate", "--model", str(model), "--data", str(data), "--kind", kind,
                     "--out", str(out)])


def _fitted(path) -> dict:
    """A scaler file's fields, without the config that names its paths."""
    doc = json.loads(path.read_text())
    doc.pop("config")
    return doc


def test_the_three_calibrates_run_the_network_on_the_training_rows_once(
    tmp_path, mini_run, monkeypatch
):
    # the first calibrate writes the outputs sidecar of the model on the
    # training file, and the other two take their validation rows from it
    data, out = tmp_path / "train.csv", tmp_path / "o"
    shutil.copyfile(mini_run / "train.csv", data)
    forwards = _forward_rows(monkeypatch)
    for kind in cli.SCALER_KINDS:
        assert _calibrate(mini_run / "model_ce.txt", data, out, kind) == 0
        assert _fitted(out / f"scaler_{kind}.json") == _fitted(mini_run / f"scaler_{kind}.json")
    assert sum(forwards) == 400  # MINI_GEN rows
    assert [p.name for p in tmp_path.glob("train.csv.*.npz")] == ["train.csv.model_ce.txt.npz"]


def test_a_warm_calibrate_parses_no_weights_and_runs_no_forward_pass(
    tmp_path, mini_run, monkeypatch
):
    data, out = tmp_path / "train.csv", tmp_path / "o"
    shutil.copyfile(mini_run / "train.csv", data)
    assert _calibrate(mini_run / "model_ce.txt", data, out) == 0
    cold = _artifacts(out)
    parses, forwards = _weight_parses(monkeypatch), _forward_rows(monkeypatch)
    assert _calibrate(mini_run / "model_ce.txt", data, out) == 0
    assert parses == [] and forwards == []
    assert _artifacts(out) == cold


@pytest.mark.parametrize("row", ["as written", "malformed"])
def test_calibrate_refuses_a_cold_wrong_file_before_a_parse_or_a_forward_pass(
    tmp_path, mini_run, monkeypatch, capsys, row
):
    # a copy of the test set without sidecars: its sha256 refuses it, and its
    # rows are only counted to name them, so no row is parsed (a malformed
    # one included) and nothing is written beside it
    data, model, out = tmp_path / "test.csv", mini_run / "model_ce.txt", tmp_path / "o"
    lines = (mini_run / "test.csv").read_text().splitlines()
    if row == "malformed":
        lines[5] = "abc," + lines[5].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n")
    parsed, forwards = _count_loadtxt_rows(monkeypatch), _forward_rows(monkeypatch)
    assert _calibrate(model, data, out) == 2
    assert (f"{data} is not the training data of {model}: it has 50 data rows where the "
            "model header records 400, and its sha256 differs") in capsys.readouterr().err
    assert parsed == [] and forwards == []
    assert [p.name for p in tmp_path.iterdir()] == ["test.csv"]


def test_calibrate_refuses_a_model_without_a_validation_split_before_a_forward_pass(
    tmp_path, mini_run, monkeypatch, capsys
):
    # the split comes from the model header's data_rows and val_fraction
    data, out = tmp_path / "train.csv", tmp_path / "o"
    shutil.copyfile(mini_run / "train.csv", data)
    run_cli(["train", "--data", data, "--val-fraction", "0", *MINI_TRAIN, "--out", out])
    parses, forwards = _weight_parses(monkeypatch), _forward_rows(monkeypatch)
    assert _calibrate(out / "model_ce.txt", data, out) == 2
    assert "validation split is empty" in capsys.readouterr().err
    assert parses == [] and forwards == []
    assert list(tmp_path.glob("train.csv.*.npz")) == []
    assert not (out / "scaler_temperature.json").exists()


def test_calibrate_refuses_a_header_whose_data_rows_is_not_its_training_files(
    tmp_path, mini_run, monkeypatch, capsys
):
    # the split is taken from data_rows, so a header that records the file's
    # sha256 but another row count must not fit on other rows
    data, model = tmp_path / "train.csv", tmp_path / "model_ce.txt"
    shutil.copyfile(mini_run / "train.csv", data)
    text = (mini_run / "model_ce.txt").read_text()
    assert "\ndata_rows=400\n" in text
    model.write_text(text.replace("\ndata_rows=400\n", "\ndata_rows=390\n"))
    parses, forwards = _weight_parses(monkeypatch), _forward_rows(monkeypatch)
    assert _calibrate(model, data, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert f"{model}: model header field 'data_rows' is not the 400 data rows of {data}" in err
    assert parses == [] and forwards == []
    assert list(tmp_path.glob("train.csv.*.npz")) == []


@pytest.mark.parametrize("command", ["eval", "calibrate", "train"])
def test_a_header_only_file_is_refused_as_empty_before_a_weight_is_parsed(
    tmp_path, mini_run, monkeypatch, capsys, command
):
    # the scan's row count refuses it; the cold scan keeps the 0-row dataset
    # sidecar it wrote, a valid cache, but no outputs sidecar is written
    data, model, out = tmp_path / "e.csv", tmp_path / "model_ce.txt", tmp_path / "o"
    data.write_text("\n".join((mini_run / "train.csv").read_text().splitlines()[:2]) + "\n")
    # calibrate checks the file's sha256 first, so the header records this one
    text = (mini_run / "model_ce.txt").read_text()
    model.write_text(re.sub(r"(?m)^data_sha256=.*$", f"data_sha256={_sha256(data)}", text))
    parses = _weight_parses(monkeypatch)
    argv = {
        "eval": ["eval", "--model", str(model), "--data", str(data)],
        "calibrate": ["calibrate", "--model", str(model), "--data", str(data)],
        "train": ["train", "--data", str(data)],
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"{data}: dataset is empty" in capsys.readouterr().err
    assert parses == []
    assert [p.name for p in tmp_path.glob("*.npz")] == ["e.csv.npz"]
    assert not out.exists()


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


@pytest.mark.parametrize("m_bins", ["0", "-3", "1000000000000", str(metrics.MAX_BINS + 1)])
def test_eval_checks_m_bins_before_reading_anything(tmp_path, mini_run, monkeypatch, m_bins):
    # m_bins is checked before the model or the dataset is read
    reads = []

    def recording(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            reads.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    recording(datagen, "scan_dataset")
    recording(nn, "read_model")
    out = tmp_path / "o"
    code = cli.main([
        "eval", "--model", str(mini_run / "model_ce.txt"), "--data", str(mini_run / "test.csv"),
        "--m-bins", m_bins, "--out", str(out),
    ])
    assert code == 2
    assert reads == []
    assert not out.exists()


def _forward_rows(monkeypatch) -> list:
    """Patch nn.forward to record the row count of each call."""
    forward, rows = nn.forward, []
    monkeypatch.setattr(nn, "forward", lambda params, x: rows.append(len(x)) or forward(params, x))
    return rows


def test_eval_refuses_a_dataset_of_another_width_before_taking_a_row(
    tmp_path, mini_run, monkeypatch, capsys
):
    # the mini model takes 45 inputs; a 40-feature file is refused, naming
    # both files, before a block reaches the network or an output is written
    data = tmp_path / "narrow.csv"
    config = datagen.SyntheticConfig(n_matches=30, n_features=40, roster_size=20, rng_seed=3)
    datagen.write_dataset(data, *generate_dataset(config), roster_size=20)
    forwards = _forward_rows(monkeypatch)
    model, out = mini_run / "model_ce.txt", tmp_path / "o"
    assert cli.main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{data} has 40 features, but {model} takes 45 inputs" in err
    assert forwards == []
    assert not out.exists()


def test_eval_refuses_a_cold_file_of_another_width_before_a_parse(
    tmp_path, mini_run, monkeypatch, capsys
):
    # the header line gives the width, so a file without a sidecar is
    # refused before its rows are parsed into one
    data = tmp_path / "narrow.csv"
    config = datagen.SyntheticConfig(n_matches=30, n_features=40, roster_size=20, rng_seed=3)
    datagen.write_dataset(data, *generate_dataset(config), roster_size=20)
    datagen.sidecar_path(data).unlink()
    parsed = _count_loadtxt_rows(monkeypatch)
    model, out = mini_run / "model_ce.txt", tmp_path / "o"
    assert cli.main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)]) == 2
    assert f"{data} has 40 features, but {model} takes 45 inputs" in capsys.readouterr().err
    assert parsed == []
    assert [p.name for p in tmp_path.iterdir()] == ["narrow.csv"]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _artifacts(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _eval_argv(mini_run, label, data, out) -> list[str]:
    """The mini pipeline's eval command line of method ``label``, with its
    model and scaler, on ``data`` and into ``out``."""
    evals = [argv for argv in cli.pipeline(mini_run) if argv[0] == "eval"]
    (argv,) = [argv for method, argv in zip(cli.METHODS, evals) if method.label == label]
    argv[argv.index("--data") + 1], argv[argv.index("--out") + 1] = str(data), str(out)
    return argv


def test_cold_and_warm_eval_write_identical_artifacts(tmp_path, mini_run, monkeypatch):
    # a warm eval reads its rows from neither the CSV nor the dataset
    # sidecar: the outputs sidecar holds the network's outputs, the model's
    # probabilities and their text, the labels and p_true, so it runs no
    # forward pass either; each method's cold eval starts without the
    # outputs sidecar, and the first one without the dataset sidecar too
    data = tmp_path / "test.csv"
    shutil.copyfile(mini_run / "test.csv", data)
    assert not datagen.sidecar_path(data).exists()
    parsed, forwards = _count_loadtxt_rows(monkeypatch), _forward_rows(monkeypatch)
    for label in LABELS:
        out = tmp_path / label
        argv = _eval_argv(mini_run, label, data, out)
        cached = datagen.outputs_path(data, argv[2])
        cached.unlink(missing_ok=True)
        forwards.clear()
        assert cli.main(argv) == 0
        assert datagen.sidecar_path(data).exists() and cached.exists()
        assert sum(forwards) == 50
        cold = _artifacts(out)
        # the pipeline's dump, but for the comment line that names --out
        dump = f"predictions_{label}.csv"
        assert (cold[dump].split(b"\n", 1)[1]
                == (mini_run / dump).read_bytes().split(b"\n", 1)[1])
        parsed.clear()
        forwards.clear()
        assert cli.main(argv) == 0
        assert parsed == [] and forwards == []
        assert _artifacts(out) == cold
    assert len(list(tmp_path.glob("test.csv.*.npz"))) == 2  # one per model


def _other_weights(model) -> None:
    params, header = load_model(model)
    params.weights[0][:] = params.weights[0][::-1]
    nn.save_model(params, model, header=header)


def _other_rows(data) -> None:
    config = datagen.SyntheticConfig(n_matches=50, n_features=45, roster_size=20, rng_seed=5)
    datagen.write_dataset(data, *generate_dataset(config), roster_size=20)


def _flipped_byte(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))


def _members(path) -> dict:
    """The bytes of each member of a zip file, by name, in file order."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _arrays(path) -> dict:
    """The arrays of an .npz file, by name."""
    with np.load(path, allow_pickle=False) as arrays:
        return dict(arrays)


@pytest.mark.parametrize("stale", ["model", "data", "truncated", "flipped-byte", "other-key",
                                   "read-only", "text-missing", "text-truncated", "text-damaged",
                                   "parent-layout"])
def test_an_outputs_sidecar_that_does_not_match_is_recomputed(tmp_path, mini_run, monkeypatch,
                                                              stale):
    # the warm eval of a changed model or data file, or of a damaged or
    # foreign outputs sidecar, runs the network again and writes the bytes of
    # an eval that never had an outputs sidecar
    where, out = tmp_path / "data", tmp_path / "o"
    where.mkdir()
    data, model = where / "test.csv", tmp_path / "model_ce.txt"
    shutil.copyfile(mini_run / "test.csv", data)
    shutil.copyfile(mini_run / "model_ce.txt", model)
    argv = ["eval", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == 0
    cached = datagen.outputs_path(data, model)
    if stale == "model":
        _other_weights(model)
    elif stale == "data":
        _other_rows(data)
    elif stale == "truncated":
        cached.write_bytes(cached.read_bytes()[:-200])
    elif stale == "flipped-byte":
        _flipped_byte(cached)
    elif stale == "other-key":
        # the sidecar of the same model on other rows
        other = tmp_path / "other.csv"
        _other_rows(other)
        assert cli.main([*argv[:3], "--data", str(other), "--out", str(tmp_path / "x")]) == 0
        shutil.copyfile(datagen.outputs_path(other, model), cached)
    elif stale == "text-missing":
        # as calibrate writes it: no text member
        arrays = _arrays(cached)
        np.savez(cached, data=arrays["data"], sha256=arrays["sha256"])
    elif stale == "text-truncated":
        # the text member loses its last cell
        members = _members(cached)
        with zipfile.ZipFile(cached, "w") as zf:
            for name, raw in members.items():
                cut = artifacts.FLOAT_TEXT_BYTES if name == "text.npy" else 0
                zf.writestr(name, raw[: len(raw) - cut])
    elif stale == "text-damaged":
        # the last digit of the first cell's text becomes another digit, so
        # only the member's CRC tells
        first = _arrays(cached)["text"][0, 0]
        raw = bytearray(cached.read_bytes())
        raw[raw.find(first) + len(first) - 1] ^= 1
        cached.write_bytes(bytes(raw))
    elif stale == "parent-layout":
        # the raw outputs, label and p_true, keyed by the two files' sha256
        arrays = _arrays(cached)
        np.savez(cached, data=np.delete(arrays["data"], [2, 3], axis=1),
                 sha256=np.array(str(arrays["sha256"]).rsplit(" ", 1)[0]))
    else:
        cached.unlink()
        real_open = open

        def refuse(file, mode="r", *args, **kwargs):
            # only the data file's directory refuses a write
            if "w" in mode and Path(file).parent == where:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(artifacts, "open", refuse, raising=False)
    forwards = _forward_rows(monkeypatch)
    assert cli.main(argv) == 0
    assert sum(forwards) == len(read_dataset(data).y)
    recomputed = _artifacts(out)
    if stale == "read-only":
        assert not cached.exists()
    else:
        forwards.clear()
        assert cli.main(argv) == 0  # the recomputed outputs are kept
        assert forwards == []
        assert _artifacts(out) == recomputed
    for path in where.glob("test.csv.*.npz"):
        path.unlink()
    assert cli.main(argv) == 0
    assert _artifacts(out) == recomputed


def test_a_du_outputs_sidecar_of_another_probability_rule_is_recomputed(
    tmp_path, mini_run, monkeypatch
):
    # the key names the rule that gave the stored probabilities
    data, model = tmp_path / "test.csv", mini_run / "model_du.txt"
    shutil.copyfile(mini_run / "test.csv", data)
    argv = ["eval", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    monkeypatch.setattr(duloss, "EXACT_RULE", "another rule")
    forwards, integrated = _forward_rows(monkeypatch), _integrated_rows(monkeypatch)
    assert cli.main(argv) == 0
    assert sum(forwards) == sum(integrated) == 50
    key = str(_arrays(datagen.outputs_path(data, model))["sha256"])
    assert key.endswith(" another rule")


def _weight_parses(monkeypatch) -> list:
    """Patch nn.ModelFile.params to record the path of each parse."""
    parse, paths = nn.ModelFile.params, []

    def recording(model):
        paths.append(model.path)
        return parse(model)

    monkeypatch.setattr(nn.ModelFile, "params", recording)
    return paths


def test_a_warm_eval_parses_no_model_weights(tmp_path, mini_run, monkeypatch):
    # a hit takes the layer sizes and the density-head flag from the header
    data = tmp_path / "test.csv"
    shutil.copyfile(mini_run / "test.csv", data)
    parses = _weight_parses(monkeypatch)
    for model in ("model_ce.txt", "model_du.txt"):
        argv = ["eval", "--model", str(mini_run / model), "--data", str(data),
                "--out", str(tmp_path / model)]
        assert cli.main(argv) == 0
        assert parses == [str(mini_run / model)]
        cold = _artifacts(tmp_path / model)
        parses.clear()
        assert cli.main(argv) == 0
        assert parses == []
        assert _artifacts(tmp_path / model) == cold


def _formatted_floats(monkeypatch) -> list:
    """Patch artifacts.float_text to record the float count of each call."""
    float_text, counts = artifacts.float_text, []
    monkeypatch.setattr(artifacts, "float_text",
                        lambda values: counts.append(np.size(values)) or float_text(values))
    return counts


def _integrated_rows(monkeypatch) -> list:
    """Patch duloss.expected_probs_exact to record the row count of each call."""
    exact, rows = duloss.expected_probs_exact, []
    monkeypatch.setattr(duloss, "expected_probs_exact",
                        lambda mu, s_raw: rows.append(len(mu)) or exact(mu, s_raw))
    return rows


def test_a_warm_eval_formats_only_a_scalers_probabilities(tmp_path, mini_run, monkeypatch):
    # a miss formats the outputs, the model's probabilities and p_true of
    # each row into the outputs sidecar (5 floats a row for the CE model, 6
    # for the DU model); a warm eval of the model's own probabilities then
    # formats no float, runs no network and no DU integral, and a scaled one
    # formats its p0 and p1
    data = tmp_path / "test.csv"
    shutil.copyfile(mini_run / "test.csv", data)
    formatted, forwards = _formatted_floats(monkeypatch), _forward_rows(monkeypatch)
    integrated = _integrated_rows(monkeypatch)
    cold = {"none": 5 * 50, "temperature": 2 * 50, "vector": 2 * 50, "matrix": 2 * 50,
            "du": 6 * 50}
    for label in LABELS:
        argv = _eval_argv(mini_run, label, data, tmp_path / label)
        assert cli.main(argv) == 0
        assert sum(formatted) == cold[label]
        assert sum(integrated) == (50 if label == "du" else 0)
        formatted.clear()
        forwards.clear()
        integrated.clear()
        assert cli.main(argv) == 0
        assert forwards == [] and integrated == []
        assert sum(formatted) == (2 * 50 if label in cli.SCALER_KINDS else 0)
        formatted.clear()


def test_calibrate_formats_no_float_and_writes_no_text_member(tmp_path, mini_run, monkeypatch):
    data, model, out = tmp_path / "train.csv", mini_run / "model_ce.txt", tmp_path / "o"
    shutil.copyfile(mini_run / "train.csv", data)
    formatted = _formatted_floats(monkeypatch)
    for _ in ("cold", "warm"):
        assert _calibrate(model, data, out) == 0
        assert formatted == []
        assert list(_members(datagen.outputs_path(data, model))) == ["data.npy", "sha256.npy"]


def test_each_predictions_dump_line_is_the_repr_of_its_values(mini_run):
    # the dump's reference: each value formatted by repr, joined by commas,
    # from the outputs and the probabilities of whole-array calls
    for label in LABELS:
        model = nn.read_model(mini_run / ("model_du.txt" if label == "du" else "model_ce.txt"))
        outputs = datagen.model_outputs(model, mini_run / "test.csv")
        logits, s_raw = nn.split_outputs(model, outputs.raw)
        if label == "du":
            probs = duloss.expected_probs_exact(logits, s_raw)
        elif label == "none":
            probs = nn.softmax(logits)
        else:
            scaler = scaling.load_scaler(mini_run / f"scaler_{label}.json")
            probs = nn.softmax(scaling.transform_logits(scaler, logits))
        confidence, predicted = metrics.predict(probs)
        s_text = [""] * len(probs) if s_raw is None else list(map(repr, s_raw.tolist()))
        expected = [
            f"{z0!r},{z1!r},{s},{p0!r},{p1!r},{c!r},{k},{t},{p!r}"
            for (z0, z1), s, (p0, p1), c, k, t, p in zip(
                logits.tolist(), s_text, probs.tolist(), confidence.tolist(), predicted.tolist(),
                outputs.y.tolist(), outputs.p_true.tolist())
        ]
        lines = (mini_run / f"predictions_{label}.csv").read_text().splitlines()
        assert lines[1] == "z0,z1,s_raw,p0,p1,confidence,predicted,true,p_true"
        assert lines[2:] == expected


def test_the_dump_of_a_file_without_p_true_ends_each_line_with_an_empty_cell(tmp_path, mini_run):
    # the outputs sidecar then holds no p_true column and no text of one
    data = tmp_path / "test.csv"
    x, y, _ = read_dataset(mini_run / "test.csv")
    datagen.write_dataset(data, x, y, None, roster_size=20)
    for label in ("none", "vector", "du"):
        out = tmp_path / label
        argv = _eval_argv(mini_run, label, data, out)
        assert cli.main(argv) == 0
        cold = _artifacts(out)
        assert cli.main(argv) == 0
        assert _artifacts(out) == cold
        lines = cold[f"predictions_{label}.csv"].decode().splitlines()[2:]
        with_p_true = (mini_run / f"predictions_{label}.csv").read_text().splitlines()[2:]
        assert lines == [line.rsplit(",", 1)[0] + "," for line in with_p_true]


def test_a_model_rewritten_under_its_name_replaces_its_outputs_sidecar(tmp_path, mini_run):
    # the outputs sidecar is named after the model file, so a retrained
    # model's miss replaces the one its predecessor left
    data, model = tmp_path / "test.csv", tmp_path / "model_ce.txt"
    shutil.copyfile(mini_run / "test.csv", data)
    shutil.copyfile(mini_run / "model_ce.txt", model)
    argv = ["eval", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    _other_weights(model)
    assert cli.main(argv) == 0
    assert [p.name for p in tmp_path.glob("test.csv.*.npz")] == ["test.csv.model_ce.txt.npz"]


def test_an_outputs_miss_on_a_dataset_sidecar_that_fails_part_way_writes_a_clean_miss(
    tmp_path, mini_run, monkeypatch
):
    # a flipped bit in the last row of the dataset sidecar is found by its
    # CRC only after blocks have gone through the network; the scan then
    # parses the CSV and runs the outputs consumer again from its first row
    monkeypatch.setattr(datagen, "BLOCK_ROWS", 7)
    data, model = tmp_path / "test.csv", mini_run / "model_ce.txt"
    shutil.copyfile(mini_run / "test.csv", data)
    argv = ["eval", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    cached, sidecar = datagen.outputs_path(data, model), datagen.sidecar_path(data)
    clean, good = cached.read_bytes(), sidecar.read_bytes()
    cached.unlink()
    with np.load(sidecar, allow_pickle=False) as arrays:
        last = arrays["data"][-1].tobytes()
    raw = bytearray(good)
    raw[raw.find(last) + 8 * 4] ^= 1  # kills_red of the last row, still a valid value
    sidecar.write_bytes(bytes(raw))
    parsed, forwards = _count_loadtxt_rows(monkeypatch), _forward_rows(monkeypatch)
    assert cli.main(argv) == 0
    assert sum(parsed) == 50 and sum(forwards) > 50  # the broken rows went through too
    assert cached.read_bytes() == clean
    assert sidecar.read_bytes() == good


@pytest.mark.parametrize("command, name", [("eval", "test.csv"), ("calibrate", "train.csv")])
def test_a_model_with_non_finite_outputs_is_refused_naming_both_files(
    tmp_path, mini_run, capsys, command, name
):
    # weights scaled by 1e200 overflow the two-layer mini network's outputs;
    # the block is refused before it reaches an outputs sidecar
    data, model, out = tmp_path / name, tmp_path / "model_ce.txt", tmp_path / "o"
    shutil.copyfile(mini_run / name, data)
    params, header = load_model(mini_run / "model_ce.txt")
    for w in params.weights:
        w *= 1e200
    nn.save_model(params, model, header=header)
    capsys.readouterr()
    assert cli.main([command, "--model", str(model), "--data", str(data), "--out", str(out)]) == 2
    assert f"{model} gives non-finite outputs on {data}" in capsys.readouterr().err
    assert list(tmp_path.glob(f"{name}.*.npz")) == [] and not out.exists()


@pytest.mark.parametrize("command, name", [("eval", "test.csv"), ("calibrate", "train.csv")])
def test_a_model_with_three_outputs_exits_3_before_writing_anything(
    tmp_path, mini_run, capsys, command, name
):
    # the mini CE model with a third output column, consistent in every
    # shape: save_model refuses such a network, so its text is edited
    data, model, out = tmp_path / name, tmp_path / "model_ce.txt", tmp_path / "o"
    shutil.copyfile(mini_run / name, data)
    lines = (mini_run / "model_ce.txt").read_text().splitlines()
    lines[lines.index("layer_sizes=45,16,2")] = "layer_sizes=45,16,3"
    w1, b1 = lines.index("param W1 16 2"), lines.index("param b1 2")
    lines[w1], lines[b1] = "param W1 16 3", "param b1 3"
    for row in [*range(w1 + 1, w1 + 17), b1 + 1]:
        lines[row] += " 0.5"
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--model", str(model), "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(model) in err and "'layer_sizes'" in err
    assert list(tmp_path.glob(f"{name}*.npz")) == [] and not out.exists()


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_a_model_with_a_corrupt_weight_exits_3_beside_a_good_models_outputs(
    tmp_path, mini_run, monkeypatch, capsys, value
):
    # the corrupt file's header is intact, and the outputs sidecar of the
    # good model is at the path of the corrupt one, which has its file name:
    # its key is not the corrupt model's, so the weights are parsed and refused
    data, model, out = tmp_path / "test.csv", tmp_path / "model_ce.txt", tmp_path / "o"
    shutil.copyfile(mini_run / "test.csv", data)
    shutil.copyfile(mini_run / "model_ce.txt", model)
    argv = ["eval", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == 0
    good = datagen.outputs_path(data, model)
    lines = model.read_text().splitlines()
    row = lines.index("param W0 45 16") + 1
    lines[row] = " ".join([value] + lines[row].split()[1:])
    model.write_text("\n".join(lines) + "\n")
    shutil.rmtree(out)
    parses = _weight_parses(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert str(model) in capsys.readouterr().err
    assert parses == [str(model)]
    assert good.exists() and not out.exists()


def test_eval_reads_the_forward_row_blocks_and_holds_one_of_them(tmp_path, monkeypatch, capsys):
    # eval hands nn.forward the sidecar's rows one BLOCK_ROWS block at a
    # time, so it holds one block of the file, the block's activations and
    # the outputs
    n = 5 * 4096 + 100
    data = generate_dataset(datagen.SyntheticConfig(
        n_matches=n, n_features=25, roster_size=12, rng_seed=4))
    path = tmp_path / "big.csv"
    datagen.write_dataset(path, *data, roster_size=12)
    params = nn.init_params([25, 8, 2], seed=2)
    blocks = datagen._row_slices(0, n, datagen.BLOCK_ROWS)
    expected = np.concatenate([nn.forward(params, data[0][rows]) for rows in blocks])
    monkeypatch.setattr(datagen, "BLOCK_BYTES", 1 << 16)
    sizes = _forward_rows(monkeypatch)
    nn.save_model(params, tmp_path / "model.txt")
    assert cli.main(["eval", "--model", str(tmp_path / "model.txt"), "--data", str(path),
                     "--out", str(tmp_path / "o")]) == 0
    assert sizes == [rows.stop - rows.start for rows in blocks]
    model = nn.read_model(tmp_path / "model.txt")
    datagen.outputs_path(path, model.path).unlink()  # the eval's; measure a miss
    tracemalloc.start()
    try:
        raw, probs, y, p_true, text = datagen.model_outputs(model, path, text=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.tobytes() == expected.tobytes()
    assert np.array_equal(y, data[1]) and p_true.tobytes() == data[2].tobytes()
    # beside the outputs: the block in the scan's buffer, zipfile's copy of
    # its bytes (two copies for a moment on the first read, which joins them
    # to what is left of the read of the .npy header) and the zip objects
    block_bytes = datagen.BLOCK_ROWS * (25 + 2) * 8
    outputs = raw.nbytes + probs.nbytes + y.nbytes + p_true.nbytes + text.nbytes
    assert peak < 4 * block_bytes + outputs


def test_eval_takes_no_sampling_or_label_settings(tmp_path, mini_run):
    flags = {flag for action in _subparsers()["eval"]._actions for flag in action.option_strings}
    assert flags == {
        "-h", "--help", "--seed", "--config", "--out", "--model", "--data", "--scaler", "--m-bins",
    }
    assert _options("eval") == {"seed", "out", "model", "data", "scaler", "m_bins"}
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


def check_reports_against_prediction_dumps(out: Path) -> None:
    """Check each method's report in the pipeline output ``out`` against its
    own predictions dump: the dump's confidences and predicted labels are
    those of its probabilities, and the report's accuracy, ECE, MCE, NLL,
    truth scores and each bin's count, accuracy and confidence are those a
    plain loop over the dump's rows gives (conftest.ref_metrics)."""
    for label in LABELS:
        doc = load_report(out, label)
        lines = (out / f"predictions_{label}.csv").read_text().splitlines()
        assert lines[1] == "z0,z1,s_raw,p0,p1,confidence,predicted,true,p_true"
        fields = [line.split(",") for line in lines[2:]]
        rows = reference_rows([(float(f[3]), float(f[4])) for f in fields],
                              [int(f[7]) for f in fields])
        assert [r.predicted_label for r in rows] == [int(f[6]) for f in fields]
        assert [r.confidence for r in rows] == [float(f[5]) for f in fields]
        ref = ref_metrics(rows, len(doc["bins"]), [float(f[8]) for f in fields])
        assert doc["n"] == len(rows)
        for key in ("accuracy", "ece", "mce", "nll_sum", "oracle_ece", "true_ece"):
            assert doc[key] == ref[key], (out, label, key)
        assert doc["nll_mean"] == ref["nll_sum"] / len(rows)
        bins = [(b["count"], b["acc"], b["conf"]) for b in doc["bins"]]
        assert bins == ref["bins"], (out, label)


def test_eval_report_recomputable_from_prediction_dump(mini_run, reference_run):
    for out in (mini_run, reference_run):
        check_reports_against_prediction_dumps(out)


def test_eval_rejects_scaler_on_du_model(tmp_path, mini_run):
    proc = run_cli([
        "eval", "--model", mini_run / "model_du.txt", "--data", mini_run / "test.csv",
        "--scaler", mini_run / "scaler_temperature.json", "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("case", ["other-model", "no-digest"])
def test_eval_refuses_a_scaler_not_fitted_on_its_model(tmp_path, mini_run, capsys, case):
    # a scaler fitted on one run's model, or one that does not record its
    # model, is refused naming both files before any row is read
    scaler, model = mini_run / "scaler_temperature.json", mini_run / "model_ce.txt"
    if case == "other-model":
        run_cli(["train", "--data", mini_run / "train.csv", *MINI_TRAIN, "--seed", "12",
                 "--out", tmp_path / "b"])
        model = tmp_path / "b" / "model_ce.txt"
    else:
        doc = json.loads(scaler.read_text())
        del doc["model_sha256"]
        scaler = tmp_path / "scaler_old.json"
        scaler.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = cli.main(["eval", "--model", str(model), "--data", str(mini_run / "test.csv"),
                     "--scaler", str(scaler), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(scaler) in err and str(model) in err
    if case == "other-model":
        assert f"sha256 {_sha256(mini_run / 'model_ce.txt')}, not on {model}" in err
    assert not out.exists()


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
    # json.dumps writes all the digits of an int beyond the float range
    pytest.param("temperature", "T", 10**400, id="temperature-T-beyond-float-range"),
    pytest.param("vector", "w_diag", [10**400, 1], id="vector-w_diag-beyond-float-range"),
    pytest.param("matrix", "b", [0, -10**400], id="matrix-b-beyond-float-range"),
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


@pytest.mark.parametrize("kind, key, value", [
    ("temperature", "T", 1e-320),  # finite and positive, but z / T overflows
    ("matrix", "W", [[1e308, -1e308], [0.0, 1.0]]),
])
def test_eval_refuses_a_scaler_whose_logits_overflow(tmp_path, mini_run, kind, key, value):
    # the scaled logits are refused with both files named, before any
    # artifact is written and with no RuntimeWarning on the way
    doc = json.loads((mini_run / f"scaler_{kind}.json").read_text())
    doc[key] = value
    scaler = tmp_path / "scaler_huge.json"
    scaler.write_text(json.dumps(doc))
    out = tmp_path / "o"
    proc = run_cli([
        "eval", "--model", mini_run / "model_ce.txt", "--data", mini_run / "test.csv",
        "--scaler", scaler, "--out", out,
    ], check=False)
    assert proc.returncode == 2
    assert "scaler_huge.json" in proc.stderr and str(mini_run / "test.csv") in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


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


def test_eval_binary_model_file_is_io_error(tmp_path, mini_run):
    model = tmp_path / "model_ce.txt"
    model.write_bytes(np.random.default_rng(3).bytes(4096))
    proc = run_cli([
        "eval", "--model", model, "--data", mini_run / "test.csv", "--out", tmp_path,
    ], check=False)
    assert proc.returncode == 3
    assert "model_ce.txt" in proc.stderr


def test_an_out_path_with_a_double_dash_gives_well_formed_svgs(tmp_path, mini_run):
    # XML forbids "--" inside a comment, and the SVG's comment embeds the
    # config JSON with its paths; the escape decodes back to the same path
    out = tmp_path / "run--x"
    for scaler in ([], ["--scaler", str(mini_run / "scaler_temperature.json")]):
        assert cli.main([
            "eval", "--model", str(mini_run / "model_ce.txt"),
            "--data", str(mini_run / "test.csv"), *scaler, "--out", str(out),
        ]) == 0
    svgs = sorted(out.glob("*.svg"))
    assert [p.name for p in svgs] == ["reliability_none.svg", "reliability_temperature.svg"]
    for svg in svgs:
        ET.parse(svg)
        comment = re.match(r"<!-- (.*) -->\n", svg.read_text()).group(1)
        assert json.loads(comment.split(" config=", 1)[1])["out"] == str(out)


def test_an_svg_comment_without_a_double_dash_keeps_its_bytes(tmp_path):
    report = metrics.build_report(np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0, 0]), 4)
    comment = 'calibforge v1 eval config={"out": "a-b/-c"}'
    metrics.write_reliability_svg(report, tmp_path / "r.svg", comment=comment)
    expected = f"<!-- {comment} -->\n" + metrics.render_reliability_svg(report)
    assert (tmp_path / "r.svg").read_text() == expected


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
    # the column table renders today's heading and rule
    assert table.splitlines()[1:3] == [
        "Method                 Accuracy[%]   ECE[%]   MCE[%]     NLL", "-" * 60,
    ]


def test_pipeline_parser_and_eval_labels_follow_the_method_table(mini_run):
    # one eval line per row, on model_<loss>.txt through scaler_<kind>.json
    # if the row has a scaler; one calibrate line per scaler kind, and those
    # kinds are --kind's choices; each eval labels its artifacts by its row
    argvs = cli.pipeline("o")
    evals = [argv for argv in argvs if argv[0] == "eval"]
    kinds = [argv[argv.index("--kind") + 1] for argv in argvs if argv[0] == "calibrate"]
    assert len(evals) == len(cli.METHODS)
    for method, argv in zip(cli.METHODS, evals):
        assert argv[argv.index("--model") + 1] == str(Path("o") / f"model_{method.loss}.txt")
        scaler = argv[argv.index("--scaler") + 1] if "--scaler" in argv else None
        assert scaler == (method.scaler and str(Path("o") / f"scaler_{method.scaler}.json"))
    assert kinds == [method.scaler for method in cli.METHODS if method.scaler is not None]
    (kind,) = [a for a in _subparsers()["calibrate"]._actions if a.dest == "kind"]
    assert list(kind.choices) == kinds == list(cli.SCALER_KINDS)
    # each kind's parameters are declared in scaling.PARAMETERS and fitted by fit_<kind>
    assert cli.SCALER_KINDS == tuple(scaling.PARAMETERS)
    assert all(callable(getattr(scaling, f"fit_{kind}", None)) for kind in cli.SCALER_KINDS)
    for method in cli.METHODS:
        report = load_report(mini_run, method.label)
        assert report["method"] == method.label
        assert Path(report["config"]["model"]).name == f"model_{method.loss}.txt"
        scaler = report["config"]["scaler"]
        assert (scaler and Path(scaler).name) == (method.scaler and f"scaler_{method.scaler}.json")
        svg = (mini_run / f"reliability_{method.label}.svg").read_text()
        assert f">reliability: {method.name}</text>" in svg


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
    (lambda doc: {**doc, "bins": 10}, "'bins'"),
    (lambda doc: {**doc, "n": True}, "'n'"),
    (lambda doc: {k: v for k, v in doc.items() if k != "n"}, "'n'"),
    (lambda doc: {**doc, "n": str(doc["n"])}, "'n'"),
    (lambda doc: {**doc, "n": float(doc["n"])}, "'n'"),
    (lambda doc: {**doc, "n": 0}, "'n'"),
    (lambda doc: {**doc, "bins": [1] * len(doc["bins"])}, "'bins'"),
], ids=["missing_key", "json_list", "bins_not_list", "n_bool", "n_missing", "n_string",
        "n_float", "n_zero", "bins_not_objects"])
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
    ("none", "nll_mean", 10**400),  # json.dumps writes its digits; beyond the float range
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


@pytest.mark.parametrize("case", ["other-rows", "other-bins", "other-method"])
def test_compare_refuses_reports_that_do_not_belong_together(tmp_path, mini_run, capsys, case):
    # every report must be the eval of its file's method on the rows of
    # report_none.json, binned the same way; a stray one exits 2 naming it
    src = tmp_path / "reports"
    src.mkdir()
    for label in LABELS:
        shutil.copyfile(mini_run / f"report_{label}.json", src / f"report_{label}.json")
    model_ce, model_du = str(mini_run / "model_ce.txt"), str(mini_run / "model_du.txt")
    evals = {
        # the DU model on the 400 training rows, not the 50 test rows
        "other-rows": (["--model", model_du, "--data", str(mini_run / "train.csv")], "du"),
        "other-bins": (["--model", model_ce, "--data", str(mini_run / "test.csv"),
                        "--scaler", str(mini_run / "scaler_vector.json"), "--m-bins", "15"],
                       "vector"),
    }
    if case == "other-method":
        stray = src / "report_du.json"
        shutil.copyfile(src / "report_none.json", stray)
    else:
        flags, label = evals[case]
        assert cli.main(["eval", *flags, "--out", str(tmp_path / "e")]) == 0
        stray = src / f"report_{label}.json"
        shutil.copyfile(tmp_path / "e" / f"report_{label}.json", stray)
    capsys.readouterr()
    out = tmp_path / "o"
    assert cli.main(["compare", "--dir", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(stray) in err
    if case == "other-method":
        assert "method 'none', not 'du'" in err
    else:
        assert str(src / "report_none.json") in err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000, b"[]"],
                         ids=["not-utf8", "deeply-nested", "json-list"])
@pytest.mark.parametrize("role", ["config", "report"])
def test_a_json_input_that_is_not_a_utf8_object_exits_3_naming_it(
    tmp_path, mini_run, capsys, role, content
):
    # a config file and a compare input go through one reader: a file that
    # cannot be read as a JSON object is a file-format error naming the file
    out = tmp_path / "o"
    if role == "config":
        bad = tmp_path / "cfg.json"
        argv = ["gen", "--config", str(bad), "--out", str(out)]
    else:
        src = tmp_path / "reports"
        src.mkdir()
        for label in LABELS:
            shutil.copyfile(mini_run / f"report_{label}.json", src / f"report_{label}.json")
        bad = src / "report_du.json"
        argv = ["compare", "--dir", str(src), "--out", str(out)]
    bad.write_bytes(content)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.count(str(bad)) == 1
    assert "Traceback" not in err
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


def test_readme_commands_use_only_parser_options():
    # every flag of a `calibforge <command>` line in the README's code blocks
    # must be an option of that command; continuation lines are joined first
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    subparsers = _subparsers()
    seen = set()
    for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
        match = re.search(r"\bcalibforge\s+(\S+)(.*)", line.split("#")[0])
        if match is None:
            continue
        command, rest = match.groups()
        assert command in subparsers, line
        options = {
            flag for action in subparsers[command]._actions for flag in action.option_strings
        }
        for flag in re.findall(r"(?<!\S)(--[\w-]+)", rest):
            assert flag in options, f"README: {command} has no {flag}: {line.strip()}"
        seen.add(command)
    assert seen == set(cli.HANDLERS)


def test_readme_reference_run_is_cli_pipeline():
    # the README's reference block is the literal rendering of
    # cli.pipeline("$OUT"), one command line per argv, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```bash\n(OUT=runs/ref\n.*?)^```", readme, flags=re.M | re.S)
    lines = [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()]
    assert lines == ["OUT=runs/ref"] + [
        "calibforge " + " ".join(argv) for argv in cli.pipeline("$OUT")
    ]
