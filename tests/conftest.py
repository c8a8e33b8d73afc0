"""Shared fixtures: a small end-to-end CLI pipeline and the full
seed-42 reference run used by the acceptance criteria."""

import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

# Reference run: seed 42, 20000 train / 2500 test, F=295, M=10.
# Training uses the published protocol (Adam, lr 1e-4, 20 epochs,
# [295, 256, 256, 2]); batch size 1024 and K=8 MC draws are the pinned
# reference knobs for the desk-scale dataset.
REFERENCE_SEED = 42
REFERENCE_TRAIN = ["--batch-size", "1024"]
REFERENCE_TRAIN_DU = ["--batch-size", "1024", "--k", "8"]


Row = namedtuple("Row", "confidence predicted_label true_label prob_vector")


def reference_rows(probs, labels):
    """Per-row view of a prediction set for the loop-based reference
    metrics: confidence is the larger probability and argmax ties go to
    class 0."""
    rows = []
    for (p0, p1), t in zip(np.asarray(probs).tolist(), np.asarray(labels).tolist()):
        rows.append(Row(max(p0, p1), 0 if p0 >= p1 else 1, int(t), (p0, p1)))
    return rows


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "calibforge", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"calibforge {' '.join(map(str, args))} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc


def run_reference_pipeline(out: Path) -> None:
    seed = ["--seed", str(REFERENCE_SEED)]
    outf = ["--out", str(out)]
    run_cli(["gen", *seed, *outf])
    train_csv = out / "train.csv"
    test_csv = out / "test.csv"
    run_cli(["train", "--data", train_csv, "--loss", "ce", *REFERENCE_TRAIN, *seed, *outf])
    run_cli(["train", "--data", train_csv, "--loss", "du", *REFERENCE_TRAIN_DU, *seed, *outf])
    model_ce = out / "model_ce.txt"
    for kind in ("temperature", "vector", "matrix"):
        run_cli(["calibrate", "--model", model_ce, "--data", train_csv, "--kind", kind, *seed, *outf])
    run_cli(["eval", "--model", model_ce, "--data", test_csv, *seed, *outf])
    for kind in ("temperature", "vector", "matrix"):
        run_cli([
            "eval", "--model", model_ce, "--data", test_csv,
            "--scaler", out / f"scaler_{kind}.json", *seed, *outf,
        ])
    run_cli(["eval", "--model", out / "model_du.txt", "--data", test_csv, *seed, *outf])
    run_cli(["compare", *seed, *outf])


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    import time

    out = tmp_path_factory.mktemp("reference")
    start = time.perf_counter()
    run_reference_pipeline(out)
    elapsed = time.perf_counter() - start
    (out / "pipeline_meta.json").write_text(
        json.dumps({"elapsed_s": elapsed}) + "\n"
    )
    return out


def load_report(out: Path, label: str) -> dict:
    with open(out / f"report_{label}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


MINI_GEN = [
    "--n", "400", "--n-features", "45", "--roster-size", "20",
    "--seed", "11",
]
MINI_TRAIN = ["--epochs", "2", "--hidden", "16", "--seed", "11"]


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory):
    """A tiny but complete pipeline for fast CLI-surface tests."""
    out = tmp_path_factory.mktemp("mini")
    outf = ["--out", str(out)]
    run_cli(["gen", *MINI_GEN, *outf])
    train_csv = out / "train.csv"
    test_csv = out / "test.csv"
    run_cli(["train", "--data", train_csv, "--loss", "ce", *MINI_TRAIN, *outf])
    run_cli(["train", "--data", train_csv, "--loss", "du", "--k", "8", *MINI_TRAIN, *outf])
    for kind in ("temperature", "vector", "matrix"):
        run_cli([
            "calibrate", "--model", out / "model_ce.txt", "--data", train_csv,
            "--kind", kind, "--max-iters", "300", *outf,
        ])
    run_cli(["eval", "--model", out / "model_ce.txt", "--data", test_csv, "--seed", "11", *outf])
    for kind in ("temperature", "vector", "matrix"):
        run_cli([
            "eval", "--model", out / "model_ce.txt", "--data", test_csv,
            "--scaler", out / f"scaler_{kind}.json", "--seed", "11", *outf,
        ])
    run_cli(["eval", "--model", out / "model_du.txt", "--data", test_csv, "--seed", "11", *outf])
    return out
