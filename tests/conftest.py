"""Shared fixtures: a small end-to-end CLI pipeline and the full
seed-42 reference run used by the acceptance criteria. Both run the 12
command lines of ``cli.pipeline``, each as its own process."""

import json
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from calibforge import cli

# Reference run: seed 42, 20000 train / 2500 test, F=295, M=10.
# Training uses the published protocol (Adam, lr 1e-4, 20 epochs,
# [295, 256, 256, 2]); batch size 1024 and K=8 MC draws
# (cli.REFERENCE_TRAIN) are the pinned reference knobs for the desk-scale
# dataset.
REFERENCE_SEED = 42


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
    for argv in cli.pipeline(out, REFERENCE_SEED):
        run_cli(argv)


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


MINI_GEN = ["--n", "400", "--n-features", "45", "--roster-size", "20"]
MINI_TRAIN = ["--epochs", "2", "--hidden", "16"]


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory):
    """A tiny but complete pipeline for fast CLI-surface tests."""
    out = tmp_path_factory.mktemp("mini")
    train_flags = {"ce": MINI_TRAIN, "du": ["--k", "8", *MINI_TRAIN]}
    for argv in cli.pipeline(out, 11, MINI_GEN, train_flags):
        run_cli(argv)
    return out
