"""Shared fixtures: a small end-to-end CLI pipeline and the full
seed-42 reference run used by the acceptance criteria. Both run the 12
command lines of ``cli.pipeline``, each as its own process. Also the
whole-array helpers the tests build their data with, over the block-wise
library calls the commands use, and the loop-based reference metrics that
reports are checked against."""

import functools
import json
import math
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from calibforge import cli, datagen, nn

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


def ref_bin_of(conf, m):
    # right-closed bins ((j-1)/m, j/m]; confidence 0 falls into bin 1
    for j in range(1, m + 1):
        if conf <= j / m:
            return j
    return m


def ref_metrics(records, m, p_true=None):
    """A prediction set's report fields, by plain loops over its rows
    straight from the definitions: accuracy, ece, mce, nll_sum and the
    (count, accuracy, mean confidence) of each of the m bins, None for an
    empty bin's statistics. With the (n,) true probabilities of class 1 it
    also holds oracle_ece, the mean |confidence - truth of the predicted
    class|, and true_ece, the ECE with that truth in place of each row's
    0/1 hit."""
    n = len(records)
    members = {j: [] for j in range(1, m + 1)}
    truth = [None] * n if p_true is None else [
        p if r.predicted_label == 1 else 1.0 - p for r, p in zip(records, p_true)
    ]
    for r, t in zip(records, truth):
        members[ref_bin_of(r.confidence, m)].append((r, t))
    ece = true_ece = 0.0
    gaps, bins = [], []
    for j in range(1, m + 1):
        group = members[j]
        if not group:
            bins.append((0, None, None))
            continue
        acc = sum(1 for r, _ in group if r.predicted_label == r.true_label) / len(group)
        conf = sum(r.confidence for r, _ in group) / len(group)
        bins.append((len(group), acc, conf))
        ece += (len(group) / n) * abs(acc - conf)
        gaps.append(abs(acc - conf))
        if p_true is not None:
            true_acc = sum(t for _, t in group) / len(group)
            true_ece += (len(group) / n) * abs(true_acc - conf)
    ref = {
        "accuracy": sum(1 for r in records if r.predicted_label == r.true_label) / n,
        "ece": ece,
        "mce": max(gaps),
        "nll_sum": -sum(math.log(max(r.prob_vector[r.true_label], 1e-12)) for r in records),
        "bins": bins,
    }
    if p_true is not None:
        ref["oracle_ece"] = sum(abs(r.confidence - t) for r, t in zip(records, truth)) / n
        ref["true_ece"] = true_ece
    return ref


def generate_dataset(config):
    """A seeded dataset as (x, y, p_true) arrays: (n, F) float features,
    (n,) 0/1 labels and (n,) win probabilities of label 1, the values of
    ``datagen.GeneratedDataset(config)``, whose feature blocks are copied
    into one (n, F) matrix as they are made."""
    data = datagen.GeneratedDataset(config)
    x = np.empty((config.n_matches, config.n_features))
    start = 0
    for block in data.features(config.n_matches):
        x[start : start + len(block)] = block
        start += len(block)
    return x, data.y, data.p_true


def read_dataset(path, rows=None) -> datagen.Dataset:
    """A dataset file's (x, y, p_true) arrays: a scan that takes the rows
    the index array ``rows`` selects, in its order (every row when None), so
    ``read_dataset(path, rows=idx)`` equals ``read_dataset(path)`` indexed
    by ``idx``."""
    return datagen.scan_dataset(path, functools.partial(datagen.take_rows, rows=rows))


def read_dataset_info(path, rows=None, features=np.empty):
    """``(info, data)``: the scan's DatasetInfo beside the Dataset of
    ``take_rows(info, blocks, rows, features)``."""
    return datagen.scan_dataset(
        path, lambda info, blocks: (info, datagen.take_rows(info, blocks, rows, features))
    )


def load_model(path):
    """A model file's parameters and header: ``nn.read_model(path)``'s
    weight parse and header dict."""
    model = nn.read_model(path)
    return model.params(), model.header


def mean_nll(logits, labels) -> float:
    """Mean negative log-likelihood of labels under softmax(logits), the
    reference the scaler tests score fits with.

    Computed in the log domain (softplus of the signed logit margin), so it
    stays finite for arbitrarily large logits.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    rows = np.arange(len(labels))
    margin = logits[rows, labels] - logits[rows, 1 - labels]
    return float(np.mean(np.logaddexp(0.0, -margin)))


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
