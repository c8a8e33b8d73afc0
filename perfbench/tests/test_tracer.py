"""Tests of the benchmark's tracer and layer wrapping.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer, percentile, samples_beyond  # noqa: E402


class StepClock:
    """Advances one unit per reading, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_module():
    mod = types.ModuleType("fake")

    def leaf():
        return 1

    def inner():
        return mod.leaf() + mod.leaf()

    def outer():
        return mod.inner() + mod.inner() + mod.leaf()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_self_times_partition_the_traced_total():
    mod = make_module()
    tr = Tracer(clock=StepClock())
    for name in ("outer", "inner", "leaf"):
        assert tr.wrap(mod, name, f"fake.{name}")
    assert mod.outer() == 5
    mod.outer()
    tr.restore()

    own = tr.self_times()
    assert sum(own) == tr.root_total()
    summary = tr.summary()
    assert summary["fake.outer"]["calls"] == 2
    assert summary["fake.inner"]["calls"] == 4
    assert summary["fake.leaf"]["calls"] == 10
    # every leaf span reads the clock twice in a row, so lasts one tick
    assert summary["fake.leaf"]["self_s"] == 10.0
    assert all(v >= 0 for v in own)


def test_partition_holds_with_the_real_clock():
    mod = make_module()
    tr = Tracer()
    for name in ("outer", "inner", "leaf"):
        tr.wrap(mod, name, f"fake.{name}")
    for _ in range(50):
        mod.outer()
    tr.restore()
    assert math.isclose(sum(tr.self_times()), tr.root_total(), rel_tol=1e-9, abs_tol=1e-12)


def test_absent_name_is_reported_not_raised(tmp_path):
    mod = make_module()
    tr = Tracer()
    assert not tr.wrap(mod, "removed_function", "fake.removed_function")
    assert not tr.wrap({}, "gone", "cli.gone")
    assert tr.absent == ["fake.removed_function", "cli.gone"]

    package = types.SimpleNamespace(cli=types.SimpleNamespace(HANDLERS={}))
    tr = Tracer()
    layers.install(tr, package)  # no layer module exists at all
    metrics, details = layers.layer_metrics(tr, tmp_path)
    assert len(details["absent"]) == len(layers.WRAPPED) + len(layers.COMMANDS)
    assert metrics["nn.backward.calls"] == (0, "count")
    assert metrics["datagen.to_arrays.self_s"] == (0, "s")


def test_restore_puts_back_dict_and_module_bindings():
    mod = make_module()
    original = mod.leaf
    table = {"run": original}
    tr = Tracer()
    tr.wrap(mod, "leaf", "fake.leaf")
    tr.wrap(table, "run", "cli.run")
    assert mod.leaf is not original and table["run"] is not original
    table["run"]()
    assert [s[0] for s in tr.spans] == ["cli.run"]
    tr.restore()
    assert mod.leaf is original and table["run"] is original


def test_install_reaches_handlers_and_by_name_bindings():
    import calibforge
    import calibforge.cli  # noqa: F401  (loads every layer module)
    from calibforge import cli, nn, scaling

    handler, adam_nn, adam_scaling = cli.HANDLERS["eval"], nn.adam_step, scaling.adam_step
    tr = Tracer()
    layers.install(tr, calibforge)
    try:
        assert cli.HANDLERS["eval"] is not handler
        assert nn.adam_step is not adam_nn
        assert scaling.adam_step is not adam_scaling
        # each binding gets its own span name
        assert scaling.adam_step is not nn.adam_step
    finally:
        tr.restore()
    assert cli.HANDLERS["eval"] is handler
    assert nn.adam_step is adam_nn and scaling.adam_step is adam_scaling


def test_traced_mini_pipeline(tmp_path):
    import calibforge
    from calibforge import cli

    out = str(tmp_path)
    tr = Tracer()
    layers.install(tr, calibforge)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "--n", "200", "--n-features", "45", "--roster-size", "20",
                             "--out", out]) == 0
            assert cli.main(["train", "--data", f"{out}/train.csv", "--epochs", "2",
                             "--hidden", "8", "--batch-size", "64", "--out", out]) == 0
    finally:
        tr.restore()
    metrics, details = layers.layer_metrics(tr, tmp_path)
    assert details["absent"] == []
    assert metrics["nn.backward.calls"][0] == 2 * math.ceil(180 / 64)
    assert metrics["nn.forward.train_acc_rows"][0] == 2 * 180
    assert metrics["datagen.read_dataset.calls"][0] == 1
    assert metrics["datagen.parse_useful_ratio"][0] == 1.0
    assert math.isclose(sum(tr.self_times()), tr.root_total(), rel_tol=1e-9)
    roots = {s[0] for s in tr.spans if s[3] < 0}
    assert roots == {"cli.gen", "cli.train"}


@pytest.mark.parametrize("n,q,expected", [(100, 50, 50), (720, 98, 14), (160, 98, 3)])
def test_samples_beyond(n, q, expected):
    assert samples_beyond(n, q) == expected
    values = list(range(n))
    assert sum(1 for v in values if v > percentile(values, q)) == expected
