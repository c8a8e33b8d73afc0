"""Which calibforge functions the traced run wraps, and the per-layer
metrics derived from its spans and counts.

Only public, per-call or per-batch functions are wrapped. Per-row helpers
such as ``metrics.PredictionRecord.from_probs`` stay unwrapped: their cost
lands in the self time of the command handler that loops over rows
(``cli.eval.self_s``). A function that a later version deletes or renames is
reported as absent and its metrics read 0.
"""

from __future__ import annotations

import os
from pathlib import Path

from tracer import Tracer, percentile, samples_beyond

MB = 1e6
COMMANDS = ("gen", "train", "calibrate", "eval", "compare")

# (module, function) pairs whose span name is "module.function"
WRAPPED = [
    ("datagen", "generate_dataset"),
    ("datagen", "write_dataset"),
    ("datagen", "read_dataset"),
    ("datagen", "split"),
    ("datagen", "to_arrays"),
    ("datagen", "oracle_confidences"),
    ("datagen", "oracle_ece"),
    ("nn", "train"),
    ("nn", "forward"),
    ("nn", "backward"),
    ("nn", "adam_step"),
    ("nn", "save_model"),
    ("nn", "load_model"),
    ("nn", "write_training_log"),
    ("duloss", "draw_noise_batch"),
    ("duloss", "batch_losses_and_grads"),
    ("duloss", "expected_probs_batch"),
    ("scaling", "fit_temperature"),
    ("scaling", "fit_vector"),
    ("scaling", "fit_matrix"),
    # scaling binds nn.adam_step by name at import, so this is its own binding
    ("scaling", "adam_step"),
    ("scaling", "save_scaler"),
    ("scaling", "load_scaler"),
    ("metrics", "build_report"),
    ("metrics", "write_report_json"),
    ("metrics", "write_reliability_csv"),
    ("metrics", "write_reliability_svg"),
]

METRIC_WRITERS = ("metrics.write_report_json", "metrics.write_reliability_csv",
                  "metrics.write_reliability_svg")


def _weights_per_row(params) -> int:
    return sum(int(w.size) for w in params.weights)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _on_read(tr: Tracer, args, kwargs, result) -> None:
    path = os.path.realpath(args[0])
    size = os.path.getsize(path)
    tr.count("csv_bytes_parsed", size)
    tr.track_max("csv_size:" + path, size)


def _on_write(tr: Tracer, args, kwargs, result) -> None:
    tr.count("csv_bytes_written", os.path.getsize(args[0]))


def _on_forward(tr: Tracer, args, kwargs, result) -> None:
    rows = _rows(args[1])
    tr.count("forward_rows", rows)
    tr.count("flop", 2 * rows * _weights_per_row(args[0]))
    if tr.inside("nn.train"):
        tr.count("train_acc_rows", rows)


def _on_backward(tr: Tracer, args, kwargs, result) -> None:
    # forward, weight gradient and input gradient: three matmuls per layer
    tr.count("flop", 6 * _rows(args[1]) * _weights_per_row(args[0]))


def _on_save_model(tr: Tracer, args, kwargs, result) -> None:
    tr.count("model_bytes", os.path.getsize(args[1]))


def _on_noise(tr: Tracer, args, kwargs, result) -> None:
    if tr.current_root() == "cli.eval":
        tr.count("eval_mc_draws", int(result.shape[0]) * int(result.shape[1]))
        tr.track_max("eval_block_bytes", float(result.nbytes))


def _on_report(tr: Tracer, args, kwargs, result) -> None:
    tr.count("report_records", len(args[0]))


HOOKS = {
    "datagen.read_dataset": _on_read,
    "datagen.write_dataset": _on_write,
    "nn.forward": _on_forward,
    "nn.backward": _on_backward,
    "nn.save_model": _on_save_model,
    "duloss.draw_noise_batch": _on_noise,
    "metrics.build_report": _on_report,
}


def install(tracer: Tracer, package) -> None:
    """Wrap the layer functions of an imported calibforge package and the
    entries of its command table (which holds direct function references)."""
    for module_name, fn_name in WRAPPED:
        module = getattr(package, module_name, None)
        name = f"{module_name}.{fn_name}"
        if module is None:
            tracer.absent.append(name)
            continue
        tracer.wrap(module, fn_name, name, HOOKS.get(name))
    handlers = getattr(package.cli, "HANDLERS", {})
    for command in COMMANDS:
        tracer.wrap(handlers, command, f"cli.{command}")


def calib_log_iters(out_dir: Path) -> dict[str, int]:
    """Iterations each scaler fit logged: data rows of calib_log_<kind>.csv."""
    iters = {}
    for kind in ("temperature", "vector", "matrix"):
        path = out_dir / f"calib_log_{kind}.csv"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            iters[kind] = 0
            continue
        iters[kind] = sum(1 for line in lines[1:] if line)
    return iters


def layer_metrics(tracer: Tracer, out_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and details that are not
    metrics: absent names, per-call sample counts, per-stage coverage."""
    summary = tracer.summary()
    by_root = tracer.self_by_root()

    def self_s(*names):
        return sum(summary[n]["self_s"] for n in names if n in summary)

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    m: dict[str, tuple[float, str]] = {}
    counts, maxima = tracer.counts, tracer.maxima

    parsed = counts["csv_bytes_parsed"]
    distinct = sum(v for k, v in maxima.items() if k.startswith("csv_size:"))
    m["datagen.read_dataset.self_s"] = (self_s("datagen.read_dataset"), "s")
    m["datagen.read_dataset.calls"] = (calls("datagen.read_dataset"), "count")
    m["datagen.read_dataset.mb"] = (parsed / MB, "MB")
    m["datagen.parse_useful_ratio"] = (distinct / parsed if parsed else 0.0, "ratio")
    m["datagen.write_dataset.self_s"] = (self_s("datagen.write_dataset"), "s")
    m["datagen.write_dataset.mb"] = (counts["csv_bytes_written"] / MB, "MB")
    m["datagen.generate_dataset.self_s"] = (self_s("datagen.generate_dataset"), "s")
    m["datagen.split.self_s"] = (self_s("datagen.split"), "s")
    m["datagen.to_arrays.self_s"] = (self_s("datagen.to_arrays"), "s")
    m["datagen.oracle.self_s"] = (self_s("datagen.oracle_confidences", "datagen.oracle_ece"), "s")

    back = summary.get("nn.backward", {"durations": []})["durations"]
    m["nn.backward.self_s"] = (self_s("nn.backward"), "s")
    m["nn.backward.calls"] = (calls("nn.backward"), "count")
    m["nn.backward.p50_ms"] = (1e3 * percentile(back, 50) if back else 0.0, "ms")
    m["nn.backward.p98_ms"] = (1e3 * percentile(back, 98) if back else 0.0, "ms")
    m["nn.adam_step.self_s"] = (self_s("nn.adam_step"), "s")
    m["nn.adam_step.calls"] = (calls("nn.adam_step"), "count")
    m["nn.train.self_s"] = (self_s("nn.train"), "s")
    m["nn.forward.self_s"] = (self_s("nn.forward"), "s")
    m["nn.forward.rows"] = (counts["forward_rows"], "count")
    m["nn.forward.train_acc_rows"] = (counts["train_acc_rows"], "count")
    gflop = counts["flop"] / 1e9
    matmul_s = self_s("nn.forward", "nn.backward")
    m["nn.gflop"] = (gflop, "GFLOP")
    m["nn.gflop_per_s"] = (gflop / matmul_s if matmul_s else 0.0, "GFLOP/s")
    m["nn.load_model.self_s"] = (self_s("nn.load_model"), "s")
    m["nn.load_model.calls"] = (calls("nn.load_model"), "count")
    m["nn.save_model.self_s"] = (self_s("nn.save_model"), "s")
    saved = calls("nn.save_model")
    m["nn.model_mb"] = (counts["model_bytes"] / saved / MB if saved else 0.0, "MB")

    m["duloss.batch_losses_and_grads.self_s"] = (self_s("duloss.batch_losses_and_grads"), "s")
    m["duloss.draw_noise_batch.self_s"] = (self_s("duloss.draw_noise_batch"), "s")
    m["duloss.expected_probs_batch.self_s"] = (self_s("duloss.expected_probs_batch"), "s")
    m["duloss.mc_draws"] = (counts["eval_mc_draws"], "count")
    m["duloss.eval_block_mb"] = (maxima.get("eval_block_bytes", 0.0) / MB, "MB")

    for kind in ("temperature", "vector", "matrix"):
        m[f"scaling.fit_{kind}.self_s"] = (self_s(f"scaling.fit_{kind}"), "s")
    for kind, n in calib_log_iters(out_dir).items():
        m[f"scaling.iters.{kind}"] = (n, "count")
    m["scaling.adam_step.self_s"] = (self_s("scaling.adam_step"), "s")
    m["scaling.adam_step.calls"] = (calls("scaling.adam_step"), "count")

    m["metrics.build_report.self_s"] = (self_s("metrics.build_report"), "s")
    m["metrics.records"] = (counts["report_records"], "count")
    m["metrics.write.self_s"] = (self_s(*METRIC_WRITERS), "s")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (self_s(f"cli.{command}"), "s")

    # share of each stage's traced time that named layer self times explain
    def share(root, names):
        total = summary.get(f"cli.{root}", {"total_s": 0.0})["total_s"]
        covered = sum(v for (r, n), v in by_root.items() if r == f"cli.{root}" and n in names)
        return covered / total if total else 0.0

    nn_names = {n for n in summary if n.startswith("nn.")}
    eval_names = {"datagen.read_dataset", "duloss.expected_probs_batch",
                  "duloss.draw_noise_batch", "metrics.build_report", "cli.eval",
                  *METRIC_WRITERS}
    m["cover.train.nn_share"] = (share("train", nn_names), "ratio")
    m["cover.eval.named_share"] = (share("eval", eval_names), "ratio")

    details = {
        "absent": list(tracer.absent),
        "hook_errors": dict(tracer.hook_errors),
        "nn.backward.samples": len(back),
        "nn.backward.p98_samples_beyond": samples_beyond(len(back), 98) if back else 0,
        "stage_total_s": {
            c: summary[f"cli.{c}"]["total_s"] for c in COMMANDS if f"cli.{c}" in summary
        },
    }
    return m, details
