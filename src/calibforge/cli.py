"""Command-line pipeline: gen, train, calibrate, eval, compare.

Each command resolves its configuration from the defaults of its flags in
``build_parser``, then an optional JSON config file (--config), then
explicit flags, rejects unknown keys, echoes the resolved result, and
embeds it together with the tool version in every artifact it writes.
Commands are deterministic given identical inputs and seed.

The comparison is declared once: ``METHODS`` holds its rows and ``COLUMNS``
its columns. ``pipeline``'s 12 command lines, calibrate's ``--kind`` choices,
eval's report label and compare's checks and table all follow from them, so
a new method or score is one entry.

Exit codes: 0 success, 2 configuration error (among them sizes whose arrays
cannot be allocated, a ``MemoryError``), 3 I/O or file-format error (among
them a config file that is not a UTF-8 JSON object), 4 missing dependency
artifact.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__, artifacts, datagen, duloss, metrics, nn, scaling
from .artifacts import FLOAT_TEXT_BYTES, FormatError, read_json_object, replacing, write_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISSING = 4

# a comparison row: report_<label>.json, the eval of model_<loss>.txt through
# scaler_<scaler>.json if set, tabulated under its name
Method = namedtuple("Method", ["label", "name", "loss", "scaler"])
# a comparison column: a report key under its heading, shown as scale times the
# value with decimals places in width characters; compare admits [0, upper]
Column = namedtuple("Column", ["key", "heading", "width", "scale", "decimals", "upper"])
METHODS = (
    Method("none", "No calibration", "ce", None),
    Method("temperature", "Temperature scaling", "ce", "temperature"),
    Method("vector", "Vector scaling", "ce", "vector"),
    Method("matrix", "Matrix scaling", "ce", "matrix"),
    Method("du", "DU loss", "du", None),
)
COLUMNS = (
    Column("accuracy", "Accuracy[%]", 12, 100.0, 2, 1),
    Column("ece", "ECE[%]", 9, 100.0, 2, 1),
    Column("mce", "MCE[%]", 9, 100.0, 2, 1),
    Column("nll_mean", "NLL", 8, 1.0, 3, math.inf),
)
SCALER_KINDS = tuple(method.scaler for method in METHODS if method.scaler is not None)
# the reference run's train flags beyond the parser defaults, per loss
REFERENCE_TRAIN = {"ce": ("--batch-size", "1024"), "du": ("--batch-size", "1024", "--k", "8")}
# every command's --seed default, and so the reference run's seed
DEFAULT_SEED = 42
# gen's generator options: SyntheticConfig's fields but the row count and seed
GEN_FIELDS = [field for field in dataclasses.fields(datagen.SyntheticConfig)
              if field.name not in ("n_matches", "rng_seed")]


def pipeline(out, seed=DEFAULT_SEED, gen_flags=(), train_flags=REFERENCE_TRAIN) -> list[list[str]]:
    """The argv of each of the 12 commands behind the five-method table, in
    order: gen, train ce and du, a calibrate per scaler, an eval per method,
    compare. Every command gets ``--seed seed --out out``; with the defaults
    this is the reference run."""
    common = ["--seed", str(seed), "--out", str(out)]

    def path(name):
        return str(Path(out) / name)

    train, test = path("train.csv"), path("test.csv")
    argvs = [["gen", *gen_flags, *common]]
    for loss in dict.fromkeys(method.loss for method in METHODS):
        argvs.append(["train", "--data", train, "--loss", loss, *train_flags[loss], *common])
    scaled = [method for method in METHODS if method.scaler is not None]
    for method in scaled:
        argvs.append(["calibrate", "--model", path(f"model_{method.loss}.txt"), "--data", train,
                      "--kind", method.scaler, *common])
    for method in METHODS:
        scaler = ["--scaler", path(f"scaler_{method.scaler}.json")] if method.scaler else []
        argvs.append(["eval", "--model", path(f"model_{method.loss}.txt"), "--data", test,
                      *scaler, *common])
    argvs.append(["compare", *common])
    return argvs


class MissingArtifactError(Exception):
    """A compare input produced by an earlier pipeline stage is absent."""


def build_parser() -> argparse.ArgumentParser:
    """Every option's flag, type and choices. A library setting's default is
    the library's: gen's generator options are ``datagen.SyntheticConfig``'s
    fields, train's defaults ``nn.TrainConfig``'s (``--hidden`` its
    ``hidden``) and eval's ``metrics.DEFAULT_BINS``. The subcommands share
    the ``common`` actions, so the ``set_defaults`` of a config file reaches
    every subcommand of this parser; build a fresh one per command line."""
    parser = argparse.ArgumentParser(
        prog="calibforge",
        description="Train, calibrate and measure a binary win predictor.",
    )
    parser.add_argument("--version", action="version", version=f"calibforge {__version__}")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="top-level RNG seed")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", type=str, default="out", help="output directory")

    p = sub.add_parser("gen", parents=[common], help="generate synthetic datasets")
    p.add_argument("--n", type=int, default=None,
                   help="train rows, test rows n // 8 (at least 1); overrides --n-train/--n-test")
    p.add_argument("--n-train", dest="n_train", type=int, default=20000)
    p.add_argument("--n-test", dest="n_test", type=int, default=2500)
    for field in GEN_FIELDS:
        p.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                       type=type(field.default), default=field.default)

    train = nn.TrainConfig()
    p = sub.add_parser("train", parents=[common], help="train a win predictor")
    p.add_argument("--data", type=str, default=None, help="training dataset CSV")
    p.add_argument("--loss", type=str, default=train.loss_kind, choices=["ce", "du"])
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--lr", type=float, default=train.learning_rate)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=train.batch_size)
    p.add_argument("--k", type=int, default=train.k_train, help="MC draws per sample (du loss)")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.1)
    p.add_argument("--hidden", type=str, default=",".join(map(str, train.hidden)),
                   help="hidden sizes, e.g. 256,256")

    p = sub.add_parser("calibrate", parents=[common], help="fit a post-hoc scaler")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="the training dataset CSV")
    p.add_argument("--kind", type=str, default="temperature", choices=SCALER_KINDS)

    p = sub.add_parser("eval", parents=[common], help="evaluate calibration on a dataset")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="the test dataset CSV")
    p.add_argument("--scaler", type=str, default=None)
    p.add_argument("--m-bins", dest="m_bins", type=int, default=metrics.DEFAULT_BINS)

    p = sub.add_parser("compare", parents=[common], help="tabulate eval reports")
    p.add_argument("--dir", type=str, default=None, help="directory holding the eval reports")

    return parser


def _check_config_types(subparser: argparse.ArgumentParser, overrides: dict) -> None:
    """A config-file value must have the type its flag parses to: ints
    exclude bools and floats, floats admit ints within the float range, and
    null is valid only where the flag's default is null. A flag with
    choices admits only those; argparse checks no default against them."""
    for action in subparser._actions:
        if action.dest not in overrides:
            continue
        value, kind = overrides[action.dest], action.type
        if value is None:
            ok = action.default is None
        elif kind is float:
            ok = artifacts.json_number(value) is not None
        else:
            # bool is a subclass of int, so isinstance alone would admit it
            ok = isinstance(value, kind) and not isinstance(value, bool)
        if not ok:
            null = " or null" if action.default is None else ""
            name = "a number within the float range" if kind is float else kind.__name__
            raise ValueError(f"config key {action.dest!r} must be {name}{null}, "
                             f"got {json.dumps(value)}")
        if value is not None and action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {action.dest!r} must be one of "
                f"{', '.join(map(json.dumps, action.choices))}, got {json.dumps(value)}"
            )


def resolve_config(argv, args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """defaults < config file < explicit flags; unknown keys and values of
    the wrong type are rejected. A config file becomes the defaults of the
    command's subparser, and ``argv`` is parsed again on top of them. gen's
    ``n`` replaces ``n_train`` and ``n_test``; no handler changes the result."""
    if args.config is not None:
        overrides = read_json_object(args.config)
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        subparser = sub.choices[args.command]
        keys = {action.dest for action in subparser._actions} - {"help", "config"}
        unknown = sorted(set(overrides) - keys)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        _check_config_types(subparser, overrides)
        subparser.set_defaults(**overrides)
        args = parser.parse_args(argv)
    resolved = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    if resolved.get("n") is not None:
        resolved["n_train"], resolved["n_test"] = resolved["n"], max(1, resolved["n"] // 8)
    return resolved


def _meta(command: str, resolved: dict) -> str:
    return f"calibforge v{__version__} {command} config={json.dumps(resolved, sort_keys=True)}"


def _outdir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(resolved: dict) -> None:
    n_train, n_test = resolved["n_train"], resolved["n_test"]
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be at least 1")
    config = datagen.SyntheticConfig(
        n_matches=n_train + n_test, rng_seed=resolved["seed"],
        **{field.name: resolved[field.name] for field in GEN_FIELDS},
    )
    data = datagen.GeneratedDataset(config)
    out = _outdir(resolved)
    meta = _meta("gen", resolved)
    # each file takes the next feature rows as they are made
    for name, start, stop in (("train.csv", 0, n_train), ("test.csv", n_train, config.n_matches)):
        datagen.write_dataset(
            out / name, data.features(stop), data.y[start:stop], data.p_true[start:stop],
            config.roster_size, comment=meta,
        )
    print(f"wrote {n_train} rows to {out / 'train.csv'} and {n_test} rows to {out / 'test.csv'}")


def _hidden_sizes(text: str) -> tuple[int, ...]:
    """The comma-separated hidden layer sizes, each a positive decimal
    integer."""
    sizes = tuple(_count(h) for h in text.split(","))
    if not all(sizes):  # an entry that is not a count, or 0
        raise ValueError(f"hidden sizes must be positive integers, got hidden={text!r}")
    return sizes


def _serve_step_arrays_from_the_heap() -> None:
    """Have glibc's malloc serve arrays below 32 MiB from its heap.

    Each training step allocates and frees a few dozen arrays of 0.1-1.2 MB
    (its batch's rows of each column run before they go into the reused
    batch buffer, its activations, gradients, Adam temporaries), and so does
    each 256-row block of a DU eval's integral (0.4 MB each). Above its mmap
    threshold, 128 KiB at start, glibc maps each one and unmaps it on free,
    and it returns a freed heap top above its trim threshold, so every step
    pays for fresh pages. glibc itself raises the thresholds when a mapped
    block is freed, up to these settings, so without them training speed
    would depend on what the command happened to free before it: a
    20000-row DU training ran about 20% slower when nothing large had been
    freed, and the 25000-row integral of the score workload took 0.33 s
    instead of 0.26 s. Elsewhere than glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def cmd_train(resolved: dict) -> None:
    if resolved["data"] is None:
        raise ValueError("train requires --data")
    val_fraction = float(resolved["val_fraction"])
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    seed, loss = resolved["seed"], resolved["loss"]
    config = nn.TrainConfig(learning_rate=resolved["lr"], epochs=resolved["epochs"],
                            batch_size=resolved["batch_size"], rng_seed=seed, loss_kind=loss,
                            k_train=resolved["k"], hidden=_hidden_sizes(resolved["hidden"]))
    config.validate()
    data = resolved["data"]
    _serve_step_arrays_from_the_heap()

    def keep(info, blocks):
        # only the training rows are kept, their features as int8 runs of the
        # small-integer columns and float32 runs of the others (nn.ColumnRuns)
        train_rows = datagen.split(info.n_rows, val_fraction, seed)[0]
        return info, datagen.take_rows(info, blocks, train_rows, features=nn.ColumnRuns)

    info, rows = datagen.scan_dataset(data, keep)
    if info.n_rows == 0:
        raise ValueError(f"{data}: dataset is empty")
    params, log = nn.train(rows.x, rows.y, config)
    out = _outdir(resolved)
    header = {
        "loss": loss,
        "seed": str(seed),
        "split_seed": str(seed),
        "val_fraction": repr(val_fraction),
        "data_rows": str(info.n_rows),
        "data_sha256": info.sha256,
        "version": __version__,
        "config": json.dumps(resolved, sort_keys=True),
    }
    model_path = out / f"model_{loss}.txt"
    nn.save_model(params, model_path, header=header)
    nn.write_training_log(log, out / f"train_log_{loss}.csv", comment=_meta("train", resolved))
    final = log[-1]
    print(f"wrote {model_path} (final loss {final.loss:.4f}, train acc {final.train_acc:.4f})")


def _count(value: str):
    """A nonnegative decimal integer, or None."""
    return int(value) if value.isascii() and value.isdigit() else None


def _fraction(value: str):
    fraction = float(value)
    return fraction if 0.0 <= fraction < 1.0 else None


def _hex_digest(value: str):
    return value if len(value) == 64 and not value.strip("0123456789abcdef") else None


# model-header fields that locate the validation rows in the training data,
# each with its parser (None or ValueError for a malformed value)
SPLIT_FIELDS = (
    ("split_seed", _count),
    ("val_fraction", _fraction),
    ("data_rows", lambda value: _count(value) or None),  # train refuses empty data
    ("data_sha256", _hex_digest),
)


def _split_record(model_path, header: dict) -> list:
    """split_seed, val_fraction, data_rows and data_sha256 of a model
    header; a missing or malformed field is a model-file error."""
    record = []
    for key, parse in SPLIT_FIELDS:
        if key not in header:
            raise nn.ModelFormatError(
                f"{model_path}: model header lacks {key!r}; retrain the model with "
                f"calibforge {__version__}"
            )
        try:
            value = parse(header[key])
        except ValueError:
            value = None
        if value is None:
            raise nn.ModelFormatError(
                f"{model_path}: model header field {key!r} is malformed: {header[key]!r}"
            )
        record.append(value)
    return record


def cmd_calibrate(resolved: dict) -> None:
    if resolved["model"] is None or resolved["data"] is None:
        raise ValueError("calibrate requires --model and --data")
    kind = resolved["kind"]
    model_path, data = resolved["model"], resolved["data"]
    model = nn.read_model(model_path)
    if model.du_head_enabled:
        raise ValueError("post-hoc scalers apply to cross-entropy models, not du models")
    split_seed, val_fraction, data_rows, data_sha256 = _split_record(model_path, model.header)
    _, val = datagen.split(data_rows, val_fraction, split_seed)
    if len(val) == 0:
        raise ValueError("validation split is empty; retrain with a positive val_fraction")
    # only the validation rows are kept, so the file must be the one the
    # model was trained on: the same bytes give the same row numbering
    outputs = datagen.model_outputs(model, data, data_sha256)
    out = _outdir(resolved)
    fit = getattr(scaling, f"fit_{kind}")  # at call time, so that a wrapped fit is called
    scaler = fit(outputs.raw[val], outputs.y[val], log_path=out / f"calib_log_{kind}.csv")
    scaler.model_sha256 = model.sha256
    scaler_path = out / f"scaler_{kind}.json"
    scaling.save_scaler(scaler, scaler_path, extra={"version": __version__, "config": resolved})
    detail = "fitted" if scaler.temperature is None else f"T={scaler.temperature!r}"
    if scaler.warning:
        print(f"warning: {scaler.warning}", file=sys.stderr)
    print(f"wrote {scaler_path} ({detail}, val NLL minimized on {len(val)} points)")


def _check_scaler_model(scaler, resolved: dict, model_sha256: str) -> None:
    """A scaler applies only to the logits of the model it was fitted on."""
    path, model = resolved["scaler"], resolved["model"]
    if scaler.model_sha256 is None:
        raise ValueError(
            f"{path} does not record the sha256 of the model it was fitted on, so it cannot "
            f"be checked against {model}; refit it with calibrate"
        )
    if scaler.model_sha256 != model_sha256:
        raise ValueError(
            f"{path} was fitted on the model with sha256 {scaler.model_sha256}, not on {model} "
            f"(sha256 {model_sha256})"
        )


# the two label values, as the predictions dump writes them
LABEL_TEXT = np.array([b"0", b"1"])
PREDICTION_COLUMNS = "z0,z1,s_raw,p0,p1,confidence,predicted,true,p_true"


def _prediction_lines(outputs: datagen.Outputs, scaled):
    """The data lines of the predictions dump as UTF-8 bytes, BLOCK_ROWS
    rows at a time. The float cells take the outputs' text, except the
    probabilities of a scaler, ``scaled`` (None without one), which are
    formatted here; s_raw is empty without the density head and p_true
    without the file's column. Each cell is its text NUL-padded to one width
    and followed by its comma or newline, and the NULs are dropped."""
    n_out = outputs.raw.shape[1]
    _, predicted = metrics.predict(outputs.probs if scaled is None else scaled)
    line = np.zeros((datagen.BLOCK_ROWS, len(PREDICTION_COLUMNS.split(","))),
                    dtype=[("cell", f"S{FLOAT_TEXT_BYTES}"), ("end", "S1")])
    line["end"] = b","
    line["end"][:, -1] = b"\n"
    for start in range(0, len(predicted), datagen.BLOCK_ROWS):
        rows = slice(start, start + datagen.BLOCK_ROWS)
        own, label = outputs.text[rows], predicted[rows]
        block = line[: len(own)]
        cells = block["cell"]
        cells[:, :n_out] = own[:, :n_out]  # z0, z1 and s_raw, if any
        p = own[:, n_out : n_out + 2] if scaled is None else artifacts.float_text(scaled[rows])
        cells[:, 3:5] = p
        # the confidence is the predicted class's probability, the same float
        cells[:, 5] = np.where(label == 1, p[:, 1], p[:, 0])
        cells[:, 6], cells[:, 7] = LABEL_TEXT[label], LABEL_TEXT[outputs.y[rows]]
        if outputs.p_true is not None:
            cells[:, 8] = own[:, -1]
        raw = block.view(np.uint8).ravel()
        yield raw[raw != 0].tobytes()


def cmd_eval(resolved: dict) -> None:
    if resolved["model"] is None or resolved["data"] is None:
        raise ValueError("eval requires --model and --data")
    metrics.check_m_bins(resolved["m_bins"])
    model = nn.read_model(resolved["model"])
    du_head = model.du_head_enabled
    scaler = None if resolved["scaler"] is None else scaling.load_scaler(resolved["scaler"])
    if du_head and scaler is not None:
        raise ValueError("post-hoc scalers do not combine with du models")
    if scaler is not None:
        _check_scaler_model(scaler, resolved, model.sha256)
    loss, kind = ("du" if du_head else "ce"), (scaler.kind if scaler is not None else None)
    (method,) = [m for m in METHODS if (m.loss, m.scaler) == (loss, kind)]

    _serve_step_arrays_from_the_heap()
    # a model's outputs on one file, its own probabilities and their text are
    # computed once, whatever the scaler
    outputs = datagen.model_outputs(model, resolved["data"], text=True)
    del model  # its text is not needed past the forward pass
    scaled = None
    if scaler is not None:
        # a scaler's map can overflow finite logits (T = 1e-320, say); refused below
        with np.errstate(over="ignore", invalid="ignore"):
            logits = scaling.transform_logits(scaler, outputs.raw)
            scaled = nn.softmax(logits)
        if not np.isfinite(logits).all():
            raise ValueError(f"{resolved['scaler']} gives non-finite logits on {resolved['data']}")
    report = metrics.build_report(outputs.probs if scaled is None else scaled, outputs.y,
                                  resolved["m_bins"], outputs.p_true)

    extra = {"version": __version__, "config": resolved, "method": method.label}
    if du_head:
        extra["probability_rule"] = duloss.EXACT_RULE

    out = _outdir(resolved)
    meta = _meta("eval", resolved)
    metrics.write_report_json(report, out / f"report_{method.label}.json", extra=extra)
    metrics.write_reliability_csv(report, out / f"reliability_{method.label}.csv", comment=meta)
    metrics.write_reliability_svg(report, out / f"reliability_{method.label}.svg",
                                  title=f"reliability: {method.name}", comment=meta)
    with replacing(out / f"predictions_{method.label}.csv", "wb") as fh:
        fh.write(f"# {meta}\n{PREDICTION_COLUMNS}\n".encode())
        fh.writelines(_prediction_lines(outputs, scaled))

    line = f"{method.label}: " + " ".join(f"{c.key}={getattr(report, c.key):.4f}" for c in COLUMNS)
    if report.oracle_ece is not None:
        line += f" oracle_ece={report.oracle_ece:.4f}"
    print(line)


def cmd_compare(resolved: dict) -> None:
    src = Path(resolved["dir"]) if resolved["dir"] is not None else Path(resolved["out"])
    paths = {method.label: src / f"report_{method.label}.json" for method in METHODS}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise MissingArtifactError("missing eval reports: " + ", ".join(missing))
    reports = {}
    for label, path in paths.items():
        report = reports[label] = read_json_object(path)
        for column in COLUMNS:
            value = artifacts.json_number(report.get(column.key))
            if value is None:
                raise FormatError(f"{path}: key {column.key!r} is missing or not a number "
                                  f"within the float range")
            # a NaN fails every comparison, and an infinity the float maximum
            if not 0 <= value <= min(column.upper, sys.float_info.max):
                bound = (f"in [0, {column.upper}]" if column.upper < math.inf
                         else "finite and nonnegative")
                raise FormatError(f"{path}: key {column.key!r} must be {bound}, got {value!r}")
        n, bins = report.get("n"), report.get("bins")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise FormatError(f"{path}: key 'n' is missing or not a positive integer")
        if not isinstance(bins, list) or not all(isinstance(b, dict) for b in bins):
            raise FormatError(f"{path}: key 'bins' is missing or not a list of JSON objects")
        if (method := report.get("method")) != label:
            raise ValueError(f"{path} is the report of method {method!r}, not {label!r}")
    # every report must hold the first row's rows, binned the same way
    first = METHODS[0].label
    n_first, m_first = reports[first]["n"], len(reports[first]["bins"])
    for label, rep in reports.items():
        if (rep["n"], len(rep["bins"])) != (n_first, m_first):
            raise ValueError(f"{paths[label]} has n={rep['n']} and {len(rep['bins'])} bins, but "
                             f"{paths[first]} has n={n_first} and {m_first} bins")

    header = f"{'Method':<22}" + "".join(f"{c.heading:>{c.width}}" for c in COLUMNS)
    lines = [header, "-" * len(header)]
    for method in METHODS:
        rep = reports[method.label]
        lines.append(f"{method.name:<22}" + "".join(
            f"{c.scale * rep[c.key]:>{c.width}.{c.decimals}f}" for c in COLUMNS))
    table = "\n".join(lines)

    out = _outdir(resolved)
    doc = {"version": __version__, "config": resolved, "methods": reports}
    artifacts.write_json(out / "comparison.json", doc)
    write_lines(out / "comparison.txt", [f"# {_meta('compare', resolved)}", table])
    print(table)


HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        resolved = resolve_config(argv, args, parser)
        print(f"{args.command} config: {json.dumps(resolved, sort_keys=True)}")
        HANDLERS[args.command](resolved)
        return EXIT_OK
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's names the allocation; Python's is bare
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
