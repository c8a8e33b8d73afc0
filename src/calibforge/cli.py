"""Command-line pipeline: gen, train, calibrate, eval, compare.

Each command resolves its configuration from built-in defaults, then an
optional JSON config file (--config), then explicit flags, rejects unknown
keys, echoes the resolved result, and embeds it together with the tool
version in every artifact it writes. Commands are deterministic given
identical inputs and seed.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 missing dependency artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

from . import __version__, datagen, duloss, metrics, nn, scaling
from .artifacts import write_lines
from .datagen import DatasetFormatError
from .nn import ModelFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISSING = 4

METHOD_LABELS = ["none", "temperature", "vector", "matrix", "du"]
METHOD_NAMES = {
    "none": "No calibration",
    "temperature": "Temperature scaling",
    "vector": "Vector scaling",
    "matrix": "Matrix scaling",
    "du": "DU loss",
}
# report fields the comparison table reads
REPORT_KEYS = ("accuracy", "ece", "mce", "nll_mean")


class MissingArtifactError(Exception):
    """A compare input produced by an earlier pipeline stage is absent."""


class ArtifactReadError(Exception):
    """An input artifact exists but cannot be parsed."""


COMMAND_DEFAULTS: dict[str, dict] = {
    "gen": {
        "seed": 42,
        "out": "out",
        "n": None,
        "n_train": 20000,
        "n_test": 2500,
        "n_features": 295,
        "roster_size": 160,
        "coef_scale": 1.0,
        "noise_floor": 0.4,
        "noise_gain": 7.0,
        "minute_min": 1,
        "minute_max": 40,
    },
    "train": {
        "seed": 42,
        "out": "out",
        "data": None,
        "loss": "ce",
        "epochs": 20,
        "lr": 1e-4,
        "batch_size": 512,
        "k": 32,
        "antithetic": True,
        "val_fraction": 0.1,
        "hidden": "256,256",
    },
    "calibrate": {
        "seed": 42,
        "out": "out",
        "model": None,
        "data": None,
        "kind": "temperature",
        "lr": 1e-2,
        "max_iters": 5000,
        "tol": 1e-6,
    },
    "eval": {
        "seed": 42,
        "out": "out",
        "model": None,
        "data": None,
        "scaler": None,
        "m_bins": 10,
    },
    "compare": {
        "seed": 42,
        "out": "out",
        "dir": None,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibforge",
        description="Train, calibrate and measure a binary win predictor.",
    )
    parser.add_argument("--version", action="version", version=f"calibforge {__version__}")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="top-level RNG seed")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", type=str, default=None, help="output directory")

    p = sub.add_parser("gen", parents=[common], help="generate synthetic datasets")
    p.add_argument("--n", type=int, default=None, help="train rows (test rows become n // 8)")
    p.add_argument("--n-train", dest="n_train", type=int, default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=None)
    p.add_argument("--n-features", dest="n_features", type=int, default=None)
    p.add_argument("--roster-size", dest="roster_size", type=int, default=None)
    p.add_argument("--coef-scale", dest="coef_scale", type=float, default=None)
    p.add_argument("--noise-floor", dest="noise_floor", type=float, default=None)
    p.add_argument("--noise-gain", dest="noise_gain", type=float, default=None)
    p.add_argument("--minute-min", dest="minute_min", type=int, default=None)
    p.add_argument("--minute-max", dest="minute_max", type=int, default=None)

    p = sub.add_parser("train", parents=[common], help="train a win predictor")
    p.add_argument("--data", type=str, default=None, help="training dataset CSV")
    p.add_argument("--loss", type=str, default=None, choices=["ce", "du"])
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="MC draws per sample (du loss)")
    p.add_argument("--antithetic", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=None)
    p.add_argument("--hidden", type=str, default=None, help="hidden sizes, e.g. 256,256")

    p = sub.add_parser("calibrate", parents=[common], help="fit a post-hoc scaler")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="the training dataset CSV")
    p.add_argument("--kind", type=str, default=None, choices=["temperature", "vector", "matrix"])
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("eval", parents=[common], help="evaluate calibration on a dataset")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="the test dataset CSV")
    p.add_argument("--scaler", type=str, default=None)
    p.add_argument("--m-bins", dest="m_bins", type=int, default=None)

    p = sub.add_parser("compare", parents=[common], help="tabulate eval reports")
    p.add_argument("--dir", type=str, default=None, help="directory holding the eval reports")

    return parser


def _check_config_types(parser, command: str, overrides: dict, defaults: dict) -> None:
    """A config-file value must have the type its flag parses to: the
    argparse action's type, or bool for a --x/--no-x pair. Ints exclude
    bools and floats, floats admit ints, and null is valid only where the
    default is null."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for action in sub.choices[command]._actions:
        if action.dest not in overrides:
            continue
        value = overrides[action.dest]
        kind = bool if isinstance(action, argparse.BooleanOptionalAction) else action.type
        if value is None:
            ok = defaults[action.dest] is None
        else:
            # bool is a subclass of int, so it is matched only by a bool flag
            accepted = (int, float) if kind is float else kind
            ok = isinstance(value, accepted) and isinstance(value, bool) == (kind is bool)
        if not ok:
            null = " or null" if defaults[action.dest] is None else ""
            raise ValueError(
                f"config key {action.dest!r} must be {kind.__name__}{null}, "
                f"got {json.dumps(value)}"
            )


def resolve_config(
    command: str, args: argparse.Namespace, parser: argparse.ArgumentParser
) -> dict:
    """defaults < config file < explicit flags; unknown keys and values of
    the wrong type are rejected."""
    resolved = dict(COMMAND_DEFAULTS[command])
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            overrides = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(overrides) - set(resolved))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        _check_config_types(parser, command, overrides, resolved)
        resolved.update(overrides)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _meta(command: str, resolved: dict) -> str:
    return f"calibforge v{__version__} {command} config={json.dumps(resolved, sort_keys=True)}"


def _outdir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(resolved: dict) -> None:
    if resolved["n"] is not None:
        resolved["n_train"] = int(resolved["n"])
        resolved["n_test"] = max(1, int(resolved["n"]) // 8)
    n_train, n_test = int(resolved["n_train"]), int(resolved["n_test"])
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be at least 1")
    config = datagen.SyntheticConfig(
        n_matches=n_train + n_test,
        n_features=int(resolved["n_features"]),
        roster_size=int(resolved["roster_size"]),
        coef_scale=float(resolved["coef_scale"]),
        noise_floor=float(resolved["noise_floor"]),
        noise_gain=float(resolved["noise_gain"]),
        minute_min=int(resolved["minute_min"]),
        minute_max=int(resolved["minute_max"]),
        rng_seed=int(resolved["seed"]),
    )
    x, y, p_true = datagen.generate_dataset(config)
    out = _outdir(resolved)
    meta = _meta("gen", resolved)
    for name, rows in (("train.csv", slice(None, n_train)), ("test.csv", slice(n_train, None))):
        datagen.write_dataset(
            out / name, x[rows], y[rows], p_true[rows], config.roster_size, comment=meta
        )
    print(f"wrote {n_train} rows to {out / 'train.csv'} and {n_test} rows to {out / 'test.csv'}")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _hidden_sizes(text: str) -> list[int]:
    """The comma-separated hidden layer sizes, each a positive integer."""
    try:
        sizes = [int(h) for h in str(text).split(",") if h]
        ok = all(size >= 1 for size in sizes)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"hidden sizes must be positive integers, got hidden={text!r}")
    return sizes


def cmd_train(resolved: dict) -> None:
    if resolved["data"] is None:
        raise ValueError("train requires --data")
    val_fraction = float(resolved["val_fraction"])
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    seed = int(resolved["seed"])
    loss = resolved["loss"]
    config = nn.TrainConfig(
        learning_rate=float(resolved["lr"]),
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch_size"]),
        rng_seed=seed,
        loss_kind=loss,
        k_train=int(resolved["k"]),
        antithetic=bool(resolved["antithetic"]),
    )
    config.validate()
    hidden = _hidden_sizes(resolved["hidden"])
    data = resolved["data"]
    x, y, _ = datagen.read_dataset(data)
    if len(y) == 0:
        raise ValueError(f"{data}: dataset is empty")
    data_sha256 = _sha256(data)
    train, _, _ = datagen.split(len(y), (1.0 - val_fraction, val_fraction), seed)
    params, log = nn.train(x[train], y[train], config, layer_sizes=[x.shape[1]] + hidden + [2])
    out = _outdir(resolved)
    header = {
        "loss": loss,
        "seed": str(seed),
        "split_seed": str(seed),
        "val_fraction": repr(val_fraction),
        "data_rows": str(len(y)),
        "data_sha256": data_sha256,
        "version": __version__,
        "config": json.dumps(resolved, sort_keys=True),
    }
    model_path = out / f"model_{loss}.txt"
    nn.save_model(params, model_path, header=header)
    nn.write_training_log(log, out / f"train_log_{loss}.csv", comment=_meta("train", resolved))
    final = log[-1]
    print(f"wrote {model_path} (final loss {final.loss:.4f}, train acc {final.train_acc:.4f})")


def _load_model(path):
    try:
        return nn.load_model(path)
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


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
            raise ModelFormatError(
                f"{model_path}: model header lacks {key!r}; retrain the model with "
                f"calibforge {__version__}"
            )
        try:
            value = parse(header[key])
        except ValueError:
            value = None
        if value is None:
            raise ModelFormatError(
                f"{model_path}: model header field {key!r} is malformed: {header[key]!r}"
            )
        record.append(value)
    return record


def cmd_calibrate(resolved: dict) -> None:
    if resolved["model"] is None or resolved["data"] is None:
        raise ValueError("calibrate requires --model and --data")
    kind = resolved["kind"]
    if kind in ("vector", "matrix"):
        scaling.check_adam_fit(
            float(resolved["lr"]), int(resolved["max_iters"]), float(resolved["tol"])
        )
    model_path, data = resolved["model"], resolved["data"]
    params, header = _load_model(model_path)
    if params.du_head_enabled:
        raise ValueError("post-hoc scalers apply to cross-entropy models, not du models")
    split_seed, val_fraction, data_rows, data_sha256 = _split_record(model_path, header)
    _, val, _ = datagen.split(data_rows, (1.0 - val_fraction, val_fraction), split_seed)
    if len(val) == 0:
        raise ValueError("validation split is empty; retrain with a positive val_fraction")
    # only the validation rows are parsed, so the file must be the one the
    # model was trained on: the same bytes give the same row numbering
    if _sha256(data) != data_sha256:
        n_rows = len(datagen.read_dataset(data)[1])
        raise ValueError(
            f"{data} is not the training data of {model_path}: it has {n_rows} data rows "
            f"where the model header records {data_rows}, and its sha256 differs"
        )
    xv, yv, _ = datagen.read_dataset(data, rows=val)
    logits = nn.forward(params, xv)
    out = _outdir(resolved)
    log_path = out / f"calib_log_{kind}.csv"
    if kind == "temperature":
        scaler = scaling.fit_temperature(logits, yv, log_path=log_path)
    elif kind == "vector":
        scaler = scaling.fit_vector(
            logits, yv, lr=float(resolved["lr"]),
            max_iters=int(resolved["max_iters"]), tol=float(resolved["tol"]),
            log_path=log_path,
        )
    elif kind == "matrix":
        scaler = scaling.fit_matrix(
            logits, yv, lr=float(resolved["lr"]),
            max_iters=int(resolved["max_iters"]), tol=float(resolved["tol"]),
            log_path=log_path,
        )
    else:
        raise ValueError(f"unknown scaler kind {kind!r}")
    scaler_path = out / f"scaler_{kind}.json"
    scaling.save_scaler(
        scaler, scaler_path,
        extra={"version": __version__, "config": resolved},
    )
    detail = f"T={scaler.temperature!r}" if kind == "temperature" else "fitted"
    if scaler.warning:
        print(f"warning: {scaler.warning}", file=sys.stderr)
    print(f"wrote {scaler_path} ({detail}, val NLL minimized on {len(yv)} points)")


def _load_scaler(path):
    try:
        return scaling.load_scaler(path)
    except FileNotFoundError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactReadError(f"{path}: {exc}") from exc


def cmd_eval(resolved: dict) -> None:
    if resolved["model"] is None or resolved["data"] is None:
        raise ValueError("eval requires --model and --data")
    params, _ = _load_model(resolved["model"])
    scaler = None
    if resolved["scaler"] is not None:
        scaler = _load_scaler(resolved["scaler"])
    if params.du_head_enabled and scaler is not None:
        raise ValueError("post-hoc scalers do not combine with du models")
    x, y, p_true = datagen.read_dataset(resolved["data"])
    if len(y) == 0:
        raise ValueError(f"{resolved['data']}: dataset is empty")

    raw = nn.forward(params, x)
    if params.du_head_enabled:
        mu, s_raw = nn.split_outputs(params, raw)
        probs = duloss.expected_probs_exact(mu, s_raw)
        logits_dump, s_dump = mu, s_raw
    else:
        logits_dump, s_dump = raw, None
        zt = scaling.transform_logits(scaler, raw) if scaler is not None else raw
        probs = nn.softmax(zt)

    report = metrics.build_report(probs, y, int(resolved["m_bins"]))

    label = scaler.kind if scaler is not None else "du" if params.du_head_enabled else "none"
    extra = {"version": __version__, "config": resolved, "method": label}
    if params.du_head_enabled:
        extra["probability_rule"] = duloss.EXACT_RULE
    if p_true is not None:
        extra["oracle_ece"] = datagen.oracle_ece(probs, p_true)
        extra["true_ece"] = datagen.true_ece(probs, p_true, int(resolved["m_bins"]))

    out = _outdir(resolved)
    meta = _meta("eval", resolved)
    metrics.write_report_json(report, out / f"report_{label}.json", extra=extra)
    metrics.write_reliability_csv(report, out / f"reliability_{label}.csv", comment=meta)
    metrics.write_reliability_svg(
        report, out / f"reliability_{label}.svg",
        title=f"reliability: {METHOD_NAMES[label]}", comment=meta,
    )

    confidence, predicted = metrics.predict(probs)

    def column(values) -> list[str]:
        return [""] * len(y) if values is None else [repr(v) for v in values.tolist()]

    columns = [
        column(logits_dump[:, 0]), column(logits_dump[:, 1]), column(s_dump),
        column(probs[:, 0]), column(probs[:, 1]), column(confidence),
        column(predicted), column(y), column(p_true),
    ]
    write_lines(out / f"predictions_{label}.csv", itertools.chain(
        [f"# {meta}", "z0,z1,s_raw,p0,p1,confidence,predicted,true,p_true"],
        map(",".join, zip(*columns)),
    ))

    line = (
        f"{label}: accuracy={report.accuracy:.4f} ece={report.ece:.4f} "
        f"mce={report.mce:.4f} nll_mean={report.nll_mean:.4f}"
    )
    if "oracle_ece" in extra:
        line += f" oracle_ece={extra['oracle_ece']:.4f}"
    print(line)


def cmd_compare(resolved: dict) -> None:
    src = Path(resolved["dir"]) if resolved["dir"] is not None else Path(resolved["out"])
    paths = {label: src / f"report_{label}.json" for label in METHOD_LABELS}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise MissingArtifactError("missing eval reports: " + ", ".join(missing))
    reports = {}
    for label, path in paths.items():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports[label] = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise ArtifactReadError(f"{path}: {exc}") from exc
        if not isinstance(reports[label], dict):
            raise ArtifactReadError(f"{path}: expected a JSON object")
        for key in REPORT_KEYS:
            value = reports[label].get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ArtifactReadError(f"{path}: key {key!r} is missing or not a number")

    header = f"{'Method':<22}{'Accuracy[%]':>12}{'ECE[%]':>9}{'MCE[%]':>9}{'NLL':>8}"
    lines = [header, "-" * len(header)]
    for label in METHOD_LABELS:
        rep = reports[label]
        lines.append(
            f"{METHOD_NAMES[label]:<22}"
            f"{100.0 * rep['accuracy']:>12.2f}"
            f"{100.0 * rep['ece']:>9.2f}"
            f"{100.0 * rep['mce']:>9.2f}"
            f"{rep['nll_mean']:>8.3f}"
        )
    table = "\n".join(lines)

    out = _outdir(resolved)
    doc = {
        "version": __version__,
        "config": resolved,
        "methods": reports,
    }
    write_lines(out / "comparison.json", [json.dumps(doc, indent=2)])
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
        resolved = resolve_config(args.command, args, parser)
        print(f"{args.command} config: {json.dumps(resolved, sort_keys=True)}")
        HANDLERS[args.command](resolved)
        return EXIT_OK
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DatasetFormatError, ModelFormatError, ArtifactReadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
