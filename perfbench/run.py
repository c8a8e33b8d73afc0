"""calibforge benchmark: the 12-command CLI pipeline, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload reference --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # both workloads, one table each

``--trace 0`` drives ``python -m calibforge`` as a user does: one child
process at a time, each timed from outside, peak RSS taken from
``os.wait4``. ``--trace 1`` instead calls the same commands in-process
through ``cli.main``, once untraced and once with span wrappers installed
from ``layers.py``, and reports per-layer self times and counts. Every run
checks the outputs; a failed command or check is a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details (per-command times,
counts, environment, check verdicts) go to earlier lines and to
``.perfbench/results/``. See ``perfbench/README.md`` for the metric list.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import calib_log_iters, install, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

STATE = Path(".perfbench")  # relative to the repository root, gitignored
REFERENCE_SEED = 42
SETUP_REPEATS = 3
START_REPEATS = 5
RUN_DEADLINE_S = 170.0
METHODS = ("none", "temperature", "vector", "matrix", "du")
TRACKED_PREFIXES = ("model_", "report_", "reliability_", "comparison")
TRAIN_FLAGS = {
    "ce": ("--loss", "ce", "--batch-size", "1024"),
    "du": ("--loss", "du", "--batch-size", "1024", "--k", "8"),
}
E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_ce_s": "s",
    "train_du_s": "s",
    "calibrate_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    gen_flags: tuple
    n_test: int


# reference: exactly the acceptance-suite invocation (tests/conftest.py), the
#   north-star baseline; training dominates.
# score: a small training set and a 10x larger test set, so eval (test-CSV
#   parsing, inference, DU Monte-Carlo at K=256, record building, reports)
#   dominates. 20 epochs keep the temperature fit inside its bounds.
WORKLOADS = {
    "reference": Workload("reference", (), 2500),
    "score": Workload("score", ("--n-train", "4000", "--n-test", "25000"), 25000),
}


def commands(wl: Workload, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """(stage, argv) for gen and the 11 pipeline commands, in order."""
    common = ["--seed", str(seed), "--out", str(out)]
    train, test = str(out / "train.csv"), str(out / "test.csv")
    model_ce = str(out / "model_ce.txt")
    seq = [("gen", ["gen", *wl.gen_flags, *common])]
    for loss in ("ce", "du"):
        seq.append((f"train_{loss}", ["train", "--data", train, *TRAIN_FLAGS[loss], *common]))
    for kind in ("temperature", "vector", "matrix"):
        seq.append(("calibrate", ["calibrate", "--model", model_ce, "--data", train,
                                  "--kind", kind, *common]))
    seq.append(("eval", ["eval", "--model", model_ce, "--data", test, *common]))
    for kind in ("temperature", "vector", "matrix"):
        seq.append(("eval", ["eval", "--model", model_ce, "--data", test,
                             "--scaler", str(out / f"scaler_{kind}.json"), *common]))
    seq.append(("eval", ["eval", "--model", str(out / "model_du.txt"), "--data", test, *common]))
    seq.append(("compare", ["compare", *common]))
    return seq


class Ops:
    """Attempted operations (CLI calls and output checks) and their verdicts."""

    def __init__(self):
        self.items: list[tuple[str, bool]] = []

    def check(self, name: str, ok) -> bool:
        self.items.append((name, bool(ok)))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.items if not ok)


# -- child processes ----------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log, deadline: float) -> Child:
    """Run one ``python -m calibforge`` command to completion; kill it at
    the run deadline. Wall time and peak RSS come from outside the child."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Child(code=-1, wall_s=0.0, maxrss_mb=0.0)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "calibforge", *argv],
        stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
    )
    reaped = threading.Event()

    def kill():
        if not reaped.is_set():
            proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        reaped.set()
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall, maxrss_mb=usage.ru_maxrss / 1024.0)


# -- artifacts and checks -----------------------------------------------------

def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of the artifacts covered by the determinism contract."""
    return {
        p.name: file_digest(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name.startswith(TRACKED_PREFIXES)
    }


def source_digest() -> str:
    """Identifies the program version when the checkout is not a git tree."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_against_store(ops: Ops, key: str, hashes: dict) -> str:
    """Compare with the hashes an earlier run of the same source, workload
    and seed recorded; record them when none exist. Returns the verdict."""
    store_path = STATE / "hashes.json"
    try:
        store = json.loads(store_path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        store = {}
    if key in store:
        same = store[key] == hashes
        ops.check("artifacts byte-identical to an earlier run of this source and seed", same)
        return "match" if same else "MISMATCH"
    store[key] = hashes
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, store_path)
    return "recorded"


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _data_rows(path: Path) -> int:
    try:
        lines = path.read_bytes().splitlines()
    except OSError:
        return -1
    rows = [line for line in lines if line and not line.startswith(b"#")]
    return len(rows) - 1  # minus the column header


def directional_predicates(out: Path, reports: dict) -> dict[str, bool | None]:
    """The predicates of acceptance criteria 6-8 recomputed from artifacts;
    None where an input artifact is missing."""
    none, temp, du = reports["none"], reports["temperature"], reports["du"]
    scaler = _load_json(out / "scaler_temperature.json")
    if none is None or temp is None or du is None or scaler is None:
        return {"criteria 6-8 inputs present": False}
    try:
        mid_gap = max((abs(b["acc"] - b["conf"]) for b in none["bins"]
                       if b["m"] in (5, 6, 7) and b["count"] > 0), default=0.0)
        return {
            "criterion 6: none and temperature accuracy equal": none["accuracy"] == temp["accuracy"],
            "criterion 7: mid-bin gap > 0.02": mid_gap > 0.02,
            "criterion 7: temperature ECE <= 0.7x none": temp["ece"] <= 0.7 * none["ece"],
            "criterion 7: du ECE <= 0.7x none": du["ece"] <= 0.7 * none["ece"],
            "criterion 7: T > 1": scaler["T"] > 1.0,
            "criterion 8: du oracle_ece <= none": du["oracle_ece"] <= none["oracle_ece"],
        }
    except (KeyError, TypeError):
        return {"criteria 6-8 inputs readable": False}


def check_outputs(ops: Ops, out: Path, wl: Workload, seed: int) -> dict:
    """Gate on checks that hold at every seed; gate on the directional
    predicates only for the pinned reference run. Returns all predicates."""
    reports = {}
    for label in METHODS:
        reports[label] = _load_json(out / f"report_{label}.json")
        rep = reports[label]
        ops.check(f"report_{label}.json has n={wl.n_test}",
                  isinstance(rep, dict) and rep.get("n") == wl.n_test)
        ops.check(f"predictions_{label}.csv has {wl.n_test} rows",
                  _data_rows(out / f"predictions_{label}.csv") == wl.n_test)
    comparison = _load_json(out / "comparison.json")
    ops.check("comparison.json lists the five methods",
              isinstance(comparison, dict) and sorted(comparison.get("methods", {})) == sorted(METHODS))
    none, temp = reports["none"], reports["temperature"]
    ops.check("temperature leaves accuracy unchanged",
              isinstance(none, dict) and isinstance(temp, dict)
              and none.get("accuracy") is not None and none.get("accuracy") == temp.get("accuracy"))
    predicates = directional_predicates(out, reports)
    if wl.name == "reference" and seed == REFERENCE_SEED:
        for name, ok in predicates.items():
            ops.check(name, ok)
    return predicates


def fresh_dir(wl: Workload) -> Path:
    out = STATE / "work" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


# -- timed run (trace 0) ------------------------------------------------------

def timed_run(wl: Workload, seed: int, seconds: int, deadline: float) -> dict:
    """Set up SETUP_REPEATS times, then repeat the pipeline while another
    repetition fits in ``seconds`` (at least once). Medians are reported."""
    ops = Ops()
    out = fresh_dir(wl)
    seq = commands(wl, seed, out)
    gen_argv, pipeline = seq[0][1], seq[1:]
    children: list[Child] = []
    with open(STATE / f"{wl.name}.log", "w", encoding="utf-8") as log:
        setup_times, gen_digests = [], []
        for _ in range(SETUP_REPEATS):
            child = run_child(gen_argv, log, deadline)
            children.append(child)
            setup_times.append(child.wall_s)
            ops.check("gen exits 0", child.code == 0)
            gen_digests.append(tuple(file_digest(out / f) if (out / f).exists() else ""
                                     for f in ("train.csv", "test.csv")))
        ops.check("gen output byte-identical across set-up repeats", len(set(gen_digests)) == 1)

        reps, rep_hashes = [], []
        began = time.perf_counter()
        while True:
            stage_s: dict[str, float] = {}
            t0 = time.perf_counter()
            for stage, argv in pipeline:
                child = run_child(argv, log, deadline)
                children.append(child)
                ops.check(f"{argv[0]} exits 0", child.code == 0)
                stage_s[stage] = stage_s.get(stage, 0.0) + child.wall_s
            stage_s["pipeline"] = time.perf_counter() - t0
            reps.append(stage_s)
            rep_hashes.append(artifact_hashes(out))
            elapsed = time.perf_counter() - began
            if elapsed + stage_s["pipeline"] > seconds or time.monotonic() > deadline:
                break
    if len(rep_hashes) > 1:
        ops.check("artifacts byte-identical across repetitions",
                  all(h == rep_hashes[0] for h in rep_hashes))

    predicates = check_outputs(ops, out, wl, seed)
    determinism = check_against_store(ops, f"{source_digest()} {wl.name} {seed}", rep_hashes[0])

    def med(stage):
        return statistics.median(r[stage] for r in reps)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": med("pipeline"),
        "train_ce_s": med("train_ce"),
        "train_du_s": med("train_du"),
        "calibrate_s": med("calibrate"),
        "eval_s": med("eval"),
        "peak_rss_mb": max(c.maxrss_mb for c in children),
        "success_rate": 1.0 - ops.failed / ops.attempted,
    }
    counts = outside_counts(out, seq, len(reps))
    return {
        "ops": ops,
        "metrics": {k: (v, E2E_UNITS[k]) for k, v in metrics.items()},
        "details": {
            "error_rate": ops.failed / ops.attempted,
            "repetitions": len(reps),
            "setup_runs_s": setup_times,
            "stage_s_per_repetition": reps,
            "command_wall_s": [c.wall_s for c in children],
            "determinism": determinism,
            "artifact_hashes": rep_hashes[0],
            "directional_predicates": predicates,
            "counts": counts,
        },
    }


def outside_counts(out: Path, seq, reps: int) -> dict:
    """Counts that repeat exactly and are visible without tracing."""
    def size(name):
        path = out / name
        return path.stat().st_size if path.exists() else 0

    parsed = 0
    for _, argv in seq[1:]:
        if "--data" in argv:
            parsed += size(Path(argv[argv.index("--data") + 1]).name)
    counts = {
        "csv_bytes_written": size("train.csv") + size("test.csv"),
        "csv_bytes_parsed": parsed,
        "model_bytes": size("model_ce.txt") + size("model_du.txt"),
        "cli.invocations": len(seq),
        "pipeline_repetitions": reps,
    }
    counts.update({f"scaling.iters.{k}": v for k, v in calib_log_iters(out).items()})
    return counts


# -- traced run (trace 1) -----------------------------------------------------

def run_inprocess(cli, seq, ops: Ops, log) -> dict[str, float]:
    """Call each command through cli.main in this process; stage wall times."""
    stage_s: dict[str, float] = {}
    t0 = time.perf_counter()
    for stage, argv in seq:
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = cli.main(list(argv))
            except Exception:  # a crashing command is a failed operation, not a crashed run
                traceback.print_exc()
                code = None
        stage_s[stage] = stage_s.get(stage, 0.0) + time.perf_counter() - start
        ops.check(f"in-process {argv[0]} returns 0", code == 0)
    stage_s["total"] = time.perf_counter() - t0
    return stage_s


def traced_run(wl: Workload, seed: int, deadline: float) -> dict:
    """One untraced and one traced in-process pass of all 12 commands."""
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("calibforge")
    cli = importlib.import_module("calibforge.cli")
    ops = Ops()
    out = fresh_dir(wl)
    seq = commands(wl, seed, out)
    with open(STATE / f"{wl.name}.trace.log", "w", encoding="utf-8") as log:
        untraced = run_inprocess(cli, seq, ops, log)
        hashes_untraced = artifact_hashes(out)
        tracer = Tracer()
        install(tracer, package)
        try:
            traced = run_inprocess(cli, seq, ops, log)
        finally:
            tracer.restore()
        starts = []
        for _ in range(START_REPEATS):
            child = run_child(["--version"], log, deadline)
            ops.check("calibforge --version exits 0", child.code == 0)
            starts.append(child.wall_s)
    hashes = artifact_hashes(out)
    ops.check("traced and untraced passes write byte-identical artifacts", hashes == hashes_untraced)
    predicates = check_outputs(ops, out, wl, seed)
    determinism = check_against_store(ops, f"{source_digest()} {wl.name} {seed}", hashes)

    metrics, details = layer_metrics(tracer, out)
    metrics["cli.start_s"] = (statistics.median(starts), "s")
    metrics["cli.invocations"] = (len(seq), "count")
    metrics["trace.untraced_s"] = (untraced["total"], "s")
    metrics["trace.traced_s"] = (traced["total"], "s")
    metrics["trace.overhead_s"] = (traced["total"] - untraced["total"], "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    details.update({
        "error_rate": ops.failed / ops.attempted,
        "untraced_stage_s": untraced,
        "traced_stage_s": traced,
        "cli_start_runs_s": starts,
        "determinism": determinism,
        "artifact_hashes": hashes,
        "directional_predicates": predicates,
    })
    return {"ops": ops, "metrics": metrics, "details": details}


# -- environment and output ---------------------------------------------------

def blas_info() -> dict:
    """BLAS vendor from numpy's build config and the thread count the
    loaded OpenBLAS uses (not overridden here)."""
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__, "blas": None, "blas_threads": None}
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else None
    return ref


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **blas_info(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def print_summary(wl: Workload, seed: int, trace: int, result: dict) -> None:
    ops = result["ops"]
    print(f"== {wl.name} seed={seed} trace={trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    details = result["details"]
    print(f"  error_rate {details['error_rate']:.6g} ({ops.failed} failed of {ops.attempted}); "
          f"determinism: {details['determinism']}")
    for name, ok in ops.items:
        if not ok:
            print(f"  FAILED: {name}")
    gated = "gated" if wl.name == "reference" and seed == REFERENCE_SEED else "reported only"
    for name, ok in details["directional_predicates"].items():
        print(f"  predicate {'holds' if ok else 'FAILS'} ({gated}): {name}")
    verdict = "PASS" if ops.failed == 0 else "FAIL"
    print(f"  output checks: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="budget for repeating the timed pipeline (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "calibforge" / "cli.py").is_file():
        print(f"error: no calibforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        if args.trace:
            result = traced_run(wl, args.seed, deadline)
        else:
            result = timed_run(wl, args.seed, args.seconds, deadline)
        print_summary(wl, args.seed, args.trace, result)
        ops = result["ops"]
        record = {
            "workload": name, "seed": args.seed, "trace": args.trace, "env": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            "attempted": ops.attempted, "failed": ops.failed,
            "failed_checks": [n for n, ok in ops.items if not ok],
            "details": result["details"],
        }
        path = STATE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        prefix = "" if len(names) == 1 else f"{name}."
        final["attempted"] += ops.attempted
        final["failed"] += ops.failed
        final["correct"] = final["correct"] and ops.failed == 0
        for k, (v, u) in result["metrics"].items():
            final["metrics"][prefix + k] = {"value": v, "unit": u}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
