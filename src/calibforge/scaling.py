"""Post-hoc Platt-family calibrators for two-class logits.

Three variants, all fit by minimizing mean negative log-likelihood on a
held-out validation set:

* temperature: softmax(z / T), a single positive parameter
* vector: softmax(diag(w) z), diagonal transform with the bias fixed at 0
* matrix: softmax(W z + b), full affine transform

Temperature is optimized by golden-section search over log T followed by a
few Newton refinements (the objective is unimodal in log T); vector and
matrix scaling run full-batch Adam from the identity. All fits track the
best iterate seen, so the returned scaler is never worse on the validation
set than the uncalibrated starting point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_lines
from .nn import adam_init, adam_step, check_learning_rate, softmax

TEMPERATURE_BOUNDS = (1e-2, 1e2)


@dataclass
class ScalerParams:
    """One fitted calibrator. Only the fields of its kind are set.

    ``warning`` is populated when the fit hit a degenerate case, e.g. a
    validation set whose NLL is one-sided in T so the temperature was
    clamped at a search bound.
    """

    kind: str  # "temperature" | "vector" | "matrix"
    temperature: float | None = None
    w_diag: np.ndarray | None = None
    w_full: np.ndarray | None = None
    b: np.ndarray | None = None
    warning: str | None = None

    def validate(self) -> None:
        if self.kind == "temperature":
            t = self.temperature
            if t is None or not (math.isfinite(t) and t > 0):
                raise ValueError("temperature must be finite and positive")
        elif self.kind == "vector":
            if self.w_diag is None or self.w_diag.shape != (2,):
                raise ValueError("vector scaler needs a 2-entry diagonal")
            if not np.all(np.isfinite(self.w_diag)):
                raise ValueError("vector scaler entries must be finite")
        elif self.kind == "matrix":
            if self.w_full is None or self.w_full.shape != (2, 2):
                raise ValueError("matrix scaler needs a 2x2 matrix")
            if self.b is None or self.b.shape != (2,):
                raise ValueError("matrix scaler needs a 2-entry bias")
            if not (np.all(np.isfinite(self.w_full)) and np.all(np.isfinite(self.b))):
                raise ValueError("matrix scaler entries must be finite")
        else:
            raise ValueError(f"unknown scaler kind {self.kind!r}")


def transform_logits(scaler: ScalerParams, z: np.ndarray) -> np.ndarray:
    """Apply the scaler's linear map to an (n, 2) batch of logits."""
    scaler.validate()
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("logits must be an (n, 2) array")
    if scaler.kind == "temperature":
        return z / scaler.temperature
    if scaler.kind == "vector":
        return z * scaler.w_diag
    return z @ scaler.w_full.T + scaler.b


def mean_nll(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of labels under softmax(logits).

    Computed in the log domain (softplus of the signed logit margin), so it
    stays finite for arbitrarily large logits.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    rows = np.arange(len(labels))
    margin = logits[rows, labels] - logits[rows, 1 - labels]
    return float(np.mean(np.logaddexp(0.0, -margin)))


def _check_val_set(val_logits, val_labels):
    logits = np.asarray(val_logits, dtype=float)
    labels = np.asarray(val_labels, dtype=int)
    if logits.ndim != 2 or logits.shape[1] != 2 or logits.shape[0] == 0:
        raise ValueError("validation logits must be a nonempty (n, 2) array")
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels must align with logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("validation logits must be finite")
    return logits, labels


def fit_temperature(val_logits, val_labels, log_path=None) -> ScalerParams:
    """Fit T minimizing validation NLL of softmax(z / T).

    Searches log T over [log 1e-2, log 1e2] by golden section, refines with
    three Newton steps, and clamps at the bounds (with a warning) when the
    objective is one-sided.
    """
    logits, labels = _check_val_set(val_logits, val_labels)
    rows = np.arange(len(labels))
    margin = logits[rows, labels] - logits[rows, 1 - labels]

    def nll_at(t: float) -> float:
        # t = log T; per-sample NLL is softplus(-margin * exp(-t))
        return float(np.mean(np.logaddexp(0.0, -margin * math.exp(-t))))

    def derivs(t: float) -> tuple[float, float]:
        u = -margin * math.exp(-t)
        s = 1.0 / (1.0 + np.exp(-np.clip(u, -500, 500)))
        d1 = float(np.mean(s * (-u)))
        d2 = float(np.mean(s * (1.0 - s) * u * u + s * u))
        return d1, d2

    lo, hi = (math.log(b) for b in TEMPERATURE_BOUNDS)
    log_rows = []
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll_at(c), nll_at(d)
    it = 0
    while b - a > 1e-12:
        it += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll_at(d)
        t_mid = 0.5 * (a + b)
        log_rows.append((it, nll_at(t_mid), abs(derivs(t_mid)[0])))
    t = 0.5 * (a + b)
    for _ in range(3):
        d1, d2 = derivs(t)
        if d2 > 0:
            t = min(max(t - d1 / d2, lo), hi)
        it += 1
        log_rows.append((it, nll_at(t), abs(derivs(t)[0])))

    # never return something worse than the uncalibrated T=1 point
    if 0.0 >= lo and 0.0 <= hi and nll_at(0.0) < nll_at(t) - 1e-12:
        t = 0.0

    temperature = math.exp(t)
    warning = None
    bound_lo, bound_hi = TEMPERATURE_BOUNDS
    if temperature <= bound_lo * 1.001:
        temperature = bound_lo
        warning = "temperature clamped at lower search bound; validation NLL is one-sided"
    elif temperature >= bound_hi * 0.999:
        temperature = bound_hi
        warning = "temperature clamped at upper search bound; validation NLL is one-sided"

    if log_path is not None:
        _write_fit_log(log_path, log_rows)
    return ScalerParams(kind="temperature", temperature=temperature, warning=warning)


def _nll_and_grads(kind, w, b, logits, labels):
    if kind == "vector":
        zt = logits * w
    else:
        zt = logits @ w.T + b
    p = softmax(zt)
    rows = np.arange(len(labels))
    margin = zt[rows, labels] - zt[rows, 1 - labels]
    nll = float(np.mean(np.logaddexp(0.0, -margin)))
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    g = (p - onehot) / len(labels)
    if kind == "vector":
        return nll, [np.sum(g * logits, axis=0)]
    return nll, [g.T @ logits, g.sum(axis=0)]


def check_adam_fit(lr: float, max_iters: int, tol: float) -> None:
    """Vector and matrix fits need a finite step size >= 0, an iteration
    budget >= 0 and a finite gradient-norm tolerance >= 0; anything else
    would return the identity scaler unfitted or never test convergence."""
    check_learning_rate(lr, "lr")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _fit_affine(kind, val_logits, val_labels, lr, max_iters, tol, log_path):
    check_adam_fit(lr, max_iters, tol)
    logits, labels = _check_val_set(val_logits, val_labels)
    if kind == "vector":
        param_list = [np.ones(2)]
    else:
        param_list = [np.eye(2), np.zeros(2)]
    state = adam_init(param_list)
    best_nll = math.inf
    best = [p.copy() for p in param_list]
    log_rows = []
    for it in range(max_iters + 1):
        nll, grads = _nll_and_grads(kind, param_list[0], param_list[-1], logits, labels)
        grad_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        log_rows.append((it, nll, grad_norm))
        if nll < best_nll:
            best_nll = nll
            best = [p.copy() for p in param_list]
        if it == max_iters or grad_norm < tol:
            break
        adam_step(param_list, grads, state, lr=lr)
    if log_path is not None:
        _write_fit_log(log_path, log_rows)
    if kind == "vector":
        return ScalerParams(kind="vector", w_diag=best[0])
    return ScalerParams(kind="matrix", w_full=best[0], b=best[1])


def fit_vector(
    val_logits, val_labels, lr: float = 1e-2, max_iters: int = 5000,
    tol: float = 1e-6, log_path=None,
) -> ScalerParams:
    """Fit diagonal scaling (bias fixed at 0) by full-batch Adam from identity."""
    return _fit_affine("vector", val_logits, val_labels, lr, max_iters, tol, log_path)


def fit_matrix(
    val_logits, val_labels, lr: float = 1e-2, max_iters: int = 5000,
    tol: float = 1e-6, log_path=None,
) -> ScalerParams:
    """Fit the full affine transform by full-batch Adam from identity."""
    return _fit_affine("matrix", val_logits, val_labels, lr, max_iters, tol, log_path)


def _write_fit_log(path, rows) -> None:
    lines = ["iter,nll,grad_norm"]
    for it, nll, gn in rows:
        lines.append(f"{it},{nll!r},{gn!r}")
    write_lines(path, lines)


def save_scaler(scaler: ScalerParams, path, extra: dict | None = None) -> None:
    """Write the scaler as JSON: {kind, T | w_diag | W and b}."""
    scaler.validate()
    doc: dict = {"kind": scaler.kind}
    if scaler.kind == "temperature":
        doc["T"] = scaler.temperature
    elif scaler.kind == "vector":
        doc["w_diag"] = list(scaler.w_diag)
    else:
        doc["W"] = [list(row) for row in scaler.w_full]
        doc["b"] = list(scaler.b)
    if scaler.warning:
        doc["warning"] = scaler.warning
    if extra:
        doc.update(extra)
    write_lines(path, [json.dumps(doc, indent=2)])


def _json_numbers(doc: dict, key: str, scalar: bool = False):
    """``doc[key]`` as a float, or as a float array when it is a (nested)
    list; anything that is not a JSON number (booleans included) is
    rejected with the key's name."""
    value = doc.get(key)

    def numeric(v) -> bool:
        if isinstance(v, list) and not scalar:
            return all(numeric(e) for e in v)
        # bool is a subclass of int, but true/false are not scaler entries
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not numeric(value):
        raise ValueError(f"scaler key {key!r} must hold numbers, got {json.dumps(value)}")
    return float(value) if scalar else np.asarray(value, dtype=float)


def load_scaler(path) -> ScalerParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a scaler file must hold a JSON object")
    kind = doc.get("kind")
    if kind == "temperature":
        scaler = ScalerParams(kind=kind, temperature=_json_numbers(doc, "T", scalar=True))
    elif kind == "vector":
        scaler = ScalerParams(kind=kind, w_diag=_json_numbers(doc, "w_diag"))
    elif kind == "matrix":
        scaler = ScalerParams(
            kind=kind, w_full=_json_numbers(doc, "W"), b=_json_numbers(doc, "b")
        )
    else:
        raise ValueError(f"unknown scaler kind {kind!r}")
    scaler.warning = doc.get("warning")
    scaler.validate()
    return scaler
