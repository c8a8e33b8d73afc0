"""Post-hoc Platt-family calibrators for two-class logits.

Three variants, all fit by minimizing mean negative log-likelihood on a
held-out validation set:

* temperature: softmax(z / T), a single positive parameter
* vector: softmax(diag(w) z), diagonal transform with the bias fixed at 0
* matrix: softmax(W z + b), full affine transform

With two classes the softmax sees only the margin z1 - z0, which each
variant makes linear in its parameters: beta = 1/T, (w0, w1), or the three
directions (s, a, c) of the matrix. Each fit is therefore a logistic
regression with 1-3 parameters and a convex NLL, minimized by one damped
Newton routine from the identity scaler. The NLL never rises from that
start, so the returned scaler is never worse on the validation set than
the uncalibrated one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_lines
from .duloss import sigmoid

TEMPERATURE_BOUNDS = (1e-2, 1e2)
# step cap of the Newton fits; only separable data, with no finite optimum, reaches it
NEWTON_STEPS = 100
# halvings of one Newton step before the fit stops as making no progress
MAX_HALVINGS = 64


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


def check_tol(tol: float) -> None:
    """A fit needs a finite gradient-norm tolerance >= 0: an infinite one
    would return the identity scaler unfitted, and a NaN or negative one
    would never test convergence."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_fit_inputs(val_logits, val_labels, tol):
    """The validated (n, 2) logits and each row's label sign, 2y - 1."""
    check_tol(tol)
    logits = np.asarray(val_logits, dtype=float)
    labels = np.asarray(val_labels, dtype=int)
    if logits.ndim != 2 or logits.shape[1] != 2 or logits.shape[0] == 0:
        raise ValueError("validation logits must be a nonempty (n, 2) array")
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels must align with logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("validation logits must be finite")
    return logits, 2.0 * labels - 1.0


def _objective(phi, sign, theta):
    """Mean NLL softplus(-sign * (phi @ theta)), its gradient and Hessian."""
    margin = sign * (phi @ theta)
    wrong = sigmoid(-margin)  # probability of the other class, overflow-free
    nll = float(np.mean(np.logaddexp(0.0, -margin)))
    grad = phi.T @ (-sign * wrong) / len(sign)
    hess = (phi.T * (wrong * (1.0 - wrong))) @ phi / len(sign)
    return nll, grad, hess


def _newton(phi, sign, theta, tol, lo=-math.inf, hi=math.inf):
    """Minimize the validation NLL of the margins ``phi @ theta`` by damped
    Newton from ``theta``, projected onto the box [lo, hi].

    Each step solves with the pseudo-inverse of the exact Hessian (matrix
    scaling's directions can be collinear) and is halved until the NLL
    falls, so the NLL never rises from the start point. Stops when the
    gradient norm is below ``tol``, when no halving lowers the NLL, or after
    NEWTON_STEPS steps, which only data without a finite optimum (separable
    classes) reaches. Returns theta and the (iter, nll, grad_norm) log rows.
    """
    nll, grad, hess = _objective(phi, sign, theta)
    rows = []
    for it in range(NEWTON_STEPS + 1):
        grad_norm = float(np.linalg.norm(grad))
        rows.append((it, nll, grad_norm))
        if grad_norm < tol or it == NEWTON_STEPS:
            break
        step = np.linalg.pinv(hess) @ grad
        for _ in range(MAX_HALVINGS):
            trial = np.clip(theta - step, lo, hi)
            trial_nll, trial_grad, trial_hess = _objective(phi, sign, trial)
            if trial_nll < nll or np.array_equal(trial, theta):
                break
            step = step / 2.0
        if not trial_nll < nll:
            break
        theta, nll, grad, hess = trial, trial_nll, trial_grad, trial_hess
    return theta, rows


def fit_temperature(val_logits, val_labels, tol: float = 1e-6, log_path=None) -> ScalerParams:
    """Fit T minimizing validation NLL of softmax(z / T).

    Newton runs on beta = 1/T, in which the NLL is convex, so its slope at
    the ends of the search box says where the minimum lies: if the NLL
    still falls at the sharpest bound or already rises at the flattest, the
    box collapses to that bound and the fit warns; otherwise projected
    Newton from T = 1 finds the minimum inside.
    """
    logits, sign = _check_fit_inputs(val_logits, val_labels, tol)
    phi = (logits[:, 1] - logits[:, 0])[:, None]
    lo, hi = (1.0 / t for t in reversed(TEMPERATURE_BOUNDS))
    warning = None
    if _objective(phi, sign, np.array([hi]))[1][0] < 0:
        lo, warning = hi, "temperature clamped at lower search bound; validation NLL is one-sided"
    elif _objective(phi, sign, np.array([lo]))[1][0] > 0:
        hi, warning = lo, "temperature clamped at upper search bound; validation NLL is one-sided"
    beta, rows = _newton(phi, sign, np.clip(np.ones(1), lo, hi), tol, lo, hi)
    _write_fit_log(log_path, rows)
    return ScalerParams(kind="temperature", temperature=1.0 / float(beta[0]), warning=warning)


def fit_vector(val_logits, val_labels, tol: float = 1e-6, log_path=None) -> ScalerParams:
    """Fit diagonal scaling (bias fixed at 0), whose margin is w1 z1 - w0 z0,
    by Newton from the identity."""
    logits, sign = _check_fit_inputs(val_logits, val_labels, tol)
    phi = np.column_stack([-logits[:, 0], logits[:, 1]])
    w_diag, rows = _newton(phi, sign, np.ones(2), tol)
    _write_fit_log(log_path, rows)
    return ScalerParams(kind="vector", w_diag=w_diag)


def fit_matrix(val_logits, val_labels, tol: float = 1e-6, log_path=None) -> ScalerParams:
    """Fit the full affine transform by Newton from the identity.

    Two-class softmax sees only the margin s (z1 - z0) + a (z1 + z0) + c, so
    Newton runs on (s, a, c) from (1, 0, 0) and the result is lifted to the
    (W, b) nearest the identity: W = I + [-delta; delta], b = (-c, c) / 2,
    whose columns of W sum to 1 and whose b sums to 0.
    """
    logits, sign = _check_fit_inputs(val_logits, val_labels, tol)
    z0, z1 = logits[:, 0], logits[:, 1]
    phi = np.column_stack([z1 - z0, z1 + z0, np.ones(len(z0))])
    (s, a, c), rows = _newton(phi, sign, np.array([1.0, 0.0, 0.0]), tol)
    _write_fit_log(log_path, rows)
    # the margin's coefficients on (z0, z1) are (a - s, a + s); the identity's are (-1, 1)
    delta = (np.array([a - s, a + s]) - (-1.0, 1.0)) / 2.0
    return ScalerParams(
        kind="matrix", w_full=np.eye(2) + np.stack([-delta, delta]), b=np.array([-c, c]) / 2.0
    )


def _write_fit_log(path, rows) -> None:
    if path is None:
        return
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
