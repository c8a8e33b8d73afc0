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

Each kind's parameters, with their scaler-file keys and shapes, are
declared once, in ``PARAMETERS``; the scaler's checks, its file writer and
its file reader follow it. A new kind is one entry there, a fit and a
transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import FormatError, json_number, read_json_object, write_csv, write_json
from .duloss import sigmoid

# each kind's fitted parameters in scaler-file order: (ScalerParams field,
# file key, shape); validate, save_scaler and load_scaler follow it
PARAMETERS = {
    "temperature": (("temperature", "T", ()),),
    "vector": (("w_diag", "w_diag", (2,)),),
    "matrix": (("w_full", "W", (2, 2)), ("b", "b", (2,))),
}
TEMPERATURE_BOUNDS = (1e-2, 1e2)
# step cap of the Newton fits; only separable data, with no finite optimum, reaches it
NEWTON_STEPS = 100
# halvings of one Newton step before the fit stops as making no progress
MAX_HALVINGS = 64
# gradient norm of the validation NLL below which a Newton fit has converged
TOL = 1e-6


class ScalerFormatError(FormatError):
    """Raised when a scaler file is not a well-formed scaler; the message
    names the file."""


@dataclass
class ScalerParams:
    """One fitted calibrator. Only the fields of its kind are set.

    ``warning`` is populated when the fit hit a degenerate case, e.g. a
    validation set whose NLL is one-sided in T so the temperature was
    clamped at a search bound. ``model_sha256`` is the sha256 of the model
    file whose logits it was fitted on, when known.
    """

    kind: str  # a key of PARAMETERS
    temperature: float | None = None
    w_diag: np.ndarray | None = None
    w_full: np.ndarray | None = None
    b: np.ndarray | None = None
    warning: str | None = None
    model_sha256: str | None = None

    def validate(self) -> None:
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown scaler kind {self.kind!r}")
        for field, key, shape in PARAMETERS[self.kind]:
            value = getattr(self, field)
            if value is None or np.shape(value) != shape or not np.all(np.isfinite(value)):
                raise ValueError(f"{self.kind} scaler key {key!r} must be finite, of shape {shape}")
        if self.kind == "temperature" and not self.temperature > 0:
            raise ValueError("temperature scaler key 'T' must be positive")


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


def _check_fit_inputs(val_logits, val_labels):
    """The validated (n, 2) logits and each row's label sign, 2y - 1."""
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


def _newton(phi, sign, theta, lo=-math.inf, hi=math.inf):
    """Minimize the validation NLL of the margins ``phi @ theta`` by damped
    Newton from ``theta``, projected onto the box [lo, hi].

    Each step solves with the pseudo-inverse of the exact Hessian (matrix
    scaling's directions can be collinear) and is halved until the NLL
    falls, so the NLL never rises from the start point. Stops when the
    gradient norm is below TOL, when no halving lowers the NLL, or after
    NEWTON_STEPS steps, which only data without a finite optimum (separable
    classes) reaches. Returns theta and the (iter, nll, grad_norm) log rows.
    """
    nll, grad, hess = _objective(phi, sign, theta)
    rows = []
    for it in range(NEWTON_STEPS + 1):
        grad_norm = float(np.linalg.norm(grad))
        rows.append((it, nll, grad_norm))
        if grad_norm < TOL or it == NEWTON_STEPS:
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


def fit_temperature(val_logits, val_labels, log_path=None) -> ScalerParams:
    """Fit T minimizing validation NLL of softmax(z / T).

    Newton runs on beta = 1/T, in which the NLL is convex, so its slope at
    the ends of the search box says where the minimum lies: if the NLL
    still falls at the sharpest bound or already rises at the flattest, the
    box collapses to that bound and the fit warns; otherwise projected
    Newton from T = 1 finds the minimum inside.
    """
    logits, sign = _check_fit_inputs(val_logits, val_labels)
    phi = (logits[:, 1] - logits[:, 0])[:, None]
    lo, hi = (1.0 / t for t in reversed(TEMPERATURE_BOUNDS))
    warning = None
    if _objective(phi, sign, np.array([hi]))[1][0] < 0:
        lo, warning = hi, "temperature clamped at lower search bound; validation NLL is one-sided"
    elif _objective(phi, sign, np.array([lo]))[1][0] > 0:
        hi, warning = lo, "temperature clamped at upper search bound; validation NLL is one-sided"
    beta, rows = _newton(phi, sign, np.clip(np.ones(1), lo, hi), lo, hi)
    _write_fit_log(log_path, rows)
    return ScalerParams(kind="temperature", temperature=1.0 / float(beta[0]), warning=warning)


def fit_vector(val_logits, val_labels, log_path=None) -> ScalerParams:
    """Fit diagonal scaling (bias fixed at 0), whose margin is w1 z1 - w0 z0,
    by Newton from the identity."""
    logits, sign = _check_fit_inputs(val_logits, val_labels)
    phi = np.column_stack([-logits[:, 0], logits[:, 1]])
    w_diag, rows = _newton(phi, sign, np.ones(2))
    _write_fit_log(log_path, rows)
    return ScalerParams(kind="vector", w_diag=w_diag)


def fit_matrix(val_logits, val_labels, log_path=None) -> ScalerParams:
    """Fit the full affine transform by Newton from the identity.

    Two-class softmax sees only the margin s (z1 - z0) + a (z1 + z0) + c, so
    Newton runs on (s, a, c) from (1, 0, 0) and the result is lifted to the
    (W, b) nearest the identity: W = I + [-delta; delta], b = (-c, c) / 2,
    whose columns of W sum to 1 and whose b sums to 0.
    """
    logits, sign = _check_fit_inputs(val_logits, val_labels)
    z0, z1 = logits[:, 0], logits[:, 1]
    phi = np.column_stack([z1 - z0, z1 + z0, np.ones(len(z0))])
    (s, a, c), rows = _newton(phi, sign, np.array([1.0, 0.0, 0.0]))
    _write_fit_log(log_path, rows)
    # the margin's coefficients on (z0, z1) are (a - s, a + s); the identity's are (-1, 1)
    delta = (np.array([a - s, a + s]) - (-1.0, 1.0)) / 2.0
    return ScalerParams(
        kind="matrix", w_full=np.eye(2) + np.stack([-delta, delta]), b=np.array([-c, c]) / 2.0
    )


def _write_fit_log(path, rows) -> None:
    if path is not None:
        write_csv(path, ("iter", "nll", "grad_norm"), rows)


def save_scaler(scaler: ScalerParams, path, extra: dict | None = None) -> None:
    """Write the scaler as JSON: {kind, its PARAMETERS keys in order,
    model_sha256 when known, warning when set}."""
    scaler.validate()
    doc: dict = {"kind": scaler.kind}
    for field, key, _ in PARAMETERS[scaler.kind]:
        doc[key] = np.asarray(getattr(scaler, field)).tolist()
    if scaler.model_sha256 is not None:
        doc["model_sha256"] = scaler.model_sha256
    if scaler.warning:
        doc["warning"] = scaler.warning
    if extra:
        doc.update(extra)
    write_json(path, doc)


def _json_numbers(doc: dict, key: str, scalar: bool = False):
    """``doc[key]`` as a float, or as a float array when it is a (nested)
    list; anything that is not a JSON number (booleans included, and ints
    beyond the float range) is rejected with the key's name."""
    value = doc.get(key)

    def floats(v):
        if isinstance(v, list) and not scalar:
            return [floats(e) for e in v]
        number = json_number(v)
        if number is None:
            raise ValueError(f"scaler key {key!r} must hold numbers within the float range, "
                             f"got {json.dumps(value)}")
        return number

    return floats(value) if scalar else np.asarray(floats(value), dtype=float)


def load_scaler(path) -> ScalerParams:
    """Read a scaler file back. A file that is not a well-formed scaler
    raises ``ScalerFormatError`` naming it."""
    doc = read_json_object(path, ScalerFormatError)
    try:
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in PARAMETERS:  # a list cannot be hashed
            raise ValueError(f"unknown scaler kind {kind!r}")
        scaler = ScalerParams(kind, **{field: _json_numbers(doc, key, scalar=shape == ())
                                       for field, key, shape in PARAMETERS[kind]})
        for key in ("warning", "model_sha256"):
            if key in doc and not isinstance(doc[key], str):
                raise ValueError(f"scaler key {key!r} must be a string, got {json.dumps(doc[key])}")
        scaler.warning, scaler.model_sha256 = doc.get("warning"), doc.get("model_sha256")
        scaler.validate()
    except (ValueError, RecursionError) as exc:  # RecursionError: a list nested too deep
        raise ScalerFormatError(f"{path}: {exc}") from exc
    return scaler
