"""Dense feed-forward network with manual backprop and Adam.

The default architecture is [295, 256, 256, 2]: ReLU hidden layers and two
output logits. When the density head is enabled the final layer emits a
third raw output, the log noise scale consumed by the data-uncertainty
loss. Gradients are hand-derived for the two supported losses
(softmax cross-entropy and the data-uncertainty loss) and checked against
finite differences in the test suite.

Every pass computes in the dtype of the parameters it is given. ``train``
keeps float64 master weights and Adam state and runs each step's forward
and backward pass in float32 on a float32 copy of them; the loss and its
gradient w.r.t. the network outputs are always taken in float64. Inference
and the gradient checks use the float64 parameters as they are.

Everything is seeded: on the same machine setup (BLAS library and thread
count included) the same seed, config and data reproduce the same
parameter trajectory bit for bit, and the text model format round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import duloss
from .artifacts import format_numbers, write_lines
from .duloss import softmax
from .metrics import PROB_FLOOR

DEFAULT_HIDDEN = [256, 256]
MODEL_MAGIC = "calibforge-model v1"

# entropy tag separating the training noise stream from other consumers of
# the same top-level seed
_NOISE_STREAM_TAG = 101


class ModelFormatError(ValueError):
    """Raised when a model file does not match the expected text format."""


@dataclass
class ModelParams:
    """Layer sizes plus per-layer weight matrices and bias vectors.

    ``layer_sizes`` always ends at the class count (2); with the density
    head enabled the final weight matrix and bias carry one extra output
    column for the raw noise output.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    du_head_enabled: bool = False

    def validate(self) -> None:
        sizes = list(self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes must be at least two positive integers")
        outs = sizes[1:]
        if self.du_head_enabled:
            outs = outs[:-1] + [outs[-1] + 1]
        if len(self.weights) != len(outs) or len(self.biases) != len(outs):
            raise ValueError("parameter count does not match layer_sizes")
        fan_in = sizes[0]
        for w, b, out in zip(self.weights, self.biases, outs):
            if w.shape != (fan_in, out) or b.shape != (out,):
                raise ValueError("parameter shapes do not chain consistently")
            fan_in = out
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")


def check_learning_rate(lr: float, name: str) -> None:
    """Reject an Adam step size that is not a finite number >= 0: a NaN or
    infinite step would only surface as non-finite parameters after all the
    work is done."""
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {lr!r}")


@dataclass
class TrainConfig:
    """Optimization settings. Defaults: Adam at 1e-4 for 20 epochs."""

    learning_rate: float = 1e-4
    epochs: int = 20
    batch_size: int = 512
    rng_seed: int = 0
    loss_kind: str = "ce"  # "ce" or "du"
    k_train: int = 32
    antithetic: bool = True

    def validate(self) -> None:
        check_learning_rate(self.learning_rate, "learning_rate")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.loss_kind not in ("ce", "du"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.loss_kind == "du":
            duloss.MCConfig(k=self.k_train, antithetic=self.antithetic)


def init_params(
    layer_sizes: list[int], du_head: bool = False, seed=0
) -> ModelParams:
    """He-style uniform fan-in initialization, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    sizes = list(layer_sizes)
    outs = sizes[1:]
    if du_head:
        outs = outs[:-1] + [outs[-1] + 1]
    weights, biases = [], []
    fan_in = sizes[0]
    for out in outs:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, out)))
        biases.append(np.zeros(out))
        fan_in = out
    params = ModelParams(sizes, weights, biases, du_head_enabled=du_head)
    params.validate()
    return params


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Run the network keeping hidden pre-activations for backprop."""
    h = x
    activations = [x]
    pre = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        u = h @ w + b
        pre.append(u)
        h = np.maximum(u, 0.0)
        activations.append(h)
    out = h @ params.weights[-1] + params.biases[-1]
    return activations, pre, out


def _check_batch(params: ModelParams, x) -> np.ndarray:
    """``x`` as an array of the parameters' dtype, copied only if needed."""
    x = np.asarray(x).astype(params.weights[0].dtype, copy=False)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input must be an (n, {params.layer_sizes[0]}) array, got shape {x.shape}"
        )
    return x


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Raw network outputs for an (n, F) batch.

    Output width is 2 (logits), or 3 with the density head: columns 0-1 are
    the logit means and column 2 is the raw noise output.
    """
    _, _, out = _forward_cached(params, _check_batch(params, x))
    return out


def split_outputs(params: ModelParams, out: np.ndarray):
    """Split raw outputs into (logits, s_raw-or-None)."""
    if params.du_head_enabled:
        return out[..., :2], out[..., 2]
    return out, None


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _loss_and_delta(out: np.ndarray, y: np.ndarray, loss_kind: str, noise):
    """Mean batch loss and its gradient w.r.t. the raw outputs, both in
    float64 whatever the dtype of ``out``."""
    out = out.astype(np.float64, copy=False)
    n = len(out)
    rows = np.arange(n)
    if loss_kind == "ce":
        p = softmax(out)
        loss = float(np.mean(-np.log(np.maximum(p[rows, y], PROB_FLOOR))))
        onehot = np.zeros_like(p)
        onehot[rows, y] = 1.0
        return loss, (p - onehot) / n
    if loss_kind == "du":
        if noise is None:
            raise ValueError("du loss requires a frozen noise block")
        mu, s_raw = out[:, :2], out[:, 2]
        losses, dmu, ds = duloss.batch_losses_and_grads(mu, s_raw, y, noise)
        return float(losses.mean()), np.concatenate([dmu, ds[:, None]], axis=1) / n
    raise ValueError(f"unknown loss_kind {loss_kind!r}")


def batch_loss(
    params: ModelParams, x: np.ndarray, y: np.ndarray, loss_kind: str = "ce", noise=None
) -> float:
    """Mean loss over a batch; the quantity whose gradient backward() returns."""
    y = np.asarray(y, dtype=int)
    _, _, out = _forward_cached(params, _check_batch(params, x))
    return _loss_and_delta(out, y, loss_kind, noise)[0]


def backward(
    params: ModelParams, x: np.ndarray, y: np.ndarray, loss_kind: str = "ce", noise=None
) -> tuple[float, Gradients, np.ndarray]:
    """Mean batch loss, its gradient w.r.t. every parameter, and the raw
    network outputs of the batch (as ``forward`` would return them).

    The passes run in the parameters' dtype and the gradients come back in
    it; the loss is taken in float64. For the data-uncertainty loss the
    (n, K, 2) noise block must be passed in explicitly; the gradient is
    pathwise through the frozen draws. The gradient w.r.t. the input is
    never formed.
    """
    x = _check_batch(params, x)
    y = np.asarray(y, dtype=int)
    activations, pre, out = _forward_cached(params, x)
    loss, delta = _loss_and_delta(out, y, loss_kind, noise)

    dweights = [None] * len(params.weights)
    dbiases = [None] * len(params.biases)
    dpre = delta.astype(out.dtype, copy=False)
    for layer in range(len(params.weights) - 1, -1, -1):
        dweights[layer] = activations[layer].T @ dpre
        dbiases[layer] = dpre.sum(axis=0)
        if layer > 0:
            dpre = (dpre @ params.weights[layer].T) * (pre[layer - 1] > 0.0)
    return loss, Gradients(dweights, dbiases), out


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(param_list: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in param_list],
        v=[np.zeros_like(p) for p in param_list],
        t=0,
    )


def adam_step(
    param_list: list[np.ndarray],
    grad_list: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over a flat list of parameter arrays.

    Updates the parameter arrays and ``state`` in place. The float
    operations and their order are those of the textbook expression
    ``p - lr * m_hat / (sqrt(v_hat) + eps)``, so the trajectory is the same
    bit for bit as an out-of-place update.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(param_list, grad_list, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        g2 = g * g
        g2 *= 1.0 - beta2
        v *= beta2
        v += g2
        step = m / c1
        step *= lr
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step


@dataclass
class EpochLog:
    epoch: int
    loss: float
    train_acc: float


def train(
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    layer_sizes: list[int] | None = None,
) -> tuple[ModelParams, list[EpochLog]]:
    """Train from scratch; returns the final parameters and per-epoch log.

    Deterministic for a fixed seed: initialization, the per-epoch shuffles
    and the per-(epoch, batch) MC noise streams are all derived from
    ``config.rng_seed``.

    An epoch's ``loss`` is the mean batch loss and its ``train_acc`` the
    running accuracy over the epoch's batches, each batch scored (argmax of
    the two logits) before its own Adam step; no separate pass over the
    training set is made.

    Each step runs its forward and backward pass in float32, on the float32
    rows and a float32 copy of the parameters; the gradients are cast back
    to float64 for Adam, which updates the float64 parameters it returns.
    """
    config.validate()
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, F) array")
    if layer_sizes is None:
        layer_sizes = [x.shape[1]] + DEFAULT_HIDDEN + [2]
    if x.shape[1] != layer_sizes[0]:
        raise ValueError("feature width does not match layer_sizes[0]")

    du = config.loss_kind == "du"
    root = np.random.SeedSequence(config.rng_seed)
    init_ss, shuffle_ss = root.spawn(2)
    params = init_params(layer_sizes, du_head=du, seed=init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    flat = params.weights + params.biases
    state = adam_init(flat)
    n = x.shape[0]
    mc = duloss.MCConfig(k=config.k_train, antithetic=config.antithetic) if du else None
    log = []
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            noise = None
            if du:
                noise_rng = np.random.default_rng(
                    [config.rng_seed, _NOISE_STREAM_TAG, epoch, batch_idx]
                )
                noise = duloss.draw_noise_batch(len(idx), mc, noise_rng)
            work = ModelParams(
                params.layer_sizes,
                [w.astype(np.float32) for w in params.weights],
                [b.astype(np.float32) for b in params.biases],
                du_head_enabled=du,
            )
            yb = y[idx]
            loss, grads, out = backward(work, x[idx], yb, config.loss_kind, noise)
            loss_sum += loss * len(idx)
            correct += int(np.count_nonzero(np.argmax(out[:, :2], axis=1) == yb))
            grads64 = [g.astype(np.float64) for g in grads.weights + grads.biases]
            adam_step(flat, grads64, state, lr=config.learning_rate)
        log.append(EpochLog(epoch=epoch, loss=loss_sum / n, train_acc=correct / n))
    return params, log


def write_training_log(log: list[EpochLog], path, comment: str | None = None) -> None:
    """CSV log: epoch,loss,train_acc."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("epoch,loss,train_acc")
    for row in log:
        lines.append(f"{row.epoch},{row.loss!r},{row.train_acc!r}")
    write_lines(path, lines)


def save_model(params: ModelParams, path, header: dict | None = None) -> None:
    """Write the versioned plain-text model file.

    Layout: the magic line, key=value header lines, then one block per
    parameter array holding its shape and row-major values. Values are
    written with shortest round-trip decimal repr, so loading restores them
    exactly and identical parameters produce identical bytes.
    """
    params.validate()
    lines = [MODEL_MAGIC]
    lines.append("layer_sizes=" + ",".join(str(s) for s in params.layer_sizes))
    lines.append(f"du_head={'true' if params.du_head_enabled else 'false'}")
    for key, value in (header or {}).items():
        if key in ("layer_sizes", "du_head"):
            continue
        lines.append(f"{key}={value}")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"param W{i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(format_numbers(row)))
        lines.append(f"param b{i} {b.shape[0]}")
        lines.append(" ".join(format_numbers(b)))
    lines.append("end")
    write_lines(path, lines)


def load_model(path) -> tuple[ModelParams, dict]:
    """Read a model file back; returns (params, header dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: missing '{MODEL_MAGIC}' header")
    header: dict = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("param "):
        line = lines[i]
        if line == "end":
            raise ModelFormatError(f"{path}: no parameter blocks found")
        if "=" not in line:
            raise ModelFormatError(f"{path}: line {i + 1}: expected key=value header")
        key, _, value = line.partition("=")
        header[key] = value
        i += 1
    try:
        layer_sizes = [int(s) for s in header["layer_sizes"].split(",")]
        du_head = header["du_head"] == "true"
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing header field {exc}") from exc

    weights, biases = [], []
    while i < len(lines) and lines[i] != "end":
        parts = lines[i].split()
        if len(parts) < 2 or parts[0] != "param":
            raise ModelFormatError(f"{path}: line {i + 1}: expected a param block")
        try:
            name, shape = parts[1], [int(p) for p in parts[2:]]
            i += 1
            if name.startswith("W"):
                rows = []
                for _ in range(shape[0]):
                    rows.append([float(v) for v in lines[i].split()])
                    i += 1
                arr = np.array(rows)
                if arr.shape != tuple(shape):
                    raise ModelFormatError(f"{path}: {name}: shape mismatch")
                weights.append(arr)
            else:
                arr = np.array([float(v) for v in lines[i].split()])
                i += 1
                if arr.shape != (shape[0],):
                    raise ModelFormatError(f"{path}: {name}: shape mismatch")
                biases.append(arr)
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise ModelFormatError(f"{path}: line {i + 1}: {exc}") from exc
    if i >= len(lines) or lines[i] != "end":
        raise ModelFormatError(f"{path}: missing end marker")
    params = ModelParams(layer_sizes, weights, biases, du_head_enabled=du_head)
    try:
        params.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return params, header

