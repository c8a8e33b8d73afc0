"""Dense feed-forward network with manual backprop and Adam.

The default architecture is [295, 256, 256, 2]: ReLU hidden layers of the
sizes ``TrainConfig.hidden`` and two output logits. When the density head
is enabled the final layer emits a third raw output, the log noise scale
consumed by the data-uncertainty loss. ``param_shapes`` declares each
parameter block's name and shape once, for ``init_params``, the checks, and
the model file's writer and reader. Gradients are hand-derived for the two
supported losses (softmax cross-entropy and the data-uncertainty loss),
returned by ``backward`` as one flat list, weights then biases, and checked
against finite differences in the test suite.

Every pass computes in the dtype of the parameters it is given. ``train``
keeps float64 master weights and Adam state and runs each step's forward
and backward pass in float32 on a float32 copy of them; the loss and its
gradient w.r.t. the network outputs are always taken in float64. Inference
and the gradient checks use the float64 parameters as they are.

``train`` holds its rows as ``ColumnRuns``: runs of consecutive columns,
int8 where every value of a column is an integer that int8 keeps exactly
(``int8_columns``) and float32 elsewhere, and takes each batch's float32
rows from them into one reused buffer. The runs lay themselves out as rows
are set, block by block, and widen an int8 column that a later block
breaks, so one pass over the rows fills them. An int8 value cast to
float32 is exact, so the batches are the float32 rows' bit for bit, while
the 163 small-integer columns of a generated 295-column file take a byte
each: 691 bytes a row instead of 1180.

Entries of that float64 output gradient below 2^-100 in magnitude are set
to 0 before backprop (``FLUSH_BELOW``). While the DU loss inflates sigma its
sigmoids saturate, and in float32 such a row's gradient and its products
through the layers are subnormal numbers, which many x86 CPUs multiply many
times slower: a (1024x256)^T (1024x256) float32 product with 1% subnormal
entries took 12.9 ms against 1.1 ms flushed (2 vCPU Xeon, OpenBLAS). CE
gradients do not reach that range, so the flush changes no CE model.

There is one layer loop, ``_forward_cached``. It keeps one array per
hidden layer, the activation, computed in place; backprop takes both its
inputs and its ReLU masks from those arrays. Training runs it on each
batch, and inference (``forward``) is one such pass that keeps only the
outputs, so it gives the training pass's outputs bit for bit on any batch.

Everything is seeded: on the same machine setup (BLAS library and thread
count included) the same seed, config and data reproduce the same
parameter trajectory bit for bit, and the text model format round-trips
exactly.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from . import duloss
from .artifacts import FormatError, format_numbers, write_csv, write_lines
from .duloss import softmax
from .metrics import PROB_FLOOR

MODEL_MAGIC = "calibforge-model v1"

# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# output-gradient entries of smaller magnitude are set to 0 before backprop
FLUSH_BELOW = 2.0**-100

# entropy tag separating the training noise stream from other consumers of
# the same top-level seed
_NOISE_STREAM_TAG = 101


class ModelFormatError(FormatError):
    """Raised when a model file does not match the expected text format."""


def param_shapes(layer_sizes: list[int], du_head: bool = False) -> list[tuple[str, tuple]]:
    """The ``(name, shape)`` of each parameter block, in model-file order:
    per layer ``i``, ``W<i>`` of shape ``(fan_in, out)`` then ``b<i>`` of
    shape ``(out,)``; with the density head the last layer has one more
    output, the raw noise output. ValueError unless ``layer_sizes`` are two
    or more, all positive, the last the 2 classes."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes) or sizes[-1] != 2:
        raise ValueError(f"'layer_sizes' must be two or more positive sizes ending at 2: {sizes}")
    outs = sizes[1:-1] + [sizes[-1] + bool(du_head)]
    shapes = []
    for i, (fan_in, out) in enumerate(zip(sizes, outs)):
        shapes += [(f"W{i}", (fan_in, out)), (f"b{i}", (out,))]
    return shapes


@dataclass
class ModelParams:
    """Layer sizes plus per-layer weight matrices and bias vectors, of the
    shapes ``param_shapes`` gives for ``layer_sizes`` and the head flag."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    du_head_enabled: bool = False

    def validate(self) -> None:
        shapes = param_shapes(self.layer_sizes, self.du_head_enabled)
        got = [np.shape(arr) for arr in self.weights + self.biases]
        if got != [shape for _, shape in shapes[::2] + shapes[1::2]]:
            raise ValueError(f"parameter shapes {got} do not match layer_sizes {self.layer_sizes}")
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")


@dataclass
class TrainConfig:
    """Optimization settings and hidden sizes. Defaults: Adam at 1e-4 for 20 epochs."""

    learning_rate: float = 1e-4
    epochs: int = 20
    batch_size: int = 512
    rng_seed: int = 0
    loss_kind: str = "ce"  # "ce" or "du"
    k_train: int = duloss.MCConfig.k
    hidden: tuple[int, ...] = (256, 256)

    def validate(self) -> None:
        # a NaN or infinite step would only surface as non-finite
        # parameters after all the work is done
        lr = self.learning_rate
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"learning_rate must be finite and nonnegative, got {lr!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be at least 1, got {self.hidden}")
        if self.loss_kind not in ("ce", "du"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.loss_kind == "du":
            duloss.MCConfig(k=self.k_train)


def init_params(
    layer_sizes: list[int], du_head: bool = False, seed=0
) -> ModelParams:
    """He-style uniform fan-in initialization, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(layer_sizes, du_head)
    weights = []
    for _, (fan_in, out) in shapes[::2]:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, out)))
    biases = [np.zeros(shape) for _, shape in shapes[1::2]]
    return ModelParams(list(layer_sizes), weights, biases, du_head_enabled=du_head)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """The one layer loop: ``(activations, out)``, the input and every
    hidden activation (each computed in place), and the raw outputs."""
    h = x
    activations = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    out = h @ params.weights[-1]
    out += params.biases[-1]
    return activations, out


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

    One pass of the training loop (``_forward_cached``) on the batch as
    given, keeping only its outputs, so its values are the training pass's
    bit for bit. calibrate and eval pass it one ``datagen.BLOCK_ROWS`` block
    at a time.
    """
    return _forward_cached(params, _check_batch(params, x))[1]


def split_outputs(model, out: np.ndarray):
    """Split raw outputs into (logits, s_raw-or-None). ``model`` is a
    ModelParams or a ModelFile; only its ``du_head_enabled`` is read."""
    if model.du_head_enabled:
        return out[..., :2], out[..., 2]
    return out, None


def probability_rule(model) -> str:
    """The name of the rule by which ``probabilities`` maps ``model``'s raw
    outputs to class probabilities."""
    return duloss.EXACT_RULE if model.du_head_enabled else "softmax"


def probabilities(model, out: np.ndarray) -> np.ndarray:
    """The (n, 2) class probabilities of ``model``'s own raw outputs: the
    softmax of the logits, or with the density head their expectation under
    the noise, ``duloss.expected_probs_exact``. Each row depends on its own
    outputs only, so row blocks give the probabilities of the whole array."""
    logits, s_raw = split_outputs(model, out)
    if s_raw is None:
        return softmax(logits)
    return duloss.expected_probs_exact(logits, s_raw)


def _loss_and_delta(out: np.ndarray, y: np.ndarray, loss_kind: str, noise):
    """Mean batch loss and its gradient w.r.t. the raw outputs, both in
    float64 whatever the dtype of ``out``."""
    out = out.astype(np.float64, copy=False)
    n = len(out)
    rows = np.arange(n)
    if loss_kind == "ce":
        p = softmax(out)
        loss = float(np.mean(-np.log(np.maximum(p[rows, y], PROB_FLOOR))))
        p[rows, y] -= 1.0
        return loss, p / n
    if loss_kind == "du":
        if noise is None:
            raise ValueError("du loss requires a frozen noise block")
        mu, s_raw = out[:, :2], out[:, 2]
        losses, dmu, ds = duloss.batch_losses_and_grads(mu, s_raw, y, noise)
        return float(losses.mean()), np.concatenate([dmu, ds[:, None]], axis=1) / n
    raise ValueError(f"unknown loss_kind {loss_kind!r}")


def backward(
    params: ModelParams, x: np.ndarray, y: np.ndarray, loss_kind: str = "ce", noise=None
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Mean batch loss, its gradient w.r.t. every parameter, and the raw
    network outputs of the batch (as ``forward`` would return them). The
    gradients are one flat list in ``params.weights + params.biases`` order.

    The passes run in the parameters' dtype and the gradients come back in
    it; the loss is taken in float64, and so is the gradient w.r.t. the
    outputs, whose entries below FLUSH_BELOW in magnitude are set to 0. For
    the data-uncertainty loss the (n, K, 2) noise block must be passed in
    explicitly; the gradient is pathwise through the frozen draws. The
    gradient w.r.t. the input is never formed.
    """
    x = _check_batch(params, x)
    y = np.asarray(y, dtype=int)
    activations, out = _forward_cached(params, x)
    loss, delta = _loss_and_delta(out, y, loss_kind, noise)
    delta[np.abs(delta) < FLUSH_BELOW] = 0.0

    dweights = [None] * len(params.weights)
    dbiases = [None] * len(params.biases)
    dpre = delta.astype(out.dtype, copy=False)
    for layer in range(len(params.weights) - 1, -1, -1):
        dweights[layer] = activations[layer].T @ dpre
        dbiases[layer] = dpre.sum(axis=0)
        if layer > 0:
            # the activation max(u, 0) is positive exactly where u is, NaN included
            dpre = dpre @ params.weights[layer].T
            dpre *= activations[layer] > 0.0
    return loss, dweights + dbiases, out


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
) -> None:
    """One bias-corrected Adam update over a flat list of parameter arrays.

    Updates the parameter arrays and ``state`` in place. The float
    operations and their order are those of the textbook expression
    ``p - lr * m_hat / (sqrt(v_hat) + eps)``, so the trajectory is the same
    bit for bit as an out-of-place update.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(param_list, grad_list, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        g2 = g * g
        g2 *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += g2
        step = m / c1
        step *= lr
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step


def int8_columns(x: np.ndarray) -> np.ndarray:
    """Which columns of the (n, F) float array ``x`` an int8 run holds
    exactly: those whose every value is an integer in [-128, 127] and none
    -0.0, which an int8 0 would turn into +0.0."""
    exact = (x == np.rint(x)) & (x >= -128) & (x <= 127) & (np.signbit(x) == (x < 0))
    return exact.all(axis=0)


class Float32RangeError(ValueError):
    """A value set in ColumnRuns whose float32 cast would be infinite, in
    row ``row`` of the rows set."""

    def __init__(self, row: int, column: int, value: float):
        super().__init__(f"feature {column} is {value!r}, beyond the float32 range")
        self.row = row


# the least float64 magnitude whose float32 cast is infinite: the midpoint
# between the largest float32 and 2^128 rounds up
FLOAT32_OVERFLOW = np.float64(2.0**128 - 2.0**103)


class ColumnRuns:
    """The rows of an (n, F) matrix held as runs of consecutive columns,
    each an (n, width) int8 or float32 array, in column order. An int8
    value cast to float32 is exact, so ``take`` gives the float32 rows of
    the matrix bit for bit while a column of small integers (a minute, a
    kill count, a champion pick) takes a quarter of the bytes.

    ``ColumnRuns(shape)`` is uninitialised, as ``np.empty(shape)`` is, and
    the first rows set lay the runs out (see ``__setitem__``)."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = tuple(shape)
        self.int8, self.runs, self.spans = None, [], []  # int8: the int8 columns' mask

    def _lay_out(self, int8: np.ndarray) -> None:
        """Lay the runs out by the column mask ``int8``, a subset of the
        current one: a run laid out as before stays, and any other is filled
        from the current runs, widening a dropped column's int8 values."""
        cuts = [0, *(np.flatnonzero(int8[1:] != int8[:-1]) + 1).tolist(), len(int8)]
        spans = [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]
        kept = {(s.start, s.stop, run.dtype): run for s, run in zip(self.spans, self.runs)}
        runs = []
        for span in spans:
            dtype = np.dtype(np.int8 if int8[span.start] else np.float32)
            run = kept.get((span.start, span.stop, dtype))
            if run is None:
                run = np.empty((self.shape[0], span.stop - span.start), dtype)
                for old_span, old in zip(self.spans, self.runs):
                    lo, hi = max(old_span.start, span.start), min(old_span.stop, span.stop)
                    if lo < hi:
                        run[:, lo - span.start : hi - span.start] = \
                            old[:, lo - old_span.start : hi - old_span.start]
            runs.append(run)
        self.int8, self.runs, self.spans = int8, runs, spans

    def __setitem__(self, rows, x: np.ndarray) -> None:
        """Set the rows ``rows`` (an index array or a slice) to those of the
        float array ``x``. The first rows set lay the runs out by their
        int8_columns, and a later set that breaks an int8 column first widens
        it to float32; setting no rows changes nothing. A value whose float32
        cast would be infinite raises Float32RangeError, and nothing is set."""
        x = np.asarray(x)
        if len(x) == 0:
            return
        beyond = np.abs(x) >= FLOAT32_OVERFLOW
        if beyond.any():
            row, column = np.argwhere(beyond)[0].tolist()
            raise Float32RangeError(row, column, float(x[row, column]))
        int8 = int8_columns(x)
        if self.int8 is None or (self.int8 & ~int8).any():
            self._lay_out(int8 if self.int8 is None else self.int8 & int8)
        for span, run in zip(self.spans, self.runs):
            run[rows] = x[:, span]

    def take(self, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The float32 rows ``idx``, written into ``out``, an (len(idx), F)
        float32 array, which is returned."""
        for span, run in zip(self.spans, self.runs):
            out[:, span] = run.take(idx, axis=0)
        return out


@dataclass
class EpochLog:
    epoch: int
    loss: float
    train_acc: float


def train(
    x: np.ndarray | ColumnRuns,
    y: np.ndarray,
    config: TrainConfig,
) -> tuple[ModelParams, list[EpochLog]]:
    """Train the network ``[F, *config.hidden, 2]`` from scratch on the (n,
    F) rows ``x``; returns the final parameters and per-epoch log.

    Deterministic for a fixed seed: initialization, the per-epoch shuffles
    and the per-(epoch, batch) MC noise streams are all derived from
    ``config.rng_seed``.

    An epoch's ``loss`` is the mean batch loss and its ``train_acc`` the
    running accuracy over the epoch's batches, each batch scored (argmax of
    the two logits) before its own Adam step; no separate pass over the
    training set is made.

    The rows ``x`` are ColumnRuns, or an (n, F) array, which is set into
    ColumnRuns of its shape; a value whose float32 cast would be infinite
    raises ValueError naming its row and feature, before any step. Each
    step takes its batch's float32 rows from the runs into one reused
    buffer and runs its forward and backward pass in float32, on those rows
    and a float32 copy of the parameters; the gradients are cast back to
    float64 for Adam, which updates the float64 parameters it returns.
    """
    config.validate()
    if isinstance(x, ColumnRuns):
        rows = x
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("dataset must be a nonempty (n, F) array")
        rows = ColumnRuns(x.shape)
        try:
            rows[:] = x
        except Float32RangeError as exc:
            raise ValueError(f"row {exc.row}: {exc}") from exc
    y = np.asarray(y, dtype=int)
    n, width = rows.shape
    if n == 0:
        raise ValueError("dataset must be a nonempty (n, F) array")

    du = config.loss_kind == "du"
    root = np.random.SeedSequence(config.rng_seed)
    init_ss, shuffle_ss = root.spawn(2)
    params = init_params([width, *config.hidden, 2], du_head=du, seed=init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    flat = params.weights + params.biases
    state = adam_init(flat)
    batch = np.empty((min(config.batch_size, n), width), dtype=np.float32)
    mc = duloss.MCConfig(k=config.k_train) if du else None
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
            xb = rows.take(idx, batch[: len(idx)])
            loss, grads, out = backward(work, xb, yb, config.loss_kind, noise)
            loss_sum += loss * len(idx)
            correct += int(np.count_nonzero(np.argmax(out[:, :2], axis=1) == yb))
            adam_step(flat, [g.astype(np.float64) for g in grads], state,
                      lr=config.learning_rate)
        log.append(EpochLog(epoch=epoch, loss=loss_sum / n, train_acc=correct / n))
    return params, log


def write_training_log(log: list[EpochLog], path, comment: str | None = None) -> None:
    """CSV log: epoch,loss,train_acc."""
    rows = ((row.epoch, row.loss, row.train_acc) for row in log)
    write_csv(path, ("epoch", "loss", "train_acc"), rows, comment)


def _param_line(name: str, shape: tuple) -> str:
    return " ".join(["param", name, *map(str, shape)])


def save_model(params: ModelParams, path, header: dict | None = None) -> None:
    """Write the versioned plain-text model file.

    Layout: the magic line, key=value header lines, a block per entry of
    ``param_shapes`` (its ``param <name> <shape>`` line, then a line per row,
    a vector being one row), then ``end``. Values are written with the
    shortest round-trip decimal repr, so loading restores them exactly and
    identical parameters produce identical bytes. A header entry that
    read_model would not read back raises ValueError first.
    """
    params.validate()
    lines = [MODEL_MAGIC]
    lines.append("layer_sizes=" + ",".join(str(s) for s in params.layer_sizes))
    lines.append(f"du_head={'true' if params.du_head_enabled else 'false'}")
    for key, value in (header or {}).items():
        if key in ("layer_sizes", "du_head"):
            continue
        line = f"{key}={value}"
        if "=" in str(key) or line.startswith("param ") or "\n" in line or "\r" in line:
            raise ValueError(f"model header key {key!r} does not make one key=value line")
        lines.append(line)
    arrays = [arr for pair in zip(params.weights, params.biases) for arr in pair]
    for block, arr in zip(param_shapes(params.layer_sizes, params.du_head_enabled), arrays):
        lines.append(_param_line(*block))
        lines.extend(" ".join(format_numbers(row)) for row in np.atleast_2d(arr))
    lines.append("end")
    write_lines(path, lines)


@dataclass
class ModelFile:
    """A model file read once: the sha256 of its bytes, its checked header,
    and its lines, from which ``params`` parses and checks the weights."""

    path: str
    sha256: str
    header: dict
    layer_sizes: list[int]
    du_head_enabled: bool
    lines: list[str]
    body_start: int  # index in ``lines`` of the first parameter block

    @property
    def n_outputs(self) -> int:
        """The width of ``forward``'s outputs (see ``split_outputs``)."""
        return param_shapes(self.layer_sizes, self.du_head_enabled)[-1][1][0]

    def params(self) -> ModelParams:
        """The parameters. Each block of ``param_shapes`` must open with its
        exact ``param`` line and hold its rows of its width, and ``end``
        must follow the last; else ``ModelFormatError`` names the line."""
        path, lines, i = self.path, self.lines, self.body_start
        arrays = []
        for name, shape in param_shapes(self.layer_sizes, self.du_head_enabled):
            expected = _param_line(name, shape)
            if i >= len(lines) or lines[i] != expected:
                raise ModelFormatError(f"{path}: line {i + 1}: expected {expected!r}")
            rows = []
            for _ in range(math.prod(shape[:-1])):  # one line per row, a vector's one
                i += 1
                try:
                    rows.append([float(v) for v in lines[i].split()])
                    if len(rows[-1]) != shape[-1]:
                        raise ValueError(f"expected {shape[-1]} values, got {len(rows[-1])}")
                except (ValueError, IndexError) as exc:
                    raise ModelFormatError(f"{path}: line {i + 1}: {exc}") from exc
            arrays.append(np.array(rows).reshape(shape))
            i += 1
        if i >= len(lines) or lines[i] != "end":
            raise ModelFormatError(f"{path}: line {i + 1}: missing end marker")
        params = ModelParams(self.layer_sizes, arrays[::2], arrays[1::2], self.du_head_enabled)
        try:
            params.validate()
        except ValueError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
        return params


def read_model(path) -> ModelFile:
    """Read a model file's bytes once, hash them and check the header; a
    file that is not UTF-8 text or whose header is malformed raises
    ``ModelFormatError`` naming it. No weight is parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # the lines of a text-mode read, universal newlines included
        lines = [line.rstrip("\n") for line in io.TextIOWrapper(io.BytesIO(data), "utf-8")]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
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
        sizes, flag = header["layer_sizes"], header["du_head"]
        layer_sizes = [int(s) for s in sizes.split(",")]
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing header field {exc}") from exc
    except ValueError as exc:
        msg = f"header field 'layer_sizes' is malformed: {sizes!r}"
        raise ModelFormatError(f"{path}: {msg}") from exc
    try:
        param_shapes(layer_sizes)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: header field {exc}") from exc
    if flag not in ("true", "false"):
        raise ModelFormatError(f"{path}: header field 'du_head' must be true or false: {flag!r}")
    sha256 = hashlib.sha256(data).hexdigest()
    return ModelFile(str(path), sha256, header, layer_sizes, flag == "true", lines, i)

