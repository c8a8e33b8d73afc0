"""Data-uncertainty loss for two-class logits.

A density head predicts a logit mean vector mu(x) and a raw noise output
s(x); the noise scale is sigma(x) = exp(s(x)) so it stays positive. Logits
are sampled as u = mu + sigma * eps with standard-normal eps (the
reparameterization trick, so the Monte-Carlo estimate stays differentiable
in mu and s), class probabilities are the average of softmax(u) over K
draws, and the loss is the cross-entropy of the true label under that
averaged probability.

In the two-class case each draw collapses to a sigmoid: the probability of
class 1 is Sigmoid(mu_c + sigma * eps_c) with mu_c = mu_1 - mu_2 and
eps_c = eps_1 - eps_2, whose standard deviation is sigma * sqrt(2). The
averaging flattens confident outputs on the concave side of the sigmoid,
which is what produces the calibration effect.

Every function works on a batch of n inputs: ``draw_noise_batch`` draws the
(n, K, 2) noise block from the caller's generator, ``expected_probs_batch``
averages the sampled softmaxes, and ``batch_losses_and_grads`` returns
per-input losses and pathwise gradients for that frozen noise (training).

Evaluation needs no noise: ``expected_probs_exact`` integrates the same
expectation with a fixed quadrature rule, so it is deterministic and
accurate to about 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import PROB_FLOOR


def sigmoid(x):
    """Numerically stable logistic function; preserves scalar inputs."""
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def softmax(z) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction)."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo sampling knobs: draw count and antithetic pairing."""

    k: int = 32
    antithetic: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.antithetic and self.k % 2 != 0:
            raise ValueError("antithetic sampling requires an even k")


def draw_noise_batch(n: int, mc: MCConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, K, 2) standard-normal noise block, one K-draw set per input.

    Rows come from ``rng`` in order, so a seeded generator reproduces the
    block bit for bit. With antithetic pairing draw j + K/2 is the negation
    of draw j, so each row's draws average to zero exactly.
    """
    if mc.antithetic:
        half = rng.standard_normal((n, mc.k // 2, 2))
        return np.concatenate([half, -half], axis=1)
    return rng.standard_normal((n, mc.k, 2))


def expected_probs_batch(mu: np.ndarray, s_raw: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """MC-averaged class probabilities: the mean of softmax(mu + sigma * eps).

    Shapes: mu (n, 2), s_raw (n,), eps (n, K, 2). Returns (n, 2).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.exp(np.asarray(s_raw, dtype=float))
    u = mu[:, None, :] + sigma[:, None, None] * eps
    return softmax(u).mean(axis=1)


# the rule of expected_probs_exact, as DU eval reports name it
EXACT_RULE = "gauss-hermite-32 (s < 1) / logistic-trapezoid-201 (s >= 1)"
# math.erfc elementwise; the normal CDF is Phi(x) = 0.5 * erfc(-x / sqrt(2))
_erfc = np.frompyfunc(math.erfc, 1, 1)


def expected_probs_exact(mu: np.ndarray, s_raw: np.ndarray) -> np.ndarray:
    """E[softmax(mu + sigma * eps)] over eps ~ N(0, I), by fixed quadrature.

    Shapes: mu (n, 2), s_raw (n,). Returns (n, 2). With m = mu_1 - mu_0 and
    s = sqrt(2) * sigma, class 1 has probability E[sigmoid(m + s Z)] for
    Z ~ N(0, 1), which equals E[Phi((m + L) / s)] for a standard logistic L.
    q, the probability of the less likely class, is integrated at -|m| in
    whichever variable is smooth: 32-node Gauss-Hermite in Z where s < 1, a
    201-node trapezoid over L in [-40, 40] where s >= 1. The likelier class
    gets 1 - q, so a small probability keeps its precision. Nodes are added
    one at a time: memory stays O(n) and each row depends on itself only.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu[:, 1] - mu[:, 0]
    s = math.sqrt(2.0) * np.exp(np.asarray(s_raw, dtype=float))
    low = -np.abs(m)
    q = np.empty(len(m))
    narrow = s < 1.0
    # probabilists' Gauss-Hermite nodes, weights normalised to the N(0, 1)
    # density; numpy.polynomial loads here, not with the module, because
    # importing it adds about 2 MB to every command
    nodes, weights = np.polynomial.hermite_e.hermegauss(32)
    m_n, s_n = low[narrow], s[narrow]
    acc = np.zeros(len(m_n))
    for z, w in zip(nodes, weights / math.sqrt(2.0 * math.pi)):
        acc += w * sigmoid(m_n + s_n * z)
    q[narrow] = acc
    # trapezoid nodes over L, weighted by the logistic density
    grid = np.linspace(-40.0, 40.0, 201)
    density = sigmoid(grid) * sigmoid(-grid) * (grid[1] - grid[0])
    density[[0, -1]] *= 0.5
    m_w, scale = low[~narrow], -math.sqrt(2.0) * s[~narrow]
    acc = np.zeros(len(m_w))
    for v, w in zip(grid, 0.5 * density):
        acc += w * _erfc((m_w + v) / scale).astype(float)
    q[~narrow] = acc
    q[m == 0.0] = 0.5  # exact by symmetry, so swapping mu's columns swaps p's
    likelier = 1.0 - q
    first = m > 0.0
    return np.column_stack([np.where(first, q, likelier), np.where(first, likelier, q)])


def batch_losses_and_grads(
    mu: np.ndarray, s_raw: np.ndarray, y: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample losses and pathwise gradients for a batch.

    Shapes: mu (n, 2), s_raw (n,), y (n,), eps (n, K, 2). Returns
    (losses (n,), dmu (n, 2), ds_raw (n,)). Samples whose averaged true-class
    probability sits below the clamp floor get zero gradient, matching the
    flat region of the clamped loss.
    """
    n, k = eps.shape[0], eps.shape[1]
    sigma = np.exp(s_raw)
    u = mu[:, None, :] + sigma[:, None, None] * eps
    p = softmax(u)  # (n, K, 2)
    pbar = p.mean(axis=1)  # (n, 2)
    rows = np.arange(n)
    py = pbar[rows, y]
    losses = -np.log(np.maximum(py, PROB_FLOOR))

    onehot = np.zeros((n, 2))
    onehot[rows, y] = 1.0
    pky = p[rows, :, y]  # (n, K)
    coef = -(pky / (k * py)[:, None])  # (n, K)
    dldu = coef[:, :, None] * (onehot[:, None, :] - p)  # (n, K, 2)
    dmu = dldu.sum(axis=1)
    ds = (dldu * eps).sum(axis=(1, 2)) * sigma

    clamped = py < PROB_FLOOR
    if np.any(clamped):
        dmu[clamped] = 0.0
        ds[clamped] = 0.0
    return losses, dmu, ds
