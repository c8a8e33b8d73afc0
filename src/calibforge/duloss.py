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
(n, K, 2) noise block from the caller's generator; ``expected_probs_batch``
and ``batch_losses_and_grads`` average per-draw sigmoids of the collapsed
margin mu_c + sigma * eps_c, an (n, K) array, for the probabilities and for
the per-input losses and pathwise gradients of that frozen noise (training).

Evaluation needs no noise: ``expected_probs_exact`` integrates the same
expectation with a fixed quadrature rule, so it is deterministic and
accurate to about 1e-13. The rule's normal CDF, ``normal_cdf``, is W. J.
Cody's rational approximation evaluated in numpy, within a few eps of the
exact value.
"""

from __future__ import annotations

import functools
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
    """Monte-Carlo sampling: the draw count K, which must be even because
    draws come in antithetic pairs."""

    k: int = 32

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.k % 2 != 0:
            raise ValueError("antithetic sampling requires an even k")


def draw_noise_batch(n: int, mc: MCConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, K, 2) standard-normal noise block, one K-draw set per input.

    Rows come from ``rng`` in order, so a seeded generator reproduces the
    block bit for bit. Draws come in antithetic pairs: draw j + K/2 is the
    negation of draw j, so each row's draws average to zero exactly.
    """
    half = rng.standard_normal((n, mc.k // 2, 2))
    return np.concatenate([half, -half], axis=1)


def _margin_draws(mu, s_raw, eps):
    """The collapsed draws a = m + sigma * eps_c, shape (n, K), with
    m = mu_1 - mu_0 and eps_c = eps_1 - eps_0, returned with eps_c and sigma."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.exp(np.asarray(s_raw, dtype=float))
    eps_c = eps[:, :, 1] - eps[:, :, 0]
    return (mu[:, 1] - mu[:, 0])[:, None] + sigma[:, None] * eps_c, eps_c, sigma


def expected_probs_batch(mu: np.ndarray, s_raw: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """MC-averaged class probabilities: the mean of softmax(mu + sigma * eps),
    taken as the means of sigmoid(-a) and sigmoid(a) over the collapsed draws.

    Shapes: mu (n, 2), s_raw (n,), eps (n, K, 2). Returns (n, 2).
    """
    a, _, _ = _margin_draws(mu, s_raw, eps)
    return np.column_stack([sigmoid(-a).mean(axis=1), sigmoid(a).mean(axis=1)])


# the rule of expected_probs_exact, as DU eval reports name it
EXACT_RULE = "gauss-hermite-32 (s < 1) / logistic-trapezoid-201 (s >= 1)"
# expected_probs_exact takes the trapezoid's rows this many at a time
EXACT_BLOCK_ROWS = 256

# W. J. Cody's rational Chebyshev approximations of the normal CDF (Math.
# Comp. 23, 1969; ANORM of ACM TOMS Algorithm 715, 1993) on |x| <= 0.67448975,
# on |x| <= sqrt(32) and beyond, each as (numerator, denominator)
# coefficients; the last numerator entry is the leading one
_CODY_CENTRE = 0.67448975
_CODY_A = (
    (2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
     18154.981253343561249, 0.065682337918207449113),
    (47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
     45507.789335026729956),
)
_CODY_C = (
    (0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
     597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
     11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8),
    (22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
     6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
     38912.003286093271411, 19685.429676859990727),
)
_CODY_P = (
    (0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
     0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303),
    (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
     0.00378239633202758244, 7.29751555083966205e-5),
)


def _cody_ratio(t, coefficients, top: int):
    """Horner's rule for Cody's num(t) / den(t) of one range: the numerator
    starts from its last (leading) coefficient, the denominator from t."""
    num_c, den_c = coefficients
    num, den = num_c[-1] * t, t
    for a, b in zip(num_c[:top], den_c[:top]):
        num = (num + a) * t
        den = (den + b) * t
    return (num + num_c[top]) / (den + den_c[top])


def normal_cdf(x) -> np.ndarray:
    """The standard normal CDF Phi of each entry of a float array, by W. J.
    Cody's approximations: near 0, Phi is 0.5 + x r(x^2); elsewhere the
    smaller tail Phi(-|x|) is exp(-x^2 / 2) r(|x|), with x^2 / 2 split at a
    multiple of 1/16 so that its rounding does not grow with |x|, and the
    larger one is 1 minus it. Each entry is computed on its own, so its
    value does not depend on the array around it. Over [-37, 37] it is
    within 3.1 eps relative of the exact Phi. 0.5 * erfc(-x / sqrt(2)),
    whose rounded argument alone moves Phi by up to about x^2 eps, agrees
    with it to 6.7e-16 relative on |x| <= 1."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty_like(x)
    centre = y <= _CODY_CENTRE
    xc = x[centre]
    out[centre] = 0.5 + xc * _cody_ratio(xc * xc, _CODY_A, 3)
    tail = ~centre
    # Phi(-40) is 0 in float64; the clip keeps y * y finite
    yt = np.minimum(y[tail], 40.0)
    ratio = np.empty_like(yt)
    mid = yt <= math.sqrt(32.0)
    ratio[mid] = _cody_ratio(yt[mid], _CODY_C, 7)
    yf = yt[~mid]
    inv = 1.0 / (yf * yf)
    ratio[~mid] = (1.0 / math.sqrt(2.0 * math.pi) - inv * _cody_ratio(inv, _CODY_P, 4)) / yf
    whole = np.trunc(yt * 16.0) / 16.0
    small = np.exp(-whole * whole * 0.5) * np.exp(-(yt - whole) * (yt + whole) * 0.5) * ratio
    out[tail] = np.where(x[tail] < 0.0, small, 1.0 - small)
    return out


@functools.cache
def _exact_nodes():
    """The nodes and weights of expected_probs_exact's two rules, built once
    per process: the probabilists' 32 Gauss-Hermite nodes with weights
    normalised to the N(0, 1) density, and the 201 trapezoid nodes over L
    with weights from the logistic density. The arrays are shared, so they
    are read-only."""
    # numpy.polynomial loads here, not with the module, because importing it
    # adds about 2 MB to every command
    nodes, weights = np.polynomial.hermite_e.hermegauss(32)
    grid = np.linspace(-40.0, 40.0, 201)
    density = sigmoid(grid) * sigmoid(-grid) * (grid[1] - grid[0])
    density[[0, -1]] *= 0.5
    rule = (nodes, weights / math.sqrt(2.0 * math.pi), grid, density)
    for array in rule:
        array.setflags(write=False)
    return rule


def expected_probs_exact(mu: np.ndarray, s_raw: np.ndarray) -> np.ndarray:
    """E[softmax(mu + sigma * eps)] over eps ~ N(0, I), by fixed quadrature.

    Shapes: mu (n, 2), s_raw (n,). Returns (n, 2). With m = mu_1 - mu_0 and
    s = sqrt(2) * sigma, class 1 has probability E[sigmoid(m + s Z)] for
    Z ~ N(0, 1), which equals E[Phi((m + L) / s)] for a standard logistic L.
    q, the probability of the less likely class, is integrated at -|m| in
    whichever variable is smooth: 32-node Gauss-Hermite in Z where s < 1, a
    201-node trapezoid over L in [-40, 40] where s >= 1. The likelier class
    gets 1 - q, so a small probability keeps its precision. The trapezoid
    takes EXACT_BLOCK_ROWS rows at a time, so memory stays O(n). Each row's
    nodes are added one at a time in node order, so each row depends on
    itself only.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu[:, 1] - mu[:, 0]
    # s is inf above s_raw ~ 709.4, where the trapezoid's Phi((m + L) / s) is 0.5
    with np.errstate(over="ignore"):
        s = math.sqrt(2.0) * np.exp(np.asarray(s_raw, dtype=float))
    low = -np.abs(m)
    q = np.empty(len(m))
    narrow = s < 1.0
    nodes, weights, grid, density = _exact_nodes()
    m_n, s_n = low[narrow], s[narrow]
    acc = np.zeros(len(m_n))
    for z, w in zip(nodes, weights):
        acc += w * sigmoid(m_n + s_n * z)
    q[narrow] = acc
    m_w, s_w = low[~narrow], s[~narrow]
    acc = np.zeros(len(m_w))
    for start in range(0, len(m_w), EXACT_BLOCK_ROWS):
        rows = slice(start, start + EXACT_BLOCK_ROWS)
        block = acc[rows]
        # one row of Phi per node
        for w, cdf in zip(density, normal_cdf((m_w[rows] + grid[:, None]) / s_w[rows])):
            block += w * cdf
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
    a, eps_c, sigma = _margin_draws(mu, s_raw, eps)
    sign = (2.0 * np.asarray(y) - 1.0)[:, None]
    p = sigmoid(sign * a)  # each draw's true-class probability, (n, K)
    py = p.mean(axis=1)
    floor = np.maximum(py, PROB_FLOOR)
    losses = -np.log(floor)
    g = -sign * p * (1.0 - p) / (a.shape[1] * floor)[:, None]  # dloss / da
    g = np.where((py < PROB_FLOOR)[:, None], 0.0, g)
    dmargin = g.sum(axis=1)
    return losses, np.column_stack([-dmargin, dmargin]), (g * eps_c).sum(axis=1) * sigma
