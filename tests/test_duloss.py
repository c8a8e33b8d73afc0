"""Data-uncertainty loss tests.

The independent oracle for E[p1] is one-dimensional Gauss-Hermite
quadrature of Sigmoid(mu_c + sigma*sqrt(2)*z) over a standard normal z;
its values at the grid points used below are frozen so the oracle itself
is guarded against regressions.
"""

import math
import warnings

import numpy as np
import pytest

from calibforge import duloss
from calibforge.duloss import MCConfig


def gh_expected_p1(mu_c: float, sigma: float, nodes: int = 200) -> float:
    """Quadrature oracle: E[Sigmoid(mu_c + sigma*sqrt(2)*z)], z ~ N(0,1)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    arg = mu_c + sigma * math.sqrt(2.0) * math.sqrt(2.0) * x
    return float(np.sum(w / math.sqrt(math.pi) / (1.0 + np.exp(-arg))))


# frozen oracle values of gh_expected_p1, converged at 200 nodes (120 nodes
# are 7e-11 short at sigma = 2)
GH_ORACLE = {
    (0.5, 0.5): 0.6105996084642975,
    (0.5, 1.0): 0.5899527090090981,
    (1.0, 0.25): 0.7256100808109918,
    (1.0, 0.5): 0.7115731678447064,
    (1.0, 1.0): 0.6750567023375653,
    (1.0, 2.0): 0.6181885343849667,
    (2.0, 0.5): 0.8616531985057767,
    (2.0, 1.0): 0.8160602794142786,
    (4.0, 1.0): 0.959370751076503,
}


def test_quadrature_oracle_matches_frozen_values():
    # the frozen values must also agree with the eval rule, an independent
    # quadrature, so an unconverged oracle cannot freeze its own error
    for (mu_c, sigma), expected in GH_ORACLE.items():
        assert gh_expected_p1(mu_c, sigma) == pytest.approx(expected, abs=1e-12)
        exact = duloss.expected_probs_exact(np.array([[0.0, mu_c]]), np.array([math.log(sigma)]))
        assert exact[0, 1] == pytest.approx(expected, abs=1e-12)


def noise(k, seed, n=1):
    """The (n, K, 2) noise block of a seeded generator."""
    return duloss.draw_noise_batch(n, MCConfig(k=k), np.random.default_rng(seed))


def one_row(mu, s_raw):
    """(mu, s_raw) as a one-input batch: shapes (1, 2) and (1,)."""
    return np.asarray(mu, dtype=float).reshape(1, 2), np.array([s_raw], dtype=float)


def du_loss_of(mu, s_raw, y, eps):
    """DU loss of one input under an explicit (1, K, 2) noise block."""
    losses, _, _ = duloss.batch_losses_and_grads(*one_row(mu, s_raw), np.array([y]), eps)
    return float(losses[0])


def du_grad_of(mu, s_raw, y, eps):
    """(dmu, ds_raw) of one input's DU loss for frozen noise."""
    _, dmu, ds = duloss.batch_losses_and_grads(*one_row(mu, s_raw), np.array([y]), eps)
    return dmu[0], float(ds[0])


def mc_p1_with_se(mu_c, sigma, k, seed):
    """Antithetic MC estimate of E[p1] plus its standard error (pair means).

    Each antithetic pair (draw j, draw j + K/2) is one row of a batch, so
    expected_probs_batch returns the pair means directly.
    """
    eps = noise(k, seed)[0]
    half = k // 2
    pairs = np.stack([eps[:half], eps[half:]], axis=1)  # (K/2, 2, 2)
    mu = np.tile([mu_c, 0.0], (half, 1))
    pair_means = duloss.expected_probs_batch(mu, np.full(half, math.log(sigma)), pairs)[:, 0]
    return float(pair_means.mean()), float(pair_means.std(ddof=1) / math.sqrt(half))


# --- noise and the reparameterized draw ----------------------------------------

def test_density_output_sigma_is_exp_of_raw():
    # one draw eps = (1, 0) samples the logits (sigma, 0) with sigma = exp(s_raw)
    p = duloss.expected_probs_batch(*one_row([0.0, 0.0], -1.3), np.array([[[1.0, 0.0]]]))
    expected = duloss.softmax([math.exp(-1.3), 0.0])
    np.testing.assert_allclose(p[0], expected, rtol=1e-15)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(k=0)
    with pytest.raises(ValueError):
        MCConfig(k=3)


def test_binary_collapse_type():
    # one sampled pair through the batch softmax equals the collapsed sigmoid
    # Sigmoid(mu_c + sigma * (eps_1 - eps_2)) with mu_c = mu_1 - mu_2
    mu, s_raw = np.array([1.5, 0.5]), 0.2
    eps = np.array([0.3, -0.4])
    p = duloss.expected_probs_batch(*one_row(mu, s_raw), eps.reshape(1, 1, 2))
    draw = math.exp(s_raw) * (eps[0] - eps[1])
    assert p[0, 0] == pytest.approx(duloss.sigmoid(1.0 + draw), abs=1e-12)


def test_sample_logits_zero_noise_returns_mu():
    mu = np.array([0.7, -0.2])
    p = duloss.expected_probs_batch(*one_row(mu, 0.5), np.zeros((1, 1, 2)))
    np.testing.assert_array_equal(p[0], duloss.softmax(mu))


def test_sample_logits_unit_sigma():
    p = duloss.expected_probs_batch(*one_row([0.0, 0.0], 0.0), np.array([[[1.0, -1.0]]]))
    np.testing.assert_array_equal(p[0], duloss.softmax([1.0, -1.0]))


def test_antithetic_pairs_average_to_mu():
    mu, sigma = np.array([0.4, -0.9]), math.exp(0.7)
    eps = noise(64, seed=5)
    np.testing.assert_array_equal(eps[:, 32:], -eps[:, :32])
    u = mu + sigma * eps[0]
    np.testing.assert_allclose(u.mean(axis=0), mu, atol=1e-15)


# --- expected_probs_batch ---------------------------------------------------------

def test_expected_prob_degenerate_noise_reduces_to_softmax():
    mu = np.array([1.2, -0.3])
    soft = np.exp(mu) / np.exp(mu).sum()
    for k in (2, 64):
        eps = noise(k, seed=9)
        p = duloss.expected_probs_batch(*one_row(mu, -40.0), eps)
        np.testing.assert_allclose(p[0], soft, atol=1e-9)


def test_expected_prob_symmetric_mu_gives_half():
    for sigma in (0.3, 1.0, 3.0):
        eps = noise(128, seed=17)
        p = duloss.expected_probs_batch(*one_row([0.8, 0.8], math.log(sigma)), eps)
        np.testing.assert_allclose(p[0], [0.5, 0.5], atol=1e-9)


def test_expected_prob_matches_quadrature_at_k_1e6():
    est, se = mc_p1_with_se(1.0, 1.0, 10**6, seed=42)
    oracle = GH_ORACLE[(1.0, 1.0)]
    assert abs(est - oracle) < 3.0 * se
    assert oracle < duloss.sigmoid(1.0)  # strictly below Sigmoid(1) ~ 0.7311
    # one row over the whole K = 10^6 block gives the same estimate
    p = duloss.expected_probs_batch(*one_row([1.0, 0.0], 0.0), noise(10**6, seed=42))
    assert p[0, 0] == pytest.approx(est, abs=1e-12)
    assert abs(p[0, 0] - oracle) < 3.0 * se


def test_expected_prob_normalized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        mu, s_raw = rng.normal(0, 3, 2), float(rng.normal(0, 1))
        k = int(rng.choice([2, 8, 32, 128]))
        p = duloss.expected_probs_batch(
            *one_row(mu, s_raw), noise(k, seed=int(rng.integers(1 << 30)))
        )
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        assert np.all(p > 0)


def test_expected_probs_batch_rows_match_single_row_calls():
    rng = np.random.default_rng(8)
    n = 9
    mu, s_raw = rng.normal(0, 3, (n, 2)), rng.normal(0, 1, n)
    eps = noise(32, seed=23, n=n)
    batch = duloss.expected_probs_batch(mu, s_raw, eps)
    for i in range(n):
        single = duloss.expected_probs_batch(mu[i : i + 1], s_raw[i : i + 1], eps[i : i + 1])
        np.testing.assert_array_equal(batch[i], single[0])


# --- expected_probs_exact ---------------------------------------------------------

def quad_less_likely(m, s):
    """Adaptive-quadrature reference for q = E[sigmoid(-|m| + s Z)], Z ~ N(0, 1),
    integrated in whichever variable is smooth: Z for s < 1, else the
    standard logistic L of q = E[Phi((-|m| + L) / s)]."""
    from scipy import integrate, special, stats

    low = -abs(m)
    if s < 1.0:
        center = min(max(-low / s, -40.0), 40.0)
        f = lambda z: stats.norm.pdf(z) * special.expit(low + s * z)  # noqa: E731
        bounds, points = (-40.0, 40.0), [center]
    else:
        f = lambda v: stats.logistic.pdf(v) * special.ndtr((low + v) / s)  # noqa: E731
        bounds, points = (-60.0, 60.0), [min(-low, 60.0)]
    value, _ = integrate.quad(f, *bounds, points=points, epsabs=1e-16, epsrel=1e-13, limit=500)
    return value


def test_exact_probs_match_adaptive_quadrature():
    rng = np.random.default_rng(2024)
    m = np.concatenate([rng.uniform(-30.0, 30.0, 300), [0.7, -2.0, 5.0, -1.5, 0.0]])
    s = np.concatenate([
        np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 300)),
        [1.0, 1.0 - 1e-12, 1e4, 1.0 + 1e-12, 0.8],  # both sides of the branch edge
    ])
    s_raw = np.log(s / math.sqrt(2.0))
    p = duloss.expected_probs_exact(np.column_stack([np.zeros_like(m), m]), s_raw)
    seen = math.sqrt(2.0) * np.exp(s_raw)  # s as the rule computes it
    for mi, si, (p0, p1) in zip(m.tolist(), seen.tolist(), p.tolist()):
        q = quad_less_likely(mi, si)
        expected = (q, 1.0 - q) if mi > 0 else (1.0 - q, q)
        assert abs(p0 - expected[0]) <= 1e-12 and abs(p1 - expected[1]) <= 1e-12, (mi, si)


def test_exact_probs_swap_with_mu_columns():
    rng = np.random.default_rng(77)
    mu = rng.normal(0.0, 5.0, (400, 2))
    mu[:10, 1] = mu[:10, 0]  # m = 0 rows
    s_raw = rng.normal(0.0, 3.0, 400)  # both branches
    p = duloss.expected_probs_exact(mu, s_raw)
    np.testing.assert_array_equal(duloss.expected_probs_exact(mu[:, ::-1], s_raw), p[:, ::-1])
    np.testing.assert_array_equal(p[:10], 0.5)


def test_exact_probs_rows_match_single_row_calls():
    rng = np.random.default_rng(13)
    n = 40
    mu, s_raw = rng.normal(0.0, 5.0, (n, 2)), rng.normal(0.0, 3.0, n)
    batch = duloss.expected_probs_exact(mu, s_raw)
    assert 0 < np.count_nonzero(math.sqrt(2.0) * np.exp(s_raw) < 1.0) < n
    for i in range(n):
        single = duloss.expected_probs_exact(mu[i : i + 1], s_raw[i : i + 1])
        np.testing.assert_array_equal(batch[i], single[0])


def test_exact_probs_of_a_noise_output_beyond_the_exp_range_are_a_coin():
    # above s_raw ~ 709.4 the scale s = sqrt(2) exp(s_raw) is inf, so every
    # trapezoid node's Phi((m + L) / s) is Phi(0) = 0.5: the limit of large
    # finite scales, without an overflow warning
    mu = np.array([[0.0, 3.0], [2.0, -1.0], [-50.0, 50.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = duloss.expected_probs_exact(mu, np.array([709.5, 710.0, 1e4]))
    np.testing.assert_allclose(p, 0.5, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(p, duloss.expected_probs_exact(mu, np.full(3, 700.0)))


def test_exact_probs_rows_match_single_row_calls_across_blocks():
    # the trapezoid takes EXACT_BLOCK_ROWS rows at a time; a row's
    # probabilities do not depend on the block it falls in or its place there
    rng = np.random.default_rng(31)
    n = 2 * duloss.EXACT_BLOCK_ROWS + 90
    mu, s_raw = rng.normal(0.0, 5.0, (n, 2)), rng.uniform(0.0, 3.0, n)  # all s >= 1
    batch = duloss.expected_probs_exact(mu, s_raw)
    edge = duloss.EXACT_BLOCK_ROWS
    for i in (0, edge - 1, edge, 2 * edge - 1, 2 * edge, n - 1):
        single = duloss.expected_probs_exact(mu[i : i + 1], s_raw[i : i + 1])
        np.testing.assert_array_equal(batch[i], single[0])
    np.testing.assert_array_equal(duloss.expected_probs_exact(mu[edge:], s_raw[edge:]), batch[edge:])


def test_exact_probs_build_their_nodes_once_per_process(monkeypatch):
    # an outputs miss calls the rule once per row block
    hermegauss, calls = np.polynomial.hermite_e.hermegauss, []
    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss",
                        lambda deg: calls.append(deg) or hermegauss(deg))
    duloss._exact_nodes.cache_clear()
    rng = np.random.default_rng(5)
    mu, s_raw = rng.normal(0.0, 5.0, (40, 2)), rng.normal(0.0, 3.0, 40)
    whole = duloss.expected_probs_exact(mu, s_raw)
    blocks = [duloss.expected_probs_exact(mu[i : i + 8], s_raw[i : i + 8])
              for i in range(0, 40, 8)]
    assert calls == [32]
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    nodes, weights, grid, density = duloss._exact_nodes()
    assert not any(a.flags.writeable for a in (nodes, weights, grid, density))


def test_normal_cdf_matches_erfc_to_the_conditioning_of_its_argument():
    # the reference 0.5 * erfc(-x / sqrt(2)) rounds its argument, which alone
    # moves Phi by up to kappa(x) eps relative, kappa(x) = |x| phi(x) / Phi(x)
    # (about x^2 where x << 0); beside that the two agree to a few eps
    x = np.linspace(-37.0, 37.0, 74001)
    got = duloss.normal_cdf(x)
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    kappa = np.abs(x) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / ref
    rel = np.abs(got - ref) / ref
    eps = np.finfo(float).eps
    assert rel[np.abs(x) <= 1.0].max() <= 7.8e-16
    assert np.all(rel <= (3.0 + kappa) * eps)
    # the shape of the input is kept, and so is each entry's value
    grid = x[:-1].reshape(8, -1, 10)
    np.testing.assert_array_equal(duloss.normal_cdf(grid), got[:-1].reshape(grid.shape))
    assert duloss.normal_cdf(np.array([-40.0, -1e300, 0.0, 1e300])).tolist() == [0.0, 0.0, 0.5, 1.0]


def test_exact_probs_agree_with_mc_at_k_1e6():
    # criterion 4's grid and seeds
    for mu_c in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0):
            est, se = mc_p1_with_se(mu_c, sigma, 10**6, seed=int(mu_c * 100 + sigma * 10))
            p = duloss.expected_probs_exact(*one_row([mu_c, 0.0], math.log(sigma)))
            assert abs(p[0, 0] - est) < 5.0 * se


# --- the DU loss ------------------------------------------------------------------

def test_du_loss_reduces_to_cross_entropy_at_zero_sigma():
    rng = np.random.default_rng(12)
    for _ in range(20):
        mu = rng.normal(0, 2, 2)
        y = int(rng.integers(0, 2))
        loss = du_loss_of(mu, -40.0, y, noise(32, seed=3))
        soft = np.exp(mu - mu.max())
        soft = soft / soft.sum()
        assert loss == pytest.approx(-math.log(soft[y]), abs=1e-9)


def test_du_loss_symmetric_mu_is_ln2():
    for sigma in (0.5, 1.0, 2.0):
        loss = du_loss_of(np.zeros(2), math.log(sigma), 0, noise(64, seed=8))
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)


def test_du_loss_matches_quadrature_oracle_at_k_1e6():
    est, se = mc_p1_with_se(1.0, 1.0, 10**6, seed=7)
    loss = du_loss_of([1.0, 0.0], 0.0, 1, noise(10**6, seed=7))
    # y = class 1 here means the *second* logit, whose expected probability
    # mirrors 1 - E[p1]; check against the oracle through the same transform
    oracle = 1.0 - GH_ORACLE[(1.0, 1.0)]
    assert loss == pytest.approx(-math.log(1.0 - est), abs=1e-12)
    se_loss = se / (1.0 - est)
    assert abs(loss - (-math.log(oracle))) < 3.0 * se_loss


def test_du_loss_first_class_oracle():
    est, se = mc_p1_with_se(1.0, 1.0, 10**6, seed=11)
    loss = du_loss_of([1.0, 0.0], 0.0, 0, noise(10**6, seed=11))
    oracle = GH_ORACLE[(1.0, 1.0)]
    se_loss = se / est
    assert abs(loss - (-math.log(oracle))) < 3.0 * se_loss


# --- pathwise gradients ------------------------------------------------------------

def fd_head_gradient(mu, s_raw, y, eps, h=1e-6):
    vals = []
    for j in range(2):
        shifted = mu.copy()
        shifted[j] += h
        lp = du_loss_of(shifted, s_raw, y, eps)
        shifted[j] -= 2 * h
        lm = du_loss_of(shifted, s_raw, y, eps)
        vals.append((lp - lm) / (2 * h))
    lp = du_loss_of(mu, s_raw + h, y, eps)
    lm = du_loss_of(mu, s_raw - h, y, eps)
    vals.append((lp - lm) / (2 * h))
    return np.array(vals)


def test_grad_zero_sigma_matches_softmax_ce():
    rng = np.random.default_rng(14)
    for _ in range(10):
        mu = rng.normal(0, 2, 2)
        y = int(rng.integers(0, 2))
        dmu, ds = du_grad_of(mu, -40.0, y, noise(16, seed=2))
        p = np.exp(mu - mu.max())
        p = p / p.sum()
        onehot = np.array([1.0 - y, float(y)])
        np.testing.assert_allclose(dmu, p - onehot, atol=1e-9)
        assert abs(ds) < 1e-9


def test_grad_matches_finite_differences_frozen_noise():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for i in range(100):
        mu = rng.normal(0, 2, 2)
        s_raw = float(rng.normal(0, 1))
        y = int(rng.integers(0, 2))
        eps = noise(64, seed=9000 + i)
        dmu, ds = du_grad_of(mu, s_raw, y, eps)
        analytic = np.array([dmu[0], dmu[1], ds])
        numeric = fd_head_gradient(mu, s_raw, y, eps)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300
        )
        worst = max(worst, rel)
    assert worst <= 1e-5


def test_grad_symmetric_antithetic_case_agrees_with_fd():
    eps = noise(64, seed=3)
    for sigma in (0.5, 1.0, 2.0):
        dmu, ds = du_grad_of(np.zeros(2), math.log(sigma), 0, eps)
        numeric = fd_head_gradient(np.zeros(2), math.log(sigma), 0, eps)
        np.testing.assert_allclose([dmu[0], dmu[1], ds], numeric, atol=1e-6)
        # averaged over antithetic pairs the two logits pull symmetrically
        assert dmu[0] < 0 < dmu[1]


def softmax_form(mu, s_raw, y, eps):
    """Reference: the DU loss, its gradients and the MC probabilities from the
    (n, K, 2) softmax of the sampled logits, with a one-hot gradient tensor;
    the module computes them in the collapsed (n, K) margin form."""
    n, k = eps.shape[0], eps.shape[1]
    sigma = np.exp(s_raw)
    u = mu[:, None, :] + sigma[:, None, None] * eps
    p = duloss.softmax(u)  # (n, K, 2)
    pbar = p.mean(axis=1)
    rows = np.arange(n)
    py = pbar[rows, y]
    losses = -np.log(np.maximum(py, duloss.PROB_FLOOR))
    onehot = np.zeros((n, 2))
    onehot[rows, y] = 1.0
    coef = -(p[rows, :, y] / (k * py)[:, None])  # (n, K)
    dldu = coef[:, :, None] * (onehot[:, None, :] - p)  # (n, K, 2)
    return losses, dldu.sum(axis=1), (dldu * eps).sum(axis=(1, 2)) * sigma, pbar


def test_margin_form_matches_softmax_form():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for k in (2, 8, 32):
        for trial in range(20):
            n = 64
            mu = rng.uniform(-10.0, 10.0, (n, 2))
            s_raw = rng.uniform(-5.0, 3.0, n)
            y = rng.integers(0, 2, n)
            eps = noise(k, seed=1000 * k + trial, n=n)
            losses, dmu, ds, pbar = softmax_form(mu, s_raw, y, eps)
            got = duloss.batch_losses_and_grads(mu, s_raw, y, eps)
            got_p = duloss.expected_probs_batch(mu, s_raw, eps)
            for a, b in zip((*got, got_p), (losses, dmu, ds, pbar)):
                worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-13, worst


def test_clamped_rows_have_floor_loss_and_zero_gradient():
    # row 0's true-class probability underflows to 0; row 1's is about 2e-35,
    # positive but below the floor
    mu = np.array([[800.0, -800.0], [40.0, -40.0]])
    s_raw = np.array([-40.0, -40.0])
    eps = noise(4, seed=6, n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, dmu, ds = duloss.batch_losses_and_grads(mu, s_raw, np.array([1, 1]), eps)
    np.testing.assert_array_equal(losses, -math.log(duloss.PROB_FLOOR))
    np.testing.assert_array_equal(dmu, 0.0)
    np.testing.assert_array_equal(ds, 0.0)


# --- binary collapse ------------------------------------------------------------------

def test_collapse_equal_logits():
    assert duloss.sigmoid(1.7 - 1.7) == 0.5


def test_collapse_analytic_point():
    assert duloss.sigmoid(math.log(3.0) - 0.0) == pytest.approx(0.75, abs=1e-15)


def test_collapse_softmax_and_sigmoid_forms_agree():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        u1, u2 = rng.normal(0, 5, 2)
        softmax_form = math.exp(u1) / (math.exp(u1) + math.exp(u2))
        assert abs(duloss.sigmoid(u1 - u2) - softmax_form) < 1e-12


# --- Fig-2 style numerics (module-scale versions; the acceptance suite
# --- re-runs them at K = 10^6) ----------------------------------------------------------

def test_overconfidence_damping_at_grid():
    for (mu_c, sigma), oracle in GH_ORACLE.items():
        assert oracle < duloss.sigmoid(mu_c)  # Jensen flattening, concave side
        est, se = mc_p1_with_se(mu_c, sigma, 20000, seed=101)
        assert duloss.sigmoid(mu_c) - est > 5.0 * se


def test_damping_monotone_in_sigma():
    values = [GH_ORACLE[(1.0, s)] for s in (0.25, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_damping_shrinks_at_high_margin():
    gap_low = duloss.sigmoid(1.0) - GH_ORACLE[(1.0, 1.0)]
    gap_high = duloss.sigmoid(4.0) - GH_ORACLE[(4.0, 1.0)]
    assert gap_high < gap_low


# --- determinism ----------------------------------------------------------------------

def test_seed_determinism_bit_identical():
    mu, s_raw = one_row([0.3, -0.8], 0.4)
    eps1, eps2 = noise(32, seed=1234), noise(32, seed=1234)
    np.testing.assert_array_equal(eps1, eps2)
    np.testing.assert_array_equal(
        duloss.expected_probs_batch(mu, s_raw, eps1), duloss.expected_probs_batch(mu, s_raw, eps2)
    )
    g1 = duloss.batch_losses_and_grads(mu, s_raw, np.array([1]), eps1)
    g2 = duloss.batch_losses_and_grads(mu, s_raw, np.array([1]), eps2)
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)
