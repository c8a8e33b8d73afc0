"""Acceptance suite.

Nine criteria, one test each, every tolerance pinned here. Each test prints
one `[ACCEPTANCE n] PASS/FAIL` line (run with `pytest -s` to see them on
success). Criteria 6-9 share the seed-42 reference pipeline (20000 train /
2500 test, F=295, M=10) driven through the command-line interface.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from calibforge import datagen, duloss, metrics, nn, scaling

from conftest import load_report, mean_nll, reference_rows, run_reference_pipeline


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {status}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# --- 1: metric oracle equivalence ------------------------------------------------

def brute_force_metrics(records, m):
    n = len(records)
    ece = 0.0
    gaps = []
    for j in range(1, m + 1):
        group = [r for r in records if _bin_of(r.confidence, m) == j]
        if not group:
            continue
        acc = sum(1 for r in group if r.predicted_label == r.true_label) / len(group)
        conf = sum(r.confidence for r in group) / len(group)
        ece += (len(group) / n) * abs(acc - conf)
        gaps.append(abs(acc - conf))
    nll = -sum(math.log(max(r.prob_vector[r.true_label], 1e-12)) for r in records)
    acc_all = sum(1 for r in records if r.predicted_label == r.true_label) / n
    return acc_all, ece, max(gaps), nll


def _bin_of(conf, m):
    for j in range(1, m + 1):
        if conf <= j / m:
            return j
    return m


def test_criterion_1_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 51))
        m = int(rng.choice([1, 5, 10]))
        probs, labels = [], []
        for _ in range(n):
            p1 = float(rng.choice([rng.random(), 0.5, 1.0, 0.0]))
            probs.append((1.0 - p1, p1))
            labels.append(int(rng.integers(0, 2)))
        probs, labels = np.array(probs), np.array(labels)
        rep = metrics.build_report(probs, labels, m)
        acc, ece, mce, nll = brute_force_metrics(reference_rows(probs, labels), m)
        worst = max(
            worst,
            abs(rep.accuracy - acc),
            abs(rep.ece - ece),
            abs(rep.mce - mce),
            abs(rep.nll_sum - nll),
        )
    elapsed = time.perf_counter() - start
    check(
        1,
        "ECE/MCE/NLL/accuracy match brute force within 1e-12 on 200 random sets",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst diff {worst:.2e}, {elapsed:.2f}s",
    )


# --- 2: gradient correctness -------------------------------------------------------

def noise_block(k, seed):
    """The (1, K, 2) antithetic noise block of one input, seeded."""
    mc = duloss.MCConfig(k=k)
    return duloss.draw_noise_batch(1, mc, np.random.default_rng(seed))


def du_head(mu, s_raw, y, eps):
    """One input's DU loss and its (dmu, ds_raw) for frozen noise."""
    losses, dmu, ds = duloss.batch_losses_and_grads(
        np.reshape(mu, (1, 2)), np.array([s_raw]), np.array([y]), eps
    )
    return float(losses[0]), dmu[0], float(ds[0])


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst_ce = 0.0
    for _ in range(100):
        sizes = [int(rng.integers(2, 9)), int(rng.integers(2, 9)), 2]
        params = nn.init_params(sizes, seed=int(rng.integers(0, 2**31)))
        for b in params.biases:
            b += rng.normal(0.0, 0.3, b.shape)
        x = rng.normal(0.0, 1.0, (1, sizes[0]))
        y = rng.integers(0, 2, 1)
        _, grads, _ = nn.backward(params, x, y, "ce")
        h = 1e-5
        analytic, numeric = [], []
        for arr, g in zip(params.weights + params.biases, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp = nn.backward(params, x, y, "ce")[0]
                arr[ix] = orig - h
                lm = nn.backward(params, x, y, "ce")[0]
                arr[ix] = orig
                numeric.append((lp - lm) / (2 * h))
                analytic.append(g[ix])
        a, b = np.asarray(analytic), np.asarray(numeric)
        worst_ce = max(
            worst_ce, np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))
        )

    worst_du = 0.0
    for i in range(100):
        mu = rng.normal(0.0, 2.0, 2)
        s_raw = float(rng.normal(0.0, 1.0))
        y = int(rng.integers(0, 2))
        eps = noise_block(64, seed=4000 + i)
        _, dmu, ds = du_head(mu, s_raw, y, eps)
        h = 1e-6
        numeric = []
        for j in range(2):
            shifted = mu.copy()
            shifted[j] += h
            lp = du_head(shifted, s_raw, y, eps)[0]
            shifted[j] -= 2 * h
            lm = du_head(shifted, s_raw, y, eps)[0]
            numeric.append((lp - lm) / (2 * h))
        lp = du_head(mu, s_raw + h, y, eps)[0]
        lm = du_head(mu, s_raw - h, y, eps)[0]
        numeric.append((lp - lm) / (2 * h))
        a = np.array([dmu[0], dmu[1], ds])
        b = np.asarray(numeric)
        worst_du = max(
            worst_du,
            np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300),
        )
    elapsed = time.perf_counter() - start
    check(
        2,
        "CE backprop and frozen-noise DU gradients match finite differences <= 1e-5",
        worst_ce <= 1e-5 and worst_du <= 1e-5 and elapsed < 30.0,
        f"worst ce {worst_ce:.2e}, worst du {worst_du:.2e}, {elapsed:.1f}s",
    )


# --- 3: two-class collapse identity ---------------------------------------------------

def test_criterion_3_collapse_identity():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(1000):
        u1, u2 = rng.normal(0.0, 5.0, 2)
        softmax_form = math.exp(u1) / (math.exp(u1) + math.exp(u2))
        worst = max(worst, abs(duloss.sigmoid(u1 - u2) - softmax_form))
    check(
        3,
        "sigmoid and softmax forms of p1 agree within 1e-12 on 1000 pairs",
        worst <= 1e-12,
        f"worst {worst:.2e}",
    )


# --- 4: averaged-sigmoid numerics vs quadrature ----------------------------------------

def gh_expected_p1(mu_c, sigma, nodes=120):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    arg = mu_c + 2.0 * sigma * x
    return float(np.sum(w / math.sqrt(math.pi) / (1.0 + np.exp(-arg))))


def mc_p1(mu_c, sigma, k, seed):
    # each antithetic pair (draw j, draw j + K/2) is one row of the batch, so
    # expected_probs_batch returns the pair means
    eps = noise_block(k, seed)[0]
    half = k // 2
    pair_eps = np.stack([eps[:half], eps[half:]], axis=1)
    mu = np.tile([mu_c, 0.0], (half, 1))
    pairs = duloss.expected_probs_batch(mu, np.full(half, math.log(sigma)), pair_eps)[:, 0]
    return float(pairs.mean()), float(pairs.std(ddof=1) / math.sqrt(half))


def test_criterion_4_damping_numerics():
    start = time.perf_counter()
    k = 10**6
    ok = True
    details = []

    # P3: damping at every grid point, margin beyond 5 standard errors and
    # the MC estimate consistent with the quadrature oracle
    for mu_c in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0):
            oracle = gh_expected_p1(mu_c, sigma)
            est, se = mc_p1(mu_c, sigma, k, seed=int(mu_c * 100 + sigma * 10))
            ok &= oracle < duloss.sigmoid(mu_c)
            ok &= (duloss.sigmoid(mu_c) - est) > 5.0 * se
            ok &= abs(est - oracle) < 5.0 * se
    # P4: strictly decreasing in sigma at mu_c = 1, oracle and MC agree on order
    sigmas = (0.25, 0.5, 1.0, 2.0)
    oracle_vals = [gh_expected_p1(1.0, s) for s in sigmas]
    mc_vals = [mc_p1(1.0, s, k, seed=500 + i)[0] for i, s in enumerate(sigmas)]
    ok &= all(a > b for a, b in zip(oracle_vals, oracle_vals[1:]))
    ok &= all(a > b for a, b in zip(mc_vals, mc_vals[1:]))
    # P5: damping gap shrinks at high margin (sigma = 1)
    gap_low_est, se_low = mc_p1(1.0, 1.0, k, seed=900)
    gap_high_est, se_high = mc_p1(4.0, 1.0, k, seed=901)
    gap_low = duloss.sigmoid(1.0) - gap_low_est
    gap_high = duloss.sigmoid(4.0) - gap_high_est
    ok &= gap_high < gap_low - 5.0 * math.hypot(se_low, se_high)
    ok &= (duloss.sigmoid(4.0) - gh_expected_p1(4.0, 1.0)) < (
        duloss.sigmoid(1.0) - gh_expected_p1(1.0, 1.0)
    )
    elapsed = time.perf_counter() - start
    details.append(f"{elapsed:.1f}s")
    check(
        4,
        "overconfidence damping, sigma-monotonicity and high-margin mitigation "
        "hold against the quadrature oracle at K=1e6",
        ok and elapsed < 60.0,
        ", ".join(details),
    )


# --- 5: temperature recovery -------------------------------------------------------------

def test_criterion_5_temperature_recovery():
    rng = np.random.default_rng(5005)
    n = 50000
    z = np.column_stack([rng.normal(0, 1.5, n), rng.normal(0, 1.5, n)])
    labels = (rng.random(n) < nn.softmax(z)[:, 1]).astype(int)
    gen_nll = mean_nll(z, labels)
    ok = True
    details = []
    for t0 in (2.5, 0.4):
        scaler = scaling.fit_temperature(z / t0, labels)
        restored = mean_nll(scaling.transform_logits(scaler, z / t0), labels)
        ok &= abs(restored - gen_nll) < 1e-3
        ok &= abs(scaler.temperature - 1.0 / t0) / (1.0 / t0) < 0.05
        details.append(f"t0={t0}: T={scaler.temperature:.4f} dNLL={abs(restored - gen_nll):.1e}")
    calibrated = scaling.fit_temperature(z, labels)
    ok &= 0.95 <= calibrated.temperature <= 1.05
    details.append(f"calibrated T={calibrated.temperature:.4f}")
    check(5, "temperature fit restores mis-scaled logits and stays near 1 when calibrated",
          ok, "; ".join(details))


# --- 6-9: the reference pipeline -----------------------------------------------------------

def test_reference_gen_writes_desk_scale_rows(reference_run):
    # default desk scale: 20000 train + 2500 test = 22500 rows
    train_rows = len((reference_run / "train.csv").read_text().splitlines()) - 2
    test_rows = len((reference_run / "test.csv").read_text().splitlines()) - 2
    assert train_rows == 20000
    assert test_rows == 2500


def test_criterion_6_argmax_invariance(reference_run):
    plain = load_report(reference_run, "none")
    scaled = load_report(reference_run, "temperature")
    check(
        6,
        "temperature scaling leaves reference-run accuracy bit-identical",
        plain["accuracy"] == scaled["accuracy"],
        f"accuracy {plain['accuracy']:.4f}",
    )


def test_criterion_7_directional_reproduction(reference_run):
    uncal = load_report(reference_run, "none")
    temp = load_report(reference_run, "temperature")
    du = load_report(reference_run, "du")
    with open(reference_run / "scaler_temperature.json", "r", encoding="utf-8") as fh:
        fitted_t = json.load(fh)["T"]
    elapsed = json.loads((reference_run / "pipeline_meta.json").read_text())["elapsed_s"]

    mid_gaps = [
        abs(b["acc"] - b["conf"])
        for b in uncal["bins"]
        if b["m"] in (5, 6, 7) and b["count"] > 0
    ]
    a = max(mid_gaps, default=0.0) > 0.02
    b = temp["ece"] <= 0.7 * uncal["ece"]
    c = du["ece"] <= 0.7 * uncal["ece"]
    d = fitted_t > 1.0
    runtime_ok = elapsed < 600.0
    check(
        7,
        "reference run reproduces the directional comparison "
        "(mid-bin gap, temperature and DU improvements, T > 1)",
        a and b and c and d and runtime_ok,
        f"midgap={max(mid_gaps, default=0.0):.3f}, "
        f"ece uncal/temp/du={uncal['ece']:.4f}/{temp['ece']:.4f}/{du['ece']:.4f}, "
        f"T={fitted_t:.3f}, pipeline {elapsed:.0f}s",
    )


def test_criterion_8_oracle_calibration_ranking(reference_run):
    uncal = load_report(reference_run, "none")
    du = load_report(reference_run, "du")
    check(
        8,
        "against known p_true the DU model ranks no worse than uncalibrated",
        du["oracle_ece"] <= uncal["oracle_ece"],
        f"oracle_ece du={du['oracle_ece']:.4f} vs uncal={uncal['oracle_ece']:.4f}",
    )


def test_criterion_9_pipeline_determinism(reference_run):
    tracked = sorted(
        p
        for p in Path(reference_run).iterdir()
        if p.name.startswith(("model_", "report_", "reliability_", "comparison"))
    )
    assert tracked, "reference artifacts missing"
    before = {p.name: p.read_bytes() for p in tracked}
    run_reference_pipeline(reference_run)  # identical invocation, same directory
    diffs = [name for name, blob in before.items()
             if (reference_run / name).read_bytes() != blob]
    check(
        9,
        "repeating the reference pipeline yields byte-identical models, "
        "reports and diagrams",
        not diffs,
        f"{len(before)} artifacts compared" + (f", diffs: {diffs}" if diffs else ""),
    )
