"""Scaler tests: identity cases, synthetic recovery oracles, and the
argmax/normalization/never-worse invariants."""

import json
import math

import numpy as np
import pytest

from calibforge import metrics, nn, scaling
from calibforge.scaling import ScalerParams

from conftest import mean_nll


def calibrated_set(n=50000, seed=42, spread=1.5):
    """Logits with labels sampled from their own softmax: calibrated by
    construction."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.normal(0, spread, n), rng.normal(0, spread, n)])
    p = nn.softmax(z)
    labels = (rng.random(n) < p[:, 1]).astype(int)
    return z, labels


def miscalibrated_set(n=2000, seed=4):
    """Logits whose labels follow softmax(A z + c) for a non-identity A and
    c != 0, so that every scaler kind has something to fit."""
    z, _ = calibrated_set(n=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    zt = z @ np.array([[0.6, 0.1], [-0.2, 0.4]]).T + np.array([0.2, -0.1])
    return z, (rng.random(n) < nn.softmax(zt)[:, 1]).astype(int)


KINDS = ["temperature", "vector", "matrix"]
FITS = {"temperature": scaling.fit_temperature, "vector": scaling.fit_vector,
        "matrix": scaling.fit_matrix}


def raw_params(scaler):
    """A scaler's stored parameters as one flat vector, in table order: T,
    w_diag, or W and b."""
    return np.concatenate([np.ravel(getattr(scaler, field))
                           for field, _, _ in scaling.PARAMETERS[scaler.kind]])


def raw_nll(kind, params, z, labels):
    """Validation NLL of the scaler of ``kind`` with flat parameters ``params``."""
    if kind == "temperature":
        scaler = ScalerParams(kind=kind, temperature=float(params[0]))
    elif kind == "vector":
        scaler = ScalerParams(kind=kind, w_diag=np.asarray(params, dtype=float))
    else:
        scaler = ScalerParams(kind=kind, w_full=params[:4].reshape(2, 2), b=params[4:])
    return mean_nll(scaling.transform_logits(scaler, z), labels)


def raw_gradient(kind, params, z, labels, h=1e-6):
    """Central-difference gradient of raw_nll in the stored parameters."""
    grad = np.zeros(len(params))
    for i in range(len(params)):
        step = np.zeros(len(params))
        step[i] = h
        grad[i] = (raw_nll(kind, params + step, z, labels)
                   - raw_nll(kind, params - step, z, labels)) / (2 * h)
    return grad


def calibrated(scaler, z):
    """Calibrated probabilities, predicted labels and confidences of an
    (n, 2) logit batch, as eval computes them."""
    probs = nn.softmax(scaling.transform_logits(scaler, z))
    confidence, predicted = metrics.predict(probs)
    return probs, predicted, confidence


# --- applying a scaler ----------------------------------------------------------

def test_temperature_one_is_identity():
    rng = np.random.default_rng(1)
    scaler = ScalerParams(kind="temperature", temperature=1.0)
    z = rng.normal(0, 3, (20, 2))
    probs, pred, conf = calibrated(scaler, z)
    np.testing.assert_allclose(probs, nn.softmax(z), atol=1e-15)
    np.testing.assert_array_equal(pred, np.where(z[:, 0] >= z[:, 1], 0, 1))
    np.testing.assert_array_equal(conf, probs[np.arange(20), pred])


def test_huge_temperature_flattens_to_half():
    scaler = ScalerParams(kind="temperature", temperature=1e6)
    probs, _, conf = calibrated(scaler, np.array([[3.0, 0.0]]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-5)
    assert conf[0] == pytest.approx(0.5, abs=1e-5)


def test_identity_matrix_is_identity():
    scaler = ScalerParams(kind="matrix", w_full=np.eye(2), b=np.zeros(2))
    z = np.array([[0.7, -0.4]])
    probs, _, _ = calibrated(scaler, z)
    np.testing.assert_allclose(probs, nn.softmax(z), atol=1e-15)


def test_vector_scaler_has_no_bias_term():
    scaler = ScalerParams(kind="vector", w_diag=np.array([2.0, 0.5]))
    z = np.array([[1.0, 1.0]])
    np.testing.assert_allclose(
        scaling.transform_logits(scaler, z), [[2.0, 0.5]], atol=1e-15
    )


def test_apply_rejects_bad_scalers():
    for t in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            scaling.transform_logits(
                ScalerParams(kind="temperature", temperature=t), np.zeros((1, 2))
            )
    with pytest.raises(ValueError):
        scaling.transform_logits(
            ScalerParams(kind="temperature", temperature=1.0), np.array([[np.inf, 0.0]])
        )
    with pytest.raises(ValueError):
        scaling.transform_logits(
            ScalerParams(kind="temperature", temperature=1.0), np.zeros(2)
        )


def test_apply_scaler_outputs_valid_probabilities():
    rng = np.random.default_rng(2)
    scalers = [
        ScalerParams(kind="temperature", temperature=3.7),
        ScalerParams(kind="vector", w_diag=np.array([0.8, 1.3])),
        ScalerParams(kind="matrix", w_full=rng.normal(0, 1, (2, 2)), b=rng.normal(0, 1, 2)),
    ]
    for scaler in scalers:
        probs, pred, conf = calibrated(scaler, rng.normal(0, 4, (50, 2)))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        np.testing.assert_array_equal(probs[np.arange(50), pred], conf)
        assert np.all(conf >= 0.5)


def test_temperature_preserves_argmax():
    rng = np.random.default_rng(3)
    z = rng.normal(0, 3, (200, 2))
    for temp in (0.05, 0.5, 1.0, 7.0, 90.0):
        scaler = ScalerParams(kind="temperature", temperature=temp)
        _, pred, _ = calibrated(scaler, z)
        np.testing.assert_array_equal(pred, np.where(z[:, 0] >= z[:, 1], 0, 1))


def test_confidence_strictly_decreasing_in_temperature():
    z = np.array([[1.4, -0.3]])  # z1 > z2
    temps = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    confs = [
        calibrated(ScalerParams(kind="temperature", temperature=t), z)[2][0]
        for t in temps
    ]
    assert all(a > b for a, b in zip(confs, confs[1:]))


# --- fit_temperature ------------------------------------------------------------

def test_temperature_recovers_misscaled_logits():
    z, labels = calibrated_set()
    gen_nll = mean_nll(z, labels)
    for t0 in (2.5, 0.4):
        mis = z / t0
        scaler = scaling.fit_temperature(mis, labels)
        # the restoring temperature is 1/t0
        assert scaler.temperature == pytest.approx(1.0 / t0, rel=0.05)
        restored = mean_nll(scaling.transform_logits(scaler, mis), labels)
        assert abs(restored - gen_nll) < 1e-3
        assert scaler.warning is None


def test_temperature_near_one_when_already_calibrated():
    z, labels = calibrated_set()
    scaler = scaling.fit_temperature(z, labels)
    assert 0.95 <= scaler.temperature <= 1.05


def test_temperature_local_optimality():
    z, labels = calibrated_set(n=5000, seed=9)
    scaler = scaling.fit_temperature(z / 1.8, labels)
    t = scaler.temperature
    best = mean_nll(z / 1.8 / t, labels)
    for factor in (1.001, 0.999):
        assert mean_nll(z / 1.8 / (t * factor), labels) >= best - 1e-9


def test_temperature_degenerate_set_clamps_with_warning():
    z = np.tile([2.0, 0.0], (100, 1))
    labels = np.zeros(100, dtype=int)
    scaler = scaling.fit_temperature(z, labels)
    assert scaler.temperature == pytest.approx(scaling.TEMPERATURE_BOUNDS[0])
    assert scaler.warning is not None

    labels_wrong = np.ones(100, dtype=int)
    scaler = scaling.fit_temperature(z, labels_wrong)
    assert scaler.temperature == pytest.approx(scaling.TEMPERATURE_BOUNDS[1])
    assert scaler.warning is not None


def test_fit_rejects_bad_validation_sets():
    with pytest.raises(ValueError):
        scaling.fit_temperature(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        scaling.fit_vector(np.array([[np.nan, 0.0]]), np.array([0]))


# --- fit_vector / fit_matrix -------------------------------------------------------

@pytest.mark.parametrize("fit", [scaling.fit_temperature, scaling.fit_vector, scaling.fit_matrix])
@pytest.mark.parametrize("settings", [
    {"tol": float("inf")},
    {"tol": float("nan")},
    {"tol": -1.0},
], ids=["tol-inf", "tol-nan", "tol-negative"])
def test_adam_fits_reject_bad_optimiser_settings(fit, settings):
    # every fit runs Newton to the fixed gradient norm scaling.TOL and takes
    # no tolerance of its own, so any tol setting is refused
    z, labels = calibrated_set(n=200, seed=1)
    with pytest.raises(TypeError, match="tol"):
        fit(z, labels, **settings)


def test_affine_fits_near_identity_when_calibrated():
    z, labels = calibrated_set()
    vec = scaling.fit_vector(z, labels)
    assert np.max(np.abs(vec.w_diag - 1.0)) < 0.1
    mat = scaling.fit_matrix(z, labels)
    assert np.max(np.abs(mat.w_full - np.eye(2))) < 0.1
    assert np.max(np.abs(mat.b)) < 0.1


def test_matrix_recovers_generating_transform_nll():
    z, _ = calibrated_set(seed=11)
    rng = np.random.default_rng(12)
    a = np.array([[1.4, -0.3], [0.2, 0.8]])
    c = np.array([0.3, -0.1])
    zt = z @ a.T + c
    labels = (rng.random(len(z)) < nn.softmax(zt)[:, 1]).astype(int)
    gen_nll = mean_nll(zt, labels)
    scaler = scaling.fit_matrix(z, labels)
    fitted = mean_nll(scaling.transform_logits(scaler, z), labels)
    assert abs(fitted - gen_nll) < 1e-3


@pytest.mark.parametrize("labelled", ["sampled", "all-right", "all-wrong"])
@pytest.mark.parametrize("kind", KINDS)
def test_fit_reaches_tol_or_a_temperature_bound(tmp_path, kind, labelled):
    if labelled == "sampled":
        z, labels = miscalibrated_set()
    else:  # one logit pair repeated: the NLL is one-sided in every scale
        z = np.tile([2.0, 0.0], (100, 1))
        labels = np.full(100, 0 if labelled == "all-right" else 1)
    log_path = tmp_path / "fit.csv"
    scaler = FITS[kind](z, labels, log_path=log_path)
    params = raw_params(scaler)
    assert np.all(np.isfinite(params))
    if scaler.warning is not None:
        # only temperature has bounds; there the NLL still falls outward
        assert kind == "temperature" and labelled != "sampled"
        bound = scaling.TEMPERATURE_BOUNDS[0 if labelled == "all-right" else 1]
        assert scaler.temperature == bound
        slope = raw_gradient(kind, params, z, labels, h=1e-4 * bound)[0]
        assert slope > 0 if labelled == "all-right" else slope < 0
    else:
        last = log_path.read_text().splitlines()[-1].split(",")
        assert float(last[2]) < scaling.TOL
        assert np.linalg.norm(raw_gradient(kind, params, z, labels)) < scaling.TOL


@pytest.mark.parametrize("kind", KINDS)
def test_fit_matches_scipy_reference(kind):
    from scipy import optimize

    z, labels = miscalibrated_set()
    identity = {"temperature": [1.0], "vector": [1.0, 1.0], "matrix": [1.0, 0, 0, 1.0, 0, 0]}[kind]
    reference = optimize.minimize(
        lambda p: raw_nll(kind, p, z, labels), identity, method="BFGS", options={"gtol": 1e-9},
    )
    fitted = raw_nll(kind, raw_params(FITS[kind](z, labels)), z, labels)
    assert abs(fitted - reference.fun) < 1e-9


def test_matrix_fit_is_the_least_norm_lift():
    # softmax is unchanged by adding one vector to both rows of W, or one
    # number to both entries of b; the fit keeps the (W, b) nearest (I, 0)
    z, labels = miscalibrated_set()
    scaler = scaling.fit_matrix(z, labels)
    np.testing.assert_allclose(scaler.w_full.sum(axis=0), [1.0, 1.0], rtol=0, atol=1e-12)
    assert abs(scaler.b.sum()) <= 1e-12
    assert np.max(np.abs(scaler.w_full - np.eye(2))) > 0.1  # something was fitted


@pytest.mark.parametrize("shape", ["separable", "collinear"])
@pytest.mark.parametrize("kind", KINDS)
def test_fit_without_a_unique_optimum_stays_finite(tmp_path, kind, shape):
    rng = np.random.default_rng(8)
    if shape == "separable":  # every label is the argmax: no finite optimum
        z = rng.normal(0, 2, (500, 2))
        labels = (z[:, 1] > z[:, 0]).astype(int)
    else:  # z0 = -z1, so matrix scaling's directions are collinear
        z1 = rng.normal(0, 2, 500)
        z = np.column_stack([-z1, z1])
        labels = (rng.random(500) < nn.softmax(z * 0.5)[:, 1]).astype(int)
    log_path = tmp_path / "fit.csv"
    scaler = FITS[kind](z, labels, log_path=log_path)
    assert np.all(np.isfinite(raw_params(scaler)))
    assert len(log_path.read_text().splitlines()) - 1 <= scaling.NEWTON_STEPS + 1
    assert mean_nll(scaling.transform_logits(scaler, z), labels) <= mean_nll(z, labels)


def test_fitted_never_worse_than_uncalibrated():
    rng = np.random.default_rng(30)
    for seed in range(5):
        z, labels = calibrated_set(n=4000, seed=seed)
        mis = z * float(rng.uniform(0.3, 3.0))
        base = mean_nll(mis, labels)
        for fit in (scaling.fit_temperature, scaling.fit_vector, scaling.fit_matrix):
            scaler = fit(mis, labels)
            fitted = mean_nll(scaling.transform_logits(scaler, mis), labels)
            assert fitted <= base + 1e-9


# --- serialization / logs ------------------------------------------------------------

SAVED_SCALERS = [
    (ScalerParams(kind="temperature", temperature=1.5, model_sha256="ab" * 32),
     '{\n  "kind": "temperature",\n  "T": 1.5,\n  "model_sha256": "' + "ab" * 32 + '"\n}\n'),
    (ScalerParams(kind="vector", w_diag=np.array([0.9, 1.1])),
     '{\n  "kind": "vector",\n  "w_diag": [\n    0.9,\n    1.1\n  ]\n}\n'),
    (ScalerParams(kind="matrix", w_full=np.array([[1.0, 0.2], [-0.1, 0.8]]),
                  b=np.array([0.3, 0.0])),
     '{\n  "kind": "matrix",\n  "W": [\n    [\n      1.0,\n      0.2\n    ],\n'
     '    [\n      -0.1,\n      0.8\n    ]\n  ],\n  "b": [\n    0.3,\n    0.0\n  ]\n}\n'),
]


@pytest.mark.parametrize("scaler, text", SAVED_SCALERS, ids=KINDS)
def test_save_scaler_writes_its_parameters_in_table_order(tmp_path, scaler, text):
    # the keys follow scaling.PARAMETERS, each number in its shortest round-trip text
    path = tmp_path / f"{scaler.kind}.json"
    scaling.save_scaler(scaler, path)
    assert path.read_text() == text


def test_scaler_json_roundtrip(tmp_path):
    cases = [
        ScalerParams(kind="temperature", temperature=1.62, model_sha256="ab" * 32),
        ScalerParams(kind="vector", w_diag=np.array([0.9, 1.1])),
        ScalerParams(kind="matrix", w_full=np.array([[1.0, 0.2], [-0.1, 0.8]]), b=np.array([0.3, 0.0])),
    ]
    for scaler in cases:
        path = tmp_path / f"{scaler.kind}.json"
        scaling.save_scaler(scaler, path)
        loaded = scaling.load_scaler(path)
        assert loaded.kind == scaler.kind
        assert loaded.model_sha256 == scaler.model_sha256
        for field, _, shape in scaling.PARAMETERS[scaler.kind]:
            assert np.shape(getattr(loaded, field)) == shape
            np.testing.assert_array_equal(getattr(loaded, field), getattr(scaler, field))


@pytest.mark.parametrize("content", [
    np.random.default_rng(0).integers(0, 256, 512, dtype=np.uint8).tobytes(),
    b"{not json",
    json.dumps([{"kind": "temperature", "T": 1.5}]).encode(),
    json.dumps({"kind": "temperature", "T": "x"}).encode(),
    json.dumps({"kind": "bogus"}).encode(),
    json.dumps({"kind": ["temperature"], "T": 1.5}).encode(),
    json.dumps({"kind": "matrix", "W": [[1.0, 0.0], [0.0]], "b": [0.0, 0.0]}).encode(),
    json.dumps({"kind": "temperature", "T": 1.5, "warning": 7}).encode(),
    json.dumps({"kind": "temperature", "T": 1.5, "warning": None}).encode(),
    json.dumps({"kind": "temperature", "T": 1.5, "model_sha256": None}).encode(),
    b"[" * 100_000 + b"]" * 100_000,
    # deep enough to end the reader's recursion, not so deep that json refuses it
    b'{"kind": "matrix", "b": [0, 0], "W": ' + b"[" * 900 + b"1" + b"]" * 900 + b"}",
], ids=["random-bytes", "not-json", "json-list", "string-T", "unknown-kind", "list-kind", "ragged-W",
        "numeric-warning", "null-warning", "null-model-sha256", "deeply-nested", "deeply-nested-W"])
def test_load_scaler_names_the_file_of_a_malformed_scaler(tmp_path, content):
    path = tmp_path / "scaler_bad.json"
    path.write_bytes(content)
    with pytest.raises(scaling.ScalerFormatError) as info:
        scaling.load_scaler(path)
    assert str(info.value).count(str(path)) == 1


def test_convergence_log_schema(tmp_path):
    z, labels = calibrated_set(n=1000, seed=5)
    log_path = tmp_path / "fit.csv"
    scaling.fit_matrix(z * 2.0, labels, log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "iter,nll,grad_norm"
    assert len(lines) >= 3
    first = lines[1].split(",")
    assert int(first[0]) == 0
    float(first[1]), float(first[2])

    for fit in (scaling.fit_temperature, scaling.fit_vector, scaling.fit_matrix):
        fit(z * 2.0, labels, log_path=log_path)
        lines = log_path.read_text().splitlines()
        assert lines[0] == "iter,nll,grad_norm"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(range(len(rows)))
        assert all(b[1] <= a[1] for a, b in zip(rows, rows[1:]))  # NLL never rises
        assert rows[-1][2] < 1e-6


def test_mean_nll_stable_for_huge_logits():
    z = np.array([[4000.0, 0.0], [0.0, 3000.0]])
    labels = np.array([0, 0])
    value = mean_nll(z, labels)
    assert math.isfinite(value)
    assert value == pytest.approx(1500.0, rel=1e-12)  # second sample pays 3000
