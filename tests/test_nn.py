"""Network tests: forward against a naive matrix-multiply oracle, backprop
against central finite differences, Adam against a hand-traced recurrence,
and the training determinism contract."""

import re

import numpy as np
import pytest

from calibforge import duloss, nn


def fd_gradient(params, x, y, loss_kind, noise, h=1e-5):
    """Central finite differences of the mean batch loss, per parameter."""
    grads = []
    for arr in params.weights + params.biases:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = nn.batch_loss(params, x, y, loss_kind, noise)
            arr[ix] = orig - h
            lm = nn.batch_loss(params, x, y, loss_kind, noise)
            arr[ix] = orig
            g[ix] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    a = np.concatenate([g.ravel() for g in analytic])
    b = np.concatenate([g.ravel() for g in numeric])
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def random_small_net(rng, du_head=False):
    sizes = [int(rng.integers(2, 9)), int(rng.integers(2, 9)), 2]
    params = nn.init_params(sizes, du_head=du_head, seed=int(rng.integers(0, 2**31)))
    for b in params.biases:
        b += rng.normal(0.0, 0.3, b.shape)
    return params


# --- forward ----------------------------------------------------------------

def test_forward_zero_params_gives_zero_logits():
    params = nn.init_params([4, 3, 2], seed=0)
    for w in params.weights:
        w[:] = 0.0
    out = nn.forward(params, np.ones((1, 4)))
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_forward_identity_single_layer():
    params = nn.ModelParams([3, 3], [np.eye(3)], [np.zeros(3)])
    x = np.array([[0.3, -1.2, 2.0]])
    np.testing.assert_array_equal(nn.forward(params, x), x)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        params = random_small_net(rng)
        x = rng.normal(0.0, 1.0, params.layer_sizes[0])
        # naive re-implementation with explicit loops
        h = x
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            nxt = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                total = b[j]
                for i in range(w.shape[0]):
                    total += h[i] * w[i, j]
                nxt[j] = max(total, 0.0)
            h = nxt
        w, b = params.weights[-1], params.biases[-1]
        expected = np.zeros(w.shape[1])
        for j in range(w.shape[1]):
            total = b[j]
            for i in range(w.shape[0]):
                total += h[i] * w[i, j]
            expected[j] = total
        np.testing.assert_allclose(nn.forward(params, x[None, :])[0], expected, atol=1e-12)


def test_forward_rejects_width_mismatch():
    params = nn.init_params([4, 3, 2], seed=0)
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros(4))  # a single row is a (1, F) batch


def test_du_head_adds_one_output():
    params = nn.init_params([4, 3, 2], du_head=True, seed=0)
    out = nn.forward(params, np.zeros((5, 4)))
    assert out.shape == (5, 3)
    logits, s_raw = nn.split_outputs(params, out)
    assert logits.shape == (5, 2)
    assert s_raw.shape == (5,)


# --- softmax / the cross-entropy loss ----------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(nn.softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)


def test_softmax_analytic():
    np.testing.assert_allclose(nn.softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_logits_stable():
    p = nn.softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(9)
    z = rng.normal(0.0, 5.0, (200, 2))
    p = nn.softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    shifted = nn.softmax(z + rng.normal(0.0, 3.0, (200, 1)))
    np.testing.assert_allclose(shifted, p, atol=1e-9)


def test_cross_entropy_values():
    # a bias-only network emits its bias as the logits of every row
    def ce(logits, y):
        params = nn.ModelParams([2, 2], [np.zeros((2, 2))], [np.asarray(logits)])
        return nn.batch_loss(params, np.zeros((1, 2)), np.array([y]), "ce")

    assert ce([800.0, 0.0], 0) == 0.0
    assert ce([0.0, 0.0], 1) == pytest.approx(np.log(2.0))
    assert ce([0.0, np.log(3.0)], 1) == pytest.approx(-np.log(0.75), abs=1e-15)
    # a probability of exactly 0 is floored like the metrics module
    assert ce([800.0, 0.0], 1) == pytest.approx(-np.log(1e-12))


# --- backward ----------------------------------------------------------------

def test_ce_logit_gradient_identity_on_zero_net():
    params = nn.init_params([4, 3, 2], seed=0)
    for w in params.weights:
        w[:] = 0.0
    x = np.array([[0.5, -0.5, 1.0, 0.0]])
    _, grads, _ = nn.backward(params, x, np.array([0]), "ce")
    # softmax-CE at z = (0, 0): dL/dz = p - onehot = (0.5, 0.5) - (1, 0)
    np.testing.assert_allclose(grads.biases[-1], [-0.5, 0.5], atol=1e-15)


def test_ce_backprop_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        params = random_small_net(rng)
        n = int(rng.integers(1, 6))
        x = rng.normal(0.0, 1.0, (n, params.layer_sizes[0]))
        y = rng.integers(0, 2, n)
        _, grads, _ = nn.backward(params, x, y, "ce")
        numeric = fd_gradient(params, x, y, "ce", None)
        worst = max(worst, relative_error(grads.weights + grads.biases, numeric))
    assert worst <= 1e-5


def test_du_backprop_matches_finite_differences_with_frozen_noise():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(15):
        params = random_small_net(rng, du_head=True)
        n = int(rng.integers(1, 5))
        x = rng.normal(0.0, 1.0, (n, params.layer_sizes[0]))
        y = rng.integers(0, 2, n)
        noise_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        noise = duloss.draw_noise_batch(n, duloss.MCConfig(k=16, antithetic=True), noise_rng)
        _, grads, _ = nn.backward(params, x, y, "du", noise)
        numeric = fd_gradient(params, x, y, "du", noise)
        worst = max(worst, relative_error(grads.weights + grads.biases, numeric))
    assert worst <= 1e-5


def test_duplicated_batch_equals_single_sample_gradient():
    rng = np.random.default_rng(5)
    params = random_small_net(rng)
    x = rng.normal(0.0, 1.0, (1, params.layer_sizes[0]))
    single_loss, single, _ = nn.backward(params, x, np.array([1]), "ce")
    batch = np.tile(x, (4, 1))
    batch_loss, repeated, _ = nn.backward(params, batch, np.array([1, 1, 1, 1]), "ce")
    assert batch_loss == pytest.approx(single_loss, abs=1e-14)
    for g1, g2 in zip(single.weights + single.biases, repeated.weights + repeated.biases):
        np.testing.assert_allclose(g1, g2, atol=1e-14)


def as_float32(params):
    return nn.ModelParams(
        params.layer_sizes,
        [w.astype(np.float32) for w in params.weights],
        [b.astype(np.float32) for b in params.biases],
        du_head_enabled=params.du_head_enabled,
    )


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_float32_backward_matches_float64(loss_kind):
    # the training step's precision on the reference shape: float32 passes,
    # float64 loss head, against the float64 gradient of the same weights
    du = loss_kind == "du"
    params = nn.init_params([295, 256, 256, 2], du_head=du, seed=3)
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, (1024, 295))
    y = rng.integers(0, 2, 1024)
    noise = None
    if du:
        noise = duloss.draw_noise_batch(1024, duloss.MCConfig(k=8), rng)
    loss64, grads64, out64 = nn.backward(params, x, y, loss_kind, noise)
    loss32, grads32, out32 = nn.backward(as_float32(params), x, y, loss_kind, noise)
    exact = grads64.weights + grads64.biases
    narrow = grads32.weights + grads32.biases
    assert out64.dtype == np.float64 and out32.dtype == np.float32
    assert all(g.dtype == np.float64 for g in exact)
    assert all(g.dtype == np.float32 for g in narrow)
    assert relative_error([g.astype(np.float64) for g in narrow], exact) <= 1e-5
    assert loss32 == pytest.approx(loss64, rel=1e-6)


def test_backward_rejects_width_mismatch():
    params = nn.init_params([4, 3, 2], seed=0)
    with pytest.raises(ValueError):
        nn.backward(params, np.zeros((2, 3)), np.array([0, 1]), "ce")


# --- adam ---------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = [np.array([1.0, -2.0])]
    before = [a.copy() for a in p]
    state = nn.adam_init(p)
    nn.adam_step(p, [np.zeros(2)], state, lr=0.1)
    np.testing.assert_array_equal(p[0], before[0])


def test_adam_first_step_hand_trace():
    # w = 0, g = 1, lr = 0.1: bias-corrected first step is
    # -lr * 1 / (1 + eps), just short of -0.1
    p = [np.array([0.0])]
    state = nn.adam_init(p)
    nn.adam_step(p, [np.array([1.0])], state, lr=0.1)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert p[0][0] == pytest.approx(expected, abs=1e-18)
    assert p[0][0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_two_steps_match_reference_recurrence():
    # scripted oracle of the textbook recurrence, two identical steps
    beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.05, 0.7
    w, m, v = 0.3, 0.0, 0.0
    for t in (1, 2):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        w = w - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    p = [np.array([0.3])]
    state = nn.adam_init(p)
    for _ in range(2):
        nn.adam_step(p, [np.array([g])], state, lr=lr)
    assert p[0][0] == pytest.approx(w, abs=1e-16)
    assert state.t == 2


# --- train ---------------------------------------------------------------------

def toy_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    x[y == 1] += 0.5
    x[y == 0] -= 0.5
    return x, y


def test_train_toy_set_reaches_high_accuracy():
    x, y = toy_separable()
    config = nn.TrainConfig(
        learning_rate=1e-2, epochs=200, batch_size=200, rng_seed=1, loss_kind="ce"
    )
    _, log = nn.train(x, y, config, layer_sizes=[2, 8, 2])
    assert log[-1].train_acc >= 0.99


def test_train_loss_non_increasing_at_small_lr():
    x, y = toy_separable()
    config = nn.TrainConfig(
        learning_rate=1e-3, epochs=60, batch_size=200, rng_seed=3, loss_kind="ce"
    )
    _, log = nn.train(x, y, config, layer_sizes=[2, 8, 2])
    losses = [row.loss for row in log]
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))


def test_train_zero_lr_keeps_initialization():
    x, y = toy_separable(50)
    config = nn.TrainConfig(learning_rate=0.0, epochs=3, batch_size=16, rng_seed=9)
    params, _ = nn.train(x, y, config, layer_sizes=[2, 4, 2])
    init_ss = np.random.SeedSequence(9).spawn(2)[0]
    fresh = nn.init_params([2, 4, 2], seed=init_ss)
    for a, b in zip(params.weights + params.biases, fresh.weights + fresh.biases):
        np.testing.assert_array_equal(a, b)


def test_train_forwards_each_row_once_per_epoch(monkeypatch):
    x, y = toy_separable(50)
    rows = []
    forward_cached = nn._forward_cached

    def counting(params, xb):
        rows.append(len(xb))
        return forward_cached(params, xb)

    monkeypatch.setattr(nn, "_forward_cached", counting)
    for loss_kind in ("ce", "du"):
        rows.clear()
        config = nn.TrainConfig(
            learning_rate=1e-3, epochs=3, batch_size=16, rng_seed=9,
            loss_kind=loss_kind, k_train=8,
        )
        nn.train(x, y, config, layer_sizes=[2, 4, 2])
        assert sum(rows) == config.epochs * len(y)


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_train_acc_is_running_batch_accuracy(loss_kind):
    # with lr = 0 the parameters never move, so the running accuracy over
    # the epoch's batches is the full-pass accuracy of the initialization
    x, y = toy_separable(50)
    config = nn.TrainConfig(
        learning_rate=0.0, epochs=3, batch_size=16, rng_seed=9,
        loss_kind=loss_kind, k_train=8,
    )
    params, log = nn.train(x, y, config, layer_sizes=[2, 4, 2])
    logits, _ = nn.split_outputs(params, nn.forward(params, x))
    full_pass = float(np.mean(np.argmax(logits, axis=1) == y))
    assert [row.train_acc for row in log] == [full_pass] * config.epochs


def test_train_same_seed_bit_identical():
    x, y = toy_separable(120, seed=4)
    for loss_kind in ("ce", "du"):
        config = nn.TrainConfig(
            learning_rate=1e-3, epochs=4, batch_size=32, rng_seed=11,
            loss_kind=loss_kind, k_train=8,
        )
        p1, log1 = nn.train(x, y, config, layer_sizes=[2, 6, 2])
        p2, log2 = nn.train(x, y, config, layer_sizes=[2, 6, 2])
        for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
            np.testing.assert_array_equal(a, b)
        assert [(r.epoch, r.loss, r.train_acc) for r in log1] == [
            (r.epoch, r.loss, r.train_acc) for r in log2
        ]


def test_train_step_is_a_float32_pass_and_a_float64_adam_update():
    # one epoch of one full batch, replayed by hand: float32 rows and
    # weights through backward, float64 gradients into Adam
    x, y = toy_separable(40)
    config = nn.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=40, rng_seed=9)
    params, _ = nn.train(x, y, config, layer_sizes=[2, 4, 2])
    init_ss, shuffle_ss = np.random.SeedSequence(9).spawn(2)
    expected = nn.init_params([2, 4, 2], seed=init_ss)
    perm = np.random.default_rng(shuffle_ss).permutation(len(y))
    _, grads, _ = nn.backward(as_float32(expected), x.astype(np.float32)[perm], y[perm], "ce")
    flat = expected.weights + expected.biases
    nn.adam_step(
        flat, [g.astype(np.float64) for g in grads.weights + grads.biases],
        nn.adam_init(flat), lr=1e-2,
    )
    for a, b in zip(params.weights + params.biases, flat):
        np.testing.assert_array_equal(a, b)


def test_train_returns_float64_params_that_roundtrip(tmp_path):
    x, y = toy_separable(120, seed=4)
    for loss_kind in ("ce", "du"):
        config = nn.TrainConfig(
            learning_rate=1e-3, epochs=2, batch_size=32, rng_seed=11,
            loss_kind=loss_kind, k_train=8,
        )
        params, _ = nn.train(x, y, config, layer_sizes=[2, 6, 2])
        path = tmp_path / f"model_{loss_kind}.txt"
        nn.save_model(params, path)
        loaded, _ = nn.load_model(path)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)


def test_train_rejects_empty_dataset():
    config = nn.TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        nn.train(np.zeros((0, 2)), np.zeros(0, dtype=int), config, layer_sizes=[2, 2])


def test_train_config_validation():
    with pytest.raises(ValueError):
        nn.TrainConfig(learning_rate=-1.0).validate()
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            nn.TrainConfig(learning_rate=lr).validate()
    with pytest.raises(ValueError):
        nn.TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        nn.TrainConfig(loss_kind="huber").validate()
    with pytest.raises(ValueError):
        nn.TrainConfig(loss_kind="du", k_train=7).validate()  # odd k, antithetic


# --- serialization ---------------------------------------------------------------

def test_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(21)
    for du in (False, True):
        params = nn.init_params([5, 4, 2], du_head=du, seed=int(rng.integers(0, 2**31)))
        for b in params.biases:
            b += rng.normal(0.0, 1.0, b.shape)
        path = tmp_path / f"model_{du}.txt"
        nn.save_model(params, path, header={"loss": "du" if du else "ce", "seed": "1"})
        loaded, header = nn.load_model(path)
        assert loaded.du_head_enabled == du
        assert loaded.layer_sizes == params.layer_sizes
        assert header["loss"] == ("du" if du else "ce")
        for a, b in zip(
            params.weights + params.biases, loaded.weights + loaded.biases
        ):
            np.testing.assert_array_equal(a, b)


def test_model_save_is_byte_deterministic(tmp_path):
    params = nn.init_params([3, 3, 2], seed=7)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    nn.save_model(params, p1)
    nn.save_model(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_file_headers(tmp_path):
    params = nn.init_params([3, 3, 2], du_head=True, seed=7)
    path = tmp_path / "m.txt"
    nn.save_model(params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "calibforge-model v1"
    assert "du_head=true" in lines[:3]


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)
    path.write_text("calibforge-model v1\nlayer_sizes=3,2\ndu_head=false\nparam W0 3 2\n1 2\nend\n")
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)
    # a blank or bare `param` line where a parameter block should start
    for stray in ("", "param"):
        path.write_text(
            "calibforge-model v1\nlayer_sizes=2,2\ndu_head=false\nparam W0 2 2\n1 2\n3 4\n"
            f"{stray}\nparam b0 2\n0 0\nend\n"
        )
        with pytest.raises(nn.ModelFormatError, match=re.escape(f"{path}: line 7")):
            nn.load_model(path)
