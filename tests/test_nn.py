"""Network tests: forward against a naive matrix-multiply oracle, backprop
against central finite differences, Adam against a hand-traced recurrence,
and the training determinism contract."""

import re
import tracemalloc

import numpy as np
import pytest

from calibforge import duloss, nn

from conftest import load_model


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
            lp = nn.backward(params, x, y, loss_kind, noise)[0]
            arr[ix] = orig - h
            lm = nn.backward(params, x, y, loss_kind, noise)[0]
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


@pytest.mark.parametrize("du_head", [False, True])
def test_probabilities_of_row_blocks_are_those_of_the_whole_array(du_head):
    # an outputs miss takes the probabilities of each row block; rows cycle
    # through s < 1, s >= 1, m == 0 and a large |m|, so every block of 4
    # rows or more holds each kind
    rng = np.random.default_rng(8)
    n = 1 + 7 + 256 + 300
    mu = rng.normal(0.0, 4.0, (n, 2))
    s_raw = rng.normal(0.0, 2.0, n)
    s_raw[0::4] = rng.uniform(-6.0, -0.5, len(s_raw[0::4]))  # s = sqrt(2) exp(s_raw) < 1
    s_raw[1::4] = rng.uniform(0.0, 6.0, len(s_raw[1::4]))  # s >= 1
    mu[2::4, 1] = mu[2::4, 0]  # m == 0
    mu[3::4, 1] += rng.choice([-1.0, 1.0], len(mu[3::4])) * rng.uniform(40.0, 800.0, len(mu[3::4]))
    out = np.column_stack([mu, s_raw]) if du_head else mu
    params = nn.init_params([4, 2], du_head=du_head, seed=0)
    whole = nn.probabilities(params, out)
    expected = duloss.expected_probs_exact(mu, s_raw) if du_head else nn.softmax(mu)
    assert whole.tobytes() == expected.tobytes()
    edges = [0, 1, 8, 264, n]
    blocks = [nn.probabilities(params, out[a:b]) for a, b in zip(edges, edges[1:])]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [1, 37, 8193])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_forward_equals_the_training_pass_bit_for_bit(loss_kind, dtype, n):
    # inference is one training pass on the batch it is given, at any size
    du = loss_kind == "du"
    params = nn.init_params([11, 16, 9, 2], du_head=du, seed=4)
    rng = np.random.default_rng(n)
    for b in params.biases:
        b += rng.normal(0.0, 0.3, b.shape)
    params = as_float32(params) if dtype == np.float32 else params
    x = rng.normal(0.0, 1.0, (n, 11))
    y = rng.integers(0, 2, n)
    noise = duloss.draw_noise_batch(n, duloss.MCConfig(k=4), rng) if du else None
    _, _, trained = nn.backward(params, x, y, loss_kind, noise)
    out = nn.forward(params, x)
    assert out.dtype == trained.dtype == dtype
    assert out.shape == trained.shape == (n, 3 if du else 2)
    assert out.tobytes() == trained.tobytes()


def test_forward_keeps_only_the_current_layer():
    # beside its input and output, inference holds the hidden activations of
    # the one row block it is given (two arrays for two hidden layers), each
    # computed in place
    n, width = 4096, 256
    params = nn.init_params([64, width, width, 2], seed=1)
    x = np.random.default_rng(0).normal(0.0, 1.0, (n, 64))
    activation = n * width * 8
    tracemalloc.start()
    try:
        out = nn.forward(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, 2)
    assert peak <= 2.5 * activation


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
        return nn.backward(params, np.zeros((1, 2)), np.array([y]), "ce")[0]

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
    np.testing.assert_allclose(grads[-1], [-0.5, 0.5], atol=1e-15)


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
        worst = max(worst, relative_error(grads, numeric))
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
        noise = duloss.draw_noise_batch(n, duloss.MCConfig(k=16), noise_rng)
        _, grads, _ = nn.backward(params, x, y, "du", noise)
        numeric = fd_gradient(params, x, y, "du", noise)
        worst = max(worst, relative_error(grads, numeric))
    assert worst <= 1e-5


def test_duplicated_batch_equals_single_sample_gradient():
    rng = np.random.default_rng(5)
    params = random_small_net(rng)
    x = rng.normal(0.0, 1.0, (1, params.layer_sizes[0]))
    single_loss, single, _ = nn.backward(params, x, np.array([1]), "ce")
    batch = np.tile(x, (4, 1))
    batch_loss, repeated, _ = nn.backward(params, batch, np.array([1, 1, 1, 1]), "ce")
    assert batch_loss == pytest.approx(single_loss, abs=1e-14)
    for g1, g2 in zip(single, repeated):
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
    exact, narrow = grads64, grads32
    assert out64.dtype == np.float64 and out32.dtype == np.float32
    assert all(g.dtype == np.float64 for g in exact)
    assert all(g.dtype == np.float32 for g in narrow)
    assert relative_error([g.astype(np.float64) for g in narrow], exact) <= 1e-5
    assert loss32 == pytest.approx(loss64, rel=1e-6)


def test_float32_du_backward_on_saturated_margins_has_no_subnormal_gradient():
    # every output is 0, so each row's margin draws are sigma * eps_c with
    # sigma = 1: +-90 on rows 0-3, whose draw at +90 has a gradient of exactly
    # 0 and whose draw at -90 one of about e^-90 / 8 = 1e-40, a float32
    # subnormal, and +-1 on rows 4-7. Input 0 is set on rows 0-3 only, so
    # row 0 of the weight gradient sums their output gradients alone.
    params = nn.ModelParams([2, 2], [np.zeros((2, 3))], [np.zeros(3)], du_head_enabled=True)
    x = np.repeat(np.eye(2), 4, axis=0)
    y = np.ones(8, dtype=int)
    noise = np.zeros((8, 2, 2))
    noise[:, :, 1] = np.repeat([[90.0, -90.0], [1.0, -1.0]], 4, axis=0)
    _, grads, _ = nn.backward(as_float32(params), x, y, "du", noise)
    tiny = np.finfo(np.float32).tiny
    for g in grads:
        assert g.dtype == np.float32
        assert not ((g != 0.0) & (np.abs(g) < tiny)).any()
    # the unsaturated rows' gradient is kept
    assert np.abs(grads[0][1, :2]).min() > 0.1


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_backward_keeps_one_array_per_hidden_layer(loss_kind):
    # the pass keeps each hidden activation and takes its ReLU masks from
    # them; beside those two it holds at most the propagated gradient, its
    # product with the next layer's weights and a boolean mask
    du = loss_kind == "du"
    n, width = 4096, 256
    params = nn.init_params([64, width, width, 2], du_head=du, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (n, 64))
    y = rng.integers(0, 2, n)
    noise = duloss.draw_noise_batch(n, duloss.MCConfig(k=8), rng) if du else None
    activation = n * width * 8
    tracemalloc.start()
    try:
        nn.backward(params, x, y, loss_kind, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * activation


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
        learning_rate=1e-2, epochs=200, batch_size=200, rng_seed=1, loss_kind="ce", hidden=(8,)
    )
    _, log = nn.train(x, y, config)
    assert log[-1].train_acc >= 0.99


def test_train_loss_non_increasing_at_small_lr():
    x, y = toy_separable()
    config = nn.TrainConfig(
        learning_rate=1e-3, epochs=60, batch_size=200, rng_seed=3, loss_kind="ce", hidden=(8,)
    )
    _, log = nn.train(x, y, config)
    losses = [row.loss for row in log]
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))


def test_train_zero_lr_keeps_initialization():
    x, y = toy_separable(50)
    config = nn.TrainConfig(learning_rate=0.0, epochs=3, batch_size=16, rng_seed=9, hidden=(4,))
    params, _ = nn.train(x, y, config)
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
            loss_kind=loss_kind, k_train=8, hidden=(4,),
        )
        nn.train(x, y, config)
        assert sum(rows) == config.epochs * len(y)


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_train_acc_is_running_batch_accuracy(loss_kind):
    # with lr = 0 the parameters never move, so the running accuracy over
    # the epoch's batches is the full-pass accuracy of the initialization
    x, y = toy_separable(50)
    config = nn.TrainConfig(
        learning_rate=0.0, epochs=3, batch_size=16, rng_seed=9,
        loss_kind=loss_kind, k_train=8, hidden=(4,),
    )
    params, log = nn.train(x, y, config)
    logits, _ = nn.split_outputs(params, nn.forward(params, x))
    full_pass = float(np.mean(np.argmax(logits, axis=1) == y))
    assert [row.train_acc for row in log] == [full_pass] * config.epochs


def test_train_same_seed_bit_identical():
    x, y = toy_separable(120, seed=4)
    for loss_kind in ("ce", "du"):
        config = nn.TrainConfig(
            learning_rate=1e-3, epochs=4, batch_size=32, rng_seed=11,
            loss_kind=loss_kind, k_train=8, hidden=(6,),
        )
        p1, log1 = nn.train(x, y, config)
        p2, log2 = nn.train(x, y, config)
        for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
            np.testing.assert_array_equal(a, b)
        assert [(r.epoch, r.loss, r.train_acc) for r in log1] == [
            (r.epoch, r.loss, r.train_acc) for r in log2
        ]


def test_train_step_is_a_float32_pass_and_a_float64_adam_update():
    # one epoch of one full batch, replayed by hand: float32 rows and
    # weights through backward, float64 gradients into Adam
    x, y = toy_separable(40)
    config = nn.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=40, rng_seed=9, hidden=(4,))
    params, _ = nn.train(x, y, config)
    init_ss, shuffle_ss = np.random.SeedSequence(9).spawn(2)
    expected = nn.init_params([2, 4, 2], seed=init_ss)
    perm = np.random.default_rng(shuffle_ss).permutation(len(y))
    _, grads, _ = nn.backward(as_float32(expected), x.astype(np.float32)[perm], y[perm], "ce")
    flat = expected.weights + expected.biases
    nn.adam_step(
        flat, [g.astype(np.float64) for g in grads],
        nn.adam_init(flat), lr=1e-2,
    )
    for a, b in zip(params.weights + params.biases, flat):
        np.testing.assert_array_equal(a, b)


def test_train_returns_float64_params_that_roundtrip(tmp_path):
    x, y = toy_separable(120, seed=4)
    for loss_kind in ("ce", "du"):
        config = nn.TrainConfig(
            learning_rate=1e-3, epochs=2, batch_size=32, rng_seed=11,
            loss_kind=loss_kind, k_train=8, hidden=(6,),
        )
        params, _ = nn.train(x, y, config)
        path = tmp_path / f"model_{loss_kind}.txt"
        nn.save_model(params, path)
        loaded, _ = load_model(path)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)


def interleaved_rows(n=75, seed=6):
    """Rows whose columns 0, 2, 3 and 6 hold small integers, among them
    -128 and 127, and whose other columns hold floats, with labels that
    follow them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, 7))
    x[:, [0, 3]] = rng.integers(-1, 2, (n, 2))
    x[:, 2] = rng.integers(1, 41, n)
    x[:, 6] = rng.integers(-128, 128, n)
    x[:2, 6] = -128, 127
    y = (x[:, 1] + x[:, 3] + 0.05 * x[:, 2] - 1.0 > 0).astype(int)
    return x, y


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
def test_train_on_column_runs_is_train_on_the_float32_rows(loss_kind):
    # 75 rows in batches of 16 end on a batch of 11
    x, y = interleaved_rows()
    runs = nn.ColumnRuns(x.shape)
    runs[:] = x
    assert [(run.dtype, run.shape[1]) for run in runs.runs] == [
        (np.int8, 1), (np.float32, 1), (np.int8, 2), (np.float32, 2), (np.int8, 1),
    ]
    config = nn.TrainConfig(
        learning_rate=1e-2, epochs=3, batch_size=16, rng_seed=5, loss_kind=loss_kind, k_train=8,
        hidden=(6,),
    )
    p1, log1 = nn.train(runs, y, config)
    p2, log2 = nn.train(x.astype(np.float32), y, config)
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert a.tobytes() == b.tobytes()
    assert log1 == log2


@pytest.mark.parametrize("value, int8", [
    (-128.0, True), (0.0, True), (127.0, True),
    (-129.0, False), (128.0, False), (0.5, False), (-0.0, False),
])
def test_a_column_is_an_int8_run_only_where_int8_keeps_its_floats(value, int8):
    x = np.array([[3.0, value], [-1.0, 2.0]])
    assert nn.int8_columns(x).tolist() == [True, int8]
    runs = nn.ColumnRuns(x.shape)
    runs[:] = x
    assert [run.dtype for run in runs.runs] == ([np.int8] if int8 else [np.int8, np.float32])
    taken = runs.take(np.array([1, 0, 1]), np.empty((3, 2), np.float32))
    assert taken.tobytes() == x.astype(np.float32)[[1, 0, 1]].tobytes()


def test_a_later_assignment_widens_the_int8_columns_it_breaks():
    # column 4 is made integral, so columns 2-4 are one int8 run; the second
    # assignment breaks column 3, in the middle of that run, and the third
    # brings a -0.0 into column 6. A zero-row assignment changes no layout,
    # and after each assignment the rows set so far are taken as the
    # float32 rows byte for byte
    x, _ = interleaved_rows(n=12)
    x[:, 4] = np.arange(12) - 6
    x[5, 3], x[10, 6] = 0.25, -0.0
    runs = nn.ColumnRuns(x.shape)
    runs[np.array([], dtype=int)] = x[:0]
    assert runs.runs == []
    i8, f32 = np.int8, np.float32
    steps = [
        (np.array([3, 0, 2, 1]), [(i8, 1), (f32, 1), (i8, 3), (f32, 1), (i8, 1)]),
        (np.array([5, 7, 4, 6]),
         [(i8, 1), (f32, 1), (i8, 1), (f32, 1), (i8, 1), (f32, 1), (i8, 1)]),
        (slice(8, 12), [(i8, 1), (f32, 1), (i8, 1), (f32, 1), (i8, 1), (f32, 2)]),
    ]
    done = np.zeros(12, bool)
    for rows, layout in steps:
        runs[rows] = x[rows]
        runs[np.array([], dtype=int)] = x[:0]
        done[rows] = True
        assert [(run.dtype, run.shape[1]) for run in runs.runs] == layout
        idx = np.flatnonzero(done)
        taken = runs.take(idx, np.empty((len(idx), 7), np.float32))
        assert taken.tobytes() == x.astype(np.float32)[idx].tobytes()


@pytest.mark.parametrize("value, refused", [
    (float(np.finfo(np.float32).max), False),
    (np.nextafter(2.0**128 - 2.0**103, 0.0), False),
    (2.0**128 - 2.0**103, True),
    (-1e39, True),
])
def test_column_runs_refuse_a_value_whose_float32_cast_is_infinite(value, refused):
    x = np.array([[3.0, 0.5], [-1.0, 2.0], [4.0, 1.5]])
    runs = nn.ColumnRuns(x.shape)
    runs[:2] = x[:2]
    x[2, 1] = value
    if refused:
        with pytest.raises(nn.Float32RangeError, match="feature 1 is") as info:
            runs[np.array([2, 1])] = x[[1, 2]]
        assert info.value.row == 1
        assert [run.dtype for run in runs.runs] == [np.int8, np.float32]
    else:
        runs[2:] = x[2:]
        taken = runs.take(np.arange(3), np.empty((3, 2), np.float32))
        assert taken[2, 1] == np.finfo(np.float32).max * np.sign(value)


def test_train_rejects_empty_dataset():
    config = nn.TrainConfig(epochs=1, hidden=())
    with pytest.raises(ValueError):
        nn.train(np.zeros((0, 2)), np.zeros(0, dtype=int), config)


def test_train_refuses_an_array_value_beyond_the_float32_range(monkeypatch):
    # an array is set into ColumnRuns, as train's scan sets its blocks, so a
    # value whose float32 cast is infinite is refused before any step
    x = np.random.default_rng(3).normal(size=(64, 3))
    x[5, 1] = 1e39
    y = (x[:, 0] > 0).astype(int)
    steps = []
    monkeypatch.setattr(nn, "backward", lambda *args, **kwargs: steps.append(args))
    with pytest.raises(ValueError, match=r"^row 5: feature 1 is 1e\+39, beyond the float32 range"):
        nn.train(x, y, nn.TrainConfig(epochs=1, batch_size=16, hidden=(4,)))
    assert steps == []


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
    for hidden in ((4, 0), (-1,)):
        with pytest.raises(ValueError, match="hidden"):
            nn.TrainConfig(hidden=hidden).validate()
    nn.TrainConfig(hidden=()).validate()  # no hidden layer


@pytest.mark.parametrize("loss_kind", ["ce", "du"])
@pytest.mark.parametrize("width, hidden", [(2, (8,)), (7, (5, 3)), (7, ())])
def test_train_builds_the_network_of_its_rows_and_hidden_sizes(loss_kind, width, hidden):
    x = np.random.default_rng(width).normal(size=(40, width))
    y = (x[:, 0] > 0).astype(int)
    config = nn.TrainConfig(epochs=1, batch_size=16, loss_kind=loss_kind, k_train=8,
                            hidden=hidden)
    params, _ = nn.train(x, y, config)
    assert params.layer_sizes == [width, *hidden, 2]
    assert params.weights[-1].shape[1] == (3 if loss_kind == "du" else 2)


def test_a_network_that_does_not_end_at_the_two_classes_is_refused(tmp_path):
    with pytest.raises(ValueError, match="layer_sizes"):
        nn.init_params([3, 4, 3])
    params = nn.ModelParams([3, 3], [np.eye(3)], [np.zeros(3)])
    with pytest.raises(ValueError, match="layer_sizes"):
        nn.save_model(params, tmp_path / "m.txt")
    assert list(tmp_path.iterdir()) == []


# --- serialization ---------------------------------------------------------------

def test_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(21)
    for du in (False, True):
        params = nn.init_params([5, 4, 2], du_head=du, seed=int(rng.integers(0, 2**31)))
        for b in params.biases:
            b += rng.normal(0.0, 1.0, b.shape)
        path = tmp_path / f"model_{du}.txt"
        nn.save_model(params, path, header={"loss": "du" if du else "ce", "seed": "1"})
        loaded, header = load_model(path)
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


@pytest.mark.parametrize("header", [
    {"note": "a\nb"}, {"note": "a\rb"}, {"a\nb": "1"}, {"a=b": "1"}, {"param W9": "1"},
])
def test_save_model_refuses_a_header_entry_its_reader_would_not_read_back(tmp_path, header):
    # read_model splits lines at \n and \r, each header line at its first
    # "=", and takes a line starting "param " for the first parameter block
    path = tmp_path / "m.txt"
    (key,) = header
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        nn.save_model(nn.init_params([3, 3, 2], seed=7), path, header=header)
    assert list(tmp_path.iterdir()) == []


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(nn.ModelFormatError):
        load_model(path)
    path.write_text("calibforge-model v1\nlayer_sizes=3,2\ndu_head=false\nparam W0 3 2\n1 2\nend\n")
    with pytest.raises(nn.ModelFormatError):
        load_model(path)
    # a blank or bare `param` line where a parameter block should start
    for stray in ("", "param"):
        path.write_text(
            "calibforge-model v1\nlayer_sizes=2,2\ndu_head=false\nparam W0 2 2\n1 2\n3 4\n"
            f"{stray}\nparam b0 2\n0 0\nend\n"
        )
        with pytest.raises(nn.ModelFormatError, match=re.escape(f"{path}: line 7")):
            load_model(path)
    # a block not opened by its declared `param` line: on a [3, 3, 3, 2]
    # model, W0 and W1 have one shape, so only the names tell them apart
    nn.save_model(nn.init_params([3, 3, 3, 2], seed=0), path)
    saved = path.read_text()
    for edit in (
        lambda text: text.replace("param W0 ", "param Wtmp ").replace("param W1 ", "param W0 ")
        .replace("param Wtmp ", "param W1 "),
        lambda text: text.replace("param W0 ", "param Wzz "),
        lambda text: text.replace("param W0 ", "param  W0 "),
    ):
        path.write_text(edit(saved))
        with pytest.raises(nn.ModelFormatError, match=re.escape(f"{path}: line 4: expected")):
            load_model(path)


@pytest.mark.parametrize("line_no, edit, message", [
    (5, lambda row: row + " 1", "expected 3 values, got 4"),
    (9, lambda row: row.rsplit(" ", 1)[0], "expected 3 values, got 2"),
    (6, lambda row: "x " + row.split(" ", 1)[1], "could not convert"),
    (17, lambda row: "", "expected 2 values, got 0"),
    (22, lambda row: "param W3 2 2", "missing end marker"),
    (22, None, "missing end marker"),
], ids=["long-row", "short-bias", "bad-value", "blank-row", "extra-block", "no-end"])
def test_model_load_names_the_line_of_a_malformed_block(tmp_path, line_no, edit, message):
    # the blocks of a [3, 3, 3, 2] model open at lines 4, 8, 10, 14, 16 and 20,
    # and "end" is line 22
    path = tmp_path / "model.txt"
    nn.save_model(nn.init_params([3, 3, 3, 2], seed=0), path)
    lines = path.read_text().splitlines()
    assert lines[21] == "end"
    if edit is None:
        del lines[line_no - 1]
    else:
        lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(nn.ModelFormatError, match=re.escape(f"{path}: line {line_no}: ")) as info:
        load_model(path)
    assert message in str(info.value)


@pytest.mark.parametrize("du", [False, True], ids=["ce", "du"])
def test_param_shapes_is_the_model_file_layout(tmp_path, du):
    shapes = nn.param_shapes([3, 4, 5, 2], du)
    assert shapes == [("W0", (3, 4)), ("b0", (4,)), ("W1", (4, 5)), ("b1", (5,)),
                      ("W2", (5, 2 + du)), ("b2", (2 + du,))]
    params = nn.init_params([3, 4, 5, 2], du_head=du, seed=4)
    assert [a.shape for a in params.weights] == [shape for _, shape in shapes[::2]]
    assert [a.shape for a in params.biases] == [shape for _, shape in shapes[1::2]]
    path = tmp_path / "model.txt"
    nn.save_model(params, path)
    param_lines = [line for line in path.read_text().splitlines() if line.startswith("param ")]
    assert param_lines == [" ".join(["param", name, *map(str, shape)]) for name, shape in shapes]
    model = nn.read_model(path)
    assert model.n_outputs == shapes[-1][1][0]
    loaded = model.params()
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        np.testing.assert_array_equal(a, b)
    copy = tmp_path / "copy.txt"
    nn.save_model(loaded, copy)
    assert copy.read_bytes() == path.read_bytes()


# a consistent model file of a network with three outputs, which save_model
# refuses to write
THREE_OUTPUTS = (
    "calibforge-model v1\nlayer_sizes=3,4,3\ndu_head=false\n"
    "param W0 3 4\n" + "0.5 -0.5 1 0\n" * 3 + "param b0 4\n0 0 0 0\n"
    "param W1 4 3\n" + "1 0 -1\n" * 4 + "param b1 3\n0 0 0\nend\n"
)


@pytest.mark.parametrize("edit, key", [
    (lambda text: text.replace("layer_sizes=3,4,2", "layer_sizes=3,x"), "layer_sizes"),
    (lambda text: text.replace("layer_sizes=3,4,2", "layer_sizes=3,,2"), "layer_sizes"),
    (lambda text: THREE_OUTPUTS, "layer_sizes"),
    (lambda text: text.replace("du_head=false", "du_head=yes"), "du_head"),
    (None, None),
], ids=["non-integer-size", "empty-size", "three-outputs", "du-head-yes", "random-bytes"])
def test_model_load_names_the_file_of_a_malformed_model(tmp_path, edit, key):
    path = tmp_path / "model.txt"
    if edit is None:
        path.write_bytes(np.random.default_rng(3).bytes(4096))
    else:
        nn.save_model(nn.init_params([3, 4, 2], seed=0), path)
        path.write_text(edit(path.read_text()))
    with pytest.raises(nn.ModelFormatError, match=re.escape(str(path))) as info:
        load_model(path)
    assert key is None or repr(key) in str(info.value)
