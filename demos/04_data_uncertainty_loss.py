"""The data-uncertainty loss and why averaging sampled softmaxes calibrates.

Part 1 looks at the mechanism itself: with logits sampled as mu + sigma*eps,
the averaged probability of the winning class is pulled toward 0.5, more so
for larger sigma, and less so when the margin mu_c is already large.

Part 2 trains the density-head model on noisy synthetic matches and
compares its calibration against a plain cross-entropy twin.
"""

import numpy as np

from calibforge import datagen, duloss, metrics, nn
from calibforge.duloss import MCConfig

print("== part 1: the averaging mechanism ==")
print("E[p1] for logit margin mu_c under noise scale sigma (K = 200000 draws):\n")
print("  mu_c   sigma=0      0.5      1.0      2.0")
sigmas = np.array([0.5, 1.0, 2.0])
# every cell averages the same 200000 draws; one batch row per sigma
eps = duloss.draw_noise_batch(1, MCConfig(k=200000), np.random.default_rng(1))
eps = np.repeat(eps, len(sigmas), axis=0)
for mu_c in (0.5, 1.0, 2.0, 4.0):
    mu = np.tile([mu_c, 0.0], (len(sigmas), 1))
    p = duloss.expected_probs_batch(mu, np.log(sigmas), eps)
    row = [duloss.sigmoid(mu_c), *p[:, 0].tolist()]
    print(f"  {mu_c:4.1f}   " + "   ".join(f"{v:.4f}" for v in row))
exact = duloss.expected_probs_exact(np.array([[1.0, 0.0]]), np.zeros(1))[0, 0]
print(f"\nthe exact integral at mu_c = 1, sigma = 1 is {exact:.4f} (eval uses it)")
print("each row decreases left to right (more noise, less confidence) and the")
print("damping shrinks as mu_c grows: confident inputs are barely touched.")

print("\n== part 2: training with the loss ==")
config = datagen.SyntheticConfig(n_matches=6000, n_features=45, roster_size=20, rng_seed=5)
x_all, y_all, p_all = datagen.generate_dataset(config)
x, y = x_all[:5000], y_all[:5000]
xt, yt, p_true = x_all[5000:], y_all[5000:], p_all[5000:]

common = dict(learning_rate=1e-3, epochs=20, batch_size=256, rng_seed=5)
ce_params, _ = nn.train(x, y, nn.TrainConfig(loss_kind="ce", **common), layer_sizes=[45, 32, 2])
du_params, _ = nn.train(
    x, y, nn.TrainConfig(loss_kind="du", k_train=8, **common), layer_sizes=[45, 32, 2]
)


def report(probs):
    return metrics.build_report(probs, yt, 10), datagen.oracle_ece(probs, p_true)


rep_ce, oe_ce = report(nn.softmax(nn.forward(ce_params, xt)))
mu, s_raw = nn.split_outputs(du_params, nn.forward(du_params, xt))
# evaluation integrates the expectation exactly instead of sampling it
probs_du = duloss.expected_probs_exact(mu, s_raw)
rep_du, oe_du = report(probs_du)

print(f"cross-entropy model:   acc {rep_ce.accuracy:.3f}  ECE {rep_ce.ece:.4f}  oracle {oe_ce:.4f}")
print(f"data-uncertainty model: acc {rep_du.accuracy:.3f}  ECE {rep_du.ece:.4f}  oracle {oe_du:.4f}")

sigma = np.exp(s_raw)
minute = xt[:, 0]
print("\nlearned noise scale by game phase (the generator makes early minutes noisier):")
for lo, hi in ((1, 14), (14, 27), (27, 41)):
    mask = (minute >= lo) & (minute < hi)
    print(f"  minutes [{lo:2d},{hi:2d}): mean sigma {sigma[mask].mean():.3f}")
