"""Generate synthetic match-minute data and train the win predictor on it.

The generator attaches the true win probability to every sample, so after
training we can measure not just accuracy but how far the model's
confidence sits from the truth. Small sizes keep this run under a minute.
"""

import numpy as np

from calibforge import datagen, metrics, nn

config = datagen.SyntheticConfig(n_matches=6000, n_features=45, roster_size=20, rng_seed=3)
x_all, y_all, p_all = datagen.generate_dataset(config)
x, y = x_all[:5000], y_all[:5000]
xt, yt, p_true = x_all[5000:], y_all[5000:], p_all[5000:]

bayes_acc = float(np.mean(np.maximum(p_true, 1 - p_true)))
print(f"generated {len(y_all)} match-minutes "
      f"(noise temperature {datagen.noise_temperature(config.minute_min, config):.2f} "
      f"at minute {config.minute_min} down to "
      f"{datagen.noise_temperature(config.minute_max, config):.2f} at minute {config.minute_max})")
print(f"best possible test accuracy given the label noise: {bayes_acc:.3f}\n")

train_config = nn.TrainConfig(learning_rate=1e-3, epochs=10, batch_size=256, rng_seed=3)
params, log = nn.train(x, y, train_config, layer_sizes=[45, 32, 2])
print("epoch   loss     train_acc")
for row in log:
    print(f"{row.epoch:4d}   {row.loss:.4f}   {row.train_acc:.3f}")

probs = nn.softmax(nn.forward(params, xt))
report = metrics.build_report(probs, yt, 10)
print(f"\ntest accuracy {report.accuracy:.3f}  ECE {report.ece:.4f}  MCE {report.mce:.4f}")

print(f"oracle calibration error vs known p_true: {datagen.oracle_ece(probs, p_true):.4f}")
print("(the binned ECE estimates this from noisy labels; the oracle needs none)")
