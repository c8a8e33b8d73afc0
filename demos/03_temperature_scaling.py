"""Post-hoc calibration with the Platt family: temperature, vector, matrix.

Starts from deliberately mis-scaled logits (a model that is overconfident
by a constant factor), fits each scaler on a validation half, and measures
ECE before and after on the held-out half.
"""

import numpy as np

from calibforge import metrics, nn, scaling

rng = np.random.default_rng(7)
n = 40000
z_true = np.column_stack([rng.normal(0, 1.2, n), rng.normal(0, 1.2, n)])
labels = (rng.random(n) < nn.softmax(z_true)[:, 1]).astype(int)
z_model = z_true * 2.0  # the "model" doubles every logit: overconfident

val, test = slice(0, n // 2), slice(n // 2, n)


def ece_of(logits, y):
    return metrics.build_report(nn.softmax(logits), y, 10).ece


print(f"uncalibrated test ECE: {ece_of(z_model[test], labels[test]):.4f}")
print(f"(true-scale logits would give {ece_of(z_true[test], labels[test]):.4f})\n")

temp = scaling.fit_temperature(z_model[val], labels[val])
print(f"temperature fit: T = {temp.temperature:.3f}  (the mis-scale factor was 2.0)")
print(f"  test ECE after: {ece_of(scaling.transform_logits(temp, z_model[test]), labels[test]):.4f}")

vec = scaling.fit_vector(z_model[val], labels[val])
print(f"vector fit: diag = {np.round(vec.w_diag, 3)}")
print(f"  test ECE after: {ece_of(scaling.transform_logits(vec, z_model[test]), labels[test]):.4f}")

mat = scaling.fit_matrix(z_model[val], labels[val])
print(f"matrix fit: W = {np.round(mat.w_full, 3).tolist()}, b = {np.round(mat.b, 3)}")
print(f"  test ECE after: {ece_of(scaling.transform_logits(mat, z_model[test]), labels[test]):.4f}")

print("\ntemperature scaling never changes the predicted class:")
z = np.array([[1.3, -0.2]])
for t in (0.5, 1.0, 5.0, 50.0):
    scaler = scaling.ScalerParams(kind="temperature", temperature=t)
    conf, pred = metrics.predict(nn.softmax(scaling.transform_logits(scaler, z)))
    print(f"  T={t:5.1f}: predicted class {pred[0]}, confidence {conf[0]:.4f}")
print("confidence slides toward 0.5 as T grows, but the argmax is invariant")
