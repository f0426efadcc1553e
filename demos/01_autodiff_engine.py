"""A tour of the tensor engine: forward ops, gradients, and Adam.

Run: python3 demos/01_autodiff_engine.py
"""

import numpy as np

import ugsl.tensor as T

rng = np.random.default_rng(0)

# every value is a float64 matrix; parameters opt in to gradients
w = T.parameter(rng.normal(size=(3, 2)))
x = T.constant(rng.normal(size=(4, 3)))

logits = T.matmul(x, w)
labels = np.array([0, 1, 1, 0])
loss = T.softmax_cross_entropy(logits, labels, np.ones(4, dtype=bool))
print(f"cross-entropy on random logits: {loss.item():.4f} "
      f"(log 2 = {np.log(2):.4f})")

T.backward(loss)
print("gradient shape matches the parameter:", w.grad.shape == w.values.shape)

# the recorded graph is single-use; a second backward refuses
try:
    T.backward(loss)
except Exception as err:
    print("second backward rejected:", type(err).__name__)

# spot-check one gradient entry against central finite differences
h = 1e-4
i, j = 1, 0
base = w.values[i, j]
vals = []
for delta in (h, -h):
    w.values[i, j] = base + delta
    probe = T.softmax_cross_entropy(T.matmul(x, T.Tensor(w.values)), labels,
                                    np.ones(4, dtype=bool))
    vals.append(probe.item())
w.values[i, j] = base
fd = (vals[0] - vals[1]) / (2 * h)
print(f"autodiff {w.grad[i, j]:+.6f} vs finite difference {fd:+.6f}")

# a few optimizer steps shrink the loss
params = [w]
state = T.AdamState.for_params(params, lr=0.05)
for step in range(30):
    T.zero_grads(params)
    out = T.softmax_cross_entropy(T.matmul(x, w), labels, np.ones(4, dtype=bool))
    T.backward(out)
    T.adam_step(params, state)
print(f"loss after 30 Adam steps: {out.item():.4f}")

# pairwise cosine is the workhorse of the edge scorers: y y^T of the
# row-normalized points is a plain array to select edges from, and
# gram_at records only the selected entries of the mean of y y^T over a
# list of embeddings (here one; the att scorer passes one per head)
points = T.parameter([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
y = T.normalize_rows(points)
cosine = y.values @ y.values.T
print("pairwise cosine of three points:")
print(np.round(cosine, 4))
rows, cols = np.array([0, 2]), np.array([2, 0])
T.backward(T.sum_all(T.gram_at([y], rows, cols, cosine[rows, cols])))
print("gradient of cos(p0, p2) + cos(p2, p0) at each point:")
print(np.round(points.grad, 4))
