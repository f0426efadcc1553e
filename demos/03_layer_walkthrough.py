"""The four stages of one structure-learning layer, step by step.

Run: python3 demos/03_layer_walkthrough.py
"""

import numpy as np

import ugsl.tensor as T
from ugsl.config import ScorerConfig, SparsifierConfig
from ugsl.layers import (init_edge_scorer, init_encoder_layer, encode,
                         process, score, sparsify)

rng = np.random.default_rng(3)
n, d = 6, 4
x = rng.normal(size=(n, d))

# 1. edge scorer: a dense score for every pair of nodes
scorer = init_edge_scorer(ScorerConfig(kind="mlp", init="identity"),
                          n, d, x, "relu", rng)
scores = score(scorer, T.constant(x))
print("scores are all-pairs cosine at identity init; diagonal = 1:")
print(np.round(scores.values, 2))

# 2. sparsifier: keep the top-k entries per row as an edge list, gradients
#    only through them
sparse = sparsify(scores, SparsifierConfig(kind="knn", k=2))
kept = sparse.to_dense() != 0
print(f"\nafter top-2 selection: {sparse.rows.size} edges, "
      f"rows have {np.unique(kept.sum(axis=1))} nonzeros")

# 3. processor: symmetrize so the message passing is undirected
processed = process(sparse, "symmetrize")
dense = processed.to_dense()
print(f"after symmetrize: {processed.rows.size} edges, "
      f"max |A - A^T| = {np.abs(dense - dense.T).max()}")

# 4. encoder: one GCN layer over the learned structure
layer = init_encoder_layer("gcn", d, 3, rng)
out = encode(T.constant(x), processed, layer, activation="relu",
             apply_activation=True)
print(f"encoder output shape: {out.values.shape}")

# the whole chain is differentiable into the kept edges
loss = T.sum_all(T.hadamard(out, T.constant(rng.normal(size=out.shape))))
T.backward(loss)
mlp_w = scorer.mlp[0][0]
print(f"gradient reached the scorer weights: |dL/dW| = "
      f"{np.abs(mlp_w.grad).sum():.4f}")
