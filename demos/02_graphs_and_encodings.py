"""Dataset handling, kNN bootstrap graphs, and positional encodings.

Run: python3 demos/02_graphs_and_encodings.py
"""

import numpy as np

from ugsl.config import PositionalConfig
from ugsl.data import knn_graph, make_blobs
from ugsl.positional import (build_input_features, spectral_embedding,
                             wl_embedding, wl_roles)
from ugsl.tensor import Edges

ds = make_blobs(n=24, d=4, num_classes=3, seed=1)
print(f"dataset {ds.name}: n={ds.n}, d={ds.graph.num_features}, "
      f"classes={ds.num_classes}")

# the bootstrap structure is a cosine kNN graph over the raw features,
# held as an edge list
adj = knn_graph(ds.graph.features, k=3)
print(f"kNN graph: every row keeps k=3 neighbors -> "
      f"{adj.rows.size} directed edges")
same_class = ds.labels[adj.rows] == ds.labels[adj.cols]
print(f"fraction of edges within a class: {same_class.mean():.2f}")

# Weisfeiler-Lehman roles: structural ids from color refinement
path = np.zeros((5, 5))
for i in range(4):
    path[i, i + 1] = path[i + 1, i] = 1.0
colors = wl_roles(Edges.from_dense(path), iterations=2)
print("WL colors on a 5-path (ends match, center differs):", colors)
print("sinusoidal embedding of those ids:")
print(np.round(wl_embedding(colors, pe_dim=4), 3))

# spectral encodings: eigenvectors for the smallest Laplacian eigenvalues
ring = np.zeros((8, 8))
for i in range(8):
    ring[i, (i + 1) % 8] = ring[(i + 1) % 8, i] = 1.0
emb = spectral_embedding(Edges.from_dense(ring), k=3)
print("spectral encoding of a ring (first column is the constant mode):")
print(np.round(emb, 3))

# build_input_features wires it together: raw features + chosen encoding
cfg = PositionalConfig(kind="spectral", pe_dim=4)
x0 = build_input_features(ds.graph.features, cfg)
print(f"raw width {ds.graph.num_features} -> with encoding {x0.shape[1]}")
