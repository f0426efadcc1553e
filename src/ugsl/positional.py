"""Positional encodings appended to raw node features.

Two flavors: Weisfeiler-Lehman role ids embedded sinusoidally, and the
eigenvectors of the normalized Laplacian for the smallest eigenvalues.
Both read an edge list (`tensor.Edges`) through its simple graph
(`spectral.simple_graph`). The caller supplies that graph: a trial passes
the bootstrap kNN graph of the features, since a dataset carries no input
graph.
"""

from __future__ import annotations

import numpy as np

from .config import PositionalConfig
# bound here as well so that bench/tracer.py finds every name it patches
from .data import knn_graph  # noqa: F401
from .spectral import normalized_laplacian, simple_graph, \
    smallest_laplacian_eigenpairs
from .tensor import Edges


def wl_roles(adjacency: Edges, iterations: int) -> np.ndarray:
    """Iterative color refinement on the simple graph.

    Every node starts with color 0; each round maps (own color, sorted
    multiset of neighbor colors) to a dense id, assigned in first-seen
    order over nodes 0..n-1. A round only splits color classes, and ids
    in first-seen order name a partition uniquely, so a round that
    changes no color is a fixed point: refinement stops there.
    """
    n = adjacency.n
    rows, cols = simple_graph(adjacency)
    neighbors = np.split(cols, np.searchsorted(rows, np.arange(1, n)))
    colors = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        table: dict[tuple, int] = {}
        fresh = np.empty(n, dtype=np.int64)
        for i in range(n):
            sig = (colors[i], tuple(sorted(colors[j] for j in neighbors[i])))
            if sig not in table:
                table[sig] = len(table)
            fresh[i] = table[sig]
        if np.array_equal(fresh, colors):
            break
        colors = fresh
    return colors


def wl_embedding(colors: np.ndarray, pe_dim: int) -> np.ndarray:
    """Transformer-style sinusoidal embedding of integer role ids; pe_dim
    is even."""
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 1)
    half = pe_dim // 2
    freqs = 1.0 / (10_000.0 ** (2.0 * np.arange(half) / pe_dim))
    angles = colors * freqs[None, :]
    out = np.empty((colors.shape[0], pe_dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def spectral_embedding(adjacency: Edges, k: int) -> np.ndarray:
    """Columns are eigenvectors of the normalized Laplacian of the simple
    graph for the k smallest eigenvalues, each with its largest-magnitude
    entry positive."""
    n = adjacency.n
    lap = normalized_laplacian(*simple_graph(adjacency), n)
    _, vectors = smallest_laplacian_eigenpairs(lap, k)
    return vectors


def build_input_features(features: np.ndarray, config: PositionalConfig,
                         bootstrap: Edges | None) -> np.ndarray:
    """Raw features, optionally concatenated with an encoding computed on
    `bootstrap`, the graph the caller supplies (None when kind is none)."""
    if config.kind == "none":
        return features
    if config.kind == "wl":
        colors = wl_roles(bootstrap, config.wl_iterations)
        encoding = wl_embedding(colors, config.pe_dim)
    else:
        encoding = spectral_embedding(bootstrap, config.pe_dim)
    return np.concatenate([features, encoding], axis=1)
