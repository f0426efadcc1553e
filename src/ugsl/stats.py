"""Structural statistics of learned graphs and their rank correlation with
trial accuracy.

Structural metrics (degree, clustering, diameter, connectivity) are taken
on the binarized, symmetrized simple graph; the spectral radius uses the
weighted adjacency with nonpositive entries zeroed. The diameter is the
max eccentricity within the largest connected component, since learned
graphs are frequently disconnected.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import (binarize_symmetrize, dominant_eigenvalue,
                       normalized_laplacian, smallest_laplacian_eigenpairs)

STAT_FIELDS = ("avg_degree", "power_law_alpha", "diameter",
               "local_clustering", "global_clustering", "spectral_radius",
               "algebraic_connectivity", "degree_one_count")


@dataclass
class GraphStats:
    avg_degree: float = 0.0
    power_law_alpha: float = 0.0
    diameter: int = 0
    local_clustering: float = 0.0
    global_clustering: float = 0.0
    spectral_radius: float = 0.0
    algebraic_connectivity: float = 0.0
    degree_one_count: int = 0
    degenerate: bool = False


def _all_pairs_bfs(binary: np.ndarray) -> np.ndarray:
    """Hop distances between all pairs (-1 for unreachable) by expanding
    every source's frontier at once through float matmuls."""
    n = binary.shape[0]
    b = (binary > 0).astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=np.float32)
    visited = np.eye(n, dtype=bool)
    level = 0
    while True:
        level += 1
        reached = (frontier @ b) > 0
        fresh = reached & ~visited
        if not fresh.any():
            return dist
        dist[fresh] = level
        visited |= fresh
        frontier = fresh.astype(np.float32)


def compute_stats(adjacency: np.ndarray) -> GraphStats:
    """All statistics for one adjacency matrix; an edgeless graph yields a
    zero record flagged degenerate. The two spectral statistics come from
    LAPACK eigensolvers; non-finite weights raise NumericError."""
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ConfigurationError(f"compute_stats: adjacency must be square, "
                                 f"got {a.shape}")
    binary = binarize_symmetrize(a)
    degrees = binary.sum(axis=1)
    if degrees.sum() == 0:
        return GraphStats(degenerate=True)

    stats = GraphStats()
    stats.avg_degree = float(degrees.mean())
    stats.degree_one_count = int((degrees == 1).sum())

    # maximum-likelihood power-law exponent over nodes with degree >= 1
    with_deg = degrees[degrees >= 1]
    stats.power_law_alpha = float(
        1.0 + with_deg.size / np.log(with_deg / 0.5).sum())

    dist = _all_pairs_bfs(binary)
    component_sizes = (dist >= 0).sum(axis=1)
    members = dist[int(component_sizes.argmax())] >= 0
    stats.diameter = int(dist[np.ix_(members, members)].max())

    # 2-path counts are integers <= n < 2**24, exact in float32; the row
    # sums can pass 2**24, so they accumulate in float64 (still exact)
    b32 = binary.astype(np.float32)
    tri_per_node = ((b32 @ b32) * b32).sum(axis=1, dtype=np.float64) / 2.0
    possible = degrees * (degrees - 1) / 2.0
    local = np.where(possible > 0, tri_per_node / np.maximum(possible, 1.0), 0.0)
    stats.local_clustering = float(local.mean())
    triangles = float(tri_per_node.sum()) / 3.0  # each counted at 3 nodes
    triads = float(possible.sum())
    stats.global_clustering = 3.0 * triangles / triads if triads > 0 else 0.0

    weighted = np.where(a > 0, a, 0.0)
    stats.spectral_radius = dominant_eigenvalue(weighted)
    lap = normalized_laplacian(binary)
    values, _ = smallest_laplacian_eigenpairs(lap, min(2, n))
    stats.algebraic_connectivity = float(max(values[-1], 0.0))
    return stats


# ---------------------------------------------------------------------------
# rank correlation

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """0-based ranks; tied values share the mean of their sorted positions."""
    ordered = np.sort(values)
    left = np.searchsorted(ordered, values, side="left")
    right = np.searchsorted(ordered, values, side="right")
    return (left + right - 1) / 2.0


def spearman(xs, ys) -> float:
    """Rank correlation with ties averaged; NaN when either side is
    constant (no ranking exists)."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if xs.size != ys.size or xs.size < 2:
        raise ConfigurationError("spearman needs two equal-length vectors (>= 2)")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def correlate_results(results) -> list:
    """One row per statistic: its rank correlation against the trials' test
    accuracy. Constant columns report rho = 0 with a degenerate flag.

    Accepts any iterable of TrialResult with graph_stats attached; failed
    trials and trials without statistics are skipped.
    """
    rows = [(r.graph_stats, r.test_accuracy_at_best_val)
            for r in results
            if getattr(r, "status", "ok") == "ok" and r.graph_stats is not None]
    if len(rows) < 2:
        raise ConfigurationError(
            "correlate_results needs at least 2 trials with statistics")
    accuracy = np.array([acc for _, acc in rows])
    report = []
    for name in STAT_FIELDS:
        column = np.array([getattr(stats, name) for stats, _ in rows],
                          dtype=np.float64)
        rho = spearman(column, accuracy)
        degenerate = math.isnan(rho)
        report.append({"stat": name,
                       "rho": 0.0 if degenerate else rho,
                       "degenerate": degenerate})
    return report
