"""Structural statistics of learned graphs and their rank correlation with
trial accuracy.

`compute_stats` reads an edge list (`tensor.Edges`), summing repeated
(row, col) pairs as `tensor.coalesce` does. Structural metrics (degree,
clustering, diameter, connectivity) are taken on its simple graph from
`spectral.simple_graph`; the spectral radius uses the positive weights,
self-loops included. The diameter is the max eccentricity within the
largest connected component (the one holding the first node of largest
component size), since learned graphs are frequently disconnected.

The simple graph is held as packed bitsets, one n-bit row per node, and
every statistic is a pass over its edges:
- triangles: for each edge (u, v), the popcount of row u AND row v counts
  their common neighbours; one bincount sums them per node;
- distances: an all-pairs BFS in which bit s of node u's frontier row says
  that u lies at the current level from source s; a level ORs together the
  frontier rows of each node's neighbours;
- spectral radius: the certified Collatz-Wielandt bracket of
  `spectral.dominant_eigenvalue`;
- algebraic connectivity: exactly 0 when the graph is disconnected or has
  an isolated node, and otherwise the second-smallest eigenvalue of
  `spectral.normalized_laplacian` from LAPACK's values-only ``eigvalsh``.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import (dominant_eigenvalue, normalized_laplacian,
                       simple_graph, smallest_laplacian_eigenvalues)
# bound here as well so that bench/tracer.py finds every name it patches
from .spectral import smallest_laplacian_eigenpairs  # noqa: F401
from .tensor import Edges, coalesce, constant

STAT_FIELDS = ("avg_degree", "power_law_alpha", "diameter",
               "local_clustering", "global_clustering", "spectral_radius",
               "algebraic_connectivity", "degree_one_count")

# the number of set bits in each byte value (np.bitwise_count needs numpy 2)
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
# the largest per-edge block of bit rows an edge pass holds at once
_BLOCK_BYTES = 1 << 24


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


def _bit_rows(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """(n, ceil(n / 64)) uint64 rows with bit `cols[e]` of row `rows[e]`
    set, in np.packbits order; the (row, col) pairs must be distinct, so
    one bincount of each byte's bit values ORs them."""
    width = 8 * -(-n // 64)
    flat = np.bincount(rows * width + (cols >> 3), weights=128 >> (cols & 7),
                       minlength=n * width)
    return flat.astype(np.uint8).reshape(n, width).view(np.uint64)


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D uint64 array."""
    return _POPCOUNT[bits.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _edge_blocks(count: int, bits: np.ndarray):
    """Slices of an edge pass over `count` edges that gather at most
    _BLOCK_BYTES of `bits` rows each (at least one edge)."""
    step = max(1, _BLOCK_BYTES // bits[0].nbytes)
    return (slice(a, a + step) for a in range(0, count, step))


def _or_of_neighbours(bits: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """Row u ORs bits[v] over the edges (u, v); `rows` must be sorted."""
    out = np.zeros_like(bits)
    for block in _edge_blocks(rows.size, bits):
        r, c = rows[block], cols[block]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        out[r[starts]] |= np.bitwise_or.reduceat(bits[c], starts, axis=0)
    return out


def _eccentricities(rows: np.ndarray, cols: np.ndarray, n: int):
    """Every node's eccentricity within its component, and the bit rows of
    the nodes each node reaches, from a BFS out of all nodes at once.

    A node with no new source at some level has none at any later level
    (its distances are 0..ecc), so each level passes only over the edges
    between nodes that were still growing at the previous one."""
    frontier = _bit_rows(np.arange(n), np.arange(n), n)
    reached = frontier.copy()
    ecc = np.zeros(n, dtype=np.int64)
    growing = np.ones(n, dtype=bool)
    level = 0
    while growing.any():
        level += 1
        keep = growing[rows] & growing[cols]
        frontier = (_or_of_neighbours(frontier, rows[keep], cols[keep])
                    & ~reached)
        growing = frontier.any(axis=1)
        reached |= frontier
        ecc[growing] = level
    return ecc, reached


def _common_neighbours(bits: np.ndarray, rows: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Per edge (u, v): the popcount of bits[u] AND bits[v]."""
    return np.concatenate([
        _popcount(bits[rows[block]] & bits[cols[block]])
        for block in _edge_blocks(rows.size, bits)])


def compute_stats(adjacency: Edges) -> GraphStats:
    """All statistics for one adjacency edge list; an edgeless graph
    yields a zero record flagged degenerate. Non-finite positive weights
    raise NumericError."""
    n = adjacency.n
    merged = coalesce(adjacency.rows, adjacency.cols, n,
                      constant(adjacency.vals.values))
    b_rows, b_cols = simple_graph(merged)
    if b_rows.size == 0:
        return GraphStats(degenerate=True)
    degrees = np.bincount(b_rows, minlength=n).astype(np.float64)

    stats = GraphStats()
    stats.avg_degree = float(degrees.mean())
    stats.degree_one_count = int((degrees == 1).sum())

    # maximum-likelihood power-law exponent over nodes with degree >= 1
    with_deg = degrees[degrees >= 1]
    stats.power_law_alpha = float(
        1.0 + with_deg.size / np.log(with_deg / 0.5).sum())

    ecc, reached = _eccentricities(b_rows, b_cols, n)
    sizes = _popcount(reached)
    largest = int(sizes.argmax())
    members = np.unpackbits(reached[largest].view(np.uint8))[:n].astype(bool)
    stats.diameter = int(ecc[members].max())

    # a node's common neighbours with each of its neighbours count its
    # triangles twice (integers, exact in float64)
    common = _common_neighbours(_bit_rows(b_rows, b_cols, n), b_rows, b_cols)
    tri_per_node = np.bincount(b_rows, weights=common, minlength=n) / 2.0
    possible = degrees * (degrees - 1) / 2.0
    local = np.where(possible > 0, tri_per_node / np.maximum(possible, 1.0), 0.0)
    stats.local_clustering = float(local.mean())
    triangles = float(tri_per_node.sum()) / 3.0  # each counted at 3 nodes
    triads = float(possible.sum())
    stats.global_clustering = 3.0 * triangles / triads if triads > 0 else 0.0

    positive = merged.vals.values.ravel() > 0
    stats.spectral_radius = dominant_eigenvalue(
        Edges(merged.rows[positive], merged.cols[positive], n,
              constant(merged.vals.values[positive])))
    if sizes[largest] == n:  # connected, so no node is isolated
        lap = normalized_laplacian(b_rows, b_cols, n)
        stats.algebraic_connectivity = float(
            max(smallest_laplacian_eigenvalues(lap, 2)[-1], 0.0))
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
