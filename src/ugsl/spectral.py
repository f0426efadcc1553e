"""The simple graph of an edge list, its normalized Laplacian, and
eigensolvers for graph matrices.

`simple_graph` is the one binarize/symmetrize rule and
`normalized_laplacian` the one Laplacian builder. Smallest eigenpairs of
that Laplacian come from LAPACK's ``eigh``, and its smallest eigenvalues
alone from ``eigvalsh``. The dominant eigenvalue (Perron root) of a
nonnegative edge list, which need not be symmetric (kNN rows are not), is
certified by a Collatz-Wielandt bracket over the edges; only when the
bracket cannot close does it fall back to the general dense ``eigvals``.
A LAPACK failure, and non-finite input, raise NumericError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericError, check_memory
from .tensor import Edges, coalesce, constant

# the relative width at which the Perron bracket counts as closed; its
# step budget grows by n steps per this many nodes
BRACKET_RTOL = 1e-12
BRACKET_NODES_PER_N_STEPS = 256
# every BRACKET_WINDOW steps the bracket compares its width with the width
# one window earlier, and gives up when, narrowing at that rate, it would
# not close within BRACKET_STALL_MARGIN times its step budget
BRACKET_WINDOW = 32
BRACKET_STALL_MARGIN = 4


def simple_graph(adj: Edges) -> tuple[np.ndarray, np.ndarray]:
    """The binarized, symmetrized simple graph of an edge list, as (rows,
    cols) with rows sorted and each row's columns ascending: repeated
    pairs are summed, and i != j are joined wherever either direction's
    sum is positive."""
    n = adj.n
    merged = coalesce(adj.rows, adj.cols, n, constant(adj.vals.values))
    keep = (merged.vals.values.ravel() > 0) & (merged.rows != merged.cols)
    r, c = merged.rows[keep], merged.cols[keep]
    keys = np.unique(np.concatenate([r * n + c, c * n + r]))
    return keys // n, keys % n


def normalized_laplacian(rows: np.ndarray, cols: np.ndarray,
                         n: int) -> np.ndarray:
    """The dense I - D^-1/2 B D^-1/2 of the simple graph B with edges
    (rows, cols), as from `simple_graph`. An isolated node has a zero row
    and a zero diagonal, so each adds a zero eigenvalue. The zeros off the
    edges are -0.0, as the product -B D^-1/2 ... gives them; LAPACK's
    reflections read that sign."""
    check_memory(8 * n * n, f"the Laplacian of a {n}-node graph")
    degrees = np.bincount(rows, minlength=n).astype(np.float64)
    inv = 1.0 / np.sqrt(np.maximum(degrees, 1.0))
    lap = np.full((n, n), -0.0)
    lap[rows, cols] = -inv[rows] * inv[cols]
    np.fill_diagonal(lap, degrees > 0)
    return lap


def _symmetric_spectrum(lap: np.ndarray, vectors: bool):
    """Ascending eigenvalues of a symmetric matrix, and its eigenvectors
    when asked for: ``eigh``, or the values-only ``eigvalsh``."""
    lap = np.asarray(lap, dtype=np.float64)
    try:
        values, vecs = (np.linalg.eigh(lap) if vectors
                        else (np.linalg.eigvalsh(lap), None))
    except np.linalg.LinAlgError as err:
        raise NumericError(f"Laplacian eigendecomposition failed: {err}") from err
    # LAPACK does not check its input: inf or NaN entries come back as NaN
    if not np.isfinite(values).all():
        raise NumericError("Laplacian eigendecomposition failed: "
                           "non-finite eigenvalues")
    return values, vecs


def smallest_laplacian_eigenpairs(lap: np.ndarray, k: int):
    """The k smallest eigenpairs of a normalized Laplacian, ascending.

    Returns (values, vectors) with unit-norm columns whose largest-magnitude
    entry (the first one on ties) is positive.
    """
    values, vectors = _symmetric_spectrum(lap, vectors=True)
    values, vectors = values[:k], vectors[:, :k]
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    return values, np.where(pivots < 0, -vectors, vectors)


def smallest_laplacian_eigenvalues(lap: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a normalized Laplacian, ascending,
    without computing any eigenvector."""
    return _symmetric_spectrum(lap, vectors=False)[0][:k]


def perron_bracket(adj: Edges) -> tuple[float, float] | None:
    """A closed bracket [lo, hi] around the Perron root of a nonnegative
    matrix with no empty row, or None when it cannot be certified.

    For every positive x, min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i
    (Collatz-Wielandt). Iterating x <- (A + I) x narrows that bracket;
    the shift keeps periodic graphs from oscillating. The answer is the
    bracket, not a guess that an iteration converged. None: a row is empty
    (its ratio stays 0), an entry of x underflows, the bracket is still
    wider than BRACKET_RTOL after n * max(1, n // BRACKET_NODES_PER_N_STEPS)
    steps, or it has stopped narrowing (`_narrows_in_time`). A step is one
    pass over the edges; that budget keeps the cost of a bracket that
    fails near that of the O(n^3) dense solve it then falls back to
    (measured from n = 300 to 2708). A bracket that closes returns the
    same [lo, hi] with or without the stall test, since the test only
    stops the iteration.
    """
    n = adj.n
    w = adj.vals.values.ravel()
    if np.bincount(adj.rows[w > 0], minlength=n).min() == 0:
        return None
    tiny = np.finfo(np.float64).tiny
    budget = n * max(1, n // BRACKET_NODES_PER_N_STEPS)
    x = np.ones(n)
    for step in range(budget):
        ax = np.bincount(adj.rows, weights=w * x[adj.cols], minlength=n)
        ratios = ax / x
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= BRACKET_RTOL * hi:
            return float(lo), float(hi)
        if step % BRACKET_WINDOW == 0:
            width = (hi - lo) / hi
            if step and not _narrows_in_time(width, earlier, step, budget):
                return None
            earlier = width
        x = ax + x
        x /= x.max()
        if not x.min() >= tiny:  # also catches NaN
            return None
    return None


def _narrows_in_time(width: float, earlier: float, step: int,
                     budget: int) -> bool:
    """Whether a bracket whose relative width went from `earlier` to
    `width` over the last BRACKET_WINDOW steps would reach BRACKET_RTOL by
    step BRACKET_STALL_MARGIN * budget if it kept that rate. A reducible
    graph's lower bound stalls below the root, so its width stops
    shrinking; a small spectral gap shrinks it too slowly. The rate can
    pick up again after a plateau, and the margin allows for that: of the
    learned graphs of 100 default-space trials at n = 300 and of twelve
    base-model trials at n = 2708, none whose bracket closes within its
    budget is cut."""
    rate = width / earlier
    if rate >= 1.0:
        return False
    needed = BRACKET_WINDOW * math.log(BRACKET_RTOL / width) / math.log(rate)
    return step + needed <= BRACKET_STALL_MARGIN * budget


def dominant_eigenvalue(adj: Edges) -> float:
    """Largest eigenvalue (Perron root) of the nonnegative matrix an edge
    list holds, repeated pairs summed: the middle of its certified
    `perron_bracket`, else the largest real part from dense ``eigvals``."""
    w = adj.vals.values
    if not np.isfinite(w).all():
        raise NumericError("dominant eigenvalue: non-finite edge weight")
    if (w < 0).any():
        raise ConfigurationError("dominant eigenvalue: needs nonnegative "
                                 "edge weights")
    bracket = perron_bracket(adj)
    if bracket is not None:
        return 0.5 * (bracket[0] + bracket[1])
    check_memory(8 * adj.n * adj.n,
                 f"the dense matrix of a {adj.n}-node graph")
    try:
        values = np.linalg.eigvals(adj.to_dense())
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigenvalue computation failed: {err}") from err
    return float(values.real.max())
