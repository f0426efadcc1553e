"""LAPACK eigensolvers for graph matrices, through ``numpy.linalg``.

Smallest eigenpairs of the symmetric normalized Laplacian come from
``eigh``. Dominant eigenvalues use the general ``eigvals``, because learned
adjacencies (kNN rows) are not symmetric. A LAPACK failure, and non-finite
input, raise NumericError.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian of a nonnegative symmetric adjacency.

    Rows/columns of isolated nodes are zero (not identity), so every
    isolated node contributes a zero eigenvalue and the algebraic
    connectivity of a disconnected graph is 0 as expected.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = -a * inv[:, None] * inv[None, :]
    lap[np.diag_indices_from(lap)] = np.where(deg > 0, 1.0, 0.0)
    return lap


def binarize_symmetrize(adjacency: np.ndarray) -> np.ndarray:
    """0/1 simple-graph view: an undirected edge wherever either direction
    has positive weight; the diagonal is dropped."""
    a = np.asarray(adjacency)
    b = ((a > 0) | (a.T > 0)).astype(np.float64)
    np.fill_diagonal(b, 0.0)
    return b


def smallest_laplacian_eigenpairs(lap: np.ndarray, k: int):
    """The k smallest eigenpairs of a normalized Laplacian, ascending.

    Returns (values, vectors) with unit-norm columns whose largest-magnitude
    entry (the first one on ties) is positive.
    """
    try:
        values, vectors = np.linalg.eigh(np.asarray(lap, dtype=np.float64))
    except np.linalg.LinAlgError as err:
        raise NumericError(f"Laplacian eigendecomposition failed: {err}") from err
    # eigh does not check its input: inf or NaN entries come back as NaN
    if not np.isfinite(values).all():
        raise NumericError("Laplacian eigendecomposition failed: "
                           "non-finite eigenvalues")
    values, vectors = values[:k], vectors[:, :k]
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    return values, np.where(pivots < 0, -vectors, vectors)


def dominant_eigenvalue(matrix: np.ndarray) -> float:
    """Largest eigenvalue (Perron root) of a nonnegative matrix, which need
    not be symmetric."""
    try:
        values = np.linalg.eigvals(np.asarray(matrix, dtype=np.float64))
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigenvalue computation failed: {err}") from err
    return float(values.real.max())
