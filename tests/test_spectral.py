"""Eigensolver checks that do not go through numpy's ``eigh`` on the test
side: closed-form spectra of path, cycle and complete graphs, eigenpair
residuals, orthonormality and the sign convention, and the values-only
solver against the eigenpair solver."""

import numpy as np
import pytest

from ugsl.config import PositionalConfig
from ugsl.data import make_blobs
from ugsl.errors import NumericError
from ugsl.positional import build_input_features
from ugsl.spectral import (binarize_symmetrize, dominant_eigenvalue,
                           normalized_laplacian, smallest_laplacian_eigenpairs,
                           smallest_laplacian_eigenvalues)
from ugsl.stats import compute_stats


def _path(n):
    adj = np.zeros((n, n))
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
    return adj


def _cycle(n):
    adj = _path(n)
    adj[0, n - 1] = adj[n - 1, 0] = 1.0
    return adj


def _complete(n):
    return np.ones((n, n)) - np.eye(n)


def _random_graph(seed, n=30, p=0.2):
    rng = np.random.default_rng(seed)
    adj = np.triu((rng.random((n, n)) < p).astype(float), 1)
    return adj + adj.T


CLOSED_FORMS = {
    "path": (_path, lambda n: 1.0 - np.cos(np.pi * np.arange(n) / (n - 1))),
    "cycle": (_cycle, lambda n: 1.0 - np.cos(2.0 * np.pi * np.arange(n) / n)),
    "complete": (_complete,
                 lambda n: np.r_[0.0, np.full(n - 1, n / (n - 1))]),
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("n", [3, 8, 25])
def test_closed_form_laplacian_spectra(family, n):
    build, spectrum = CLOSED_FORMS[family]
    values, _ = smallest_laplacian_eigenpairs(normalized_laplacian(build(n)), n)
    np.testing.assert_allclose(values, np.sort(spectrum(n)), atol=1e-10)


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("seed", range(4))
def test_eigenpairs_residual_orthonormality_and_sign(seed, k):
    lap = normalized_laplacian(_random_graph(seed))
    values, vectors = smallest_laplacian_eigenpairs(lap, k)
    assert values.shape == (k,) and vectors.shape == (30, k)
    assert np.all(np.diff(values) >= 0)
    residuals = np.linalg.norm(lap @ vectors - vectors * values, axis=0)
    assert residuals.max() < 1e-10
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), atol=1e-10)
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)]
    assert np.all(pivots > 0)


@pytest.mark.parametrize("connected", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_algebraic_connectivity_matches_the_eigenpair_solver(seed, connected):
    adj = _random_graph(seed, p=0.3)
    if connected:
        adj = np.maximum(adj, _path(30))
    else:  # two components: nodes 0-14 and 15-29
        adj[:15, 15:] = adj[15:, :15] = 0.0
    lap = normalized_laplacian(binarize_symmetrize(adj))
    values, _ = smallest_laplacian_eigenpairs(lap, 2)
    np.testing.assert_allclose(smallest_laplacian_eigenvalues(lap, 2), values,
                               rtol=0, atol=1e-12)
    connectivity = compute_stats(adj).algebraic_connectivity
    assert connectivity == pytest.approx(max(values[-1], 0.0), rel=0, abs=1e-12)
    if connected:
        assert connectivity > 1e-3
    else:
        assert connectivity == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 40])
def test_spectral_radius_of_directed_cycle_is_one(n):
    shift = np.roll(np.eye(n), 1, axis=1)
    assert not np.array_equal(shift, shift.T)
    assert dominant_eigenvalue(shift) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_raises_numeric_error(bad):
    matrix = normalized_laplacian(_path(4))
    matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(NumericError):
        smallest_laplacian_eigenpairs(matrix, 2)
    with pytest.raises(NumericError):
        smallest_laplacian_eigenvalues(matrix, 2)
    with pytest.raises(NumericError):
        dominant_eigenvalue(matrix)


def test_spectral_encoding_of_clustered_blobs_does_not_fail():
    dataset = make_blobs()
    out = build_input_features(dataset.graph.features,
                               PositionalConfig(kind="spectral", pe_dim=16))
    assert out.shape == (300, 32)
    assert np.isfinite(out).all()
