"""Eigensolver checks that do not go through numpy's ``eigh`` on the test
side: closed-form spectra of path, cycle and complete graphs, eigenpair
residuals, orthonormality and the sign convention, and the values-only
solver against the eigenpair solver. The certified Perron bracket is
checked against the general ``eigvals``, and so is its fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsl import spectral
from ugsl.config import PositionalConfig
from ugsl.data import make_blobs
from ugsl.errors import ConfigurationError, NumericError
from ugsl.positional import build_input_features
from ugsl.spectral import (dominant_eigenvalue, normalized_laplacian,
                           perron_bracket, simple_graph,
                           smallest_laplacian_eigenpairs,
                           smallest_laplacian_eigenvalues)
from ugsl.stats import compute_stats
from ugsl.tensor import Edges, constant

from oracles import normalized_laplacian_dense


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


def _laplacian(adj):
    return normalized_laplacian(*simple_graph(Edges.from_dense(adj)),
                                adj.shape[0])


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


# --- the simple graph and its normalized Laplacian ---------------------------

def _signed_edges(rng, n):
    """Directed edges with negative weights, self-loops and repeated
    pairs, rows sorted."""
    rows = np.sort(rng.integers(0, n, size=4 * n))
    cols = rng.integers(0, n, size=rows.size)
    vals = rng.choice([-2.0, -0.5, 0.0, 0.5, 1.0], size=(rows.size, 1))
    return Edges(rows, cols, n, constant(vals))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_simple_graph_is_the_binarized_symmetrized_matrix(n, seed):
    adj = _signed_edges(np.random.default_rng(seed), n)
    a = adj.to_dense()
    want = (a > 0) | (a.T > 0)
    np.fill_diagonal(want, False)
    rows, cols = simple_graph(adj)
    # np.nonzero lists the mask row-major: rows sorted, columns ascending
    np.testing.assert_array_equal(np.stack([rows, cols]), np.nonzero(want))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_normalized_laplacian_is_the_dense_oracle_bit_for_bit(n, density,
                                                             seed):
    rng = np.random.default_rng(seed)
    binary = np.triu(rng.random((n, n)) < density, 1)
    binary = (binary | binary.T).astype(np.float64)
    binary[rng.random(n) < 0.2, :] = 0.0  # some isolated nodes
    binary = np.minimum(binary, binary.T)
    got = normalized_laplacian(*np.nonzero(binary), n)
    want = normalized_laplacian_dense(binary)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_isolated_nodes_get_a_zero_row_and_diagonal():
    lap = normalized_laplacian(np.array([0, 1]), np.array([1, 0]), 3)
    np.testing.assert_array_equal(lap, [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0],
                                        [0.0, 0.0, 0.0]])
    # the diagonal zero is +0.0; every zero off the edges is -0.0
    np.testing.assert_array_equal(np.signbit(lap), [[False, True, True],
                                                    [True, False, True],
                                                    [True, True, False]])


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("n", [3, 8, 25])
def test_closed_form_laplacian_spectra(family, n):
    build, spectrum = CLOSED_FORMS[family]
    values, _ = smallest_laplacian_eigenpairs(_laplacian(build(n)), n)
    np.testing.assert_allclose(values, np.sort(spectrum(n)), atol=1e-10)


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("seed", range(4))
def test_eigenpairs_residual_orthonormality_and_sign(seed, k):
    lap = _laplacian(_random_graph(seed))
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
    lap = _laplacian(adj)
    values, _ = smallest_laplacian_eigenpairs(lap, 2)
    np.testing.assert_allclose(smallest_laplacian_eigenvalues(lap, 2), values,
                               rtol=0, atol=1e-12)
    connectivity = compute_stats(Edges.from_dense(adj)).algebraic_connectivity
    assert connectivity == pytest.approx(max(values[-1], 0.0), rel=0, abs=1e-12)
    if connected:
        assert connectivity > 1e-3
    else:
        assert connectivity == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 40])
def test_spectral_radius_of_directed_cycle_is_one(n):
    shift = np.roll(np.eye(n), 1, axis=1)
    assert not np.array_equal(shift, shift.T)
    assert dominant_eigenvalue(Edges.from_dense(shift)) == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_raises_numeric_error(bad):
    matrix = _laplacian(_path(4))
    matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(NumericError):
        smallest_laplacian_eigenpairs(matrix, 2)
    with pytest.raises(NumericError):
        smallest_laplacian_eigenvalues(matrix, 2)
    with pytest.raises(NumericError):
        dominant_eigenvalue(Edges.from_dense(matrix))


def test_spectral_encoding_of_clustered_blobs_does_not_fail():
    dataset = make_blobs()
    out = build_input_features(dataset.graph.features,
                               PositionalConfig(kind="spectral", pe_dim=16))
    assert out.shape == (300, 32)
    assert np.isfinite(out).all()


# --- the Perron bracket and its eigvals fallback ------------------------------

def _perron_root(matrix):
    return float(np.linalg.eigvals(matrix).real.max())


def _count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(spectral.np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_bracket_closes_around_the_perron_root(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 40
    matrix = np.where(rng.random((n, n)) < 0.2, rng.uniform(0.1, 2.0, (n, n)),
                      0.0)
    matrix[np.arange(n), (np.arange(n) + 1) % n] = 1.0  # strongly connected
    lo, hi = perron_bracket(Edges.from_dense(matrix))
    want = _perron_root(matrix)
    assert lo <= want <= hi
    assert hi - lo <= spectral.BRACKET_RTOL * hi
    calls = _count_eigvals(monkeypatch)
    assert dominant_eigenvalue(Edges.from_dense(matrix)) == 0.5 * (lo + hi)
    assert calls == []


def test_bracket_closes_on_a_periodic_graph():
    # bipartite, so -rho is an eigenvalue too: x <- A x would swing between
    # the two sides forever, and the shift by I is what lets it settle
    rng = np.random.default_rng(2)
    half = 40
    matrix = np.zeros((2 * half, 2 * half))
    matrix[:half, half:] = rng.uniform(0.5, 1.5, (half, half)) / half
    matrix[half:, :half] = rng.uniform(0.5, 1.5, (half, half)) / half
    lo, hi = perron_bracket(Edges.from_dense(matrix))
    assert lo <= _perron_root(matrix) <= hi


def test_empty_row_falls_back_to_eigvals(monkeypatch):
    matrix = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    assert perron_bracket(Edges.from_dense(matrix)) is None
    calls = _count_eigvals(monkeypatch)
    assert dominant_eigenvalue(Edges.from_dense(matrix)) == pytest.approx(
        np.sqrt(2.0), rel=1e-12)
    assert calls == [(3, 3)]


def test_underflowing_iterate_falls_back_to_eigvals(monkeypatch):
    # self-loops, one heavy: x at each light node shrinks by 2/1001 a step
    # and underflows after about 115 of the 200 steps, the bracket still
    # [1, 1000]; the stall test, which would stop it first, is off
    monkeypatch.setattr(spectral, "_narrows_in_time", lambda *args: True)
    matrix = np.diag(np.r_[1000.0, np.ones(199)])
    assert perron_bracket(Edges.from_dense(matrix)) is None
    calls = _count_eigvals(monkeypatch)
    assert dominant_eigenvalue(Edges.from_dense(matrix)) == 1000.0
    assert calls == [(200, 200)]


def test_step_budget_falls_back_to_eigvals(monkeypatch):
    # a path's spectral gap is O(1/n^2): the bracket needs about 460 steps
    # on 12 nodes and gets 12
    matrix = _path(12)
    calls = _count_eigvals(monkeypatch)
    assert perron_bracket(Edges.from_dense(matrix)) is None
    assert dominant_eigenvalue(Edges.from_dense(matrix)) == pytest.approx(
        2.0 * np.cos(np.pi / 13.0), rel=1e-12)
    assert calls == [(12, 12)]


def test_a_stalled_bracket_gives_up_after_one_window(monkeypatch):
    # two disjoint cycles with Perron roots 2 and 1: every ratio is exact
    # from the first step, so the bracket stays [1, 2] and its width never
    # shrinks; the budget is 1200 steps
    n = 600
    matrix = np.zeros((n, n))
    half = np.arange(n // 2)
    matrix[half, (half + 1) % (n // 2)] = 2.0
    matrix[n // 2 + half, n // 2 + (half + 1) % (n // 2)] = 1.0
    adj = Edges.from_dense(matrix)
    passes = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        passes.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(spectral.np, "bincount", counted)
    assert perron_bracket(adj) is None
    # the empty-row check, then steps 0 to BRACKET_WINDOW
    assert len(passes) == 1 + spectral.BRACKET_WINDOW + 1


@pytest.mark.parametrize("width, earlier, narrows", [
    (1e-3, 1e-2, True),      # 9 more decades at 1 a window: 288 steps
    (1e-3, 1.01e-3, False),  # about 66000 steps
    (1e-3, 1e-3, False),     # stalled
])
def test_a_bracket_narrows_in_time_if_its_rate_closes_it_within_the_margin(
        width, earlier, narrows):
    step, budget = 64, 300
    assert spectral._narrows_in_time(width, earlier, step, budget) == narrows


def test_negative_weight_is_rejected():
    with pytest.raises(ConfigurationError):
        dominant_eigenvalue(Edges.from_dense(np.array([[0.0, -1.0],
                                                       [1.0, 0.0]])))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60), st.floats(0.02, 1.0), st.floats(-3.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_bracket_contains_the_eigvals_perron_root(n, density, log_scale,
                                                  seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 10.0 ** log_scale, size=(n, n))
    matrix = np.where(rng.random((n, n)) < density, weights, 0.0)
    matrix[np.arange(n), rng.integers(0, n, size=n)] += 10.0 ** log_scale
    bracket = perron_bracket(Edges.from_dense(matrix))
    if bracket is not None:
        # eigvals itself is off by a few ulps (2 + 4e-16 for a matrix
        # whose rows all sum to 2); the bracket holds exact row ratios
        lo, hi = bracket
        slack = 256 * np.finfo(np.float64).eps * hi
        assert lo - slack <= _perron_root(matrix) <= hi + slack
