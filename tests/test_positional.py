import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsl import positional
from ugsl import tensor as T
from ugsl.config import PositionalConfig
from ugsl.data import bootstrap_k, knn_graph, make_blobs
from ugsl.spectral import (normalized_laplacian, simple_graph,
                           smallest_laplacian_eigenpairs)
from ugsl.tensor import Edges

from oracles import normalized_laplacian_dense, wl_roles_dense


def _triangle():
    return np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)


def _path3():
    return np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def _laplacian(adj):
    return normalized_laplacian(*simple_graph(Edges.from_dense(adj)),
                                adj.shape[0])


# --- WL roles ----------------------------------------------------------------

def test_wl_triangle_single_color():
    colors = positional.wl_roles(Edges.from_dense(_triangle()), iterations=3)
    assert len(set(colors)) == 1


def test_wl_stops_at_its_fixed_point():
    ds = make_blobs(n=300)
    adjacency = knn_graph(ds.graph.features, 15)
    assert np.array_equal(positional.wl_roles(adjacency, 10 ** 9),
                          positional.wl_roles(adjacency, ds.n))


def test_wl_path_endpoints_share_color():
    colors = positional.wl_roles(Edges.from_dense(_path3()), iterations=2)
    assert colors[0] == colors[2]
    assert colors[1] != colors[0]


def test_wl_empty_graph_all_zero():
    colors = positional.wl_roles(Edges.from_dense(np.zeros((5, 5))),
                                 iterations=2)
    np.testing.assert_array_equal(colors, np.zeros(5, dtype=np.int64))


def test_wl_ids_consecutive_from_zero():
    colors = positional.wl_roles(Edges.from_dense(_path3()), iterations=2)
    assert sorted(set(colors)) == list(range(len(set(colors))))


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_wl_permutation_invariant_up_to_relabeling(seed):
    rng = np.random.default_rng(seed)
    n = 8
    adj = (rng.random((n, n)) < 0.3).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    perm = rng.permutation(n)
    base = positional.wl_roles(Edges.from_dense(adj), iterations=3)
    permuted = positional.wl_roles(
        Edges.from_dense(adj[np.ix_(perm, perm)]), iterations=3)
    # the color partition must match after undoing the permutation
    def canon(colors):
        groups = {}
        for node, c in enumerate(colors):
            groups.setdefault(c, []).append(node)
        return sorted(tuple(sorted(g)) for g in groups.values())
    unpermuted = np.empty(n, dtype=np.int64)
    unpermuted[perm] = permuted
    assert canon(base) == canon(unpermuted)


@given(st.integers(min_value=0, max_value=5000), st.integers(1, 14),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_wl_on_edges_matches_the_dense_row_oracle(seed, n, iterations):
    # directed, signed weights with self-loops and repeated pairs: only
    # pairs whose summed weight is positive in either direction are edges
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n, size=3 * n))
    cols = rng.integers(0, n, size=rows.size)
    vals = rng.choice([-1.0, 0.5, 1.0], size=(rows.size, 1))
    adj = Edges(rows, cols, n, T.constant(vals))
    np.testing.assert_array_equal(positional.wl_roles(adj, iterations),
                                  wl_roles_dense(adj.to_dense(), iterations))


# --- WL embedding -------------------------------------------------------------

def test_wl_embedding_equal_colors_equal_rows():
    out = positional.wl_embedding(np.array([3, 3, 1]), pe_dim=4)
    np.testing.assert_array_equal(out[0], out[1])
    assert not np.array_equal(out[0], out[2])


def test_wl_embedding_color_zero_closed_form():
    out = positional.wl_embedding(np.array([0]), pe_dim=2)
    np.testing.assert_allclose(out, [[0.0, 1.0]])


def test_wl_embedding_distinct_for_ids_below_10k():
    ids = np.arange(10_000)
    out = positional.wl_embedding(ids, pe_dim=2)
    assert len(np.unique(out, axis=0)) == 10_000


# --- spectral embedding --------------------------------------------------------

def test_spectral_k1_is_laplacian_null_space():
    adj = _triangle()
    lap = _laplacian(adj)
    values, vectors = smallest_laplacian_eigenpairs(lap, 1)
    assert values[0] == pytest.approx(0.0, abs=1e-8)
    # for a regular graph the null vector is constant
    v = vectors[:, 0]
    np.testing.assert_allclose(v, v[0], atol=1e-6)


def test_spectral_k2_eigenvalues_zero_and_two():
    adj = np.array([[0, 1], [1, 0]], dtype=float)
    lap = _laplacian(adj)
    values, _ = smallest_laplacian_eigenpairs(lap, 2)
    np.testing.assert_allclose(sorted(values), [0.0, 2.0], atol=1e-9)


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_spectral_matches_dense_eigendecomposition(seed):
    rng = np.random.default_rng(seed)
    n = 8
    adj = (rng.random((n, n)) < 0.45).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    lap = normalized_laplacian_dense(adj)
    ref_vals, ref_vecs = np.linalg.eigh(lap)
    gaps = np.diff(ref_vals[:5])
    if np.any(gaps < 1e-3):
        pytest.skip("degenerate spectrum; eigenvectors not comparable")
    values, vectors = smallest_laplacian_eigenpairs(_laplacian(adj), 4)
    np.testing.assert_allclose(values, ref_vals[:4], atol=1e-6)
    for i in range(4):
        ref = ref_vecs[:, i]
        pivot = np.argmax(np.abs(ref))
        if ref[pivot] < 0:
            ref = -ref
        np.testing.assert_allclose(vectors[:, i], ref, atol=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_spectral_eigenpair_residuals(seed):
    rng = np.random.default_rng(seed)
    n = 9
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    lap = _laplacian(adj)
    values, vectors = smallest_laplacian_eigenpairs(lap, 3)
    for i in range(3):
        residual = np.linalg.norm(lap @ vectors[:, i] - values[i] * vectors[:, i])
        assert residual < 1e-6


def test_spectral_sign_convention():
    values, vectors = smallest_laplacian_eigenpairs(_laplacian(_path3()), 3)
    for i in range(3):
        v = vectors[:, i]
        assert v[np.argmax(np.abs(v))] > 0


# --- build_input_features ------------------------------------------------------

def test_build_features_none_passthrough():
    x = np.random.default_rng(0).normal(size=(6, 3))
    out = positional.build_input_features(x, PositionalConfig(kind="none"),
                                          None)
    np.testing.assert_array_equal(out, x)


def test_build_features_spectral_width():
    x = np.random.default_rng(0).normal(size=(10, 3))
    cfg = PositionalConfig(kind="spectral", pe_dim=4)
    out = positional.build_input_features(x, cfg, knn_graph(x, bootstrap_k(10)))
    assert out.shape == (10, 3 + 4)


def test_build_features_wl_width():
    x = np.random.default_rng(0).normal(size=(10, 3))
    cfg = PositionalConfig(kind="wl", pe_dim=8, wl_iterations=2)
    out = positional.build_input_features(x, cfg, knn_graph(x, bootstrap_k(10)))
    assert out.shape == (10, 3 + 8)

