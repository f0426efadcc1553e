import numpy as np
import pytest
import scipy.stats

from ugsl import errors, spectral, stats
from ugsl import tensor as T
from ugsl.config import GslConfig
from ugsl.errors import ConfigurationError, NumericError
from ugsl.training import TrialResult

from test_acceptance import GRAPH_FAMILIES


def _path(n):
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def _triangle():
    return np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)


def test_path4_statistics():
    out = stats.compute_stats(T.Edges.from_dense(_path(4)))
    assert out.diameter == 3
    assert out.local_clustering == 0.0
    assert out.degree_one_count == 2
    assert not out.degenerate


def test_triangle_statistics():
    out = stats.compute_stats(T.Edges.from_dense(_triangle()))
    assert out.local_clustering == pytest.approx(1.0)
    assert out.global_clustering == pytest.approx(1.0)
    assert out.spectral_radius == pytest.approx(2.0, abs=1e-7)
    assert out.algebraic_connectivity == pytest.approx(1.5, abs=1e-6)


def test_empty_graph_degenerate():
    out = stats.compute_stats(T.Edges.from_dense(np.zeros((5, 5))))
    assert out.degenerate
    assert out.diameter == 0
    assert out.avg_degree == 0.0


def test_disconnected_graph_zero_connectivity():
    adj = np.zeros((5, 5))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    out = stats.compute_stats(T.Edges.from_dense(adj))
    assert out.algebraic_connectivity == pytest.approx(0.0, abs=1e-8)


def test_infinite_weight_raises_numeric_error():
    # inf, not NaN: a NaN weight is zeroed by the positivity masks
    adj = _path(4)
    adj[0, 1] = np.inf
    with pytest.raises(NumericError):
        stats.compute_stats(T.Edges.from_dense(adj))


@pytest.mark.parametrize("seed", range(5))
def test_stats_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed + 100)
    n = 9
    adj = (rng.random((n, n)) < 0.3).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    if not adj.any():
        pytest.skip("edgeless draw")
    perm = rng.permutation(n)
    a = stats.compute_stats(T.Edges.from_dense(adj))
    b = stats.compute_stats(T.Edges.from_dense(adj[np.ix_(perm, perm)]))
    for name in stats.STAT_FIELDS:
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-7)


def test_repeated_pairs_are_summed_before_binarizing():
    adj = _path(4)
    rows, cols = np.nonzero(adj)
    # (0, 1) and (1, 0) again at -1 cancel that edge; (2, 3) again at 1.5
    # adds to it
    rows, cols = np.r_[rows, 0, 1, 2], np.r_[cols, 1, 0, 3]
    order = np.argsort(rows, kind="stable")
    vals = np.r_[adj[np.nonzero(adj)], -1.0, -1.0, 1.5][order]
    edges = T.Edges(rows[order], cols[order], 4, T.constant(vals[:, None]))
    got = stats.compute_stats(edges)
    want = stats.compute_stats(T.Edges.from_dense(edges.to_dense()))
    assert got == want
    assert got.avg_degree == 1.0 and got.diameter == 2


@pytest.mark.parametrize("n", [1, 7, 64, 65, 130])
def test_bit_rows_round_trip_through_unpackbits(n):
    rng = np.random.default_rng(n)
    dense = rng.random((n, n)) < 0.3
    rows, cols = np.nonzero(dense)
    bits = stats._bit_rows(rows, cols, n)
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1)[:, :n].astype(bool)
    assert np.array_equal(unpacked, dense)
    assert np.array_equal(stats._popcount(bits), dense.sum(axis=1))


def test_edge_passes_split_into_blocks_give_the_same_stats(monkeypatch):
    adj = T.Edges.from_dense(
        GRAPH_FAMILIES["dense_epsnn"](np.random.default_rng(3), 90))
    whole = stats.compute_stats(adj)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)  # one edge a block
    assert stats.compute_stats(adj) == whole


# --- spearman ------------------------------------------------------------------

def test_spearman_identical_rankings():
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_reversed():
    assert stats.spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_value():
    assert stats.spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = rng.integers(0, 5, size=12).astype(float)
        ys = rng.normal(size=12)
        if np.unique(xs).size < 2:
            continue
        want = scipy.stats.spearmanr(xs, ys).statistic
        assert stats.spearman(xs, ys) == pytest.approx(want, abs=1e-12)


def test_spearman_length_mismatch():
    with pytest.raises(ConfigurationError):
        stats.spearman([1, 2], [1, 2, 3])


# --- correlate_results ------------------------------------------------------------

def _result(acc, **stat_overrides):
    gs = stats.GraphStats(**stat_overrides)
    return TrialResult(config=GslConfig(), status="ok",
                       test_accuracy_at_best_val=acc, graph_stats=gs)


def test_correlate_constant_column_flagged():
    results = [_result(0.5, avg_degree=3.0), _result(0.7, avg_degree=3.0),
               _result(0.9, avg_degree=3.0)]
    report = stats.correlate_results(results)
    row = next(r for r in report if r["stat"] == "avg_degree")
    assert row["rho"] == 0.0 and row["degenerate"]


def test_correlate_duplicated_results_identical():
    results = [_result(0.5, diameter=2), _result(0.7, diameter=5),
               _result(0.9, diameter=3)]
    once = stats.correlate_results(results)
    twice = stats.correlate_results(results + results)
    for a, b in zip(once, twice):
        assert a["rho"] == pytest.approx(b["rho"])


def test_correlate_stat_equal_to_accuracy():
    results = [_result(acc, spectral_radius=acc) for acc in (0.2, 0.5, 0.8, 0.9)]
    report = stats.correlate_results(results)
    row = next(r for r in report if r["stat"] == "spectral_radius")
    assert row["rho"] == pytest.approx(1.0)
