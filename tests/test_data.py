import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsl import data, errors
from ugsl.errors import ConfigurationError, IngestionError
from ugsl.tensor import Edges, constant

from oracles import edge_tsv_dense, knn_graph_dense, topk_rows


@pytest.fixture
def fixture_dir(tmp_path):
    ds = data.make_fixture()
    manifest = data.save_dataset(ds, tmp_path / "fix")
    return manifest


def test_load_fixture(fixture_dir):
    ds = data.load_dataset(fixture_dir)
    assert ds.n == 4
    assert ds.num_classes == 2
    assert ds.graph.features.shape == (4, 2)
    # the split files' indices become the masks they were written from
    fixture = data.make_fixture()
    for name in ("train_mask", "val_mask", "test_mask"):
        np.testing.assert_array_equal(getattr(ds, name),
                                      getattr(fixture, name))


def test_load_missing_labels(tmp_path):
    ds = data.make_fixture()
    manifest = data.save_dataset(ds, tmp_path)
    (tmp_path / "labels.csv").unlink()
    with pytest.raises(IngestionError, match="labels.csv"):
        data.load_dataset(manifest)


@pytest.mark.filterwarnings("error")
def test_load_empty_files_raises_without_numpy_warnings(tmp_path):
    manifest = data.save_dataset(data.make_fixture(), tmp_path)
    for name in ("features", "labels", "train", "val", "test"):
        (tmp_path / f"{name}.csv").write_text("")
    with pytest.raises(IngestionError):
        data.load_dataset(manifest)


def test_load_shape_mismatch_reports_row_counts(tmp_path):
    ds = data.make_fixture()
    manifest = data.save_dataset(ds, tmp_path)
    np.savetxt(tmp_path / "labels.csv", [0, 1], fmt="%d")
    with pytest.raises(IngestionError, match="4 feature rows vs 2 labels"):
        data.load_dataset(manifest)


def test_load_label_out_of_range(tmp_path):
    ds = data.make_fixture()
    manifest = data.save_dataset(ds, tmp_path)
    np.savetxt(tmp_path / "labels.csv", [0, 1, 2, 1], fmt="%d")
    with pytest.raises(IngestionError, match="labels must lie in"):
        data.load_dataset(manifest)


def test_missing_manifest():
    with pytest.raises(IngestionError, match="manifest not found"):
        data.load_dataset("/nonexistent/manifest.json")


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_save_load_round_trip_bit_exact(tmp_path, fmt):
    ds = data.make_blobs(n=20, d=5, seed=3)
    manifest = data.save_dataset(ds, tmp_path / fmt, feature_format=fmt)
    back = data.load_dataset(manifest)
    np.testing.assert_array_equal(back.graph.features, ds.graph.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.train_mask, ds.train_mask)
    np.testing.assert_array_equal(back.val_mask, ds.val_mask)
    np.testing.assert_array_equal(back.test_mask, ds.test_mask)
    # a second round trip is byte-identical on disk
    again = data.save_dataset(back, tmp_path / "again", feature_format=fmt)
    feat_name = "features.csv" if fmt == "csv" else "features.bin"
    assert (tmp_path / fmt / feat_name).read_bytes() == \
        (again.parent / feat_name).read_bytes()


@pytest.mark.parametrize("raw", [
    b"\x03\x00",  # shorter than the 16-byte header
    np.array([1, 2], dtype="<i8").tobytes() + b"\x00" * 12,  # partial float
    np.array([-1, -1], dtype="<i8").tobytes() + b"\x00" * 8,  # negative shape
], ids=["short-header", "ragged-body", "negative-shape"])
def test_load_malformed_binary_features(tmp_path, raw):
    manifest = data.save_dataset(data.make_fixture(), tmp_path,
                                 feature_format="binary")
    (tmp_path / "features.bin").write_bytes(raw)
    with pytest.raises(IngestionError, match="features.bin"):
        data.load_dataset(manifest)


# --- kNN -------------------------------------------------------------------

def test_knn_identical_points_ties_to_lowest_index():
    x = np.ones((3, 2))
    adj = data.knn_graph(x, k=1).to_dense()
    assert adj[0].nonzero()[0].tolist() == [1]
    assert adj[1].nonzero()[0].tolist() == [0]
    assert adj[2].nonzero()[0].tolist() == [0]


def test_knn_tie_break_hand_case():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    adj = data.knn_graph(x, k=1).to_dense()
    # node 2 is equally close to 0 and 1 (cos = 1/sqrt(2)); lower index wins
    assert adj[2].nonzero()[0].tolist() == [0]
    assert adj[2, 0] == pytest.approx(1.0 / np.sqrt(2.0))


def test_knn_row_counts():
    rng = np.random.default_rng(0)
    adj = data.knn_graph(rng.normal(size=(12, 4)), k=3).to_dense()
    assert ((adj != 0).sum(axis=1) == 3).all()
    assert np.diag(adj).sum() == 0.0


def test_knn_k_too_large():
    with pytest.raises(ConfigurationError):
        data.knn_graph(np.ones((4, 2)), k=4)


@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_knn_matches_brute_force_oracle(seed, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20, 5))
    adj = data.knn_graph(x, k=k).to_dense()
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    sims = (x / norms) @ (x / norms).T
    expected_mask = topk_rows(sims, k)
    np.testing.assert_array_equal(adj != 0, expected_mask)
    np.testing.assert_allclose(adj[expected_mask], sims[expected_mask])


@given(st.integers(0, 10_000), st.integers(4, 40), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_knn_edges_match_the_dense_construction_with_zero_similarities(
        seed, n, d):
    # sparse binary features: many pairs share no feature (cosine exactly
    # 0), and some rows are all zero, so rows can keep fewer than k edges
    rng = np.random.default_rng(seed)
    x = (rng.random((n, d)) < 0.2).astype(np.float64)
    k = int(rng.integers(1, n))
    got = data.knn_graph(x, k)
    want = knn_graph_dense(x, k)
    np.testing.assert_array_equal(got.to_dense().view(np.uint64),
                                  want.view(np.uint64))
    np.testing.assert_array_equal(np.stack([got.rows, got.cols]),
                                  np.nonzero(want))
    assert not got.vals.requires_grad


def _stable_ranking(scores, count):
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    return np.argsort(-masked, axis=1, kind="stable")[:, :count]


def _scores(rng, n, kind):
    if kind == "untied":
        return rng.normal(size=(n, n))
    if kind == "zeros":
        return np.zeros((n, n))
    s = rng.integers(-2, 3, size=(n, n)).astype(np.float64)  # many ties
    if kind == "neg-inf":
        s[rng.random((n, n)) < 0.3] = -np.inf
    elif kind == "nan":
        s[rng.random((n, n)) < 0.2] = np.nan
        s[rng.random((n, n)) < 0.2] = -0.0
    return s


SCORE_KINDS = ["untied", "ties", "zeros", "neg-inf", "nan"]


@given(st.integers(0, 10_000), st.integers(2, 24),
       st.sampled_from(SCORE_KINDS), st.sampled_from(["one", "half", "n-1", "n"]))
@settings(max_examples=300, deadline=None)
def test_ranked_columns_is_the_stable_argsort_prefix(seed, n, kind, which):
    scores = _scores(np.random.default_rng(seed), n, kind)
    count = {"one": 1, "half": max(1, n // 2), "n-1": n - 1, "n": n}[which]
    got = data.ranked_columns(scores, count)
    assert got.shape == (n, count)
    np.testing.assert_array_equal(got, _stable_ranking(scores, count))


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_ranked_columns_in_row_blocks_is_the_stable_argsort_prefix(
        monkeypatch, kind, block_rows):
    # blocks that split the rows unevenly, so the diagonal of each block
    # sits at its own column offset
    n = 23
    scores = _scores(np.random.default_rng(block_rows), n, kind)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * n * block_rows)
    for count in (1, 5, n - 1, n):
        np.testing.assert_array_equal(data.ranked_columns(scores, count),
                                      _stable_ranking(scores, count))


def test_ranked_columns_tie_across_the_boundary():
    # at count 2: row 0 ties columns 1, 2 and 3 across the cut, row 1 is
    # untied, row 2 ties every column with its diagonal at -inf, row 3 is
    # all zeros, and row 4's diagonal holds the row's best score
    scores = np.array([[9.0, 5.0, 5.0, 5.0, 1.0],
                       [4.0, 0.0, 3.0, 2.0, 1.0],
                       [-np.inf, -np.inf, 7.0, -np.inf, -np.inf],
                       [0.0, 0.0, 0.0, 0.0, 0.0],
                       [1.0, 1.0, 2.0, 2.0, 3.0]])
    for count in range(1, 6):
        np.testing.assert_array_equal(data.ranked_columns(scores, count),
                                      _stable_ranking(scores, count))
    np.testing.assert_array_equal(data.ranked_columns(scores, 2),
                                  [[1, 2], [0, 2], [0, 1], [0, 1], [2, 3]])


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_dilated_row_edges_match_topk_oracle(seed, k, dilation):
    rng = np.random.default_rng(seed)
    n = k * dilation + 1 + int(rng.integers(0, 6))
    scores = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
    pool = data.ranked_columns(scores, k * dilation)
    rows, cols = data.row_edges(pool[:, ::dilation])
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, cols] = True
    np.testing.assert_array_equal(mask,
                                  topk_rows(scores, k, dilation=dilation))
    # row-major order, as np.nonzero lists a mask
    np.testing.assert_array_equal(np.stack([rows, cols]), np.nonzero(mask))


# --- splits ----------------------------------------------------------------

def test_make_splits_sizes():
    train, val, test = data.make_splits(10, data.SplitSpec(seed=1,
                                                           fractions=(.5, .2, .3)))
    assert (train.sum(), val.sum(), test.sum()) == (5, 2, 3)
    assert not (train & val).any() and not (train & test).any()


def test_make_splits_deterministic():
    a = data.make_splits(50, data.SplitSpec(seed=9))
    b = data.make_splits(50, data.SplitSpec(seed=9))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_make_splits_fractions_over_one():
    with pytest.raises(ConfigurationError):
        data.make_splits(10, data.SplitSpec(fractions=(.8, .3, .2)))


# --- edge TSV --------------------------------------------------------------

def test_edge_tsv_round_trip(tmp_path):
    adj = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 1.25], [0.75, 0.0, 0.0]])
    path = tmp_path / "edges.tsv"
    data.write_edge_tsv(Edges.from_dense(adj), path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[:2] == ["0", "1"]  # sorted by (src, dst)
    back = data.read_edge_list(path, n=3)
    np.testing.assert_array_equal(back.to_dense(), adj)


def test_edge_list_sorts_and_keeps_the_last_weight_of_a_pair(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("2\t0\t0.75\n0\t1\t0.5\n1\t2\t1.25\n0\t1\t3.0\n")
    back = data.read_edge_list(path, n=3)
    np.testing.assert_array_equal(back.rows, [0, 1, 2])
    np.testing.assert_array_equal(back.cols, [1, 2, 0])
    np.testing.assert_array_equal(back.vals.values, [[3.0], [1.25], [0.75]])
    assert back.n == 3 and not back.vals.requires_grad
    want = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 1.25], [0.75, 0.0, 0.0]])
    np.testing.assert_array_equal(back.to_dense(), want)


def test_edge_tsv_malformed_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\t0.5\nnot-a-row\n")
    with pytest.raises(IngestionError, match="line 2"):
        data.read_edge_list(path, n=3)


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
def test_edge_tsv_non_finite_weight(tmp_path, weight):
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t1\t0.5\n1\t2\t{weight}\n")
    with pytest.raises(IngestionError, match="line 2"):
        data.read_edge_list(path, n=3)


def _edges(rows, cols, vals, n):
    return Edges(np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp),
                 n, constant(np.asarray(vals, dtype=np.float64).reshape(-1, 1)))


def test_edge_tsv_golden(tmp_path):
    # (0, 1) repeats, (1, 2) sums to exactly 0, (2, 2) holds only -0.0,
    # (3, 0) is negative and node 4 has no edge
    rows = [0, 0, 0, 1, 1, 1, 2, 2, 3, 0]
    cols = [1, 2, 1, 2, 0, 2, 2, 0, 0, 1]
    vals = [0.5, 1 / 3, 0.25, 0.1, 2.0, -0.1, -0.0, 1e-300, -1.5, 0.125]
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = (np.asarray(a)[order] for a in (rows, cols, vals))
    path = tmp_path / "edges.tsv"
    data.write_edge_tsv(_edges(rows, cols, vals, 5), path)
    assert path.read_text() == (
        "0\t1\t0.875\n"
        "0\t2\t0.33333333333333331\n"
        "1\t0\t2\n"
        "2\t0\t1e-300\n"
        "3\t0\t-1.5\n")
    assert path.read_text() == edge_tsv_dense(rows, cols, vals, 5)


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_edge_tsv_matches_the_dense_construction(seed, n, e):
    # values from a small pool repeat pairs, cancel to exactly 0 and
    # include -0.0; isolated nodes are common at small edge counts
    rng = np.random.default_rng(seed)
    pool = np.array([0.5, -0.5, 0.0, -0.0, 1 / 3, -1 / 3, 0.1, 0.2, -0.3])
    rows = np.sort(rng.integers(0, n, e))
    cols = rng.integers(0, n, e)
    vals = np.where(rng.random(e) < 0.5, rng.choice(pool, e),
                    rng.normal(size=e))
    edges = _edges(rows, cols, vals, n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        data.write_edge_tsv(edges, path)
        assert path.read_text() == edge_tsv_dense(rows, cols, vals, n)
        back = data.read_edge_list(path, n)
    np.testing.assert_array_equal(back.to_dense().view(np.uint64),
                                  edges.to_dense().view(np.uint64))


def test_blobs_linear_probe_oracle():
    """The blobs fixture must be linearly separable: plain gradient-descent
    logistic regression on raw features reaches >= 0.95 test accuracy."""
    ds = data.make_blobs()
    x, y = ds.graph.features, ds.labels
    w = np.zeros((x.shape[1], ds.num_classes))
    b = np.zeros(ds.num_classes)
    tr = ds.train_mask
    onehot = np.eye(ds.num_classes)[y[tr]]
    for _ in range(300):
        z = x[tr] @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / tr.sum()
        w -= 0.5 * (x[tr].T @ g)
        b -= 0.5 * g.sum(axis=0)
    pred = (x @ w + b).argmax(axis=1)
    acc = (pred[ds.test_mask] == y[ds.test_mask]).mean()
    assert acc >= 0.95
