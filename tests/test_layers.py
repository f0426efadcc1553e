import weakref

import numpy as np
import pytest

import ugsl.tensor as T
from ugsl import layers
from ugsl.config import (GslConfig, ProcessorConfig, ScorerConfig,
                         SparsifierConfig)
from ugsl.data import cosine_similarity, make_blobs, make_fixture
from ugsl.errors import ResourceError

import oracles
from oracles import (SPMM_ROUTES, check_gradients, force_spmm_route,
                     topk_rows)

RNG = lambda s=0: np.random.default_rng(s)


def _scores_of(matrix):
    """Scores that are the entries of a constant matrix."""
    return layers.Scores.of(T.constant(matrix))


# --- edge scorers -------------------------------------------------------------

def test_fp_cosine_init_orthogonal_features():
    x0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    params = layers.init_edge_scorer(ScorerConfig(kind="fp", init="cosine"),
                                     2, 2, x0, "relu", RNG())
    assert params.fp.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert params.fp.values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_fp_cosine_init_duplicate_nodes():
    x0 = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
    params = layers.init_edge_scorer(ScorerConfig(kind="fp", init="cosine"),
                                     3, 2, x0, "relu", RNG())
    assert params.fp.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_fp_gradient_of_sum_is_all_ones():
    params = layers.init_edge_scorer(ScorerConfig(kind="fp", init="glorot"),
                                     3, 2, np.zeros((3, 2)), "relu", RNG())
    rows, cols = np.divmod(np.arange(9), 3)
    scores = layers.score(params, T.constant(np.zeros((3, 2))))
    T.backward(T.sum_all(scores.at(rows, cols)))
    np.testing.assert_array_equal(params.fp.grad, np.ones((3, 3)))


def test_att_all_ones_head_is_plain_cosine():
    rng = RNG(3)
    x = rng.normal(size=(5, 4))
    heads = [T.parameter(np.ones((1, 4)))]
    out = layers.score_att(T.constant(x), heads)
    np.testing.assert_allclose(out.values, cosine_similarity(x), atol=1e-12)


def test_att_two_equal_heads_match_single():
    rng = RNG(4)
    x = rng.normal(size=(5, 4))
    one = layers.score_att(T.constant(x), [T.parameter(np.ones((1, 4)))])
    two = layers.score_att(T.constant(x), [T.parameter(np.ones((1, 4))),
                                           T.parameter(np.ones((1, 4)))])
    np.testing.assert_allclose(two.values, one.values, atol=1e-12)


def test_att_hand_example():
    # head (1, 0) projects both rows onto their first coordinate
    x = T.constant(np.array([[1.0, 1.0], [1.0, -1.0]]))
    out = layers.score_att(x, [T.parameter(np.array([[1.0, 0.0]]))])
    assert out.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_mlp_identity_init_replicates_feature_cosine():
    rng = RNG(5)
    x = np.abs(rng.normal(size=(6, 4)))  # nonnegative: relu cannot distort
    for depth in (1, 2):
        params = layers.init_edge_scorer(
            ScorerConfig(kind="mlp", mlp_depth=depth, init="identity"),
            6, 4, x, "relu", RNG())
        out = layers.score(params, T.constant(x))
        np.testing.assert_allclose(out.values, cosine_similarity(x),
                                   atol=1e-12)


def test_mlp_duplicate_rows_score_one():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.5]])
    params = layers.init_edge_scorer(ScorerConfig(kind="mlp", init="glorot",
                                                  mlp_width=3),
                                     3, 2, x, "relu", RNG(1))
    out = layers.score(params, T.constant(x))
    assert out.values[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_mlp_scores_symmetric_unit_diagonal():
    rng = RNG(6)
    x = rng.normal(size=(5, 3))
    params = layers.init_edge_scorer(ScorerConfig(kind="mlp", init="glorot",
                                                  mlp_width=4, mlp_depth=2),
                                     5, 3, x, "relu", RNG(2))
    out = layers.score(params, T.constant(x)).values
    np.testing.assert_allclose(out, out.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)


# --- sparsifiers ----------------------------------------------------------------

def test_knn_keeps_top_two():
    scores = np.array([
        [0.0, 0.9, 0.5, 0.7],
        [0.9, 0.0, 0.5, 0.1],
        [0.1, 0.2, 0.0, 0.3],
        [0.4, 0.3, 0.2, 0.0],
    ])
    out = layers.sparsify(_scores_of(scores),
                          SparsifierConfig(kind="knn", k=2)).to_dense()
    assert out[0].nonzero()[0].tolist() == [1, 3]
    assert out[0, 1] == 0.9 and out[0, 3] == 0.7


def test_dknn_keeps_ranks_zero_and_two():
    scores = np.array([
        [0.0, 0.9, 0.7, 0.5, 0.1],
        [0.9, 0.0, 0.7, 0.5, 0.1],
        [0.9, 0.7, 0.0, 0.5, 0.1],
        [0.9, 0.7, 0.5, 0.0, 0.1],
        [0.9, 0.7, 0.5, 0.1, 0.0],
    ])
    out = layers.sparsify(_scores_of(scores),
                          SparsifierConfig(kind="dknn", k=2,
                                           dilation=2)).to_dense()
    # row 0 ranks: 1 (.9), 2 (.7), 3 (.5), 4 (.1) -> keep ranks 0 and 2
    assert out[0].nonzero()[0].tolist() == [1, 3]


def test_random_dknn_draws_from_top_pool_endpoints():
    rng = RNG(11)
    scores = rng.normal(size=(8, 8))
    cfg = SparsifierConfig(kind="random_dknn", k=2, dilation=3)
    pool_mask = topk_rows(scores, 6)
    out = layers.sparsify(_scores_of(scores), cfg, rng=rng, training=True)
    kept = out.to_dense() != 0
    assert (kept.sum(axis=1) == 2).all()
    assert not (kept & ~pool_mask).any()  # never leaves the top k*d pool
    # evaluation falls back to the deterministic dilated ranks
    eval_out = layers.sparsify(_scores_of(scores), cfg, training=False)
    expected = topk_rows(scores, 2, dilation=3)
    np.testing.assert_array_equal(eval_out.to_dense() != 0, expected)


def test_epsnn_thresholds_strictly():
    scores = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.8], [0.2, 0.8, 0.0]])
    out = layers.sparsify(_scores_of(scores),
                          SparsifierConfig(kind="epsnn",
                                           epsilon=0.5)).to_dense()
    assert out[1, 2] == 0.8
    assert out[0, 1] == 0.0  # exactly epsilon is dropped


def test_epsnn_resource_budget():
    # 710 * 709 = 503390 off-diagonal edges, just over EPSNN_MAX_EDGES
    scores = np.ones((710, 710))
    cfg = SparsifierConfig(kind="epsnn", epsilon=0.1)
    with pytest.raises(ResourceError, match="503390 edges"):
        layers.sparsify(_scores_of(scores), cfg)


def test_bernoulli_identity_at_unit_temperature():
    rng = RNG(12)
    scores = rng.normal(size=(5, 5))
    cfg = SparsifierConfig(kind="bernoulli", temperature=1.0, epsilon=0.01)
    out = layers.sparsify(_scores_of(scores), cfg, training=False).to_dense()
    squashed = 1.0 / (1.0 + np.exp(-scores))
    keep = squashed > 0.01
    np.fill_diagonal(keep, False)
    np.testing.assert_allclose(out[keep], squashed[keep], atol=1e-9)
    assert (out[~keep] == 0).all()


def test_sparsifier_outputs_are_masked_scores():
    rng = RNG(13)
    scores = rng.normal(size=(9, 9))
    for kind in ("knn", "dknn", "random_dknn", "epsnn"):
        cfg = SparsifierConfig(kind=kind, k=3, dilation=2, epsilon=0.3)
        out = layers.sparsify(_scores_of(scores), cfg, rng=RNG(1),
                              training=True).to_dense()
        kept = out != 0
        np.testing.assert_array_equal(out[kept], scores[kept])
        assert not np.diag(kept).any()


def test_knn_gradient_only_through_kept_entries():
    rng = RNG(14)
    vals = rng.normal(size=(6, 6))
    scores = T.parameter(vals.copy())
    cfg = SparsifierConfig(kind="knn", k=2)
    weights = rng.normal(size=(6, 6))
    adj = layers.sparsify(layers.Scores.of(scores), cfg)
    T.backward(T.sum_all(T.hadamard(
        adj.vals, T.constant(weights[adj.rows, adj.cols][:, None]))))
    kept = topk_rows(vals, 2)
    assert (scores.grad[~kept] == 0).all()
    np.testing.assert_allclose(scores.grad[kept], weights[kept])


# --- scorer gradients through the kept edges ---------------------------------

def _dense_scores(kind, x, params):
    """The n x n scores recorded whole, as the scorers built them before
    recording only the kept entries: add(matmul) layers and one dense
    gram per head."""
    if kind == "mlp":
        (w, b), = params
        return oracles.gram_dense(T.normalize_rows(T.add(T.matmul(x, w), b)))
    total = None
    for head in params:
        sim = oracles.gram_dense(T.normalize_rows(T.hadamard(x, head)))
        total = sim if total is None else T.add(total, sim)
    return T.scale(total, 1.0 / len(params))


def _dense_sparsify(scores, cfg, rng):
    """The sparsifier over a recorded n x n tensor: select, then gather."""
    n = scores.shape[0]
    if cfg.kind == "bernoulli":
        u = rng.uniform(size=(n, n))
        noise = np.log(u) - np.log1p(-u)
        scores = T.sigmoid(T.scale(T.add(scores, T.constant(noise)),
                                   1.0 / cfg.temperature))
        rows, cols = np.nonzero(scores.values > cfg.epsilon)
    else:
        rows, cols = np.nonzero(topk_rows(scores.values, cfg.k))
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    return rows, cols, T.gather(scores, rows, cols)


def _scorer_params(kind, d, rng):
    if kind == "mlp":
        return [(T.parameter(rng.normal(size=(d, 6))),
                 T.parameter(rng.normal(size=(1, 6))))]
    return [T.parameter(rng.normal(size=(1, d))) for _ in range(3)]


@pytest.mark.parametrize("kind, cfg", [
    ("mlp", SparsifierConfig(kind="knn", k=4)),
    ("att", SparsifierConfig(kind="knn", k=4)),
    ("mlp", SparsifierConfig(kind="bernoulli", epsilon=0.6, temperature=0.5)),
    ("att", SparsifierConfig(kind="bernoulli", epsilon=0.6, temperature=0.5)),
], ids=["mlp-knn", "att3-knn", "mlp-bernoulli", "att3-bernoulli"])
def test_scorer_gradients_are_the_dense_construction_bit_for_bit(kind, cfg):
    rng = RNG(21)
    n, d = 30, 5
    x_vals = rng.normal(size=(n, d))
    params = _scorer_params(kind, d, rng)
    weights = rng.normal(size=(n, n))
    leaves = T.trainable(params)
    results = []
    for dense in (False, True):
        x = T.parameter(x_vals.copy())
        T.zero_grads(leaves)
        if dense:
            rows, cols, vals = _dense_sparsify(
                _dense_scores(kind, x, params), cfg, RNG(3))
        else:
            scores = (layers.score_mlp(x, params, "relu") if kind == "mlp"
                      else layers.score_att(x, params))
            adj = layers.sparsify(scores, cfg, rng=RNG(3), training=True)
            rows, cols, vals = adj.rows, adj.cols, adj.vals
        T.backward(T.sum_all(T.hadamard(
            vals, T.constant(weights[rows, cols][:, None]))))
        results.append((rows, cols, vals.values, x.grad,
                        [p.grad for p in leaves]))
    (rows, cols, vals, x_grad, grads), want = results
    assert rows.size > n  # a graph, not a handful of edges
    np.testing.assert_array_equal(rows, want[0])
    np.testing.assert_array_equal(cols, want[1])
    assert np.array_equal(vals, want[2])
    assert np.array_equal(x_grad, want[3])
    for got, expected in zip(grads, want[4]):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_att_is_the_per_head_construction_bit_for_bit(heads):
    # every pair at most once, diagonal cells included; the values, the
    # scores at the edges and the gradients of x and every head agree bit
    # for bit with one product and one gram_at per head
    rng = RNG(23 + heads)
    n, d = 25, 6
    x_vals = rng.normal(size=(n, d))
    params = [T.parameter(rng.normal(size=(1, d))) for _ in range(heads)]
    rows, cols = np.divmod(np.flatnonzero(rng.random(n * n) < 0.3), n)
    weights = T.constant(rng.normal(size=(rows.size, 1)))
    results = []
    for per_head in (False, True):
        x = T.parameter(x_vals.copy())
        T.zero_grads(params)
        if per_head:
            vals = oracles.att_entries_per_head(x, params, rows, cols)
        else:
            scores = layers.score_att(x, params)
            vals = scores.at(rows, cols)
            assert np.array_equal(scores.values[rows, cols][:, None],
                                  vals.values)
        T.backward(T.sum_all(T.hadamard(vals, weights)))
        results.append([vals.values, x.grad] + [p.grad for p in params])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["mlp", "att3", "bernoulli"])
def test_gram_at_gradients_match_finite_differences(kind):
    # fixed edges with both orientations of some pairs and the diagonal;
    # the bernoulli chain relaxes three heads' entries with fixed noise
    rng = RNG(22)
    n, d = 8, 4
    x = T.parameter(rng.normal(size=(n, d)))
    params = _scorer_params("mlp" if kind == "mlp" else "att", d, rng)
    rows, cols = np.divmod(np.flatnonzero(rng.random(n * n) < 0.5), n)
    weights = T.constant(rng.normal(size=(rows.size, 1)))
    noise = T.constant(rng.logistic(size=(rows.size, 1)))

    def loss():
        if kind == "mlp":
            vals = layers.score_mlp(x, params, "relu").at(rows, cols)
        else:
            vals = layers.score_att(x, params).at(rows, cols)
        if kind == "bernoulli":
            vals = T.sigmoid(T.scale(T.add(vals, noise), 1.0 / 0.5))
        return T.sum_all(T.hadamard(vals, weights))

    check_gradients(loss, [x] + T.trainable(params), min_norm=1e-3,
                    label=kind)


def test_graph_frees_draw_free_scores_and_ranks_the_pool_once(monkeypatch):
    # a draw-free kind selects inside `graph`, so its n x n scores are
    # unreachable once `graph` returns and every selection is that one
    # edge list; random_dknn ranks its pool there, once for all its
    # selections; bernoulli keeps the scores it draws against
    ds = make_blobs(n=12, d=3, num_classes=2, seed=1)
    x0 = ds.graph.features
    score, ranked_pool = layers.score, layers.ranked_pool
    for kind in ("knn", "dknn", "epsnn", "random_dknn", "bernoulli"):
        held, ranks = [], []

        def scoring(*args):
            scores = score(*args)
            held.extend([weakref.ref(scores), weakref.ref(scores.values)])
            return scores

        def ranking(*args):
            ranks.append(kind)
            return ranked_pool(*args)

        monkeypatch.setattr(layers, "score", scoring)
        monkeypatch.setattr(layers, "ranked_pool", ranking)
        cfg = _base_config(sparsifier=SparsifierConfig(kind=kind, k=3,
                                                       epsilon=0.2))
        stack = layers.LayerStack.build(cfg, ds.n, 3, 2, x0, RNG(0))
        learn = stack.graph(0, T.constant(x0))
        draw_free = kind in layers.DRAW_FREE_SPARSIFIERS
        assert len(held) == 2
        assert all((ref() is None) == draw_free for ref in held), kind
        graphs = [learn(RNG(seed), training)
                  for seed in (1, 2) for training in (True, False)]
        if draw_free:
            assert all(adj is graphs[0] for adj in graphs), kind
        assert len(ranks) == (kind in ("knn", "dknn", "random_dknn")), kind


# --- processors -----------------------------------------------------------------

def test_symmetrize_idempotent_on_symmetric():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = layers.process(T.Edges.from_dense(a), "symmetrize")
    np.testing.assert_array_equal(out.to_dense(), a)


def test_activation_relu():
    a = np.array([[-1.0, 2.0], [3.0, -4.0]])
    out = layers.process(T.Edges.from_dense(a), "activation", "relu")
    np.testing.assert_array_equal(out.to_dense(), [[0.0, 2.0], [3.0, 0.0]])


def test_activation_symmetrize_hand_case():
    a = np.array([[0.0, -1.0], [3.0, 0.0]])
    out = layers.process(T.Edges.from_dense(a), "activation_symmetrize",
                         "relu")
    np.testing.assert_allclose(out.to_dense(), [[0.0, 1.5], [1.5, 0.0]])


@pytest.mark.parametrize("mode", ["symmetrize", "activation_symmetrize"])
def test_processor_outputs_exactly_symmetric(mode):
    rng = RNG(15)
    a = rng.normal(size=(7, 7))
    out = layers.process(T.Edges.from_dense(a), mode, "tanh").to_dense()
    np.testing.assert_array_equal(out, out.T)


# --- encoders --------------------------------------------------------------------

def _identity_gcn_layer(dim):
    return layers.EncoderLayerParams(
        "gcn", [(T.parameter(np.eye(dim)), T.parameter(np.zeros((1, dim))))])


def test_gcn_empty_adjacency_identity_weights_passthrough():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    out = layers.encode(T.constant(x), T.Edges.from_dense(np.zeros((3, 3))),
                        _identity_gcn_layer(2), "relu", apply_activation=False)
    np.testing.assert_allclose(out.values, x)


def test_gcn_two_node_hand_value():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[1.0], [0.0]])
    out = layers.encode(T.constant(x), T.Edges.from_dense(adj),
                        _identity_gcn_layer(1), "relu", apply_activation=False)
    np.testing.assert_allclose(out.values, [[0.5], [0.5]])


def test_mlp_encoder_ignores_adjacency():
    rng = RNG(16)
    x = rng.normal(size=(5, 3))
    params = layers.init_encoder_layer("mlp", 3, 2, RNG(2))
    a1 = layers.encode(T.constant(x),
                       T.Edges.from_dense(rng.normal(size=(5, 5))),
                       params, "relu", apply_activation=False)
    a2 = layers.encode(T.constant(x),
                       T.Edges.from_dense(rng.normal(size=(5, 5))),
                       params, "relu", apply_activation=False)
    np.testing.assert_array_equal(a1.values, a2.values)


def test_gin_hand_value():
    # identity internal MLP: out = relu((x + A x) I + 0) I + 0
    params = layers.EncoderLayerParams(
        "gin", [(T.parameter(np.eye(2)), T.parameter(np.zeros((1, 2)))),
                (T.parameter(np.eye(2)), T.parameter(np.zeros((1, 2))))])
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = layers.encode(T.constant(x), T.Edges.from_dense(adj), params,
                        "relu", apply_activation=False)
    agg = x + adj @ x
    np.testing.assert_allclose(out.values, np.maximum(agg, 0.0))


# --- stack ------------------------------------------------------------------------

def _base_config(**overrides):
    cfg = GslConfig(
        scorer=ScorerConfig(kind="mlp", init="identity", mlp_depth=1),
        sparsifier=SparsifierConfig(kind="knn", k=2),
        hidden_units=16,
        dropout=0.0,
    )
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_forward_shapes_on_fixture():
    ds = make_fixture()
    cfg = _base_config()
    stack = layers.LayerStack.build(cfg, ds.n, ds.graph.num_features,
                                    ds.num_classes, ds.graph.features, RNG(0))
    logits, adj = stack.forward(ds.graph.features, RNG(1), training=False)
    assert logits.shape == (4, 2)
    assert adj.to_dense().shape == (4, 4)


def test_one_mode_shares_adjacency_object():
    ds = make_fixture()
    stack = layers.LayerStack.build(_base_config(), ds.n, 2, 2,
                                    ds.graph.features, RNG(0))
    assert len(stack.scorers) == 1


def test_per_layer_first_adjacency_matches_one_mode():
    ds = make_fixture()
    cfg_one = _base_config()
    cfg_per = _base_config(adjacency_mode="per_layer")
    stack_one = layers.LayerStack.build(cfg_one, ds.n, 2, 2,
                                        ds.graph.features, RNG(0))
    stack_per = layers.LayerStack.build(cfg_per, ds.n, 2, 2,
                                        ds.graph.features, RNG(0))
    assert len(stack_per.scorers) == 2
    x = T.constant(ds.graph.features)
    adj_one = stack_one.graph(0, x)(None, False)
    adj_per = stack_per.graph(0, x)(None, False)
    np.testing.assert_allclose(adj_per.to_dense(), adj_one.to_dense())


def _forward_and_backward(stack, x0, labels, forward):
    """The logits, last edge list and parameter gradients of one
    `forward(x0)` under a cross-entropy over every node."""
    params = T.trainable(stack)
    T.zero_grads(params)
    logits, adj = forward(x0)
    T.backward(T.softmax_cross_entropy(logits, labels,
                                       np.ones(labels.size, dtype=bool)))
    return logits.values, adj, [p.grad.copy() for p in params]


def _assert_runs_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1].rows, want[1].rows)
    np.testing.assert_array_equal(got[1].cols, want[1].cols)
    np.testing.assert_array_equal(got[1].vals.values, want[1].vals.values)
    assert len(got[2]) == len(want[2])
    for got_grad, want_grad in zip(got[2], want[2]):
        np.testing.assert_array_equal(got_grad, want_grad)


def _assert_shared_graph_is_bit_equal(cfg, training):
    """The trainer's hand-off: an evaluation forward reads the first
    layer's graph, then the next forward reuses it. That forward must give
    the bits, gradients too, of one that learns the graph itself. Returns
    the shared graph and the edge list the reusing forward ended on."""
    ds = make_blobs(n=12, d=3, num_classes=2, seed=1)
    x0 = ds.graph.features
    stack = layers.LayerStack.build(cfg, ds.n, 3, 2, x0, RNG(0))

    def run(first):
        return _forward_and_backward(
            stack, x0, ds.labels,
            lambda x: stack.forward(x, RNG(1), training=training,
                                    first=first))

    fresh = run(None)
    first = stack.graph(0, T.constant(x0))
    stack.forward(x0, RNG(2), training=False, first=first)
    shared = run(first)
    _assert_runs_equal(shared, fresh)
    return first, shared[1]


@pytest.mark.parametrize("mode", ["one", "per_layer"])
@pytest.mark.parametrize("scorer", [
    ScorerConfig(kind="mlp", init="glorot", mlp_width=3),
    ScorerConfig(kind="att", heads=2),
    ScorerConfig(kind="fp", init="glorot"),
])
@pytest.mark.parametrize("training", [False, True])
def test_forward_with_shared_scores_is_bit_equal(mode, scorer, training):
    # the drawing kinds: the shared graph draws afresh from kept scores
    for kind in ("random_dknn", "bernoulli"):
        cfg = _base_config(adjacency_mode=mode, scorer=scorer, dropout=0.3,
                           sparsifier=SparsifierConfig(kind=kind, k=3,
                                                       dilation=2))
        _assert_shared_graph_is_bit_equal(cfg, training)


@pytest.mark.parametrize("mode", ["one", "per_layer"])
@pytest.mark.parametrize("kind", ["knn", "dknn", "epsnn"])
@pytest.mark.parametrize("training", [False, True])
def test_forward_with_shared_edge_list_is_bit_equal(mode, kind, training):
    # the draw-free kinds: the shared graph is one selected edge list
    cfg = _base_config(adjacency_mode=mode, dropout=0.3,
                       scorer=ScorerConfig(kind="mlp", init="glorot",
                                           mlp_width=3),
                       processor=ProcessorConfig(mode="symmetrize"),
                       sparsifier=SparsifierConfig(kind=kind, k=3,
                                                   epsilon=0.2))
    first, last = _assert_shared_graph_is_bit_equal(cfg, training)
    if mode == "one":
        assert last is first(None, False)


@pytest.mark.parametrize("kind", ["knn", "dknn", "random_dknn", "epsnn",
                                  "bernoulli"])
@pytest.mark.parametrize("training", [False, True])
def test_per_layer_forward_is_the_composed_layers(kind, training):
    # each layer scores its own input, sparsifies, processes and encodes,
    # drawing from one rng in that order: bit for bit, gradients too
    ds = make_blobs(n=12, d=3, num_classes=2, seed=1)
    x0 = ds.graph.features
    cfg = _base_config(adjacency_mode="per_layer", dropout=0.3,
                       scorer=ScorerConfig(kind="mlp", init="glorot",
                                           mlp_width=3),
                       processor=ProcessorConfig(mode="symmetrize"),
                       sparsifier=SparsifierConfig(kind=kind, k=3,
                                                   dilation=2, epsilon=0.2))
    stack = layers.LayerStack.build(cfg, ds.n, 3, 2, x0, RNG(0))

    def composed(x0):
        rng, x = RNG(1), T.constant(x0)
        for layer in range(layers.NUM_LAYERS):
            scores = layers.score(stack.scorers[layer], x)
            adj = layers.process(
                layers.sparsify(scores, cfg.sparsifier, rng=rng,
                                training=training),
                cfg.processor.mode, cfg.activation)
            x = layers.encode(x, adj, stack.encoder_layers[layer],
                              cfg.activation, apply_activation=layer == 0,
                              dropout_rate=cfg.dropout, rng=rng,
                              training=training)
        return x, adj

    want = _forward_and_backward(stack, x0, ds.labels, composed)
    got = _forward_and_backward(
        stack, x0, ds.labels,
        lambda x: stack.forward(x, RNG(1), training=training))
    _assert_runs_equal(got, want)


def test_forward_gradients_match_finite_differences(monkeypatch):
    # blobs rather than make_fixture(): there the scorer's gradient is zero
    # to rounding, and the relative error would measure that rounding
    ds = make_blobs(n=12, d=3, num_classes=2, seed=1)
    cfg = _base_config(sparsifier=SparsifierConfig(kind="knn", k=3))
    cfg.scorer = ScorerConfig(kind="mlp", init="glorot", mlp_width=3)
    stack = layers.LayerStack.build(cfg, ds.n, 3, 2, ds.graph.features, RNG(0))
    labels, mask = ds.labels, np.ones(ds.n, dtype=bool)

    def loss_fn():
        logits, _ = stack.forward(ds.graph.features, RNG(1), training=False)
        return T.softmax_cross_entropy(logits, labels, mask)

    for route in SPMM_ROUTES:
        calls = force_spmm_route(monkeypatch, route)
        check_gradients(loss_fn, T.trainable(stack), min_norm=1e-6,
                        label=route)
        assert set(calls) == {route}, calls


def test_random_dknn_draw_is_k_distinct_pool_columns_and_repeats():
    rng = RNG(18)
    n = 30
    scores = rng.normal(size=(n, n))
    cfg = SparsifierConfig(kind="random_dknn", k=4, dilation=3)
    pool = topk_rows(scores, cfg.k * cfg.dilation)
    draws = [layers.sparsify(_scores_of(scores), cfg, rng=RNG(seed),
                             training=True) for seed in (5, 5, 6)]
    for adj in draws:
        assert adj.rows.tolist() == np.repeat(np.arange(n), cfg.k).tolist()
        kept = adj.to_dense() != 0
        assert (kept.sum(axis=1) == cfg.k).all()  # k distinct columns a row
        assert not (kept & ~pool).any()           # each from its own pool
    np.testing.assert_array_equal(draws[0].cols, draws[1].cols)
    assert not np.array_equal(draws[0].cols, draws[2].cols)
    # evaluation keeps the deterministic dilated ranks, and draws nothing
    eval_rng = RNG(7)
    eval_adj = layers.sparsify(_scores_of(scores), cfg, rng=eval_rng,
                               training=False)
    np.testing.assert_array_equal(eval_adj.to_dense() != 0,
                                  topk_rows(scores, cfg.k,
                                            dilation=cfg.dilation))
    assert eval_rng.random() == RNG(7).random()
