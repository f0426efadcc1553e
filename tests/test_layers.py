import numpy as np
import pytest

import ugsl.tensor as T
from ugsl import layers
from ugsl import objectives as O
from ugsl.config import (GslConfig, ScorerConfig, SparsifierConfig)
from ugsl.data import knn_graph, make_blobs, make_fixture
from ugsl.errors import ConfigurationError, ResourceError

import oracles
from oracles import finite_difference_gradient, relative_error, topk_rows

RNG = lambda s=0: np.random.default_rng(s)


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
    T.backward(T.sum_all(layers.score_fp(params, 3)))
    np.testing.assert_array_equal(params.fp.grad, np.ones((3, 3)))


def test_fp_size_mismatch():
    params = layers.init_edge_scorer(ScorerConfig(kind="fp", init="glorot"),
                                     3, 2, np.zeros((3, 2)), "relu", RNG())
    with pytest.raises(ConfigurationError):
        layers.score_fp(params, 4)


def test_att_all_ones_head_is_plain_cosine():
    rng = RNG(3)
    x = rng.normal(size=(5, 4))
    heads = [T.parameter(np.ones((1, 4)))]
    out = layers.score_att(T.constant(x), heads)
    np.testing.assert_allclose(out.values, T.pairwise_cosine(T.constant(x)).values,
                               atol=1e-12)


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
        np.testing.assert_allclose(
            out.values, T.pairwise_cosine(T.constant(x)).values, atol=1e-12)


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
    out = layers.sparsify(T.constant(scores),
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
    out = layers.sparsify(T.constant(scores),
                          SparsifierConfig(kind="dknn", k=2,
                                           dilation=2)).to_dense()
    # row 0 ranks: 1 (.9), 2 (.7), 3 (.5), 4 (.1) -> keep ranks 0 and 2
    assert out[0].nonzero()[0].tolist() == [1, 3]


def test_dknn_budget_validation():
    with pytest.raises(ConfigurationError, match="sparsifier.k"):
        layers.sparsify(T.constant(np.zeros((5, 5))),
                        SparsifierConfig(kind="dknn", k=3, dilation=2))


def test_random_dknn_draws_from_top_pool_endpoints():
    rng = RNG(11)
    scores = rng.normal(size=(8, 8))
    cfg = SparsifierConfig(kind="random_dknn", k=2, dilation=3)
    pool_mask = topk_rows(scores, 6)
    out = layers.sparsify(T.constant(scores), cfg, rng=rng, training=True)
    kept = out.to_dense() != 0
    assert (kept.sum(axis=1) == 2).all()
    assert not (kept & ~pool_mask).any()  # never leaves the top k*d pool
    # evaluation falls back to the deterministic dilated ranks
    eval_out = layers.sparsify(T.constant(scores), cfg, training=False)
    expected = topk_rows(scores, 2, dilation=3)
    np.testing.assert_array_equal(eval_out.to_dense() != 0, expected)


def test_epsnn_thresholds_strictly():
    scores = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.8], [0.2, 0.8, 0.0]])
    out = layers.sparsify(T.constant(scores),
                          SparsifierConfig(kind="epsnn",
                                           epsilon=0.5)).to_dense()
    assert out[1, 2] == 0.8
    assert out[0, 1] == 0.0  # exactly epsilon is dropped


def test_epsnn_resource_budget():
    scores = np.ones((6, 6))
    cfg = SparsifierConfig(kind="epsnn", epsilon=0.1, max_edges=10)
    with pytest.raises(ResourceError, match="30 edges"):
        layers.sparsify(T.constant(scores), cfg)


def test_bernoulli_identity_at_unit_temperature():
    rng = RNG(12)
    scores = rng.normal(size=(5, 5))
    cfg = SparsifierConfig(kind="bernoulli", temperature=1.0, epsilon=0.01)
    out = layers.sparsify(T.constant(scores), cfg, training=False).to_dense()
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
        out = layers.sparsify(T.constant(scores), cfg, rng=RNG(1),
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
    adj = layers.sparsify(scores, cfg)
    T.backward(T.sum_all(T.hadamard(
        adj.vals, T.constant(weights[adj.rows, adj.cols][:, None]))))
    kept = topk_rows(vals, 2)
    assert (scores.grad[~kept] == 0).all()
    np.testing.assert_allclose(scores.grad[kept], weights[kept])


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
    adj_one = stack_one._learn_adjacency(
        stack_one.first_scores(ds.graph.features), RNG(1), False)
    adj_per = stack_per._learn_adjacency(
        stack_per.first_scores(ds.graph.features), RNG(1), False)
    np.testing.assert_allclose(adj_per.to_dense(), adj_one.to_dense())


@pytest.mark.parametrize("mode", ["one", "per_layer"])
@pytest.mark.parametrize("scorer", [
    ScorerConfig(kind="mlp", init="glorot", mlp_width=3),
    ScorerConfig(kind="att", heads=2),
    ScorerConfig(kind="fp", init="glorot"),
])
@pytest.mark.parametrize("training", [False, True])
def test_forward_with_shared_scores_is_bit_equal(mode, scorer, training):
    ds = make_blobs(n=12, d=3, num_classes=2, seed=1)
    cfg = _base_config(adjacency_mode=mode, scorer=scorer, dropout=0.3,
                       sparsifier=SparsifierConfig(kind="random_dknn", k=3,
                                                   dilation=2))
    stack = layers.LayerStack.build(cfg, ds.n, 3, 2, ds.graph.features, RNG(0))
    x0 = ds.graph.features
    runs = [stack.forward(x0, RNG(1), training=training),
            stack.forward(x0, RNG(1), training=training,
                          scores=stack.first_scores(x0))]
    (logits, adj), (shared_logits, shared_adj) = runs
    np.testing.assert_array_equal(shared_logits.values, logits.values)
    np.testing.assert_array_equal(shared_adj.rows, adj.rows)
    np.testing.assert_array_equal(shared_adj.cols, adj.cols)
    np.testing.assert_array_equal(shared_adj.vals.values, adj.vals.values)


def test_forward_gradients_match_finite_differences():
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

    params = T.trainable(stack)
    T.zero_grads(params)
    T.backward(loss_fn())
    for p in params:
        fd = finite_difference_gradient(lambda: loss_fn().item(), p.values)
        assert np.linalg.norm(fd) >= 1e-6
        assert relative_error(p.grad, fd) < 1e-4


# --- the edge path against dense oracles ---------------------------------------

_ORACLE_SPARSIFIERS = {
    "knn": SparsifierConfig(kind="knn", k=4),
    "dknn": SparsifierConfig(kind="dknn", k=3, dilation=3),
    "random_dknn": SparsifierConfig(kind="random_dknn", k=3, dilation=3),
    "epsnn": SparsifierConfig(kind="epsnn", epsilon=0.3),
    "bernoulli": SparsifierConfig(kind="bernoulli", epsilon=0.6,
                                  temperature=0.5),
}


def _expected_sparsified(kind, cfg, scores, got):
    """The dense sparsifier output an independent rule predicts (for
    random_dknn in training: the draw's structure)."""
    n = scores.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    if kind in ("knn", "dknn"):
        keep = topk_rows(scores, cfg.k,
                         dilation=1 if kind == "knn" else cfg.dilation)
        return np.where(keep, scores, 0.0)
    if kind == "random_dknn":
        kept = got != 0
        assert (kept.sum(axis=1) == cfg.k).all()
        assert not (kept & ~topk_rows(scores, cfg.k * cfg.dilation)).any()
        return np.where(kept, scores, 0.0)
    if kind == "epsnn":
        return np.where((scores > cfg.epsilon) & off_diagonal, scores, 0.0)
    relaxed = 1.0 / (1.0 + np.exp(-scores / cfg.temperature))
    return np.where((relaxed > cfg.epsilon) & off_diagonal, relaxed, 0.0)


@pytest.mark.parametrize("encoder", ["gcn", "gin", "mlp"])
@pytest.mark.parametrize("mode", ["none", "symmetrize", "activation",
                                  "activation_symmetrize"])
@pytest.mark.parametrize("kind", sorted(_ORACLE_SPARSIFIERS))
def test_edge_path_matches_dense_oracle(kind, mode, encoder):
    n, d = 37, 5
    rng = RNG(17)
    scores = rng.normal(size=(n, n))
    x = rng.normal(size=(n, d))
    a0 = knn_graph(x, 6)
    cfg = _ORACLE_SPARSIFIERS[kind]
    adj = layers.sparsify(T.constant(scores), cfg, rng=RNG(1),
                          training=kind == "random_dknn")
    dense = adj.to_dense()
    assert np.abs(dense - _expected_sparsified(kind, cfg, scores, dense)
                  ).max() <= 1e-10

    for activation in ("relu", "tanh"):
        processed = layers.process(adj, mode, activation)
        want = oracles.dense_process(dense, mode, activation)
        assert np.abs(processed.to_dense() - want).max() <= 1e-10

        # both sides of the narrow-width rule: 5 -> 3 and 5 -> 8
        for fan_out in (3, 8):
            params = layers.init_encoder_layer(encoder, d, fan_out, RNG(2))
            out = layers.encode(T.constant(x), processed, params, "relu",
                                apply_activation=False).values
            (w, b), *rest = [(w.values, b.values) for w, b in params.weights]
            if encoder == "gcn":
                expected = oracles.gcn_propagate(want, x) @ w + b
            elif encoder == "gin":
                (w2, b2), = rest
                hidden = np.maximum(oracles.gin_aggregate(want, x) @ w + b,
                                    0.0)
                expected = hidden @ w2 + b2
            else:
                expected = x @ w + b
            assert np.abs(out - expected).max() <= 1e-10

        regs = oracles.adjacency_regularizers(want, a0, x)
        got = {"closeness": O.reg_closeness(processed,
                                            T.Edges.from_dense(a0)),
               "smoothness": O.reg_smoothness(processed, x),
               "sparse_connect": O.reg_sparse_connect(processed),
               "log_barrier": O.reg_log_barrier(processed)}
        for name, value in regs.items():
            assert abs(got[name].item() - value) <= 1e-10, name


def test_random_dknn_draw_is_k_distinct_pool_columns_and_repeats():
    rng = RNG(18)
    n = 30
    scores = rng.normal(size=(n, n))
    cfg = SparsifierConfig(kind="random_dknn", k=4, dilation=3)
    pool = topk_rows(scores, cfg.k * cfg.dilation)
    draws = [layers.sparsify(T.constant(scores), cfg, rng=RNG(seed),
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
    eval_adj = layers.sparsify(T.constant(scores), cfg, rng=eval_rng,
                               training=False)
    np.testing.assert_array_equal(eval_adj.to_dense() != 0,
                                  topk_rows(scores, cfg.k,
                                            dilation=cfg.dilation))
    assert eval_rng.random() == RNG(7).random()
