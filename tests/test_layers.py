import numpy as np
import pytest

import ugsl.tensor as T
from ugsl import layers
from ugsl.config import (GslConfig, ScorerConfig, SparsifierConfig)
from ugsl.data import make_fixture
from ugsl.errors import ConfigurationError, ResourceError

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
    out = layers.sparsify(T.constant(scores), SparsifierConfig(kind="knn", k=2))
    assert out.values[0].nonzero()[0].tolist() == [1, 3]
    assert out.values[0, 1] == 0.9 and out.values[0, 3] == 0.7


def test_dknn_keeps_ranks_zero_and_two():
    scores = np.array([
        [0.0, 0.9, 0.7, 0.5, 0.1],
        [0.9, 0.0, 0.7, 0.5, 0.1],
        [0.9, 0.7, 0.0, 0.5, 0.1],
        [0.9, 0.7, 0.5, 0.0, 0.1],
        [0.9, 0.7, 0.5, 0.1, 0.0],
    ])
    out = layers.sparsify(T.constant(scores),
                          SparsifierConfig(kind="dknn", k=2, dilation=2))
    # row 0 ranks: 1 (.9), 2 (.7), 3 (.5), 4 (.1) -> keep ranks 0 and 2
    assert out.values[0].nonzero()[0].tolist() == [1, 3]


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
    kept = out.values != 0
    assert (kept.sum(axis=1) == 2).all()
    assert not (kept & ~pool_mask).any()  # never leaves the top k*d pool
    # evaluation falls back to the deterministic dilated ranks
    eval_out = layers.sparsify(T.constant(scores), cfg, training=False)
    expected = topk_rows(scores, 2, dilation=3)
    np.testing.assert_array_equal(eval_out.values != 0, expected)


def test_epsnn_thresholds_strictly():
    scores = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.8], [0.2, 0.8, 0.0]])
    out = layers.sparsify(T.constant(scores),
                          SparsifierConfig(kind="epsnn", epsilon=0.5))
    assert out.values[1, 2] == 0.8
    assert out.values[0, 1] == 0.0  # exactly epsilon is dropped


def test_epsnn_resource_budget():
    scores = np.ones((6, 6))
    cfg = SparsifierConfig(kind="epsnn", epsilon=0.1, max_edges=10)
    with pytest.raises(ResourceError, match="30 edges"):
        layers.sparsify(T.constant(scores), cfg)


def test_bernoulli_identity_at_unit_temperature():
    rng = RNG(12)
    scores = rng.normal(size=(5, 5))
    cfg = SparsifierConfig(kind="bernoulli", temperature=1.0, epsilon=0.01)
    out = layers.sparsify(T.constant(scores), cfg, training=False)
    squashed = 1.0 / (1.0 + np.exp(-scores))
    keep = squashed > 0.01
    np.fill_diagonal(keep, False)
    np.testing.assert_allclose(out.values[keep], squashed[keep], atol=1e-9)
    assert (out.values[~keep] == 0).all()


def test_sparsifier_outputs_are_masked_scores():
    rng = RNG(13)
    scores = rng.normal(size=(9, 9))
    for kind in ("knn", "dknn", "random_dknn", "epsnn"):
        cfg = SparsifierConfig(kind=kind, k=3, dilation=2, epsilon=0.3)
        out = layers.sparsify(T.constant(scores), cfg, rng=RNG(1), training=True)
        kept = out.values != 0
        np.testing.assert_array_equal(out.values[kept], scores[kept])
        assert not np.diag(kept).any()


def test_knn_gradient_only_through_kept_entries():
    rng = RNG(14)
    vals = rng.normal(size=(6, 6))
    scores = T.parameter(vals.copy())
    cfg = SparsifierConfig(kind="knn", k=2)
    weights = rng.normal(size=(6, 6))
    T.backward(T.sum_all(T.hadamard(layers.sparsify(scores, cfg),
                                    T.constant(weights))))
    kept = topk_rows(vals, 2)
    assert (scores.grad[~kept] == 0).all()
    np.testing.assert_allclose(scores.grad[kept], weights[kept])


# --- processors -----------------------------------------------------------------

def test_symmetrize_idempotent_on_symmetric():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = layers.process(T.constant(a), "symmetrize")
    np.testing.assert_array_equal(out.values, a)


def test_activation_relu():
    a = np.array([[-1.0, 2.0], [3.0, -4.0]])
    out = layers.process(T.constant(a), "activation", "relu")
    np.testing.assert_array_equal(out.values, [[0.0, 2.0], [3.0, 0.0]])


def test_activation_symmetrize_hand_case():
    a = np.array([[0.0, -1.0], [3.0, 0.0]])
    out = layers.process(T.constant(a), "activation_symmetrize", "relu")
    np.testing.assert_allclose(out.values, [[0.0, 1.5], [1.5, 0.0]])


@pytest.mark.parametrize("mode", ["symmetrize", "activation_symmetrize"])
def test_processor_outputs_exactly_symmetric(mode):
    rng = RNG(15)
    a = rng.normal(size=(7, 7))
    out = layers.process(T.constant(a), mode, "tanh").values
    np.testing.assert_array_equal(out, out.T)


# --- encoders --------------------------------------------------------------------

def _identity_gcn_layer(dim):
    return layers.EncoderLayerParams(
        "gcn", [(T.parameter(np.eye(dim)), T.parameter(np.zeros((1, dim))))])


def test_gcn_empty_adjacency_identity_weights_passthrough():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    out = layers.encode(T.constant(x), T.constant(np.zeros((3, 3))),
                        _identity_gcn_layer(2), "relu", apply_activation=False)
    np.testing.assert_allclose(out.values, x)


def test_gcn_two_node_hand_value():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[1.0], [0.0]])
    out = layers.encode(T.constant(x), T.constant(adj),
                        _identity_gcn_layer(1), "relu", apply_activation=False)
    np.testing.assert_allclose(out.values, [[0.5], [0.5]])


def test_mlp_encoder_ignores_adjacency():
    rng = RNG(16)
    x = rng.normal(size=(5, 3))
    params = layers.init_encoder_layer("mlp", 3, 2, RNG(2))
    a1 = layers.encode(T.constant(x), T.constant(rng.normal(size=(5, 5))),
                       params, "relu", apply_activation=False)
    a2 = layers.encode(T.constant(x), T.constant(rng.normal(size=(5, 5))),
                       params, "relu", apply_activation=False)
    np.testing.assert_array_equal(a1.values, a2.values)


def test_gin_hand_value():
    # identity internal MLP: out = relu((x + A x) I + 0) I + 0
    params = layers.EncoderLayerParams(
        "gin", [(T.parameter(np.eye(2)), T.parameter(np.zeros((1, 2)))),
                (T.parameter(np.eye(2)), T.parameter(np.zeros((1, 2))))])
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = layers.encode(T.constant(x), T.constant(adj), params, "relu",
                        apply_activation=False)
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
    assert adj.shape == (4, 4)


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
    adj_one = stack_one._learn_adjacency(stack_one.scorers[0], x, RNG(1), False)
    adj_per = stack_per._learn_adjacency(stack_per.scorers[0],
                                         T.constant(ds.graph.features),
                                         RNG(1), False)
    np.testing.assert_allclose(adj_per.values, adj_one.values)


def test_forward_gradients_match_finite_differences():
    ds = make_fixture()
    cfg = _base_config()
    cfg.scorer = ScorerConfig(kind="mlp", init="glorot", mlp_width=3)
    stack = layers.LayerStack.build(cfg, ds.n, 2, 2, ds.graph.features, RNG(0))
    labels, mask = ds.labels, np.ones(4, dtype=bool)

    def loss_fn():
        logits, _ = stack.forward(ds.graph.features, RNG(1), training=False)
        return T.softmax_cross_entropy(logits, labels, mask)

    params = T.trainable(stack)
    T.zero_grads(params)
    T.backward(loss_fn())
    for p in params:
        fd = finite_difference_gradient(lambda: loss_fn().item(), p.values)
        assert relative_error(p.grad, fd) < 1e-4
