import json
import tracemalloc

import numpy as np
import pytest

import ugsl.tensor as T
import ugsl.layers
import ugsl.positional
import ugsl.training
from ugsl.config import (ContrastiveConfig, DaeConfig, EncoderConfig,
                         GslConfig, ObjectiveConfig, PositionalConfig,
                         ScorerConfig, SparsifierConfig)
from ugsl.data import knn_graph, make_blobs, make_fixture
from ugsl.errors import ConfigurationError, ResourceError
from ugsl.layers import LayerStack
from ugsl.objectives import init_objective_state, total_objective
from ugsl.training import (TrialResult, base_config, evaluate, run_base_model,
                           train)


def test_evaluate_perfect():
    logits = np.array([[5.0, 0.0], [0.0, 5.0]])
    assert evaluate(logits, np.array([0, 1]), np.ones(2, dtype=bool)) == 1.0


def test_evaluate_uniform_logits_tie_to_class_zero():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 3])
    assert evaluate(logits, labels, np.ones(3, dtype=bool)) == 0.0


def test_evaluate_three_of_four():
    logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 0])
    assert evaluate(logits, labels, np.ones(4, dtype=bool)) == 0.75


@pytest.fixture(scope="module")
def blobs():
    return make_blobs()


@pytest.fixture(scope="module")
def blobs_result(blobs):
    return run_base_model(blobs, seed=0, max_epochs=200)


def test_base_model_learns_blobs(blobs_result):
    assert blobs_result.status == "ok"
    assert blobs_result.test_accuracy_at_best_val >= 0.9
    assert blobs_result.epochs_run <= 200


def test_training_loss_halves_by_best_epoch(blobs_result):
    losses = blobs_result.train_losses
    assert losses[blobs_result.best_epoch] <= 0.5 * losses[0]


def test_best_val_is_max_of_curve(blobs_result):
    assert blobs_result.best_val_accuracy == pytest.approx(
        max(blobs_result.val_accuracies))


def test_result_accuracies_in_unit_interval(blobs_result):
    assert 0.0 <= blobs_result.best_val_accuracy <= 1.0
    assert 0.0 <= blobs_result.test_accuracy_at_best_val <= 1.0


def test_base_model_completes_on_fixture():
    res = run_base_model(make_fixture(), seed=3, max_epochs=30)
    assert res.status == "ok"
    assert 0.0 <= res.best_val_accuracy <= 1.0
    assert 0.0 <= res.test_accuracy_at_best_val <= 1.0
    # k was clamped to fit the 4-node graph
    assert res.config.sparsifier.k == 3


@pytest.mark.parametrize("kind, pe_dim", [("wl", 16), ("spectral", 2)])
def test_positional_trial_on_fixture_clamps_bootstrap_k(kind, pe_dim):
    # the bootstrap k of 15 exceeds n-1=3: the trial's one bootstrap graph,
    # which the encoding reads, is built with k clamped to 3
    cfg = base_config(make_fixture(), seed=0, max_epochs=5)
    cfg.positional = PositionalConfig(kind=kind, pe_dim=pe_dim)
    res = train(make_fixture(), cfg)
    assert res.status == "ok", res.error


@pytest.mark.parametrize("kind, closeness, builds", [
    ("wl", 1.0, 1), ("spectral", 1.0, 1), ("spectral", 0.0, 1),
    ("none", 1.0, 1), ("none", 0.0, 0)])
def test_a_trial_builds_the_bootstrap_graph_once(monkeypatch, kind, closeness,
                                                 builds):
    # the positional encodings and the closeness regularizer read one
    # graph, which only train builds
    calls = []

    def counted(*args):
        calls.append(args)
        return knn_graph(*args)

    def refuse(*args):
        raise AssertionError("positional built its own bootstrap graph")

    monkeypatch.setattr(ugsl.training, "knn_graph", counted)
    monkeypatch.setattr(ugsl.positional, "knn_graph", refuse)
    ds = make_blobs(n=40, d=8)
    cfg = base_config(ds, seed=0, max_epochs=2,
                      positional=PositionalConfig(kind=kind, pe_dim=4),
                      objective=ObjectiveConfig(lambda_closeness=closeness))
    res = train(ds, cfg)
    assert res.status == "ok", res.error
    assert len(calls) == builds


def test_patience_stops_after_saturation():
    ds = make_blobs(n=60, d=8, seed=2)
    res = run_base_model(ds, seed=0, max_epochs=400, patience=5)
    # validation accuracy saturates early; the run must stop soon after
    assert res.epochs_run <= res.best_epoch + 5 + 1
    assert res.epochs_run < 400


@pytest.mark.parametrize("mode", ["one", "per_layer"])
def test_first_scorer_runs_once_per_parameter_state(monkeypatch, mode):
    # the first scorer runs E + 1 times: in the first training forward and
    # before the evaluation forward after each Adam step (the next
    # training forward reuses those scores); the per_layer second scorer
    # reads the dropped-out hidden state, so it scores in each of the 2E
    # forwards
    epochs = 6
    calls = []
    original = ugsl.layers.score

    def counting(params, x_prev):
        calls.append(id(params))
        return original(params, x_prev)

    monkeypatch.setattr(ugsl.layers, "score", counting)
    ds = make_blobs(n=40, d=6, seed=3)
    res = train(ds, base_config(ds, seed=0, max_epochs=epochs,
                                patience=epochs + 1, adjacency_mode=mode))
    assert res.status == "ok" and res.epochs_run == epochs
    first = calls[0]
    assert calls.count(first) == epochs + 1
    second = 2 * epochs if mode == "per_layer" else 0
    assert len(calls) - calls.count(first) == second


@pytest.mark.parametrize("kind, mode, extra, per_epoch", [
    ("knn", "one", 1, 1),
    ("dknn", "one", 1, 1),
    ("epsnn", "one", 1, 1),
    ("knn", "per_layer", 1, 3),
    ("random_dknn", "one", 0, 2),
    ("bernoulli", "one", 0, 2),
])
def test_draw_free_first_selection_runs_once_per_parameter_state(
        monkeypatch, kind, mode, extra, per_epoch):
    # a draw-free sparsifier selects the first layer's edges once per
    # parameter state, E + 1 times; a drawing one selects in each of the
    # 2E forwards, and so does the per_layer second layer
    epochs = 6
    calls = []
    original = ugsl.layers.sparsify

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ugsl.layers, "sparsify", counting)
    ds = make_blobs(n=40, d=6, seed=3)
    res = train(ds, base_config(ds, seed=0, max_epochs=epochs,
                                patience=epochs + 1, adjacency_mode=mode,
                                sparsifier=SparsifierConfig(kind=kind, k=5)))
    assert res.status == "ok" and res.epochs_run == epochs
    assert len(calls) == extra + per_epoch * epochs


_BEST_EPOCH_CASES = {
    **{kind: dict(sparsifier=SparsifierConfig(kind=kind, k=5))
       for kind in ("knn", "dknn", "random_dknn", "epsnn", "bernoulli")},
    "knn-per_layer": dict(sparsifier=SparsifierConfig(kind="knn", k=5),
                          adjacency_mode="per_layer"),
    "bernoulli-per_layer": dict(
        sparsifier=SparsifierConfig(kind="bernoulli", k=5),
        adjacency_mode="per_layer"),
    "fp": dict(sparsifier=SparsifierConfig(kind="knn", k=5),
               scorer=ScorerConfig(kind="fp", init="cosine")),
    "contrastive": dict(
        sparsifier=SparsifierConfig(kind="dknn", k=5),
        objective=ObjectiveConfig(
            unsupervised=("contrastive",),
            contrastive=ContrastiveConfig(mask_rate=0.2, temperature=0.5,
                                          tau=0.1))),
}


@pytest.mark.parametrize("case", sorted(_BEST_EPOCH_CASES))
def test_outputs_are_those_of_a_run_stopped_at_the_best_epoch(case):
    # a run that trains past its best epoch b reports what a run stopped
    # right after b reports: every output is the best parameters'
    ds = make_blobs(n=60, d=8, seed=5, center_scale=1.5)

    def run(max_epochs):
        cfg = base_config(ds, seed=3, max_epochs=max_epochs, patience=12,
                          dropout=0.3, **_BEST_EPOCH_CASES[case])
        return train(ds, cfg, capture_adjacency=True)

    long = run(12)
    best = long.best_epoch
    assert long.status == "ok" and 0 < best < long.epochs_run - 1
    short = run(best + 1)
    assert short.best_epoch == best
    assert short.test_accuracy_at_best_val == long.test_accuracy_at_best_val
    assert json.dumps(short.to_dict()["graph_stats"], sort_keys=True) == \
        json.dumps(long.to_dict()["graph_stats"], sort_keys=True)
    got, want = short.learned_adjacency, long.learned_adjacency
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)
    np.testing.assert_array_equal(got.vals.values.view(np.uint64),
                                  want.vals.values.view(np.uint64))


def test_nan_loss_marks_trial_failed(monkeypatch):
    def poisoned(*args, **kwargs):
        return T.constant([[np.nan]])

    monkeypatch.setattr(ugsl.training, "total_objective", poisoned)
    res = run_base_model(make_fixture(), max_epochs=10)
    assert res.status == "failed"
    assert "non-finite loss at epoch 0" in res.error


def test_invalid_config_rejected(blobs):
    cfg = base_config(blobs)
    cfg.lr = 5.0
    with pytest.raises(ConfigurationError, match="lr"):
        train(blobs, cfg)


def test_base_config_rejects_an_unknown_override():
    with pytest.raises(TypeError, match="max_epoch"):
        base_config(make_fixture(), max_epoch=5)


def test_a_spectral_pe_dim_above_n_is_refused_before_the_bootstrap_graph(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap kNN graph built before the check")

    monkeypatch.setattr(ugsl.training, "knn_graph", refuse)
    ds = make_fixture()  # 4 nodes
    cfg = base_config(ds, positional=PositionalConfig(kind="spectral",
                                                      pe_dim=16))
    with pytest.raises(ConfigurationError, match="positional.pe_dim"):
        train(ds, cfg)


def test_memory_is_checked_before_the_input_features_are_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("input features built before the memory check")

    monkeypatch.setattr(ugsl.training, "build_input_features", refuse)
    ds = make_blobs(n=40, d=8)
    cfg = base_config(ds, positional=PositionalConfig(kind="wl",
                                                      pe_dim=2 * 10 ** 12))
    with pytest.raises(ResourceError, match="trial 0"):
        train(ds, cfg)


def test_the_memory_estimate_counts_the_att_heads_copies():
    # each head holds a weighted and a normalized n x d copy of the input
    n, d, heads = 300, 16, 10 ** 7
    cfg = GslConfig(scorer=ScorerConfig(kind="att", heads=heads))
    assert ugsl.training._largest_arrays(cfg, n, d, d) >= 2 * heads * n * d


def test_trial_result_round_trips():
    res = run_base_model(make_fixture(), seed=5, max_epochs=5)
    back = TrialResult.from_dict(json.loads(json.dumps(res.to_dict())))
    assert back.to_dict() == res.to_dict()


def test_unsupervised_and_regularized_config_trains(blobs):
    from ugsl.config import ContrastiveConfig, DaeConfig, ObjectiveConfig
    ds = make_blobs(n=60, d=8, seed=4)
    cfg = base_config(ds, seed=1, max_epochs=8, patience=8)
    cfg.objective = ObjectiveConfig(
        lambda_sparse_connect=0.5, lambda_closeness=1.0,
        unsupervised=("dae", "contrastive"),
        dae=DaeConfig(mask_rate=0.3, hidden=16),
        contrastive=ContrastiveConfig(mask_rate=0.2, temperature=0.5, tau=0.1))
    res = train(ds, cfg)
    assert res.status == "ok"
    assert np.isfinite(res.train_losses).all()


# Shapes in the order a trial trains its tensors: scorers, encoder layers,
# then the dae and contrastive heads (n=8, d=5, hidden 4, 3 classes, two
# per-layer scorers, gin encoder, dae hidden 6).
_ENCODERS_AND_HEADS = [(5, 4), (1, 4), (4, 4), (1, 4), (4, 3), (1, 3),
                       (3, 3), (1, 3), (5, 6), (1, 6), (6, 5), (1, 5),
                       (5, 4), (1, 4), (4, 4), (1, 4), (4, 4), (1, 4),
                       (4, 4), (1, 4)]
_TRAINABLE_SHAPES = {
    "fp": [(8, 8), (8, 8)],
    "att": [(1, 5), (1, 5), (1, 4), (1, 4)],
    "mlp": [(5, 3), (1, 3), (3, 3), (1, 3), (4, 3), (1, 3), (3, 3), (1, 3)],
}
_SCORERS = {"fp": ScorerConfig(kind="fp", init="glorot"),
            "att": ScorerConfig(kind="att", heads=2),
            "mlp": ScorerConfig(kind="mlp", mlp_depth=2, mlp_width=3,
                                init="glorot")}


def _reachable_leaves(obj, found: dict) -> dict:
    """Every requires_grad tensor reachable through any attribute,
    sequence or mapping; independent of T.trainable's walk."""
    if isinstance(obj, T.Tensor):
        if obj.requires_grad:
            found[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable_leaves(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _reachable_leaves(item, found)
    elif hasattr(obj, "__dict__"):
        _reachable_leaves(vars(obj), found)
    return found


@pytest.mark.parametrize("scorer", sorted(_SCORERS))
def test_trainable_lists_every_leaf_once_in_field_order(scorer):
    n, d, classes = 8, 5, 3
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(n, d))
    labels = np.arange(n) % classes
    cfg = GslConfig(adjacency_mode="per_layer", hidden_units=4,
                    scorer=_SCORERS[scorer],
                    sparsifier=SparsifierConfig(kind="knn", k=2),
                    encoder=EncoderConfig(kind="gin"),
                    objective=ObjectiveConfig(unsupervised=("dae",
                                                            "contrastive"),
                                              dae=DaeConfig(hidden=6)))
    init_rng = np.random.default_rng(1)
    stack = LayerStack.build(cfg, n, d, classes, x0, init_rng)
    state = init_objective_state(cfg.objective, n, d, cfg.hidden_units,
                                 init_rng)
    params = T.trainable(stack, state)

    assert len({id(p) for p in params}) == len(params)
    assert [p.shape for p in params] == \
        _TRAINABLE_SHAPES[scorer] + _ENCODERS_AND_HEADS
    assert set(_reachable_leaves([stack, state], {})) == \
        {id(p) for p in params}
    logits, adj = stack.forward(x0, rng, training=True)
    T.backward(total_objective(logits, labels, np.ones(n, dtype=bool), adj,
                               None, x0, cfg.objective, state, rng,
                               "continuous", cfg.activation))
    assert all(p.grad is not None for p in params)


def test_a_per_layer_mlp_encoder_trial_scores_only_the_last_layer(
        monkeypatch, caplog):
    # an MLP encoder reads no graph, so the first layer's graph would be
    # read by nothing and its scorer's parameters would get no gradient
    ds = make_blobs(n=60, d=8, seed=2)
    cfg = base_config(ds, max_epochs=3, adjacency_mode="per_layer",
                      encoder=EncoderConfig(kind="mlp"),
                      objective=ObjectiveConfig(lambda_sparse_connect=1.0))
    calls = {"score": 0, "forward": 0}
    score, forward = ugsl.layers.score, LayerStack.forward

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ugsl.layers, "score", counted("score", score))
    monkeypatch.setattr(LayerStack, "forward", counted("forward", forward))
    with caplog.at_level("WARNING"):
        result = train(ds, cfg)
    assert result.status == "ok"
    assert result.graph_stats is not None
    assert not any("no gradient" in r.getMessage() for r in caplog.records)
    assert calls["score"] == calls["forward"] == 2 * result.epochs_run


def test_a_base_trial_holds_one_n_by_n_array_at_a_time():
    # the scores, the scorer's gradient and the statistics' Laplacian are
    # each 8 n^2 bytes, and none outlives its phase; recording the scores
    # whole, with a dense gather gradient, peaked at 3.41 x 8 n^2
    n = 1500
    ds = make_blobs(n=n, d=16, num_classes=5)
    tracemalloc.start()
    try:
        result = ugsl.training.train(ds, base_config(ds, max_epochs=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "ok"
    assert peak < 2 * 8 * n * n


def test_a_dense_bernoulli_graph_forms_no_edge_by_width_arrays():
    # epsilon 0.7 keeps about a fifth of all pairs, so spmm propagates by
    # BLAS through the scattered n x n matrix: 12.6 x 8 n^2 at its peak,
    # against 28.6 when every spmm formed E x d cell keys and terms
    n = 1000
    ds = make_blobs(n=n, d=16, num_classes=5)
    cfg = base_config(ds, max_epochs=2, sparsifier=SparsifierConfig(
        kind="bernoulli", epsilon=0.7, temperature=0.5))
    tracemalloc.start()
    try:
        result = ugsl.training.train(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "ok"
    assert peak < 16 * 8 * n * n
