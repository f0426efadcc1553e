"""Acceptance suite. Each criterion prints one PASS/FAIL line."""

import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ugsl.tensor as T
from ugsl import cli, layers, search
from ugsl.config import (ContrastiveConfig, DaeConfig, EncoderConfig,
                         GslConfig, ObjectiveConfig, ProcessorConfig,
                         ScorerConfig, SparsifierConfig)
from ugsl.data import (Dataset, Graph, knn_graph, load_dataset, make_blobs,
                       save_dataset)
from ugsl.layers import LayerStack
from ugsl.objectives import (init_objective_state, nt_xent, reg_closeness,
                             reg_log_barrier, reg_smoothness,
                             reg_sparse_connect, total_objective)
from ugsl.spectral import normalized_laplacian, smallest_laplacian_eigenpairs
from ugsl.stats import compute_stats
from ugsl.training import base_config, train

from oracles import (DENSE_ACTIVATIONS, SPMM_ROUTES, adjacency_regularizers,
                     check_gradients, dense_lapack_statistics, dense_process,
                     expected_sparsified, force_spmm_route, gcn_propagate,
                     gin_aggregate, topk_rows)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {tag}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness for every differentiable component

def _tiny_dataset(seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    n, d = 6, 3
    features = rng.normal(size=(n, d))
    return Dataset(
        graph=Graph(features=features),
        labels=rng.integers(0, 2, size=n).astype(np.int64),
        num_classes=2,
        train_mask=np.array([True] * 4 + [False] * 2),
        val_mask=np.array([False] * 4 + [True, False]),
        test_mask=np.array([False] * 5 + [True]),
        name="tiny6",
    )


def _fd_config(**overrides) -> GslConfig:
    cfg = GslConfig(
        dropout=0.0,
        hidden_units=5,
        scorer=ScorerConfig(kind="fp", init="glorot"),
        sparsifier=SparsifierConfig(kind="knn", k=2),
        processor=ProcessorConfig(mode="none"),
        encoder=EncoderConfig(kind="gcn"),
    )
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


# every option of every searched component but the input encoding, on the
# tiny dataset (test_criterion_1_covers_every_component_option)
FD_CASES = {
    "scorer=fp": _fd_config(),
    "scorer=att": _fd_config(scorer=ScorerConfig(kind="att", heads=2)),
    # the second layer's scorer reads the first layer's output, so
    # gram_at's gradient reaches x_prev through three heads
    "scorer=att3 per_layer": _fd_config(
        scorer=ScorerConfig(kind="att", heads=3),
        adjacency_mode="per_layer"),
    "scorer=mlp": _fd_config(scorer=ScorerConfig(kind="mlp", mlp_depth=2,
                                                 mlp_width=3,
                                                 init="glorot")),
    "sparsifier=dknn": _fd_config(
        sparsifier=SparsifierConfig(kind="dknn", k=2, dilation=2)),
    "sparsifier=random_dknn": _fd_config(
        sparsifier=SparsifierConfig(kind="random_dknn", k=2, dilation=2)),
    "sparsifier=epsnn": _fd_config(
        sparsifier=SparsifierConfig(kind="epsnn", epsilon=0.2)),
    "sparsifier=bernoulli": _fd_config(
        sparsifier=SparsifierConfig(kind="bernoulli", temperature=0.7,
                                    epsilon=0.05)),
    "processor=symmetrize": _fd_config(
        processor=ProcessorConfig(mode="symmetrize")),
    "processor=activation": _fd_config(
        processor=ProcessorConfig(mode="activation")),
    "processor=activation_symmetrize": _fd_config(
        processor=ProcessorConfig(mode="activation_symmetrize")),
    "encoder=gin": _fd_config(encoder=EncoderConfig(kind="gin")),
    "encoder=mlp": _fd_config(encoder=EncoderConfig(kind="mlp")),
    "reg=closeness": _fd_config(
        objective=ObjectiveConfig(lambda_closeness=1.0)),
    "reg=smoothness": _fd_config(
        objective=ObjectiveConfig(lambda_smoothness=1.0)),
    "reg=sparse_connect": _fd_config(
        objective=ObjectiveConfig(lambda_sparse_connect=1.0)),
    "reg=log_barrier": _fd_config(
        objective=ObjectiveConfig(lambda_log_barrier=0.5)),
    "unsup=dae": _fd_config(
        objective=ObjectiveConfig(unsupervised=("dae",),
                                  dae=DaeConfig(mask_rate=0.4, hidden=6))),
    "unsup=contrastive": _fd_config(
        objective=ObjectiveConfig(
            unsupervised=("contrastive",),
            contrastive=ContrastiveConfig(mask_rate=0.2))),
}

# every sparsifier, processor mode, processor activation and encoder, the
# encoder on both sides of its narrow-width rule (5 features to a fan-out,
# `hidden_units`, of 3 and of 8), with every regularizer on
# (test_criterion_2_covers_every_component_option)
ORACLE_CASES = {
    f"{sparsifier.kind} {mode} {activation} {encoder} "
    f"fan_out={fan_out}": GslConfig(
        activation=activation,
        hidden_units=fan_out,
        sparsifier=sparsifier,
        processor=ProcessorConfig(mode=mode),
        encoder=EncoderConfig(kind=encoder),
        objective=ObjectiveConfig(lambda_closeness=1.0, lambda_smoothness=1.0,
                                  lambda_sparse_connect=1.0,
                                  lambda_log_barrier=1.0))
    for sparsifier in (
        SparsifierConfig(kind="knn", k=4),
        SparsifierConfig(kind="dknn", k=3, dilation=3),
        SparsifierConfig(kind="random_dknn", k=3, dilation=3),
        SparsifierConfig(kind="epsnn", epsilon=0.3),
        SparsifierConfig(kind="bernoulli", epsilon=0.6, temperature=0.5))
    for mode in ("none", "symmetrize", "activation", "activation_symmetrize")
    for activation in ("relu", "tanh")
    for encoder in ("gcn", "gin", "mlp")
    for fan_out in (3, 8)
}


# graph families for the statistics oracle, drawn at 20-69 nodes from
# seeds 0-3 (criterion 2)
def _weights(rng, n):
    return rng.uniform(0.1, 2.0, size=(n, n))


def _connected(rng, n):
    adj = np.where(rng.random((n, n)) < 0.1, _weights(rng, n), 0.0)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = 1.0  # a directed path holds it together
    adj[rng.random((n, n)) < 0.05] = -0.5  # nonpositive weights are no edges
    return adj


def _disconnected(rng, n):
    adj = np.where(rng.random((n, n)) < 0.2, _weights(rng, n), 0.0)
    half = n // 2
    adj[:half, half:] = adj[half:, :half] = 0.0
    adj[n - 1, :] = adj[:, n - 1] = 0.0  # and an isolated node
    return adj


def _reducible_directed(rng, n):
    # every row has edges, but the first half never reaches the second
    adj = np.where(rng.random((n, n)) < 0.15, _weights(rng, n), 0.0)
    half = n // 2
    adj[:half, half:] = 0.0
    adj[np.arange(n), rng.integers(0, half, size=n)] = 1.0
    return adj


def _empty_rows(rng, n):
    adj = np.where(rng.random((n, n)) < 0.15, _weights(rng, n), 0.0)
    adj[rng.random(n) < 0.3, :] = 0.0
    return adj


def _self_loops(rng, n):
    adj = _connected(rng, n)
    np.fill_diagonal(adj, rng.uniform(0.0, 3.0, size=n))
    return adj


def _dense_epsnn(rng, n):
    # symmetric weights above a low threshold: most pairs are edges
    w = rng.random((n, n))
    w = (w + w.T) / 2.0
    return np.where(w > 0.2, w, 0.0)


GRAPH_FAMILIES = {"connected": _connected, "disconnected": _disconnected,
                  "reducible_directed": _reducible_directed,
                  "empty_rows": _empty_rows, "self_loops": _self_loops,
                  "dense_epsnn": _dense_epsnn}


def _check_gradients(dataset: Dataset, cfg: GslConfig, label: str) -> float:
    """Worst relative error between autodiff and central differences over
    every parameter of the model built from cfg."""
    init_rng = np.random.default_rng(3)
    x0 = dataset.graph.features
    a0 = T.Edges.from_dense(
        np.abs(np.random.default_rng(4).normal(size=(6, 6))))
    stack = LayerStack.build(cfg, dataset.n, x0.shape[1], dataset.num_classes,
                             x0, init_rng)
    obj_state = init_objective_state(cfg.objective, dataset.n, x0.shape[1],
                                     cfg.hidden_units, init_rng)

    def loss():
        rng = np.random.default_rng(7)  # frozen stochasticity per evaluation
        logits, adj = stack.forward(x0, rng, training=True)
        return total_objective(logits, dataset.labels, dataset.train_mask,
                               adj, a0, x0, cfg.objective, obj_state, rng,
                               dataset.feature_kind, cfg.activation)

    return check_gradients(loss, T.trainable(stack, obj_state), label=label)


def test_criterion_1_gradient_correctness(monkeypatch):
    started = time.time()
    dataset = _tiny_dataset()
    worst_of_all = 0.0
    calls = Counter()
    for route in SPMM_ROUTES:
        routed = force_spmm_route(monkeypatch, route)
        for label, cfg in FD_CASES.items():
            worst_of_all = max(worst_of_all, _check_gradients(
                dataset, cfg, f"{label} on the {route} route"))
        calls += routed
    elapsed = time.time() - started
    _report("1 gradient-correctness",
            worst_of_all < 1e-4 and elapsed < 60.0
            and calls["dense"] > 0 and calls["edge"] > 0,
            f"{len(FD_CASES)} cases x {len(SPMM_ROUTES)} spmm routes, "
            f"spmm calls {calls['dense']} dense / {calls['edge']} edge, "
            f"worst rel err {worst_of_all:.2e}, {elapsed:.1f}s")


def _uncovered(cases: dict, components) -> dict:
    """The options that `search.COMPONENT_TABLE` reads off SearchSpace()
    for each named component, every member of a subset option, that no
    config of `cases` has: {component name: sorted options}."""
    space = search.SearchSpace()
    missing = {}
    for component in search.COMPONENT_TABLE:
        if component.name not in components:
            continue
        options = set(getattr(space, component.space_field))
        covered = {component.read(cfg) for cfg in cases.values()}
        if component.subsets:
            options, covered = set().union(*options), set().union(*covered)
        if options - covered:
            missing[component.name] = sorted(options - covered)
    return missing


def test_criterion_1_covers_every_component_option():
    """Every option of every component but the input (positional encodings
    have no gradient) is some FD_CASES config's."""
    components = set(search.COMPONENTS) - {"input"}
    assert _uncovered(FD_CASES, components) == {}


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence

def _oracle_table_failures(cases: dict, monkeypatch) -> tuple:
    """Compare every case with the dense oracles at 1e-10 on both spmm
    routes. The sparsifier, the processor and the regularizers run once per
    (sparsifier, mode, activation, regularizers) and do not call spmm; each
    case's encoder then runs with the case's activation on each forced
    route, and every gcn/gin spmm call must take it. Returns the failures,
    each labelled by its case (and route), and the spmm calls by route."""
    n, d = 37, 5
    rng = np.random.default_rng(17)
    scores = rng.normal(size=(n, n))
    x = rng.normal(size=(n, d))
    a0 = knn_graph(x, 6)
    regularizers = {"closeness": lambda adj: reg_closeness(adj, a0),
                    "smoothness": lambda adj: reg_smoothness(adj, x),
                    "sparse_connect": reg_sparse_connect,
                    "log_barrier": reg_log_barrier}
    failures = []

    def check(label, got, want):
        error = np.abs(np.subtract(got, want)).max()
        if not error <= 1e-10:
            failures.append(f"{label}: off by {error:.1e}")

    stages = {}
    for label, cfg in cases.items():
        key = (repr(cfg.sparsifier), cfg.processor.mode, cfg.activation,
               cfg.objective.regularizer_set())
        stages.setdefault(key, []).append((label, cfg))
    encodes = []  # (label, case, processed graph, params, oracle)
    for group in stages.values():
        cfg = group[0][1]
        stage = f"{cfg.sparsifier.kind} {cfg.processor.mode} {cfg.activation}"
        adj = layers.sparsify(layers.Scores.of(T.constant(scores)),
                              cfg.sparsifier, rng=np.random.default_rng(1),
                              training=cfg.sparsifier.kind == "random_dknn")
        dense = adj.to_dense()
        try:
            check(f"{stage} sparsify", dense,
                  expected_sparsified(cfg.sparsifier, scores, dense))
        except AssertionError as err:
            failures.append(f"{stage} sparsify: {err}")
        processed = layers.process(adj, cfg.processor.mode, cfg.activation)
        want = dense_process(dense, cfg.processor.mode, cfg.activation)
        check(f"{stage} process", processed.to_dense(), want)
        regs = adjacency_regularizers(want, a0.to_dense(), x)
        for name in cfg.objective.regularizer_set():
            check(f"{stage} {name}", regularizers[name](processed).item(),
                  regs[name])
        for label, cfg in group:
            params = layers.init_encoder_layer(cfg.encoder.kind, d,
                                               cfg.hidden_units,
                                               np.random.default_rng(2))
            (w, b), *rest = [(w.values, b.values) for w, b in params.weights]
            if cfg.encoder.kind == "gcn":
                expected = gcn_propagate(want, x) @ w + b
            elif cfg.encoder.kind == "gin":
                (w2, b2), = rest
                act = DENSE_ACTIVATIONS[cfg.activation]
                expected = act(gin_aggregate(want, x) @ w + b) @ w2 + b2
            else:
                expected = x @ w + b
            encodes.append((label, cfg, processed, params, expected))

    # a leaf input, so that every spmm call records the backward that
    # names its route
    x_leaf = T.parameter(x)
    calls = Counter()
    for route in SPMM_ROUTES:
        routed = force_spmm_route(monkeypatch, route)
        for label, cfg, processed, params, expected in encodes:
            label = f"{label} on the {route} route"
            before = Counter(routed)
            out = layers.encode(x_leaf, processed, params, cfg.activation,
                                apply_activation=False).values
            taken = routed - before
            if cfg.encoder.kind != "mlp" and set(taken) != {route}:
                failures.append(f"{label}: spmm calls {dict(taken)}")
            check(label, out, expected)
        calls += routed
    return failures, calls


def _stats_failures(label: str, adj: np.ndarray) -> list:
    """compute_stats on the edge list of `adj` against the dense LAPACK
    oracle: integer fields exact, float fields within 1e-9 relative, and
    the algebraic connectivity within 1e-9 relative or 1e-12 absolute,
    since LAPACK's value for a disconnected graph is 0 up to rounding."""
    got = compute_stats(T.Edges.from_dense(adj))
    want = dense_lapack_statistics(adj)
    if want is None:
        return [f"{label}: edgeless"]
    failures = []
    for name, value in want.items():
        slack = 0 if isinstance(value, int) else 1e-9 * abs(value)
        if name == "algebraic_connectivity":
            slack = max(slack, 1e-12)
        if not abs(getattr(got, name) - value) <= slack:
            failures.append(f"{label} {name}: {getattr(got, name)} vs {value}")
    return failures


def test_criterion_2_oracle_equivalence(monkeypatch):
    started = time.time()
    failures = []
    rng = np.random.default_rng(20)
    for trial in range(200):
        scores = rng.normal(size=(20, 20))
        k = int(rng.integers(2, 6))
        knn = layers.sparsify(layers.Scores.of(T.constant(scores)),
                              SparsifierConfig(kind="knn", k=k)).to_dense()
        expected = topk_rows(scores, k)
        if not (np.array_equal(knn != 0, expected)
                and np.array_equal(knn[expected], scores[expected])):
            failures.append(f"knn matrix {trial}")
        dilation = int(rng.integers(2, 4))
        kd = max(1, min(k, 19 // dilation))
        dknn = layers.sparsify(layers.Scores.of(T.constant(scores)),
                               SparsifierConfig(kind="dknn", k=kd,
                                                dilation=dilation)).to_dense()
        expected_d = topk_rows(scores, kd, dilation=dilation)
        if not np.array_equal(dknn != 0, expected_d):
            failures.append(f"dknn matrix {trial}")

    stat_graphs = {}
    graph_rng = np.random.default_rng(21)
    while len(stat_graphs) < 100:
        weights = graph_rng.uniform(0.1, 2.0, size=(10, 10))
        mask = graph_rng.random((10, 10)) < 0.35
        adj = np.triu(np.where(mask, weights, 0.0), 1)
        if adj.any():
            stat_graphs[f"stat graph {len(stat_graphs)}"] = adj + adj.T
    for family, make in GRAPH_FAMILIES.items():
        for seed in range(4):
            family_rng = np.random.default_rng(seed)
            stat_graphs[f"{family} graph {seed}"] = make(
                family_rng, int(family_rng.integers(20, 70)))
    for label, adj in stat_graphs.items():
        failures += _stats_failures(label, adj)

    table_failures, calls = _oracle_table_failures(ORACLE_CASES, monkeypatch)
    failures += table_failures
    elapsed = time.time() - started
    _report("2 oracle-equivalence",
            not failures and elapsed < 60.0
            and calls["dense"] > 0 and calls["edge"] > 0,
            f"{len(ORACLE_CASES)} cases x {len(SPMM_ROUTES)} spmm routes, "
            f"spmm calls {calls['dense']} dense / {calls['edge']} edge, "
            f"200 sparsifier matrices + {len(stat_graphs)} stat graphs, "
            f"{elapsed:.1f}s" + "".join(f"; {f}" for f in failures))


# what ORACLE_CASES must cover: the other four components are checked
# elsewhere (test_criterion_2_covers_every_component_option)
ORACLE_COMPONENTS = ("sparsifier", "processor", "encoder", "regularizers")


def test_criterion_2_covers_every_component_option():
    """Every sparsifier kind (the ones random search excludes too), every
    processor mode, every encoder kind and every regularizer is some
    ORACLE_CASES config's. The other components are checked elsewhere:
    the scorers by `test_layers`' bit-for-bit dense constructions, the
    input encodings by `test_positional`'s WL and `eigh` oracles, and the
    unsupervised losses and adjacency modes are compositions of the stages
    checked here."""
    assert _uncovered(ORACLE_CASES, ORACLE_COMPONENTS) == {}


def test_criterion_2_guard_reports_a_missing_option():
    without_epsnn = {label: cfg for label, cfg in ORACLE_CASES.items()
                     if cfg.sparsifier.kind != "epsnn"}
    assert _uncovered(without_epsnn, ORACLE_COMPONENTS) == \
        {"sparsifier": ["epsnn"]}


# ---------------------------------------------------------------------------
# criterion 3: closed forms, exact to 1e-9

def test_criterion_3_closed_forms():
    checks = []

    rng = np.random.default_rng(30)
    a = rng.normal(size=(6, 6))
    sym = layers.process(T.Edges.from_dense(a), "symmetrize").to_dense()
    act_sym = layers.process(T.Edges.from_dense(a),
                             "activation_symmetrize").to_dense()
    checks.append(np.abs(sym - sym.T).max() <= 1e-9)
    checks.append(np.abs(act_sym - act_sym.T).max() <= 1e-9)

    scores = rng.normal(size=(5, 5))
    relaxed = layers.sparsify(
        layers.Scores.of(T.constant(scores)),
        SparsifierConfig(kind="bernoulli", temperature=1.0, epsilon=0.01),
        training=False).to_dense()
    squashed = 1.0 / (1.0 + np.exp(-scores))
    keep = squashed > 0.01
    np.fill_diagonal(keep, False)
    checks.append(np.abs(relaxed[keep] - squashed[keep]).max() <= 1e-9)

    barrier = reg_log_barrier(T.Edges.from_dense(np.ones((2, 2)))).item()
    checks.append(abs(barrier - (-2.0 * np.log(2.0))) <= 1e-9)

    emb = np.tile([[0.3, -1.2, 2.0]], (7, 1))
    ln_n = nt_xent(T.constant(emb), T.constant(emb), temperature=0.4).item()
    checks.append(abs(ln_n - np.log(7.0)) <= 1e-9)

    lap = normalized_laplacian(np.array([0, 1]), np.array([1, 0]), 2)
    values, _ = smallest_laplacian_eigenpairs(lap, 2)
    checks.append(abs(values[0] - 0.0) <= 1e-9 and abs(values[1] - 2.0) <= 1e-9)

    _report("3 closed-forms", all(checks),
            f"{sum(checks)}/{len(checks)} identities exact")


# ---------------------------------------------------------------------------
# criteria 4 and 7: end-to-end learning and bit determinism

@pytest.fixture(scope="module")
def blobs_dataset():
    return make_blobs(n=300, d=16, num_classes=3, seed=7)


@pytest.fixture(scope="module")
def criterion4_results(blobs_dataset):
    cfg = base_config(blobs_dataset, seed=0, max_epochs=200)
    started = time.time()
    first = train(blobs_dataset, cfg)
    elapsed = time.time() - started
    second = train(blobs_dataset, base_config(blobs_dataset, seed=0,
                                              max_epochs=200))
    return first, second, elapsed


def test_criterion_4_end_to_end_learning(criterion4_results):
    result, _, elapsed = criterion4_results
    ok = (result.status == "ok"
          and result.test_accuracy_at_best_val >= 0.90
          and result.epochs_run <= 200
          and result.train_losses[result.best_epoch]
          <= 0.5 * result.train_losses[0]
          and elapsed < 120.0)
    _report("4 end-to-end-learning", ok,
            f"test {result.test_accuracy_at_best_val:.3f}, "
            f"loss {result.train_losses[0]:.3f}->"
            f"{result.train_losses[result.best_epoch]:.3f}, "
            f"{result.epochs_run} epochs, {elapsed:.1f}s")


def test_criterion_7_determinism(criterion4_results):
    first, second, _ = criterion4_results
    same = json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)
    _report("7 determinism", same, "identical seeds give bit-identical results")


# ---------------------------------------------------------------------------
# criterion 5: search-harness consistency

def test_criterion_5_search_harness(blobs_dataset, tmp_path):
    started = time.time()
    space = search.default_search_space(max_epochs=120, patience=20)
    base_result = train(blobs_dataset,
                        base_config(blobs_dataset, seed=0, max_epochs=120,
                                    patience=20))
    table = search.random_search(blobs_dataset, space, n_trials=100,
                                 concurrency=4, master_seed=0)
    best = table.best_by_val()
    report = search.top_fraction_analysis(table)

    configs_a = [c.to_dict() for c in search.sample_trial_configs(
        space, 100, master_seed=0, input_dim=16)]
    configs_b = [c.to_dict() for c in search.sample_trial_configs(
        space, 100, master_seed=0, input_dim=16)]

    # end-to-end --jobs invariance through the CLI on a short budget
    manifest = save_dataset(make_blobs(n=60, d=8, seed=9), tmp_path / "ds")
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(dict(max_epochs=4, patience=4,
                                          k_options=[3, 5],
                                          hidden_options=[16],
                                          dae_hidden_range=[16, 32])))
    multisets = {}
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["random-search", "--data", str(manifest),
                         "--space", str(space_file), "--trials", "8",
                         "--jobs", jobs, "--out", str(out),
                         "--seed", "5"]) == 0
        lines = (out / "results.jsonl").read_text().splitlines()[1:]
        multisets[jobs] = sorted(
            json.dumps(json.loads(line)["config"], sort_keys=True)
            for line in lines)

    elapsed = time.time() - started
    ok = (len(table.trials) == 100
          and best is not None
          and best.best_val_accuracy >= base_result.best_val_accuracy
          and len(report["selected"]) == 5
          and configs_a == configs_b
          and multisets["1"] == multisets["4"]
          and elapsed < 900.0)
    _report("5 search-harness", ok,
            f"best val {0.0 if best is None else best.best_val_accuracy:.3f} "
            f"vs base {base_result.best_val_accuracy:.3f}, "
            f"{len(table.ok_trials())}/100 ok, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: paper-number reproduction (needs a locally provided Cora copy)

def _cora_manifest():
    env = os.environ.get("UGSL_CORA_MANIFEST")
    if env and Path(env).exists():
        return env
    bundled = Path(__file__).resolve().parent.parent / "data" / "cora" / \
        "manifest.json"
    return str(bundled) if bundled.exists() else None


@pytest.mark.skipif(_cora_manifest() is None,
                    reason="Cora dataset not available; provide "
                           "UGSL_CORA_MANIFEST to enable")
def test_criterion_6_cora_reproduction():
    dataset = load_dataset(_cora_manifest())
    assert dataset.n == 2708 and dataset.graph.num_features == 1433
    assert dataset.num_classes == 7
    base_result = train(dataset, base_config(dataset, seed=0))
    in_band = abs(base_result.test_accuracy_at_best_val - 0.653) <= 0.03
    fp_table = search.line_search(
        dataset, base_config(dataset, seed=1), "scorer", ["fp"],
        trials_per_option=3, master_seed=1)
    fp_val = fp_table.trials[0].best_val_accuracy
    directional = fp_val >= base_result.best_val_accuracy - 0.005
    _report("6 cora-reproduction", in_band and directional,
            f"base test {base_result.test_accuracy_at_best_val:.3f}, "
            f"fp val {fp_val:.3f}")
