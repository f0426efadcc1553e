"""End-to-end training of one configuration.

Full-batch epochs with Adam and early stopping on validation accuracy.
Evaluation always runs with training=False (dropout off, deterministic
sparsifier noise), so it draws nothing: the evaluation forward of the
best-validation epoch is kept, and its logits give the test metric and
its edge list the graph statistics. A non-finite loss aborts the trial and
marks the result failed instead of raising.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import (GslConfig, ScorerConfig, SparsifierConfig, from_record,
                     to_record)
from .data import Dataset, bootstrap_k, knn_graph
from .errors import NumericError, check_memory
from .layers import LayerStack
from .objectives import init_objective_state, total_objective
from .positional import build_input_features
from .stats import GraphStats, compute_stats

logger = logging.getLogger(__name__)


@dataclass
class TrialResult:
    config: GslConfig
    trial_id: int = 0
    dataset: str = "dataset"
    status: str = "ok"
    best_val_accuracy: float = 0.0
    test_accuracy_at_best_val: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0
    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    graph_stats: GraphStats | None = None
    error: str | None = None
    # set only when train() is asked to capture it; never serialized
    learned_adjacency: T.Edges | None = field(
        default=None, metadata={"record": False})

    def to_dict(self) -> dict:
        return to_record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrialResult":
        return from_record(cls, d, "trial")


def evaluate(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked nodes whose argmax (ties to the lowest class)
    matches the label."""
    pred = np.argmax(logits, axis=1)
    mask = np.asarray(mask, dtype=bool)
    return float((pred[mask] == labels[mask]).mean())


def _largest_arrays(config: GslConfig, n: int, input_dim: int,
                    feature_dim: int) -> int:
    """The float64 entries of a trial's largest arrays, a lower bound on
    what it holds at once: the n x input_dim input, the n x n scores, an
    att scorer's weighted and normalized n x input_dim copy per head and,
    for each of its widest linear maps (fan_in, fan_out), the weights four
    times (value, gradient, two Adam moments) and the n x fan_out output
    twice (before and after its activation or normalization)."""
    scorer = config.scorer
    maps = [(input_dim, config.hidden_units)]
    if scorer.kind == "mlp":
        width = input_dim if scorer.mlp_width is None else scorer.mlp_width
        maps.append((input_dim, width))
        maps += [(width, width)] * (scorer.mlp_depth - 1)
    if "dae" in config.objective.unsupervised:
        maps.append((feature_dim, config.objective.dae.hidden))
    entries = n * input_dim + n * n + sum(
        4 * fan_in * fan_out + 2 * n * fan_out for fan_in, fan_out in maps)
    if scorer.kind == "att":
        entries += 2 * scorer.heads * n * input_dim
    if scorer.kind == "fp":  # the scores are a parameter
        entries += 3 * n * n
    return entries


def train(dataset: Dataset, config: GslConfig, trial_id: int = 0,
          capture_adjacency: bool = False) -> TrialResult:
    """Train one configuration to its early-stopping point."""
    config.validate(n_nodes=dataset.n)
    dataset.validate()
    rng = np.random.default_rng(config.seed)
    result = TrialResult(config=config, trial_id=trial_id, dataset=dataset.name)

    features = dataset.graph.features
    input_dim = features.shape[1]
    if config.positional.kind != "none":
        input_dim += config.positional.pe_dim
    check_memory(8 * _largest_arrays(config, dataset.n, input_dim,
                                     features.shape[1]),
                 f"trial {trial_id}")
    x0 = build_input_features(features, config.positional)
    # the bootstrap structure's one reader is the closeness regularizer
    initial_adj = None
    if config.objective.lambda_closeness > 0:
        initial_adj = knn_graph(features, bootstrap_k(dataset.n))
    stack = LayerStack.build(config, dataset.n, x0.shape[1],
                             dataset.num_classes, x0, rng)
    obj_state = init_objective_state(config.objective, dataset.n, features.shape[1],
                                     config.hidden_units, rng)
    params = T.trainable(stack, obj_state)
    adam = T.AdamState.for_params(params, lr=config.lr,
                                  weight_decay=config.weight_decay)

    best_val = -1.0
    best_epoch = -1
    epochs_without_improvement = 0

    # the first layer's graph under the current parameters, shared by the
    # evaluation forward after each Adam step and the next training forward
    first = None
    for epoch in range(config.max_epochs):
        logits, adj = stack.forward(x0, rng, training=True, first=first)
        loss = total_objective(logits, dataset.labels, dataset.train_mask,
                               adj, initial_adj, features, config.objective,
                               obj_state, rng, dataset.feature_kind,
                               config.activation)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            result.status = "failed"
            result.error = (f"non-finite loss at epoch {epoch} "
                            f"(config {config.config_hash()})")
            break
        T.zero_grads(params)
        T.backward(loss)
        T.adam_step(params, adam)
        if obj_state.contrastive is not None:
            obj_state.contrastive.anchor.update(adj)

        # the old state's graph and outputs are read no more: free them
        # before the new state's are computed
        first = eval_logits = eval_adj = None
        first = stack.graph(0, T.constant(x0))
        eval_logits, eval_adj = stack.forward(x0, rng, training=False,
                                              first=first)
        val_acc = evaluate(eval_logits.values, dataset.labels, dataset.val_mask)
        result.train_losses.append(loss_value)
        result.val_accuracies.append(val_acc)

        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            # the best parameters' outputs, detached from the autodiff record
            best_logits = eval_logits.values
            best_adj = eval_adj.with_vals(T.constant(eval_adj.vals.values))
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break
    result.epochs_run = len(result.val_accuracies)
    if result.status == "failed":
        return result
    # the last records hold the scorers' n x d embeddings: free them before
    # the statistics build their n x n Laplacian
    first = eval_logits = eval_adj = None

    result.best_val_accuracy = best_val
    result.best_epoch = best_epoch
    result.test_accuracy_at_best_val = evaluate(best_logits, dataset.labels,
                                                dataset.test_mask)
    try:
        result.graph_stats = compute_stats(best_adj)
    except NumericError as err:
        logger.warning("trial %d: graph statistics skipped (%s)", trial_id, err)
        result.graph_stats = None
    if capture_adjacency:
        result.learned_adjacency = best_adj
    return result


def base_config(dataset: Dataset, seed: int = 0, **overrides) -> GslConfig:
    """The minimal reference model: raw features, identity-initialized MLP
    scorer (so the initial graph is the feature kNN graph), top-k
    sparsifier with the bootstrap k (clamped to n-1, so tiny fixtures
    still run), no processor, GCN encoder, supervised loss only.
    `overrides` are GslConfig fields; an unknown name raises TypeError."""
    defaults = dict(
        seed=seed,
        scorer=ScorerConfig(kind="mlp", mlp_depth=1, init="identity"),
        sparsifier=SparsifierConfig(kind="knn", k=bootstrap_k(dataset.n)),
    )
    return GslConfig(**{**defaults, **overrides})


def run_base_model(dataset: Dataset, seed: int = 0,
                   **overrides) -> TrialResult:
    return train(dataset, base_config(dataset, seed=seed, **overrides))
