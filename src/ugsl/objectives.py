"""Training objectives: supervised loss, adjacency regularizers, and the
denoising / contrastive unsupervised losses.

Regularizers (A is the learned adjacency, A0 the bootstrap graph, both
`tensor.Edges` lists, X the raw features):

    closeness       ||A0 - A||_F^2 = ||A0||^2 - 2<A0, A> + ||A||^2
    smoothness      (1/n^2) sum_ij A_ij ||x_i - x_j||^2
    sparse-connect  ||A||_F^2
    log-barrier     -1^T log(A 1)   (row sums clamped at 1e-12)

Each sum runs over the stored edges: closeness over the two supports and
their overlap, smoothness over the kept edges only, so no n x n matrix is
built. Smoothness gathers feature rows in blocks of at most
`errors.BLOCK_BYTES`.

The total objective sums, left to right: the supervised cross-entropy on
the training nodes, then each regularizer with a positive weight, in
`config.REGULARIZERS` order (closeness, smoothness, sparse-connect,
log-barrier) and scaled by its `lambda_<name>`, then each active
unsupervised loss at unit weight, in `config.UNSUPERVISED` order (dae,
contrastive). Unsupervised draws come from the trial rng in that order.

The denoising loss corrupts a random subset of feature entries and trains a
separate two-layer GCN to reconstruct them over the learned graph. The
contrastive loss compares the learned graph against a slow-moving anchor
blend of it (an edge list over the union of the supports seen so far,
less the entries that decayed below ANCHOR_FLOOR in magnitude), both with
edges and feature columns dropped, through a shared GCN and projection
head with a symmetric temperature-scaled InfoNCE objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import (UNSUPERVISED, ContrastiveConfig, DaeConfig,
                     ObjectiveConfig)
from .errors import ConfigurationError, row_blocks
from .layers import encode, init_encoder_layer
from .tensor import Edges, Tensor


# ---------------------------------------------------------------------------
# regularizers

def reg_closeness(adj: Edges, initial: Edges) -> Tensor:
    n = adj.n
    _, on_adj, on_initial = np.intersect1d(
        adj.rows * n + adj.cols, initial.rows * n + initial.cols,
        assume_unique=True, return_indices=True)
    a0 = initial.vals.values
    a0_at_adj = np.zeros(adj.vals.shape)
    a0_at_adj[on_adj] = a0[on_initial]
    # sum_e A_e (A_e - 2 A0_e) + ||A0||^2
    cross = T.sum_all(T.hadamard(
        adj.vals, T.add(adj.vals, T.constant(-2.0 * a0_at_adj))))
    return T.add(cross, T.constant((a0 * a0).sum()))


def reg_smoothness(adj: Edges, features: np.ndarray) -> Tensor:
    dists = np.empty((adj.rows.size, 1))  # ||x_i - x_j||^2 per edge (i, j)
    for block in row_blocks(adj.rows.size, features[0].nbytes):
        diff = features[adj.rows[block]] - features[adj.cols[block]]
        dists[block, 0] = np.einsum("ij,ij->i", diff, diff)
    n = features.shape[0]
    return T.scale(T.sum_all(T.hadamard(adj.vals, T.constant(dists))),
                   1.0 / (n * n))


def reg_sparse_connect(adj: Edges) -> Tensor:
    return T.sum_all(T.hadamard(adj.vals, adj.vals))


def reg_log_barrier(adj: Edges) -> Tensor:
    return T.scale(T.sum_all(T.log(T.row_sums(adj))), -1.0)


# ---------------------------------------------------------------------------
# denoising auto-encoder

DAE_NOISE_SIGMA = 0.1


@dataclass
class DaeState:
    config: DaeConfig
    layer1: object
    layer2: object


def init_dae(cfg: DaeConfig, input_dim: int, rng: np.random.Generator) -> DaeState:
    return DaeState(
        config=cfg,
        layer1=init_encoder_layer("gcn", input_dim, cfg.hidden, rng),
        layer2=init_encoder_layer("gcn", cfg.hidden, input_dim, rng),
    )


def masked_binary_cross_entropy(logits: Tensor, targets: np.ndarray,
                                mask: np.ndarray) -> Tensor:
    """Mean per-entry Bernoulli cross-entropy over the masked positions."""
    count = int(mask.sum())
    if count == 0:
        raise ConfigurationError("binary cross-entropy over an empty mask")
    return T.binary_cross_entropy(logits, targets,
                                  mask.astype(np.float64) / count)


def masked_mse(pred: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    count = int(mask.sum())
    if count == 0:
        raise ConfigurationError("mse over an empty mask")
    diff = T.add(pred, T.constant(-targets))
    masked = T.hadamard(T.hadamard(diff, diff),
                        T.constant(mask.astype(np.float64)))
    return T.scale(T.sum_all(masked), 1.0 / count)


def _draw_entry_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    mask = rng.random(shape) < rate
    if not mask.any():  # resample once, then give up
        mask = rng.random(shape) < rate
        if not mask.any():
            raise ConfigurationError(
                f"dae.mask_rate: rate {rate} selected no entries twice")
    return mask


def dae_loss(features: np.ndarray, learned_adj: Edges, dae: DaeState,
             rng: np.random.Generator, feature_kind: str,
             activation: str) -> Tensor:
    """Reconstruction loss of a separate GCN run on the corrupted features
    and the learned adjacency. Binary features are zero-masked and scored
    with per-entry cross-entropy; continuous features get additive Gaussian
    noise of standard deviation DAE_NOISE_SIGMA and squared error. The loss
    covers only the corrupted entries."""
    mask = _draw_entry_mask(features.shape, dae.config.mask_rate, rng)
    corrupted = features.copy()
    if feature_kind == "binary":
        corrupted[mask] = 0.0
    else:
        corrupted[mask] += rng.normal(0.0, DAE_NOISE_SIGMA,
                                      size=int(mask.sum()))
    h = encode(T.constant(corrupted), learned_adj, dae.layer1,
               activation=activation, apply_activation=True)
    recon = encode(h, learned_adj, dae.layer2, activation=activation,
                   apply_activation=False)
    if feature_kind == "binary":
        return masked_binary_cross_entropy(recon, features, mask)
    return masked_mse(recon, features, mask)


# ---------------------------------------------------------------------------
# contrastive loss with a bootstrapped anchor graph

# anchor entries smaller than this in magnitude are dropped after each
# blend, so an edge the learned graph left long ago stops being carried
ANCHOR_FLOOR = 1e-6


@dataclass
class AnchorState:
    """Slow-moving blend of the learned adjacency used as the second view:
    a coalesced edge list of constants that starts at the identity."""

    adjacency: Edges
    tau: float

    @classmethod
    def initial(cls, n: int, tau: float) -> "AnchorState":
        nodes = np.arange(n)
        identity = Edges(nodes, nodes, n, T.constant(np.ones((n, 1))))
        return cls(adjacency=identity, tau=tau)

    def update(self, learned: Edges) -> None:
        """tau * anchor + (1 - tau) * learned, on the union of supports,
        without the entries below ANCHOR_FLOOR in magnitude."""
        old = self.adjacency
        blend = np.concatenate([self.tau * old.vals.values,
                                (1.0 - self.tau) * learned.vals.values])
        merged = T.coalesce(np.concatenate([old.rows, learned.rows]),
                            np.concatenate([old.cols, learned.cols]),
                            old.n, T.constant(blend))
        values = merged.vals.values
        keep = np.abs(values.ravel()) >= ANCHOR_FLOOR
        self.adjacency = Edges(merged.rows[keep], merged.cols[keep], old.n,
                               T.constant(values[keep]))


@dataclass
class ContrastiveState:
    config: ContrastiveConfig
    encoder1: object
    encoder2: object
    proj1: object
    proj2: object
    anchor: AnchorState


def init_contrastive(cfg: ContrastiveConfig, n: int, input_dim: int,
                     hidden: int, rng: np.random.Generator) -> ContrastiveState:
    return ContrastiveState(
        config=cfg,
        encoder1=init_encoder_layer("gcn", input_dim, hidden, rng),
        encoder2=init_encoder_layer("gcn", hidden, hidden, rng),
        proj1=init_encoder_layer("mlp", hidden, hidden, rng),
        proj2=init_encoder_layer("mlp", hidden, hidden, rng),
        anchor=AnchorState.initial(n, cfg.tau),
    )


def nt_xent(x_emb: Tensor, y_emb: Tensor, temperature: float) -> Tensor:
    """Symmetric InfoNCE over row-aligned pairs with cosine similarity."""
    n = x_emb.shape[0]
    sims = T.matmul(T.normalize_rows(x_emb), T.transpose(T.normalize_rows(y_emb)))
    scaled = T.scale(sims, 1.0 / temperature)
    diag_labels = np.arange(n)
    full = np.ones(n, dtype=bool)
    forward = T.softmax_cross_entropy(scaled, diag_labels, full)
    backward = T.softmax_cross_entropy(T.transpose(scaled), diag_labels, full)
    return T.scale(T.add(forward, backward), 0.5)


def _corrupt_view(features: np.ndarray, adj: Edges, rate: float,
                  rng: np.random.Generator):
    """Drop edges and mask feature columns at the given rate."""
    col_mask = (rng.random((1, features.shape[1])) >= rate).astype(np.float64)
    x = T.constant(features * col_mask)
    edge_mask = (rng.random(adj.vals.shape) >= rate).astype(np.float64)
    return x, adj.with_vals(T.hadamard(adj.vals, T.constant(edge_mask)))


def _embed_view(x: Tensor, adj: Edges, state: ContrastiveState,
                activation: str) -> Tensor:
    h = encode(x, adj, state.encoder1, activation=activation,
               apply_activation=True)
    h = encode(h, adj, state.encoder2, activation=activation,
               apply_activation=False)
    h = encode(h, None, state.proj1, activation=activation,
               apply_activation=True)
    return encode(h, None, state.proj2, activation=activation,
                  apply_activation=False)


def contrastive_loss(features: np.ndarray, learned_adj: Edges,
                     state: ContrastiveState, rng: np.random.Generator,
                     activation: str) -> Tensor:
    """Contrast the learned graph against the anchor blend. Gradients reach
    the structure through the first view; the anchor edge list is a
    constant snapshot updated once per epoch by the trainer."""
    cfg = state.config
    x1, a1 = _corrupt_view(features, learned_adj, cfg.mask_rate, rng)
    x2, a2 = _corrupt_view(features, state.anchor.adjacency, cfg.mask_rate,
                           rng)
    emb1 = _embed_view(x1, a1, state, activation)
    emb2 = _embed_view(x2, a2, state, activation)
    return nt_xent(emb1, emb2, cfg.temperature)


# ---------------------------------------------------------------------------
# combined objective

@dataclass
class ObjectiveState:
    """Per-trial trainable pieces owned by the objective (none when the
    config uses neither unsupervised loss)."""

    dae: DaeState | None = None
    contrastive: ContrastiveState | None = None


def init_objective_state(cfg: ObjectiveConfig, n: int, input_dim: int,
                         hidden: int, rng: np.random.Generator) -> ObjectiveState:
    state = ObjectiveState()
    if "dae" in cfg.unsupervised:
        state.dae = init_dae(cfg.dae, input_dim, rng)
    if "contrastive" in cfg.unsupervised:
        state.contrastive = init_contrastive(cfg.contrastive, n, input_dim,
                                             hidden, rng)
    return state


def total_objective(logits: Tensor, labels: np.ndarray, train_mask: np.ndarray,
                    adj: Edges, initial_adj: Edges | None,
                    features: np.ndarray, cfg: ObjectiveConfig,
                    state: ObjectiveState, rng: np.random.Generator,
                    feature_kind: str, activation: str) -> Tensor:
    """Supervised cross-entropy plus the weighted regularizers plus the
    active unsupervised losses at unit weight, summed in the order the
    module docstring gives. `initial_adj` is read only by closeness."""
    terms = {
        "closeness": lambda: reg_closeness(adj, initial_adj),
        "smoothness": lambda: reg_smoothness(adj, features),
        "sparse_connect": lambda: reg_sparse_connect(adj),
        "log_barrier": lambda: reg_log_barrier(adj),
        "dae": lambda: dae_loss(features, adj, state.dae, rng, feature_kind,
                                activation),
        "contrastive": lambda: contrastive_loss(
            features, adj, state.contrastive, rng, activation),
    }
    weights = {name: getattr(cfg, f"lambda_{name}")
               for name in cfg.regularizer_set()}
    weights.update((name, 1.0) for name in UNSUPERVISED
                   if getattr(state, name) is not None)
    loss = T.softmax_cross_entropy(logits, labels, train_mask)
    for name, weight in weights.items():
        loss = T.add(loss, T.scale(terms[name](), weight))
    return loss
