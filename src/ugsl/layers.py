"""The learnable-adjacency layer: edge scorer, sparsifier, processor, encoder.

Edge scorers produce a dense n x n score matrix:

    fp   score[i][j] is its own trainable parameter
    att  mean over heads p of Cos(X_i * v_p, X_j * v_p)
    mlp  Cos(MLP(X_i), MLP(X_j))

Sparsifiers keep a few entries of it and return them as a `tensor.Edges`
list; the selection is discrete and gradients pass only through the kept
entries (straight-through). From there on the adjacency stays an edge
list. Processors symmetrize and/or apply a nonlinearity to the edge
values. Encoders (GCN / GIN / plain MLP) propagate over the edges and, at
the final layer, emit class logits.

A LayerStack composes two such layers, either recomputing the adjacency
from the running node embeddings per layer or learning one adjacency that
both encoder layers share. The first scorer reads only the input features
and its own parameters, so its scores (`LayerStack.first_scores`) are
computed once per parameter state: the trainer hands the scores of its
evaluation forward after each Adam step to the next training forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import GslConfig, ScorerConfig, SparsifierConfig
from .data import cosine_similarity, ranked_columns
from .errors import ConfigurationError, ResourceError
from .tensor import Edges, Tensor

ACTIVATION_FNS = {"relu": T.relu, "tanh": T.tanh}
NUM_LAYERS = 2


# ---------------------------------------------------------------------------
# edge scorers

@dataclass
class EdgeScorerParams:
    kind: str
    fp: Tensor | None = None                      # (n, n)
    heads: list = field(default_factory=list)     # m tensors of shape (1, d)
    mlp: list = field(default_factory=list)       # [(W, b), ...]
    activation: str = "relu"


def init_edge_scorer(cfg: ScorerConfig, n: int, d: int, x0: np.ndarray,
                     activation: str, rng: np.random.Generator) -> EdgeScorerParams:
    cfg.validate()
    params = EdgeScorerParams(kind=cfg.kind, activation=activation)
    if cfg.kind == "fp":
        if cfg.init == "cosine":
            params.fp = T.parameter(cosine_similarity(x0))
        else:
            params.fp = T.parameter((n, n), rng=rng, glorot=(n, n))
    elif cfg.kind == "att":
        params.heads = [T.parameter((1, d), rng=rng, glorot=(d, 1))
                        for _ in range(cfg.heads)]
    else:
        width = cfg.mlp_width if cfg.mlp_width is not None else d
        widths = [d] + [width] * cfg.mlp_depth
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            if cfg.init == "identity":
                if fan_in != fan_out:
                    raise ConfigurationError(
                        "scorer.init: identity init requires square layers")
                w = T.parameter(np.eye(fan_in))
            else:
                w = T.parameter((fan_in, fan_out), rng=rng,
                                glorot=(fan_in, fan_out))
            params.mlp.append((w, T.parameter(np.zeros((1, fan_out)))))
    return params


def score_fp(params: EdgeScorerParams, n: int) -> Tensor:
    if params.fp.shape != (n, n):
        raise ConfigurationError(
            f"fp scorer is {params.fp.shape}, graph has {n} nodes")
    return params.fp


def score_att(x_prev: Tensor, heads: list) -> Tensor:
    """Mean over heads of the cosine similarity of head-weighted rows."""
    total = None
    for head in heads:
        sim = T.pairwise_cosine(T.hadamard(x_prev, head))
        total = sim if total is None else T.add(total, sim)
    return T.scale(total, 1.0 / len(heads))


def score_mlp(x_prev: Tensor, mlp: list, activation: str) -> Tensor:
    """Cosine similarity of MLP embeddings; the configured activation is
    applied between layers only."""
    act = ACTIVATION_FNS[activation]
    h = x_prev
    for i, (w, b) in enumerate(mlp):
        h = T.add(T.matmul(h, w), b)
        if i + 1 < len(mlp):
            h = act(h)
    return T.pairwise_cosine(h)


def score(params: EdgeScorerParams, x_prev: Tensor) -> Tensor:
    if params.kind == "fp":
        return score_fp(params, x_prev.shape[0])
    if params.kind == "att":
        return score_att(x_prev, params.heads)
    return score_mlp(x_prev, params.mlp, params.activation)


# ---------------------------------------------------------------------------
# sparsifiers

def sparsify(scores: Tensor, cfg: SparsifierConfig,
             rng: np.random.Generator | None = None,
             training: bool = False) -> Edges:
    """The selected entries of the score matrix as an edge list.

    The selection itself is not differentiated; kept entries keep their
    score and carry the full gradient, dropped entries carry none.
    Self-edges are never kept. The Bernoulli relaxation reads the score s
    as a logit and keeps sigmoid((s + logistic noise) / temperature).
    random_dknn in training keeps the k pool columns with the lowest of
    one uniform key per pool position.
    """
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ConfigurationError(f"sparsify: scores must be square, got {scores.shape}")
    cfg.validate(n_nodes=n)

    kept = scores
    if cfg.kind == "bernoulli":
        if training:
            if rng is None:
                raise ConfigurationError("bernoulli sparsifier needs an rng in training")
            u = rng.uniform(size=(n, n))
        else:
            u = np.full((n, n), 0.5)
        noise = np.log(u) - np.log1p(-u)
        kept = T.sigmoid(T.scale(T.add(scores, T.constant(noise)),
                                 1.0 / cfg.temperature))
        rows, cols = np.nonzero(kept.values > cfg.epsilon)
    elif cfg.kind == "epsnn":
        rows, cols = np.nonzero(scores.values > cfg.epsilon)
    else:  # knn, dknn, random_dknn: every step-th of the top k*step columns
        step = 1 if cfg.kind == "knn" else cfg.dilation
        pool = ranked_columns(scores.values, cfg.k * step)
        if cfg.kind == "random_dknn" and training:
            if rng is None:
                raise ConfigurationError("random_dknn needs an rng in training")
            picks = np.argsort(rng.random(pool.shape), axis=1)[:, :cfg.k]
            picked = np.take_along_axis(pool, picks, axis=1)
        else:
            picked = pool[:, ::step]
        cols = np.sort(picked, axis=1).reshape(-1)
        rows = np.repeat(np.arange(n), cfg.k)
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    if cfg.kind == "epsnn" and rows.size > cfg.max_edges:
        raise ResourceError(
            f"epsnn kept {rows.size} edges, exceeding the budget of "
            f"{cfg.max_edges}")
    return T.edges_at(kept, rows, cols)


# ---------------------------------------------------------------------------
# processors

def _symmetrize(adj: Edges) -> Edges:
    """(A + A^T) / 2: the edges and their reverses, coalesced, halved."""
    both = np.tile(np.arange(adj.rows.size), 2)
    summed = T.coalesce(np.concatenate([adj.rows, adj.cols]),
                        np.concatenate([adj.cols, adj.rows]), adj.n,
                        T.take(adj.vals, both))
    return summed.with_vals(T.scale(summed.vals, 0.5))


def process(adj: Edges, mode: str, activation: str = "relu") -> Edges:
    act = ACTIVATION_FNS[activation]
    if mode == "none":
        return adj
    if mode == "symmetrize":
        return _symmetrize(adj)
    if mode == "activation":
        return adj.with_vals(act(adj.vals))
    if mode == "activation_symmetrize":
        return _symmetrize(adj.with_vals(act(adj.vals)))
    raise ConfigurationError(f"processor.mode: unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# encoders

@dataclass
class EncoderLayerParams:
    kind: str
    weights: list  # gcn/mlp: [(W, b)]; gin: [(W1, b1), (W2, b2)]


def init_encoder_layer(kind: str, fan_in: int, fan_out: int,
                       rng: np.random.Generator) -> EncoderLayerParams:
    def linear(i, o):
        return (T.parameter((i, o), rng=rng, glorot=(i, o)),
                T.parameter(np.zeros((1, o))))

    if kind == "gin":
        # epsilon-zero GIN with a 2-layer internal MLP
        return EncoderLayerParams(kind, [linear(fan_in, fan_out),
                                         linear(fan_out, fan_out)])
    return EncoderLayerParams(kind, [linear(fan_in, fan_out)])


def _gcn_propagate(adj: Edges, h: Tensor) -> Tensor:
    """D^-1/2 (relu(A) + I) D^-1/2 h with deg = rowsum(relu(A)) + 1,
    computed as D^-1/2 (relu(A) g + g) for g = D^-1/2 h: the self-loops are
    the diagonal term and both scalings act on node rows."""
    clamped = adj.with_vals(T.relu(adj.vals))
    deg = T.add(T.row_sums(clamped), T.constant(1.0))
    inv_sqrt = T.power(deg, -0.5, floor=1e-6)
    g = T.hadamard(h, inv_sqrt)
    return T.hadamard(T.add(T.spmm(clamped, g), g), inv_sqrt)


def _propagate_narrow(h: Tensor, w: Tensor, propagate) -> Tensor:
    """propagate(h) @ w, propagating at the narrower side of w: the graph
    step commutes with the linear map."""
    if w.shape[0] > w.shape[1]:
        return propagate(T.matmul(h, w))
    return T.matmul(propagate(h), w)


def encode(x: Tensor, adj: Edges | None, params: EncoderLayerParams,
           activation: str, apply_activation: bool,
           dropout_rate: float = 0.0,
           rng: np.random.Generator | None = None,
           training: bool = False) -> Tensor:
    """One encoder layer. GCN propagates with the normalized adjacency, GIN
    aggregates x + A x through its internal MLP, and the MLP encoder ignores
    the graph entirely. Negative adjacency weights are clamped to zero
    before any degree computation."""
    act = ACTIVATION_FNS[activation]
    h = T.dropout(x, dropout_rate, rng, training)
    if params.kind == "gcn":
        w, b = params.weights[0]
        out = T.add(_propagate_narrow(h, w, lambda z: _gcn_propagate(adj, z)),
                    b)
    elif params.kind == "gin":
        clamped = adj.with_vals(T.relu(adj.vals))
        (w1, b1), (w2, b2) = params.weights
        agg = _propagate_narrow(h, w1,
                                lambda z: T.add(z, T.spmm(clamped, z)))
        out = T.add(T.matmul(act(T.add(agg, b1)), w2), b2)
    elif params.kind == "mlp":
        w, b = params.weights[0]
        out = T.add(T.matmul(h, w), b)
    else:
        raise ConfigurationError(f"encoder.kind: unknown kind {params.kind!r}")
    return act(out) if apply_activation else out


# ---------------------------------------------------------------------------
# the stack

@dataclass
class LayerStack:
    """Two composed layers with either one shared learned adjacency or a
    separately scored adjacency per layer."""

    config: GslConfig
    scorers: list
    encoder_layers: list

    @classmethod
    def build(cls, config: GslConfig, n: int, input_dim: int,
              num_classes: int, x0: np.ndarray,
              rng: np.random.Generator) -> "LayerStack":
        n_scorers = 1 if config.adjacency_mode == "one" else NUM_LAYERS
        widths = [input_dim, config.hidden_units, num_classes]
        scorer_input_dims = [widths[i] for i in range(n_scorers)]
        scorers = [init_edge_scorer(config.scorer, n, dim, x0,
                                    config.activation, rng)
                   for dim in scorer_input_dims]
        encoder_layers = [init_encoder_layer(config.encoder.kind, widths[i],
                                             widths[i + 1], rng)
                          for i in range(NUM_LAYERS)]
        return cls(config=config, scorers=scorers, encoder_layers=encoder_layers)

    def first_scores(self, x0: np.ndarray) -> Tensor:
        """The first scorer's n x n scores. They read only x0 and that
        scorer's parameters and draw no rng, so one tensor serves every
        forward until the parameters change."""
        return score(self.scorers[0], T.constant(x0))

    def _learn_adjacency(self, scores: Tensor, rng: np.random.Generator,
                         training: bool) -> Edges:
        sparse = sparsify(scores, self.config.sparsifier, rng=rng,
                          training=training)
        return process(sparse, self.config.processor.mode,
                       self.config.activation)

    def forward(self, x0: np.ndarray, rng: np.random.Generator,
                training: bool = False, scores: Tensor | None = None):
        """Run the full stack; returns (logits, last processed edge list).
        `scores` are `first_scores(x0)` under the current parameters, if
        already computed; otherwise they are computed here."""
        cfg = self.config
        x = T.constant(x0)
        if scores is None:
            scores = self.first_scores(x0)
        adj = self._learn_adjacency(scores, rng, training)
        for layer_idx in range(NUM_LAYERS):
            if cfg.adjacency_mode == "per_layer" and layer_idx > 0:
                adj = self._learn_adjacency(
                    score(self.scorers[layer_idx], x), rng, training)
            x = encode(x, adj, self.encoder_layers[layer_idx],
                       activation=cfg.activation,
                       apply_activation=layer_idx + 1 < NUM_LAYERS,
                       dropout_rate=cfg.dropout, rng=rng, training=training)
        return x, adj
