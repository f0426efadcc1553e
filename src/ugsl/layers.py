"""The learnable-adjacency layer: edge scorer, sparsifier, processor, encoder.

Edge scorers score every pair of nodes

    fp   score[i][j] is its own trainable parameter
    att  mean over heads p of Cos(X_i * v_p, X_j * v_p)
    mlp  Cos(MLP(X_i), MLP(X_j))

as `Scores`: an n x n array that only the sparsifier reads, and `at`,
the differentiable entries at given edges. att and mlp are one rule,
`cosine_scores`, the mean cosine gram of a list of embeddings (one per
head for att, the MLP output for mlp) whose `at` is `tensor.gram_at`.
Sparsifiers keep a few entries and return them as a `tensor.Edges` list
whose values come from `at`; the selection is discrete and gradients
pass only through the kept entries (straight-through), so no n x n
tensor enters the autodiff record. From there on the adjacency stays an
edge list. Processors symmetrize and/or apply a nonlinearity to the
edge values. Encoders (GCN / GIN / plain MLP) propagate over the edges
and, at the final layer, emit class logits.

A LayerStack composes two such layers, either recomputing the adjacency
from the running node embeddings per layer or learning one adjacency that
both encoder layers share. `LayerStack.graph` is the one graph step: it
scores a layer from its input and returns the layer's edge list as a
function of (rng, training), having already selected it when the
sparsifier is one of `DRAW_FREE_SPARSIFIERS` and ranked random_dknn's
pool. The first scorer reads only the input features and its own
parameters, so the first layer's graph is fixed by the parameter state:
the trainer hands the one its evaluation forward after each Adam step
reads on to the next training forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .config import GslConfig, ScorerConfig, SparsifierConfig
from .data import cosine_similarity, ranked_columns, row_edges
from .errors import ResourceError
from .tensor import Edges, Tensor

ACTIVATION_FNS = {"relu": T.relu, "tanh": T.tanh}
NUM_LAYERS = 2
# sparsifiers that draw no rng and select the same edges in training and
# evaluation; bernoulli and random_dknn draw in training
DRAW_FREE_SPARSIFIERS = frozenset({"knn", "dknn", "epsnn"})
# the most edges an epsnn selection keeps before it raises ResourceError
EPSNN_MAX_EDGES = 500_000


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
            if cfg.init == "identity":  # validated: mlp_width is None
                w = T.parameter(np.eye(fan_in))
            else:
                w = T.parameter((fan_in, fan_out), rng=rng,
                                glorot=(fan_in, fan_out))
            params.mlp.append((w, T.parameter(np.zeros((1, fan_out)))))
    return params


@dataclass(frozen=True, eq=False)
class Scores:
    """A scorer's output: `values`, the n x n scores as an array that only
    the sparsifier reads, and `at(rows, cols)`, the differentiable (E, 1)
    entries at edges that hold each (row, col) pair at most once."""

    values: np.ndarray
    at: Callable[[np.ndarray, np.ndarray], Tensor]

    @classmethod
    def of(cls, a: Tensor) -> "Scores":
        """The entries of a square tensor; gradients reach it in full n x n
        shape, at the kept entries only."""
        return cls(a.values, lambda rows, cols: T.gather(a, rows, cols))


def cosine_scores(hs: list) -> Scores:
    """The mean over the embeddings `hs` of the all-pairs cosine similarity
    of their rows, zero rows floored at norm `tensor.NORM_FLOOR`:
    symmetric, unit diagonal. Each y y^T is added to the sum as it is
    formed, so no two exist at once; a sum of several is then scaled.
    `at` reads its entries off `values`."""
    ys = [T.normalize_rows(h) for h in hs]
    values = ys[0].values @ ys[0].values.T
    for y in ys[1:]:
        values += y.values @ y.values.T
    if len(ys) > 1:
        values *= 1.0 / len(ys)

    def at(rows, cols):
        return T.gram_at(ys, rows, cols, values[rows, cols])

    return Scores(values, at)


def score_att(x_prev: Tensor, heads: list) -> Scores:
    """Mean over heads of the cosine similarity of head-weighted rows."""
    return cosine_scores([T.hadamard(x_prev, head) for head in heads])


def score_mlp(x_prev: Tensor, mlp: list, activation: str) -> Scores:
    """Cosine similarity of MLP embeddings; the configured activation is
    applied between layers only."""
    act = ACTIVATION_FNS[activation]
    h = x_prev
    for i, (w, b) in enumerate(mlp):
        h = T.affine(h, w, b)
        if i + 1 < len(mlp):
            h = act(h)
    return cosine_scores([h])


def score(params: EdgeScorerParams, x_prev: Tensor) -> Scores:
    if params.kind == "fp":
        return Scores.of(params.fp)
    if params.kind == "att":
        return score_att(x_prev, params.heads)
    return score_mlp(x_prev, params.mlp, params.activation)


# ---------------------------------------------------------------------------
# sparsifiers

def ranked_pool(scores: Scores, cfg: SparsifierConfig) -> np.ndarray:
    """The k * stride best columns of each row, best first: the pool that
    knn and dknn stride and random_dknn draws from."""
    return ranked_columns(scores.values, cfg.k * cfg.stride)


def sparsify(scores: Scores, cfg: SparsifierConfig,
             rng: np.random.Generator | None = None,
             training: bool = False, pool: np.ndarray | None = None) -> Edges:
    """The selected entries of the scores as an edge list.

    The selection itself is not differentiated; kept entries keep their
    score and carry the full gradient, dropped entries carry none.
    Self-edges are never kept. epsnn and bernoulli keep the entries whose
    score s (plus logistic noise z, for bernoulli in training) exceeds a
    threshold: epsilon for epsnn, and for bernoulli t log(eps / (1 - eps)),
    which is where sigmoid((s + z) / t) exceeds eps; bernoulli gives the
    kept entries, and only those, that sigmoid as their value.
    random_dknn in training keeps the k pool columns with the lowest of
    one uniform key per pool position. Only these two draw from `rng`,
    and only in training. `cfg` has passed `GslConfig.validate` for the
    n nodes of the scores. `pool`, if given, is `ranked_pool(scores, cfg)`,
    computed once for several selections.
    """
    values = scores.values
    n = values.shape[0]
    noise = None
    if cfg.kind in ("epsnn", "bernoulli"):
        threshold = cfg.epsilon
        if cfg.kind == "bernoulli":
            threshold = cfg.temperature * math.log(
                cfg.epsilon / (1.0 - cfg.epsilon))
            if training:
                u = rng.uniform(size=(n, n))
                noise = np.log(u) - np.log1p(-u)
                u = None  # freed before the n x n sum below
        rows, cols = np.nonzero(
            (values if noise is None else values + noise) > threshold)
    else:  # knn, dknn, random_dknn: every step-th of the top k*step columns
        if pool is None:
            pool = ranked_pool(scores, cfg)
        if cfg.kind == "random_dknn" and training:
            picks = np.argsort(rng.random(pool.shape), axis=1)[:, :cfg.k]
            picked = np.take_along_axis(pool, picks, axis=1)
        else:
            picked = pool[:, ::cfg.stride]
        rows, cols = row_edges(picked)
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    if cfg.kind == "epsnn" and rows.size > EPSNN_MAX_EDGES:
        raise ResourceError(
            f"epsnn kept {rows.size} edges, exceeding the budget of "
            f"{EPSNN_MAX_EDGES}")
    vals = scores.at(rows, cols)
    if cfg.kind == "bernoulli":
        if noise is not None:
            vals = T.add(vals, T.constant(noise[rows, cols][:, None]))
        vals = T.sigmoid(T.scale(vals, 1.0 / cfg.temperature))
    return Edges(rows, cols, n, vals)


# ---------------------------------------------------------------------------
# processors

def _symmetrize(adj: Edges) -> Edges:
    """(A + A^T) / 2: the edges and their reverses, coalesced, halved."""
    both = np.tile(np.arange(adj.rows.size), 2)
    summed = T.coalesce(np.concatenate([adj.rows, adj.cols]),
                        np.concatenate([adj.cols, adj.rows]), adj.n,
                        T.gather(adj.vals, both, 0))
    return summed.with_vals(T.scale(summed.vals, 0.5))


def process(adj: Edges, mode: str, activation: str = "relu") -> Edges:
    act = ACTIVATION_FNS[activation]
    if mode == "none":
        return adj
    if mode == "symmetrize":
        return _symmetrize(adj)
    if mode == "activation":
        return adj.with_vals(act(adj.vals))
    return _symmetrize(adj.with_vals(act(adj.vals)))  # activation_symmetrize


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
    inv_sqrt = T.power(deg, -0.5)
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
        out = T.affine(act(T.add(agg, b1)), w2, b2)
    else:  # mlp
        w, b = params.weights[0]
        out = T.affine(h, w, b)
    return act(out) if apply_activation else out


# ---------------------------------------------------------------------------
# the stack

@dataclass
class LayerStack:
    """Two composed layers with either one shared learned adjacency or a
    separately scored adjacency per layer. Per layer, an MLP encoder reads
    no graph and the losses and statistics read the last one, so there the
    first layer learns none and `scorers[0]` is None."""

    config: GslConfig
    scorers: list
    encoder_layers: list

    @classmethod
    def build(cls, config: GslConfig, n: int, input_dim: int,
              num_classes: int, x0: np.ndarray,
              rng: np.random.Generator) -> "LayerStack":
        n_scorers = 1 if config.adjacency_mode == "one" else NUM_LAYERS
        widths = [input_dim, config.hidden_units, num_classes]
        idle_first = n_scorers > 1 and config.encoder.kind == "mlp"
        scorers = [None if i == 0 and idle_first else
                   init_edge_scorer(config.scorer, n, widths[i], x0,
                                    config.activation, rng)
                   for i in range(n_scorers)]
        encoder_layers = [init_encoder_layer(config.encoder.kind, widths[i],
                                             widths[i + 1], rng)
                          for i in range(NUM_LAYERS)]
        return cls(config=config, scorers=scorers, encoder_layers=encoder_layers)

    def graph(self, layer: int, x: Tensor) -> Callable | None:
        """Layer `layer`'s processed edge list as a function of (rng,
        training), scored once from the layer's input `x`, so one call
        serves every forward that reads the same scores; None if the
        layer learns no graph. A draw-free sparsifier selects at once and
        frees the n x n scores; random_dknn ranks its pool once; bernoulli
        keeps the scores it draws against."""
        if self.scorers[layer] is None:
            return None
        cfg = self.config
        scores, pool = score(self.scorers[layer], x), None

        def learn(rng: np.random.Generator | None, training: bool) -> Edges:
            return process(sparsify(scores, cfg.sparsifier, rng=rng,
                                    training=training, pool=pool),
                           cfg.processor.mode, cfg.activation)

        if cfg.sparsifier.kind in DRAW_FREE_SPARSIFIERS:
            adjacency = learn(None, False)
            return lambda rng, training: adjacency
        if cfg.sparsifier.kind == "random_dknn":
            pool = ranked_pool(scores, cfg.sparsifier)
        return learn

    def forward(self, x0: np.ndarray, rng: np.random.Generator,
                training: bool = False, first: Callable | None = None):
        """Run the full stack; returns (logits, last processed edge list).
        `first` is `graph(0, constant(x0))` under the current parameters,
        if already computed; otherwise it is computed here."""
        cfg = self.config
        x = T.constant(x0)
        learn = first or self.graph(0, x)
        adj = None if learn is None else learn(rng, training)
        for layer_idx in range(NUM_LAYERS):
            if layer_idx > 0 and cfg.adjacency_mode == "per_layer":
                adj = self.graph(layer_idx, x)(rng, training)
            x = encode(x, adj, self.encoder_layers[layer_idx],
                       activation=cfg.activation,
                       apply_activation=layer_idx + 1 < NUM_LAYERS,
                       dropout_rate=cfg.dropout, rng=rng, training=training)
        return x, adj
