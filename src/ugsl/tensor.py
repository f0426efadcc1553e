"""Dense 2-D float64 tensors with reverse-mode differentiation and Adam.

Every value in a computation is a matrix (scalars are 1x1, vectors are rows
or columns). A forward pass records a graph of `Tensor` nodes; `backward`
walks it once in reverse topological order, accumulates gradients into the
`.grad` of every `requires_grad` ancestor, and then clears the record. A
record is single-use: calling `backward` through nodes of an already
consumed record raises `ConfigurationError`. An op returns no gradient for
an operand that does not require one.

All-pairs inner products go through `gram(y)`, y y^T: BLAS syrk computes
half the products and mirrors them, so the result is exactly symmetric,
and the backward is one product. `pairwise_cosine` is the gram of the
row-normalized input.

A sparse n x n adjacency is an `Edges` list: int rows (sorted) and cols
and an (E, 1) value tensor. Every sum over edges (in `gather`, `take`,
`segment_sum`, `coalesce`, `spmm` and `Edges.to_dense`) is one
`np.bincount` that adds each output cell's terms left to right in the
stored edge order, so a seed fixes every bit.

Overflow-prone ops clamp their inputs (log at 1e-12, exp at 700) so that
finite inputs always produce finite outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

logger = logging.getLogger(__name__)

LOG_CLAMP = 1e-12
NORM_FLOOR = 1e-12
EXP_CLAMP = 700.0


class Tensor:
    """A matrix node in one recorded computation.

    Leaf tensors created with ``requires_grad=True`` are the trainable
    parameters; ``backward`` accumulates into their ``.grad``. Interior
    nodes carry a backward closure and are marked consumed after use.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward",
                 "_consumed")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ConfigurationError(f"tensors are 2-D; got ndim={arr.ndim}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ConfigurationError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(values, rng: np.random.Generator | None = None,
              glorot: tuple[int, int] | None = None) -> Tensor:
    """Create a trainable leaf. With ``glorot=(fan_in, fan_out)`` the values
    argument gives the shape and entries are drawn glorot-uniform."""
    if glorot is not None:
        if rng is None:
            raise ConfigurationError("glorot init needs an rng")
        fan_in, fan_out = glorot
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = rng.uniform(-limit, limit, size=values)
    return Tensor(values, requires_grad=True)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def trainable(*owners) -> list:
    """Every `requires_grad` tensor reachable from `owners` through
    dataclass fields, lists and tuples, in field order, each once."""
    found: dict[int, Tensor] = {}

    def walk(obj):
        if isinstance(obj, Tensor):
            if obj.requires_grad:
                found.setdefault(id(obj), obj)
        elif is_dataclass(obj):
            for f in fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(owners)
    return list(found.values())


def _make(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    for s, o in ((sa, sb), (sb, sa)):
        if s == (1, 1):
            return
        if s[0] == 1 and s[1] == o[1]:  # row against matrix
            return
        if s[1] == 1 and s[0] == o[0]:  # column against matrix
            return
    raise ConfigurationError(f"{op}: shapes {sa} and {sb} do not broadcast")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops

def _if_needed(t: Tensor, grad_fn):
    """grad_fn() for an operand that requires a gradient, else None."""
    return grad_fn() if t.requires_grad else None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def bwd(g):
        return (_if_needed(a, lambda: _unbroadcast(g, a.shape)),
                _if_needed(b, lambda: _unbroadcast(g, b.shape)))

    return _make(a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def bwd(g):
        return (_if_needed(a, lambda: _unbroadcast(g, a.shape)),
                _if_needed(b, lambda: _unbroadcast(-g, b.shape)))

    return _make(a.values - b.values, (a, b), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "hadamard")

    def bwd(g):
        return (_if_needed(a, lambda: _unbroadcast(g * b.values, a.shape)),
                _if_needed(b, lambda: _unbroadcast(g * a.values, b.shape)))

    return _make(a.values * b.values, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _make(a.values * s, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"matmul: inner dimensions disagree ({a.shape} @ {b.shape})")

    def bwd(g):
        return (_if_needed(a, lambda: g @ b.values.T),
                _if_needed(b, lambda: a.values.T @ g))

    return _make(a.values @ b.values, (a, b), bwd)


def gram(y: Tensor) -> Tensor:
    """y y^T, the (n, n) inner products of the rows of y. numpy sends the
    product to BLAS syrk, which computes one triangle and mirrors it, so
    the result is exactly symmetric; the gradient is one product,
    (g + g^T) y."""
    def bwd(g):
        return ((g + g.T) @ y.values,)

    return _make(y.values @ y.values.T, (y,), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        return (g.T,)

    return _make(a.values.T.copy(), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0

    def bwd(g):
        return (g * mask,)

    return _make(np.where(mask, a.values, 0.0), (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.minimum(x, EXP_CLAMP))),
                   np.exp(np.maximum(x, -EXP_CLAMP))
                   / (1.0 + np.exp(np.maximum(x, -EXP_CLAMP))))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    clamped = np.minimum(a.values, EXP_CLAMP)
    out = np.exp(clamped)
    inside = a.values <= EXP_CLAMP

    def bwd(g):
        return (g * out * inside,)

    return _make(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    """Natural log with the input clamped below at 1e-12."""
    clamped = np.maximum(a.values, LOG_CLAMP)
    inside = a.values >= LOG_CLAMP

    def bwd(g):
        return (g / clamped * inside,)

    return _make(np.log(clamped), (a,), bwd)


def power(a: Tensor, p: float, floor: float = LOG_CLAMP) -> Tensor:
    """Elementwise x**p on inputs clamped below at `floor` (negative and
    fractional exponents stay finite this way)."""
    clamped = np.maximum(a.values, floor)
    out = clamped ** p
    inside = a.values >= floor

    def bwd(g):
        return (g * p * clamped ** (p - 1.0) * inside,)

    return _make(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        return (np.full(a.shape, g[0, 0]),)

    return _make(np.array([[a.values.sum()]]), (a,), bwd)


def normalize_rows(a: Tensor, floor: float = NORM_FLOOR) -> Tensor:
    """Scale each row to unit Euclidean norm; rows with norm below `floor`
    are divided by `floor` instead of erroring."""
    norms = np.sqrt((a.values ** 2).sum(axis=1, keepdims=True))
    r = np.maximum(norms, floor)
    out = a.values / r
    free = norms > floor  # where the norm itself depends on the input

    def bwd(g):
        rowdot = (out * g).sum(axis=1, keepdims=True)
        return (g / r - np.where(free, out * rowdot / r, 0.0),)

    return _make(out, (a,), bwd)


def pairwise_cosine(x: Tensor) -> Tensor:
    """All-pairs cosine similarity of the rows of x (n x d -> n x n).

    Symmetric with unit diagonal; zero rows are treated as having norm
    1e-12 rather than raising.
    """
    return gram(normalize_rows(x))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray,
                          mask: np.ndarray) -> Tensor:
    """Mean over masked rows of -log softmax(logits)[label].

    Row-max subtraction keeps the softmax stable. `labels` is an int vector,
    `mask` a bool vector; at least one row must be selected.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    n, c = logits.shape
    if labels.shape[0] != n or mask.shape[0] != n:
        raise ConfigurationError("labels/mask length must match logit rows")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ConfigurationError(f"labels must lie in [0, {c})")
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ConfigurationError("softmax_cross_entropy: empty mask")
    z = logits.values[idx]
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(idx.size), labels[idx]].mean()

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(idx.size), labels[idx]] -= 1.0
        full = np.zeros_like(logits.values)
        full[idx] = p * (g[0, 0] / idx.size)
        return (full,)

    return _make(np.array([[loss]]), (logits,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator,
            training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate <= 0."""
    if not training or rate <= 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return hadamard(a, constant(keep))


# ---------------------------------------------------------------------------
# edge lists

def _sum_rows(terms: np.ndarray, keys: np.ndarray, count: int) -> np.ndarray:
    """The (count, d) array whose row k sums the rows of the (E, d) `terms`
    with key k: one `np.bincount` over the flattened (key, column) cells,
    which adds each cell's terms left to right in stored order."""
    d = terms.shape[1]
    cells = (keys[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=terms.ravel(),
                       minlength=count * d).reshape(count, d)


@dataclass(frozen=True, eq=False)
class Edges:
    """An n x n adjacency that is zero except at (rows[e], cols[e]).

    `rows` is sorted; a (row, col) pair repeats only in lists that have not
    been through `coalesce`. `vals` is an (E, 1) tensor, so gradients reach
    whatever the edge values were computed from."""

    rows: np.ndarray
    cols: np.ndarray
    n: int
    vals: Tensor

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "Edges":
        """The nonzero entries of a square array, as constants."""
        return edges_at(constant(a), *np.nonzero(a))

    def with_vals(self, vals: Tensor) -> "Edges":
        return Edges(self.rows, self.cols, self.n, vals)

    def to_dense(self) -> np.ndarray:
        """The n x n matrix, repeated pairs summed."""
        return _sum_rows(self.vals.values, self.rows * self.n + self.cols,
                         self.n * self.n).reshape(self.n, self.n)


def gather(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """The (E, 1) column of entries a[rows[e], cols[e]]."""
    flat = rows * a.shape[1] + cols

    def bwd(g):
        return (_sum_rows(g, flat, a.values.size).reshape(a.shape),)

    return _make(a.values[rows, cols].reshape(-1, 1), (a,), bwd)


def take(a: Tensor, index: np.ndarray) -> Tensor:
    """The (E, 1) column a[index[e]] of an (m, 1) column, e.g. one value
    per node read at each edge's endpoint."""
    if a.shape[1] != 1:
        raise ConfigurationError(f"take: needs a column, got {a.shape}")

    def bwd(g):
        return (_sum_rows(g, index, a.shape[0]),)

    return _make(a.values[index], (a,), bwd)


def segment_sum(v: Tensor, segment: np.ndarray, count: int) -> Tensor:
    """The (count, 1) column whose s-th entry sums v[e] over the e with
    segment[e] == s, in edge order; the adjoint of `take`."""
    def bwd(g):
        return (g[segment],)

    return _make(_sum_rows(v.values, segment, count), (v,), bwd)


def edges_at(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Edges:
    """The entries of the square tensor `a` at (rows, cols), rows sorted;
    gradients flow back into `a` at those positions only."""
    n = a.shape[0]
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if a.shape != (n, n) or rows.shape != cols.shape or rows.ndim != 1:
        raise ConfigurationError(
            f"edges_at: {rows.shape} rows and {cols.shape} cols in {a.shape}")
    if np.any(np.diff(rows) < 0):
        raise ConfigurationError("edges_at: rows must be sorted")
    return Edges(rows, cols, n, gather(a, rows, cols))


def row_sums(adj: Edges) -> Tensor:
    """The row sums A 1, as an (n, 1) column."""
    return segment_sum(adj.vals, adj.rows, adj.n)


def coalesce(rows: np.ndarray, cols: np.ndarray, n: int, vals: Tensor) -> Edges:
    """The edge list with each (row, col) pair once, sorted by row then
    column, holding the sum of that pair's values in input order.
    Swapping `rows` and `cols` transposes a coalesced list."""
    keys, pair = np.unique(rows * n + cols, return_inverse=True)
    return Edges(keys // n, keys % n, n, segment_sum(vals, pair, keys.size))


def spmm(adj: Edges, x: Tensor) -> Tensor:
    """A x for an edge list A and a dense (n, d) x: row i sums
    vals[e] * x[cols[e]] over the edges of row i."""
    if x.shape[0] != adj.n:
        raise ConfigurationError(
            f"spmm: {adj.n}-node edges against {x.shape} rows")
    rows, cols, v = adj.rows, adj.cols, adj.vals

    def bwd(g):
        return (_if_needed(v, lambda: np.einsum("ij,ij->i", g[rows],
                                                x.values[cols])[:, None]),
                _if_needed(x, lambda: _sum_rows(v.values * g[rows], cols,
                                                adj.n)))

    return _make(_sum_rows(v.values * x.values[cols], rows, adj.n), (v, x),
                 bwd)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad ancestor of a scalar loss.

    The recorded graph is consumed: parents and closures are released, and
    a second backward through any of its interior nodes raises.
    """
    if loss.shape != (1, 1):
        raise ConfigurationError(f"backward needs a scalar loss, got {loss.shape}")
    if not np.isfinite(loss.values[0, 0]):
        raise NumericError("backward on non-finite loss")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise ConfigurationError(
                "computation record already consumed; rerun the forward pass")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._backward is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                pending[key] = pg if key not in pending else pending[key] + pg
            node._consumed = True
            node._parents = ()
            node._backward = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Adam optimizer with decoupled weight decay

@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared step counter."""

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    # positions of parameters already reported as having no gradient
    warned_no_grad: set = field(default_factory=set)

    @classmethod
    def for_params(cls, params, lr: float, weight_decay: float = 0.0) -> "AdamState":
        if lr <= 0:
            raise ConfigurationError("lr must be positive")
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be nonnegative")
        state = cls(lr=lr, weight_decay=weight_decay)
        for p in params:
            state.first_moment.append(np.zeros_like(p.values))
            state.second_moment.append(np.zeros_like(p.values))
        return state


def adam_step(params, state: AdamState) -> None:
    """One optimizer step: decoupled decay (p -= lr*wd*p) then Adam with
    bias correction. Parameters without a gradient are skipped, with a
    warning the first time each one is skipped under this state."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for i, (p, m, v) in enumerate(zip(params, state.first_moment,
                                      state.second_moment)):
        if p.grad is None:
            if i not in state.warned_no_grad:
                state.warned_no_grad.add(i)
                logger.warning("adam_step: parameter %d has no gradient; "
                               "skipped", i)
            continue
        if state.weight_decay > 0.0:
            p.values -= state.lr * state.weight_decay * p.values
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.values -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
