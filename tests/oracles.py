"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own computation paths:
gradients come from central finite differences, ranking from python sorts
and stable argsorts, WL colors from dense rows, and graph propagation,
the adjacency regularizers and the edge-list TSV from dense n x n numpy
matrices. The graph statistics have one oracle, `dense_lapack_statistics`:
distances from a matrix-product BFS, triangles from dense products, and
eigenvalues from LAPACK. The scorers' gradient is checked against the
dense construction they used before recording only the kept entries.

Criterion 1, gradient correctness, has one check: `check_gradients`
compares every leaf's autodiff gradient with `finite_difference_gradient`,
and every finite-difference test calls it. `force_spmm_route` runs such a
test on one of `tensor.spmm`'s two routes and counts the calls it made.

Criterion 2, oracle equivalence (`test_acceptance`), is the one caller of
the stage oracles: `topk_rows`, `expected_sparsified`, `dense_process`,
`gcn_propagate`, `gin_aggregate`, `adjacency_regularizers` and
`dense_lapack_statistics`.
"""

from collections import Counter

import numpy as np

import ugsl.tensor as T


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = x[ij]
        x[ij] = orig + h
        fp = f()
        x[ij] = orig - h
        fm = f()
        x[ij] = orig
        g[ij] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    num = np.linalg.norm(got - want)
    den = max(np.linalg.norm(want), 1e-8)
    return num / den


def check_gradients(loss, leaves, min_norm: float | None = None,
                    label: str = "") -> float:
    """Zero the leaves' grads, run backward through `loss()`, and compare
    each leaf's gradient (None read as zeros) with the central differences
    of `loss().item()` over that leaf's values: the relative error must be
    below 1e-4 and, given `min_norm`, the differences' norm above it, so a
    flat case cannot pass. `loss` records against the live leaves and is
    rerun for every difference. Returns the worst relative error."""
    T.zero_grads(leaves)
    T.backward(loss())
    worst = 0.0
    for i, p in enumerate(leaves):
        grad = p.grad if p.grad is not None else np.zeros_like(p.values)
        fd = finite_difference_gradient(lambda: loss().item(), p.values)
        if min_norm is not None:
            assert np.linalg.norm(fd) > min_norm, \
                f"{label} leaf {i}: gradient norm {np.linalg.norm(fd):.2e}"
        error = relative_error(grad, fd)
        assert error < 1e-4, f"{label} leaf {i}: relative error {error:.2e}"
        worst = max(worst, error)
    return worst


# the DENSE_SHARE that sends every nonempty edge list down each of
# `tensor.spmm`'s routes
SPMM_ROUTES = {"dense": 0.0, "edge": 1.0}
_SPMM = T.spmm


def force_spmm_route(monkeypatch, route: str) -> Counter:
    """Patch `tensor.DENSE_SHARE` so that `spmm` takes `route`, and count
    the recorded `spmm` calls by the route whose backward they hold (the
    dense route's is `dense_bwd`). Returns the Counter, which fills as
    calls are made until the patch is undone."""
    monkeypatch.setattr(T, "DENSE_SHARE", SPMM_ROUTES[route])
    calls = Counter()

    def counted(adj, x):
        out = _SPMM(adj, x)
        if out._backward is not None:
            dense = out._backward.__name__ == "dense_bwd"
            calls["dense" if dense else "edge"] += 1
        return out

    monkeypatch.setattr(T, "spmm", counted)
    return calls


def topk_rows(scores: np.ndarray, k: int, dilation: int = 1) -> np.ndarray:
    """Brute-force row top-k mask with ties broken toward lower index and
    the diagonal excluded; dilation > 1 keeps ranks 0, d, ..., (k-1)d."""
    n = scores.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = sorted((j for j in range(n) if j != i),
                       key=lambda j: (-scores[i, j], j))
        for r in range(k):
            mask[i, order[r * dilation]] = True
    return mask


def expected_sparsified(cfg, scores: np.ndarray,
                        got: np.ndarray) -> np.ndarray:
    """The dense output of the sparsifier `cfg` on `scores` as an
    independent rule predicts it. For random_dknn in training that is the
    draw's structure: `got` must keep k entries a row, each among the row's
    k * dilation best, and is then expected to hold the scores there."""
    n = scores.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    if cfg.kind in ("knn", "dknn"):
        keep = topk_rows(scores, cfg.k,
                         dilation=1 if cfg.kind == "knn" else cfg.dilation)
        return np.where(keep, scores, 0.0)
    if cfg.kind == "random_dknn":
        kept = got != 0
        assert (kept.sum(axis=1) == cfg.k).all(), \
            "random_dknn: a row keeps other than k entries"
        assert not (kept & ~topk_rows(scores, cfg.k * cfg.dilation)).any(), \
            "random_dknn: an entry outside its row's k * dilation best"
        return np.where(kept, scores, 0.0)
    if cfg.kind == "epsnn":
        return np.where((scores > cfg.epsilon) & off_diagonal, scores, 0.0)
    relaxed = 1.0 / (1.0 + np.exp(-scores / cfg.temperature))
    return np.where((relaxed > cfg.epsilon) & off_diagonal, relaxed, 0.0)


def knn_graph_dense(features: np.ndarray, k: int) -> np.ndarray:
    """The dense directed kNN adjacency: row i keeps the cosine similarity
    (norms floored at 1e-12) of the first k columns of a stable argsort of
    its negated similarities, the diagonal scored -inf."""
    x = np.asarray(features, dtype=np.float64)
    y = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    sims = y @ y.T
    keys = -sims
    np.fill_diagonal(keys, np.inf)
    mask = np.zeros(sims.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(keys, axis=1, kind="stable")[:, :k],
                      True, axis=1)
    return np.where(mask, sims, 0.0)


def wl_roles_dense(adj: np.ndarray, iterations: int) -> np.ndarray:
    """Color refinement read row by row from the dense 0/1 simple graph
    ((a > 0) | (a.T > 0), diagonal dropped); ids in first-seen order."""
    a = np.asarray(adj)
    binary = (a > 0) | (a.T > 0)
    np.fill_diagonal(binary, False)
    n = binary.shape[0]
    colors = [0] * n
    for _ in range(iterations):
        table = {}
        fresh = []
        for i in range(n):
            sig = (colors[i], tuple(sorted(colors[j] for j in range(n)
                                           if binary[i, j])))
            fresh.append(table.setdefault(sig, len(table)))
        colors = fresh
    return np.array(colors, dtype=np.int64)


DENSE_ACTIVATIONS = {"relu": lambda a: np.maximum(a, 0.0), "tanh": np.tanh}


def dense_process(adj: np.ndarray, mode: str, activation: str) -> np.ndarray:
    """A processor on a dense matrix: activation first, then (A + A^T) / 2."""
    act = DENSE_ACTIVATIONS[activation]
    if mode in ("activation", "activation_symmetrize"):
        adj = act(adj)
    if mode in ("symmetrize", "activation_symmetrize"):
        adj = (adj + adj.T) / 2.0
    return adj


def gcn_propagate(adj: np.ndarray, h: np.ndarray) -> np.ndarray:
    """D^-1/2 (relu(A) + I) D^-1/2 h with D the row sums of relu(A) + I."""
    a = np.maximum(adj, 0.0) + np.eye(adj.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return (inv_sqrt[:, None] * a * inv_sqrt[None, :]) @ h


def gin_aggregate(adj: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h + relu(A) h."""
    return h + np.maximum(adj, 0.0) @ h


def adjacency_regularizers(adj: np.ndarray, initial: np.ndarray,
                           features: np.ndarray) -> dict:
    """The four regularizers over every entry of the dense matrices."""
    n = adj.shape[0]
    diffs = features[:, None, :] - features[None, :, :]
    dists = (diffs ** 2).sum(axis=2)
    return {
        "closeness": ((initial - adj) ** 2).sum(),
        "smoothness": (adj * dists).sum() / n ** 2,
        "sparse_connect": (adj ** 2).sum(),
        "log_barrier": -np.log(np.maximum(adj.sum(axis=1), 1e-12)).sum(),
    }


def normalized_laplacian_dense(binary_adj: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian; isolated nodes get a zero row/column
    (so each isolated node contributes a zero eigenvalue)."""
    a = np.asarray(binary_adj, dtype=np.float64)
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = -a * inv[:, None] * inv[None, :]
    lap[np.diag_indices_from(lap)] = np.where(deg > 0, 1.0, 0.0)
    return lap


def dense_lapack_statistics(adj: np.ndarray) -> dict:
    """Every learned-graph statistic the way a dense n x n implementation
    takes them: a level-by-level BFS from all sources through matrix
    products, triangles from the diagonal of B^3 row by row, the spectral
    radius from the general LAPACK eigvals, and the algebraic connectivity
    from eigvalsh. The diameter is taken in the component of the first
    node of largest component size. None for an edgeless graph."""
    adj = np.asarray(adj, dtype=np.float64)
    n = adj.shape[0]
    binary = ((adj > 0) | (adj.T > 0)).astype(np.float64)
    np.fill_diagonal(binary, 0.0)
    degrees = binary.sum(axis=1)
    if degrees.sum() == 0:
        return None
    record = {"avg_degree": degrees.mean(),
              "degree_one_count": int((degrees == 1).sum())}
    with_deg = degrees[degrees >= 1]
    record["power_law_alpha"] = 1.0 + with_deg.size / np.log(with_deg / 0.5).sum()
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier = np.eye(n)
    level = 0
    while frontier.any():
        level += 1
        fresh = ((frontier @ binary) > 0) & (dist < 0)
        dist[fresh] = level
        frontier = fresh.astype(np.float64)
    members = dist[int((dist >= 0).sum(axis=1).argmax())] >= 0
    record["diameter"] = int(dist[np.ix_(members, members)].max())
    tri = ((binary @ binary) * binary).sum(axis=1) / 2.0
    possible = degrees * (degrees - 1) / 2.0
    local = np.divide(tri, possible, out=np.zeros_like(possible),
                      where=possible > 0)
    record["local_clustering"] = local.mean()
    record["global_clustering"] = (tri.sum() / possible.sum()
                                   if possible.sum() > 0 else 0.0)
    weighted = np.where(adj > 0, adj, 0.0)
    record["spectral_radius"] = float(np.linalg.eigvals(weighted).real.max())
    values = np.linalg.eigvalsh(normalized_laplacian_dense(binary))
    record["algebraic_connectivity"] = float(max(values[1], 0.0))
    return record


def edge_tsv_dense(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   n: int) -> str:
    """The edge-list TSV by way of a dense matrix: the values of repeated
    (row, col) pairs summed in edge order into an n x n matrix of zeros,
    then one "src\\tdst\\tweight" line per nonzero entry, row-major, the
    weight in 17 significant digits."""
    adj = np.zeros((n, n))
    np.add.at(adj, (rows, cols), vals)
    return "".join(f"{r}\t{c}\t{adj[r, c]:.17g}\n"
                   for r, c in zip(*np.nonzero(adj)))


def gram_dense(y: T.Tensor) -> T.Tensor:
    """y y^T recorded as one n x n tensor, as the edge scorers formed it
    before `tensor.gram_at`: the syrk product forward, and the backward
    (g + g^T) y of the dense upstream g that `tensor.gather` scattered."""
    return T._make(y.values @ y.values.T, (y,),
                   lambda g: ((g + g.T) @ y.values,))


def gram_gradient_dense(y: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        g: np.ndarray) -> np.ndarray:
    """The gradient of the entries (y y^T)[rows, cols] under the upstream
    column g, the dense way: g scattered into an n x n matrix of zeros
    (each cell 0.0 + g, in edge order), then (G + G^T) y."""
    n = y.shape[0]
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), g.ravel())
    return (dense + dense.T) @ y


def att_entries_per_head(x: T.Tensor, heads: list, rows: np.ndarray,
                         cols: np.ndarray) -> T.Tensor:
    """The att scorer's entries at (rows, cols), recorded as the scorer
    recorded them before one `tensor.gram_at` took every head: a syrk
    product per head, read at the edges through a one-embedding
    `gram_at`, the heads' columns summed in head order with `tensor.add`
    and scaled by 1 / heads with `tensor.scale`."""
    total = None
    for head in heads:
        y = T.normalize_rows(T.hadamard(x, head))
        product = y.values @ y.values.T
        col = T.gram_at([y], rows, cols, product[rows, cols])
        total = col if total is None else T.add(total, col)
    return T.scale(total, 1.0 / len(heads))
