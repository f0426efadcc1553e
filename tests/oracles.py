"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own computation paths:
gradients come from central finite differences, ranking from python sorts
and stable argsorts, WL colors from dense rows,
eigenvalues from LAPACK, shortest paths from Floyd-Warshall, triangle
counts from explicit triple loops, and graph propagation, the adjacency
regularizers and the edge-list TSV from dense n x n numpy matrices.
"""

import numpy as np


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


def dense_process(adj: np.ndarray, mode: str, activation: str) -> np.ndarray:
    """A processor on a dense matrix: activation first, then (A + A^T) / 2."""
    act = np.tanh if activation == "tanh" else (lambda a: np.maximum(a, 0.0))
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


def floyd_warshall(binary_adj: np.ndarray) -> np.ndarray:
    n = binary_adj.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[binary_adj > 0] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def count_triangles_per_node(binary_adj: np.ndarray) -> np.ndarray:
    n = binary_adj.shape[0]
    tri = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j != i and k != i and k != j:
                    if binary_adj[i, j] and binary_adj[j, k] and binary_adj[i, k]:
                        tri[i] += 1
    return tri // 2  # each triangle visited with (j, k) in both orders


def normalized_laplacian_dense(binary_adj: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian; isolated nodes get a zero row/column
    (so each isolated node contributes a zero eigenvalue)."""
    a = np.asarray(binary_adj, dtype=np.float64)
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = -a * inv[:, None] * inv[None, :]
    lap[np.diag_indices_from(lap)] = np.where(deg > 0, 1.0, 0.0)
    return lap


def graph_statistics(adj: np.ndarray) -> dict:
    """Every learned-graph statistic from first principles: Floyd-Warshall
    distances, triple-loop triangle counts, and LAPACK eigendecompositions."""
    binary = ((adj > 0) | (adj.T > 0)).astype(float)
    np.fill_diagonal(binary, 0.0)
    degrees = binary.sum(axis=1)
    record = {}
    record["avg_degree"] = degrees.mean()
    record["degree_one_count"] = int((degrees == 1).sum())
    with_deg = degrees[degrees >= 1]
    record["power_law_alpha"] = 1.0 + with_deg.size / np.log(with_deg / 0.5).sum()
    dist = floyd_warshall(binary)
    finite = np.isfinite(dist)
    comp_sizes = finite.sum(axis=1)
    members = np.flatnonzero(comp_sizes == comp_sizes.max())
    block = dist[np.ix_(members, members)]
    record["diameter"] = int(block[np.isfinite(block)].max())
    tri = count_triangles_per_node(binary)
    possible = degrees * (degrees - 1) / 2.0
    local = np.divide(tri, possible, out=np.zeros_like(possible),
                      where=possible > 0)
    record["local_clustering"] = local.mean()
    total_triangles = tri.sum() / 3.0
    record["global_clustering"] = (3.0 * total_triangles / possible.sum()
                                   if possible.sum() > 0 else 0.0)
    weighted = np.where(adj > 0, adj, 0.0)
    if np.allclose(weighted, weighted.T):
        record["spectral_radius"] = float(np.linalg.eigvalsh(weighted).max())
    else:
        record["spectral_radius"] = float(max(np.linalg.eigvals(weighted).real))
    lap = normalized_laplacian_dense(binary)
    record["algebraic_connectivity"] = float(np.linalg.eigvalsh(lap)[1])
    return record


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
