"""Datasets, file ingestion, splits, and kNN graph construction.

On-disk layout
--------------
A dataset is described by a JSON manifest::

    {
      "features": "features.csv",      # or .bin, see below
      "labels": "labels.csv",          # one integer per line
      "splits": {"train": "train.csv", "val": "val.csv", "test": "test.csv"},
      "num_classes": 7,
      "feature_kind": "binary"         # or "continuous"
    }

Paths are resolved relative to the manifest. Features are either CSV (one
node per row, comma-separated floats) or raw binary: two little-endian
int64 values (n, d) followed by n*d little-endian float64 values in row
order. Split files list node indices, one per line.

A dataset carries node features and no input graph: learned structure is
the model's job, and bootstrap kNN graphs are built from the features on
demand as `tensor.Edges` lists, their edges picked by `ranked_columns`
and `row_edges` like the sparsifiers' edges.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError
from .tensor import Edges, coalesce, constant, edges_at

FEATURE_KINDS = ("binary", "continuous")


@dataclass
class Graph:
    features: np.ndarray  # (n, d) float64

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        if self.features.ndim != 2:
            raise IngestionError("features must be a 2-D matrix")
        if not np.isfinite(self.features).all():
            raise IngestionError("features contain non-finite (NaN or inf) entries")


@dataclass
class Dataset:
    graph: Graph
    labels: np.ndarray  # (n,) int64
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    feature_kind: str = "continuous"
    name: str = "dataset"

    @property
    def n(self) -> int:
        return self.graph.n

    def digest(self) -> str:
        """sha256 of what a trial reads from the dataset: the dtype, shape
        and bytes of the features, the labels and the three split masks."""
        h = hashlib.sha256()
        for a in (self.graph.features, self.labels, self.train_mask,
                  self.val_mask, self.test_mask):
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        self.graph.validate()
        n = self.graph.n
        if not 1 <= self.num_classes <= n:  # also rejects a node-less set
            raise IngestionError(f"need 1 <= num_classes <= n, got "
                                 f"{self.num_classes} classes for {n} nodes")
        if self.labels.shape != (n,):
            raise IngestionError(
                f"labels must have one entry per node: features have {n} rows, "
                f"labels have {self.labels.shape[0]}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise IngestionError(
                f"labels must lie in [0, {self.num_classes}); "
                f"found {self.labels.min()}..{self.labels.max()}")
        if self.feature_kind not in FEATURE_KINDS:
            raise IngestionError(f"feature_kind must be one of {FEATURE_KINDS}")
        masks = (self.train_mask, self.val_mask, self.test_mask)
        for name, m in zip(("train", "val", "test"), masks):
            if m.shape != (n,) or m.dtype != bool:
                raise IngestionError(f"{name} mask must be a bool vector of length {n}")
            if not m.any():
                raise IngestionError(f"{name} mask is empty")
        if ((self.train_mask & self.val_mask).any()
                or (self.train_mask & self.test_mask).any()
                or (self.val_mask & self.test_mask).any()):
            raise IngestionError("split masks overlap")


@dataclass
class SplitSpec:
    """Either random fractions (seeded) or explicit index lists."""

    seed: int = 0
    fractions: tuple = (0.5, 0.2, 0.3)
    indices: dict | None = None  # {"train": [...], "val": [...], "test": [...]}

    def validate(self) -> None:
        if self.indices is None:
            if len(self.fractions) != 3:
                raise ConfigurationError("fractions must list train/val/test")
            if any(f < 0 for f in self.fractions):
                raise ConfigurationError("fractions must be nonnegative")
            if sum(self.fractions) > 1.0 + 1e-12:
                raise ConfigurationError(
                    f"fractions sum to {sum(self.fractions)} > 1")


def make_splits(n: int, spec: SplitSpec):
    """Deterministic train/val/test masks; explicit index lists pass through."""
    spec.validate()
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    if spec.indices is not None:
        for m, key in zip(masks, ("train", "val", "test")):
            idx = np.asarray(spec.indices[key], dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ConfigurationError(f"split index out of range for n={n}")
            m[idx] = True
        return tuple(masks)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    start = 0
    for m, frac in zip(masks, spec.fractions):
        size = int(np.floor(frac * n))
        m[perm[start:start + size]] = True
        start += size
    return tuple(masks)


# ---------------------------------------------------------------------------
# top-k edge selection: the bootstrap kNN graph and the sparsifiers in
# `layers` pick their edges through the same three helpers. Picks come
# from a partition, with a stable full sort only for rows whose cut is
# tied or not finite, so each equals that sort's prefix (`ranked_columns`)

def cosine_similarity(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the rows; row norms are floored at
    1e-12 so a zero row has similarity 0 to everything."""
    y = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    return y @ y.T


def ranked_columns(scores: np.ndarray, count: int) -> np.ndarray:
    """The `count` highest-scoring columns of each row (1 <= count <= n),
    best first: exactly the first `count` columns of a stable argsort of
    the negated scores with the diagonal scored -inf, so ties go to the
    lower index and the diagonal is never ranked above a finite score.
    `argpartition` picks each row's columns and only those are sorted, by
    (-score, index). A row whose boundary key ties an unpicked column, or
    is not finite (-inf or NaN scores), has no unique pick and is ranked
    by one stable argsort over all such rows."""
    keys = -scores
    np.fill_diagonal(keys, np.inf)
    picked = np.sort(np.argpartition(keys, count - 1, axis=1)[:, :count], axis=1)
    picked_keys = np.take_along_axis(keys, picked, axis=1)
    bound = picked_keys.max(axis=1, keepdims=True)
    ranked = np.take_along_axis(
        picked, np.argsort(picked_keys, axis=1, kind="stable"), axis=1)
    redo = ~np.isfinite(bound[:, 0]) | ((keys <= bound).sum(axis=1) > count)
    if redo.any():
        ranked[redo] = np.argsort(keys[redo], axis=1, kind="stable")[:, :count]
    return ranked


def row_edges(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) edges that keep columns[i] in row i: rows sorted,
    each row's columns ascending."""
    n, count = columns.shape
    return (np.repeat(np.arange(n), count),
            np.sort(columns, axis=1).reshape(-1))


def knn_graph(features: np.ndarray, k: int) -> Edges:
    """Directed kNN graph as a constant edge list: row i holds the cosine
    similarity of its k most similar distinct nodes (self excluded, ties
    to the lower index); a similarity of exactly 0 is no edge."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ConfigurationError(f"knn_graph: need 1 <= k < n, got k={k}, n={n}")
    sims = cosine_similarity(x)
    rows, cols = row_edges(ranked_columns(sims, k))
    keep = sims[rows, cols] != 0
    return edges_at(constant(sims), rows[keep], cols[keep])


# ---------------------------------------------------------------------------
# manifest ingestion

def _loadtxt(path: Path, **kwargs) -> np.ndarray:
    """`np.loadtxt`, a parse error raised as IngestionError; an empty file
    loads without numpy's warning (`Dataset.validate` rejects it)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(path, **kwargs)
    except ValueError as err:
        raise IngestionError(f"{path}: {err}") from err


def _read_features(path: Path) -> np.ndarray:
    if path.suffix == ".bin":
        raw = path.read_bytes()
        if len(raw) < 16 or (len(raw) - 16) % 8 != 0:
            raise IngestionError(
                f"{path}: truncated binary features ({len(raw)} bytes; need a "
                f"16-byte header and a body of whole float64 values)")
        header = np.frombuffer(raw[:16], dtype="<i8")
        n, d = int(header[0]), int(header[1])
        body = np.frombuffer(raw[16:], dtype="<f8")
        if n < 0 or d < 0 or body.size != n * d:
            raise IngestionError(
                f"{path}: header promises {n}x{d} values, found {body.size}")
        return body.reshape(n, d).copy()
    return _loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def _read_int_column(path: Path) -> np.ndarray:
    return _loadtxt(path, dtype=np.int64, ndmin=1).reshape(-1)


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest and return a validated Dataset."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise IngestionError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise IngestionError(f"{manifest_path}: invalid JSON ({err})") from err
    base = manifest_path.parent
    for key in ("features", "labels", "splits", "num_classes"):
        if key not in manifest:
            raise IngestionError(f"{manifest_path}: missing manifest key {key!r}")

    def resolve(rel) -> Path:
        p = base / rel
        if not p.exists():
            raise IngestionError(f"referenced file not found: {p}")
        return p

    features = _read_features(resolve(manifest["features"]))
    labels = _read_int_column(resolve(manifest["labels"]))
    if labels.shape[0] != features.shape[0]:
        raise IngestionError(
            f"row count mismatch: {features.shape[0]} feature rows vs "
            f"{labels.shape[0]} labels")
    splits = manifest["splits"]
    keys = ("train", "val", "test")
    if not isinstance(splits, dict) or not set(keys) <= set(splits):
        raise IngestionError(
            f"{manifest_path}: splits must name train, val and test files")
    indices = {key: _read_int_column(resolve(splits[key])).tolist()
               for key in keys}
    n = features.shape[0]
    try:
        train, val, test = make_splits(n, SplitSpec(indices=indices))
    except ConfigurationError as err:
        raise IngestionError(str(err)) from err
    try:
        num_classes = int(manifest["num_classes"])
    except (TypeError, ValueError) as err:
        raise IngestionError(
            f"{manifest_path}: num_classes is not an integer "
            f"({manifest['num_classes']!r})") from err
    dataset = Dataset(
        graph=Graph(features=features),
        labels=labels,
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        feature_kind=manifest.get("feature_kind", "continuous"),
        name=manifest.get("name", manifest_path.stem),
    )
    dataset.validate()
    return dataset


def save_dataset(dataset: Dataset, out_dir, feature_format: str = "csv") -> Path:
    """Write a dataset back to manifest form; returns the manifest path.

    CSV floats are written with 17 significant digits so a save/load round
    trip is bit-exact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    feats = dataset.graph.features
    if feature_format == "csv":
        feat_name = "features.csv"
        np.savetxt(out / feat_name, feats, delimiter=",", fmt="%.17g")
    elif feature_format == "binary":
        feat_name = "features.bin"
        with open(out / feat_name, "wb") as fh:
            fh.write(np.array(feats.shape, dtype="<i8").tobytes())
            fh.write(feats.astype("<f8").tobytes())
    else:
        raise ConfigurationError(f"unknown feature_format {feature_format!r}")
    np.savetxt(out / "labels.csv", dataset.labels, fmt="%d")
    for key, mask in (("train", dataset.train_mask), ("val", dataset.val_mask),
                      ("test", dataset.test_mask)):
        np.savetxt(out / f"{key}.csv", np.flatnonzero(mask), fmt="%d")
    manifest = {
        "name": dataset.name,
        "features": feat_name,
        "labels": "labels.csv",
        "splits": {"train": "train.csv", "val": "val.csv", "test": "test.csv"},
        "num_classes": dataset.num_classes,
        "feature_kind": dataset.feature_kind,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# the edge-list TSV, the learned graph's interchange format, `Edges` both ways

def write_edge_tsv(adjacency: Edges, path) -> None:
    """Write each pair's `coalesce`d sum as "src\\tdst\\tweight" (17
    significant digits) sorted by (src, dst); a sum of 0 is no edge."""
    pairs = coalesce(adjacency.rows, adjacency.cols, adjacency.n,
                     adjacency.vals)
    weights = pairs.vals.values[:, 0]
    keep = weights != 0
    with open(path, "w") as fh:
        for r, c, w in zip(pairs.rows[keep], pairs.cols[keep], weights[keep]):
            fh.write(f"{r}\t{c}\t{w:.17g}\n")


def read_edge_list(path, n: int) -> Edges:
    """The constant `Edges` of a TSV over nodes 0..n-1, each pair once in
    (row, col) order; a pair listed twice keeps its last weight."""
    if n < 1:
        raise ConfigurationError(f"read_edge_list: need n >= 1, got {n}")
    keys, weights = [], []
    try:
        fh = open(path)
    except OSError as err:
        raise IngestionError(f"edge list: {err}") from err
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            try:
                src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
            except (ValueError, IndexError) as err:
                raise IngestionError(f"{path}: malformed line {lineno}") from err
            if not np.isfinite(w):
                raise IngestionError(
                    f"{path}: line {lineno} has non-finite weight {parts[2]}")
            if not (0 <= src < n and 0 <= dst < n):
                raise IngestionError(
                    f"{path}: line {lineno} references node outside 0..{n - 1}")
            keys.append(src * n + dst)
            weights.append(w)
    # np.unique keeps a key's first index, so search the lines backwards
    keys, last = np.unique(np.array(keys, dtype=np.intp)[::-1],
                           return_index=True)
    weights = np.array(weights, dtype=np.float64)[::-1][last]
    return Edges(keys // n, keys % n, n, constant(weights.reshape(-1, 1)))


# ---------------------------------------------------------------------------
# synthetic fixtures

def make_blobs(n: int = 300, d: int = 16, num_classes: int = 3, seed: int = 7,
               center_scale: float = 6.0,
               fractions: tuple = (0.2, 0.3, 0.5)) -> Dataset:
    """Gaussian blobs with well-separated class centers; a linear probe on
    the raw features reaches ~1.0 accuracy, which pins down what any decent
    model should achieve."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, d))
    centers *= center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, d))
    train, val, test = make_splits(n, SplitSpec(seed=seed, fractions=fractions))
    return Dataset(
        graph=Graph(features=features),
        labels=labels.astype(np.int64),
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        feature_kind="continuous",
        name=f"blobs-n{n}-d{d}-s{seed}",
    )


def make_fixture(seed: int = 0) -> Dataset:
    """Tiny 4-node, 2-class dataset for smoke tests."""
    features = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 1], dtype=np.int64)
    train = np.array([True, False, True, False])
    val = np.array([False, True, False, False])
    test = np.array([False, False, False, True])
    return Dataset(
        graph=Graph(features=features),
        labels=labels,
        num_classes=2,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        feature_kind="continuous",
        name="fixture4",
    )
