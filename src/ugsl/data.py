"""Datasets, file ingestion, splits, and kNN graph construction.

On-disk layout
--------------
A dataset is described by a JSON manifest::

    {
      "features": "features.csv",      # or .bin, see below
      "labels": "labels.csv",          # one integer per line
      "splits": {"train": "train.csv", "val": "val.csv", "test": "test.csv"},
      "num_classes": 7,
      "feature_kind": "binary",        # or "continuous", the default
      "name": "cora"                   # absent or null: the manifest's stem
    }

a `Manifest` record: an unknown key, a value of another type or an
empty name is an IngestionError. Paths are resolved relative to the
manifest. Features are either CSV (one node per row, comma-separated
floats) or raw binary: two little-endian int64 values (n, d) followed by
n*d little-endian float64 values in row order. Split files list node
indices in 0..n-1, one per line.

A dataset carries node features and no input graph: learned structure is
the model's job, and `training.train` builds one bootstrap kNN graph of
the features per trial (see `bootstrap_k`) as a `tensor.Edges` list, its
edges picked by `ranked_columns` and `row_edges` like the sparsifiers'
edges. `cosine_similarity` normalizes rows with `tensor.normalize_rows`,
as the cosine scorers do. `ranked_columns` holds at most
`errors.BLOCK_BYTES` of score rows at once.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .config import from_record, to_record
from .errors import ConfigurationError, IngestionError, row_blocks
from .tensor import Edges, coalesce, constant, edges_at, normalize_rows

FEATURE_KINDS = ("binary", "continuous")
# the most nodes whose (row, col) pair keys row * n + col fit in an intp
_MAX_NODES = math.isqrt(np.iinfo(np.intp).max)


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
                f"labels must have one entry per node: {n} feature rows vs "
                f"{self.labels.shape[0]} labels")
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
    """Seeded random train/val/test fractions."""

    seed: int = 0
    fractions: tuple = (0.5, 0.2, 0.3)

    def validate(self) -> None:
        if len(self.fractions) != 3:
            raise ConfigurationError("fractions must list train/val/test")
        if any(f < 0 for f in self.fractions):
            raise ConfigurationError("fractions must be nonnegative")
        if sum(self.fractions) > 1.0 + 1e-12:
            raise ConfigurationError(
                f"fractions sum to {sum(self.fractions)} > 1")


def make_splits(n: int, spec: SplitSpec):
    """Deterministic train/val/test masks: consecutive runs of one seeded
    permutation, each floor(fraction * n) long."""
    spec.validate()
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
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
    """Pairwise cosine similarity of the rows, normalized by
    `tensor.normalize_rows`, so a zero row has similarity 0 to
    everything."""
    y = normalize_rows(constant(x)).values
    return y @ y.T


def ranked_columns(scores: np.ndarray, count: int) -> np.ndarray:
    """The `count` highest-scoring columns of each row (1 <= count <= n),
    best first: exactly the first `count` columns of a stable argsort of
    the negated scores with the diagonal scored -inf, so ties go to the
    lower index and the diagonal is never ranked above a finite score.
    `argpartition` picks each row's columns and only those are sorted, by
    (-score, index). A row whose boundary key ties an unpicked column, or
    is not finite (-inf or NaN scores), has no unique pick and is ranked
    by one stable argsort over all such rows. Rows are independent, so
    they are ranked in `errors.row_blocks` of keys."""
    n, width = scores.shape
    ranked = np.empty((n, count), dtype=np.intp)
    for rows in row_blocks(n, 8 * width):
        keys = -scores[rows]
        local = np.arange(keys.shape[0])
        keys[local, local + rows.start] = np.inf  # the diagonal
        picked = np.sort(np.argpartition(keys, count - 1, axis=1)[:, :count],
                         axis=1)
        picked_keys = np.take_along_axis(keys, picked, axis=1)
        bound = picked_keys.max(axis=1, keepdims=True)
        block = np.take_along_axis(
            picked, np.argsort(picked_keys, axis=1, kind="stable"), axis=1)
        redo = (~np.isfinite(bound[:, 0])
                | ((keys <= bound).sum(axis=1) > count))
        if redo.any():
            block[redo] = np.argsort(keys[redo], axis=1,
                                     kind="stable")[:, :count]
        ranked[rows] = block
    return ranked


def row_edges(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) edges that keep columns[i] in row i: rows sorted,
    each row's columns ascending."""
    n, count = columns.shape
    return (np.repeat(np.arange(n), count),
            np.sort(columns, axis=1).reshape(-1))


def bootstrap_k(n: int) -> int:
    """The k of the bootstrap kNN graph and of the base model's
    sparsifier: 15, clamped to n - 1 for tiny graphs. `training.train`
    builds that graph once per trial for its three readers: the wl and
    spectral positional encodings and the closeness regularizer."""
    return min(15, n - 1)


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

@dataclass
class Splits:
    train: str
    val: str
    test: str


@dataclass
class Manifest:
    """A dataset manifest, read and written by the `config` record codec."""

    features: str
    labels: str
    splits: Splits
    num_classes: int
    feature_kind: str = "continuous"
    name: str | None = None  # None: the manifest file's stem


def _read(path: Path, load=np.loadtxt, **kwargs):
    """`load(path, **kwargs)`, a read or parse error raised as
    IngestionError; an empty file loads without numpy's warning
    (`Dataset.validate` rejects it)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return load(path, **kwargs)
    except (OSError, ValueError) as err:
        raise IngestionError(f"{path}: {err}") from err


def _read_features(path: Path) -> np.ndarray:
    if path.suffix == ".bin":
        raw = _read(path, Path.read_bytes)
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
    return _read(path, delimiter=",", dtype=np.float64, ndmin=2)


def _read_int_column(path: Path) -> np.ndarray:
    return _read(path, dtype=np.int64, ndmin=1).reshape(-1)


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest and return a validated Dataset."""
    manifest_path = Path(manifest_path)
    try:
        manifest = from_record(Manifest, json.loads(manifest_path.read_text()),
                               "manifest")
    except FileNotFoundError as err:
        raise IngestionError(f"manifest not found: {manifest_path}") from err
    except (OSError, ValueError, ConfigurationError) as err:
        raise IngestionError(f"{manifest_path}: {err}") from err
    if manifest.name == "":
        raise IngestionError(f"{manifest_path}: manifest.name: empty; give a "
                             f"name, or null for the file's stem")
    base = manifest_path.parent
    features = _read_features(base / manifest.features)
    labels = _read_int_column(base / manifest.labels)
    n = features.shape[0]
    masks = []
    for rel in astuple(manifest.splits):
        idx = _read_int_column(base / rel)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IngestionError(f"{base / rel}: split index outside 0..{n - 1}")
        masks.append(np.zeros(n, dtype=bool))
        masks[-1][idx] = True
    dataset = Dataset(
        Graph(features), labels, manifest.num_classes, *masks,
        feature_kind=manifest.feature_kind,
        name=manifest_path.stem if manifest.name is None else manifest.name)
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
    manifest = Manifest(features=feat_name, labels="labels.csv",
                        splits=Splits("train.csv", "val.csv", "test.csv"),
                        num_classes=dataset.num_classes,
                        feature_kind=dataset.feature_kind, name=dataset.name)
    path = out / "manifest.json"
    path.write_text(json.dumps(to_record(manifest), indent=2) + "\n")
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
    if not 1 <= n <= _MAX_NODES:
        raise ConfigurationError(
            f"read_edge_list: need 1 <= n <= {_MAX_NODES}, got {n}")
    keys, weights = [], []
    text = _read(Path(path), Path.read_text)
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def make_fixture() -> Dataset:
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
