"""Declarative trial configuration, and the codec for every JSON record.

A `GslConfig` fully determines one training run given a dataset and a seed.
`GslConfig.validate(n_nodes)` is the one check of a trial's configuration:
`training.train`, `search.line_search` and `search.sample_config` call it
before any work, and the stages trust what it has checked. It raises
`ConfigurationError` naming the offending field so the CLI can surface it
with exit code 2. Two bounds depend on the dataset's node count n and are
checked only when it is given: a top-k sparsifier's k * stride <= n - 1,
and a spectral encoding's pe_dim <= n. `to_record` / `from_record` write and
read every dataclass kept as JSON; a field's annotation is its one type.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .errors import ConfigurationError

SCORER_KINDS = ("fp", "att", "mlp")
SPARSIFIER_KINDS = ("knn", "dknn", "random_dknn", "epsnn", "bernoulli")
PROCESSOR_MODES = ("none", "symmetrize", "activation", "activation_symmetrize")
ENCODER_KINDS = ("gcn", "gin", "mlp")
POSITIONAL_KINDS = ("none", "wl", "spectral")
ACTIVATIONS = ("relu", "tanh")
ADJACENCY_MODES = ("one", "per_layer")
REGULARIZERS = ("closeness", "smoothness", "sparse_connect", "log_barrier")
UNSUPERVISED = ("dae", "contrastive")

# The paper's search-space bounds: `validate` accepts values inside them,
# and `search.SearchSpace` draws from them by default.
LR_RANGE = (1e-3, 1e-1)
WEIGHT_DECAY_RANGE = (5e-4, 5e-2)
DROPOUT_RANGE = (0.0, 0.75)
REG_WEIGHT_RANGE = (0.0, 20.0)
MLP_DEPTHS = (1, 2)
FP_INITS = ("glorot", "cosine")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _require_within(value: float, bounds: tuple, name: str) -> None:
    lo, hi = bounds
    _require(lo <= value <= hi,
             f"{name}: must lie in [{lo:g}, {hi:g}], got {value}")


def to_record(obj):
    """A dataclass as JSON values: nested dataclasses become objects and
    tuples lists; fields marked `metadata={"record": False}` are left out."""
    if is_dataclass(obj):
        return {f.name: to_record(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("record", True)}
    if isinstance(obj, (tuple, list)):
        return [to_record(v) for v in obj]
    return obj


def record_hash(record) -> str:
    """First 16 hex digits of the sha256 of a record's sorted-key JSON."""
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def from_record(cls, record, where: str):
    """Dataclass `cls` built from a JSON object; absent fields take their
    defaults. Raises ConfigurationError naming the path of the first bad
    value: not an object, an unknown or missing required field, or a
    value that does not match its annotation (see `_check`)."""
    if not isinstance(record, dict):
        raise ConfigurationError(f"{where}: expected an object, "
                                 f"got {_type_name(record)}")
    known = {f.name: f for f in fields(cls) if f.metadata.get("record", True)}
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {unknown}")
    for name, f in known.items():
        if name not in record and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ConfigurationError(f"{where}.{name}: required field missing")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _check(hints[name], value, f"{where}.{name}")
                  for name, value in record.items()})


def _type_name(value) -> str:
    return "null" if value is None else type(value).__name__


def _check(tp, value, where: str):
    """`value` checked against annotation `tp`, a list made a tuple where
    `tp` says tuple. A float also takes an int, kept as written; bool is
    neither; `X | None` takes null."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:  # X | None, written in that order
        return None if value is None else _check(args[0], value, where)
    if is_dataclass(tp):
        return from_record(tp, value, where)
    if origin in (tuple, list) and isinstance(value, list):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{where}: expected {len(args)} items, "
                                     f"got {len(value)}")
        return origin(_check(arg, v, f"{where}[{i}]")
                      for i, (arg, v) in enumerate(zip(args, value)))
    if origin:
        raise ConfigurationError(
            f"{where}: expected a list, got {_type_name(value)}")
    if not isinstance(value, (int, float) if tp is float else tp) or \
            (isinstance(value, bool) and tp is not bool):
        raise ConfigurationError(
            f"{where}: expected {tp.__name__}, got {_type_name(value)}")
    return value


@dataclass
class PositionalConfig:
    kind: str = "none"
    wl_iterations: int = 2
    pe_dim: int = 16

    def validate(self, n_nodes: int | None = None) -> None:
        _require(self.kind in POSITIONAL_KINDS,
                 f"positional.kind: {self.kind!r} not in {POSITIONAL_KINDS}")
        _require(self.wl_iterations >= 1, "positional.wl_iterations: must be >= 1")
        _require(self.pe_dim >= 1, "positional.pe_dim: must be >= 1")
        if self.kind == "wl":
            _require(self.pe_dim % 2 == 0, "positional.pe_dim: must be even for wl")
        if n_nodes is not None and self.kind == "spectral":
            _require(self.pe_dim <= n_nodes,
                     f"positional.pe_dim: {self.pe_dim} eigenvectors exceed "
                     f"n={n_nodes}")


@dataclass
class ScorerConfig:
    kind: str = "mlp"
    mlp_depth: int = 1
    mlp_width: int | None = None  # None means "match the input width"
    init: str = "identity"  # mlp: glorot|identity; fp: glorot|cosine
    heads: int = 2

    def validate(self) -> None:
        _require(self.kind in SCORER_KINDS,
                 f"scorer.kind: {self.kind!r} not in {SCORER_KINDS}")
        if self.kind == "mlp":
            _require(self.mlp_depth in MLP_DEPTHS,
                     f"scorer.mlp_depth: must be one of {MLP_DEPTHS}")
            _require(self.init in ("glorot", "identity"),
                     "scorer.init: mlp init must be glorot or identity")
            if self.init == "identity":
                _require(self.mlp_width is None,
                         "scorer.init: identity init requires square layers "
                         "(mlp_width must be None)")
            if self.mlp_width is not None:
                _require(self.mlp_width >= 1, "scorer.mlp_width: must be >= 1")
        elif self.kind == "fp":
            _require(self.init in FP_INITS,
                     f"scorer.init: fp init must be one of {FP_INITS}")
        else:
            _require(self.heads >= 1, "scorer.heads: must be >= 1")


@dataclass
class SparsifierConfig:
    kind: str = "knn"
    k: int = 20
    dilation: int = 2
    epsilon: float = 0.5
    temperature: float = 1.0

    def validate(self, n_nodes: int | None = None) -> None:
        _require(self.kind in SPARSIFIER_KINDS,
                 f"sparsifier.kind: {self.kind!r} not in {SPARSIFIER_KINDS}")
        _require(self.k >= 1, "sparsifier.k: must be >= 1")
        _require(self.dilation >= 1, "sparsifier.dilation: must be >= 1")
        _require(0.0 < self.epsilon < 1.0, "sparsifier.epsilon: must lie in (0, 1)")
        _require(self.temperature > 0.0, "sparsifier.temperature: must be > 0")
        if n_nodes is not None and self.kind in ("knn", "dknn", "random_dknn"):
            _require(self.k * self.stride <= n_nodes - 1,
                     f"sparsifier.k: k*stride={self.k * self.stride} "
                     f"exceeds n-1={n_nodes - 1}")

    @property
    def stride(self) -> int:
        """The top-k kinds keep k of each row's k * stride best columns."""
        return 1 if self.kind == "knn" else self.dilation


@dataclass
class ProcessorConfig:
    mode: str = "none"

    def validate(self) -> None:
        _require(self.mode in PROCESSOR_MODES,
                 f"processor.mode: {self.mode!r} not in {PROCESSOR_MODES}")


@dataclass
class EncoderConfig:
    kind: str = "gcn"

    def validate(self) -> None:
        _require(self.kind in ENCODER_KINDS,
                 f"encoder.kind: {self.kind!r} not in {ENCODER_KINDS}")


@dataclass
class DaeConfig:
    mask_rate: float = 0.2
    hidden: int = 512

    def validate(self) -> None:
        _require(0.0 < self.mask_rate < 1.0, "dae.mask_rate: must lie in (0, 1)")
        _require(self.hidden >= 1, "dae.hidden: must be >= 1")


@dataclass
class ContrastiveConfig:
    mask_rate: float = 0.2
    temperature: float = 0.5
    tau: float = 0.1

    def validate(self) -> None:
        _require(0.0 < self.mask_rate < 1.0,
                 "contrastive.mask_rate: must lie in (0, 1)")
        _require(self.temperature > 0.0, "contrastive.temperature: must be > 0")
        _require(0.0 <= self.tau < 1.0, "contrastive.tau: must lie in [0, 1)")


@dataclass
class ObjectiveConfig:
    lambda_closeness: float = 0.0
    lambda_smoothness: float = 0.0
    lambda_sparse_connect: float = 0.0
    lambda_log_barrier: float = 0.0
    unsupervised: tuple[str, ...] = ()
    dae: DaeConfig = field(default_factory=DaeConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)

    def validate(self) -> None:
        for name in REGULARIZERS:
            _require_within(getattr(self, f"lambda_{name}"), REG_WEIGHT_RANGE,
                            f"objective.lambda_{name}")
        for kind in self.unsupervised:
            _require(kind in UNSUPERVISED,
                     f"objective.unsupervised: {kind!r} not in {UNSUPERVISED}")
        if "dae" in self.unsupervised:
            self.dae.validate()
        if "contrastive" in self.unsupervised:
            self.contrastive.validate()

    def regularizer_set(self) -> tuple:
        return tuple(name for name in REGULARIZERS
                     if getattr(self, f"lambda_{name}") > 0)


@dataclass
class GslConfig:
    seed: int = 0
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    activation: str = "relu"
    adjacency_mode: str = "one"
    hidden_units: int = 32
    max_epochs: int = 1000
    patience: int = 30
    positional: PositionalConfig = field(default_factory=PositionalConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    sparsifier: SparsifierConfig = field(default_factory=SparsifierConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)

    def validate(self, n_nodes: int | None = None) -> None:
        _require(self.seed >= 0, f"seed: must be >= 0, got {self.seed}")
        _require_within(self.lr, LR_RANGE, "lr")
        _require_within(self.weight_decay, WEIGHT_DECAY_RANGE, "weight_decay")
        _require_within(self.dropout, DROPOUT_RANGE, "dropout")
        _require(self.activation in ACTIVATIONS,
                 f"activation: {self.activation!r} not in {ACTIVATIONS}")
        _require(self.adjacency_mode in ADJACENCY_MODES,
                 f"adjacency_mode: {self.adjacency_mode!r} not in {ADJACENCY_MODES}")
        _require(self.hidden_units >= 1, "hidden_units: must be >= 1")
        _require(self.max_epochs >= 1, "max_epochs: must be >= 1")
        _require(self.patience >= 1, "patience: must be >= 1")
        self.positional.validate(n_nodes)
        self.scorer.validate()
        self.sparsifier.validate(n_nodes)
        self.processor.validate()
        self.encoder.validate()
        self.objective.validate()

    def to_dict(self) -> dict:
        return to_record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GslConfig":
        return from_record(cls, d, "config")

    def config_hash(self) -> str:
        return record_hash(self.to_dict())
