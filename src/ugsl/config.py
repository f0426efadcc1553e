"""Declarative trial configuration, and the codec for every JSON record.

A `GslConfig` fully determines one training run given a dataset and a seed.
Each record leaf states its domain once, in its field (`_leaf`).
`GslConfig.validate(n_nodes)` is the one check of a trial's configuration:
`training.train`, `search.line_search` and `search.sample_config` call it
before any work, and the stages trust what it has checked. It checks every
leaf against its domain, then the few rules that span fields or depend on
the dataset's node count n, and raises `ConfigurationError` naming the leaf
so the CLI can surface it with exit code 2. `to_record` / `from_record`
write and read every dataclass kept as JSON; a field's annotation is its
one type.
"""

from __future__ import annotations

import hashlib
import json
import math
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

# The paper's search-space bounds: the domains of their leaves, and what
# `search.SearchSpace` draws from by default.
LR_RANGE = (1e-3, 1e-1)
WEIGHT_DECAY_RANGE = (5e-4, 5e-2)
DROPOUT_RANGE = (0.0, 0.75)
REG_WEIGHT_RANGE = (0.0, 20.0)
MLP_DEPTHS = (1, 2)
FP_INITS = ("glorot", "cosine")
# the inits a scorer kind takes; att has none
SCORER_INITS = {"mlp": ("glorot", "identity"), "fp": FP_INITS}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


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


def _leaf(default, domain):
    """A record field with its domain, as `check_domain` reads it."""
    return field(default=default, metadata={"domain": domain})


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi, each end closed or open as `ends` writes
    it ("[]", "(]", "[)" or "()"), and null as well when `or_null`."""

    lo: float
    hi: float = math.inf
    ends: str = "[]"
    or_null: bool = False

    def __contains__(self, value) -> bool:
        if value is None:
            return self.or_null
        above = self.lo <= value if self.ends[0] == "[" else self.lo < value
        below = value <= self.hi if self.ends[1] == "]" else value < self.hi
        return above and below

    def __str__(self) -> str:
        if self.hi == math.inf:
            text = f"must be {'>=' if self.ends[0] == '[' else '>'} {self.lo:g}"
        else:
            text = (f"must lie in {self.ends[0]}{self.lo:g}, "
                    f"{self.hi:g}{self.ends[1]}")
        return text + " or null" if self.or_null else text


def check_domain(domain, value, where: str) -> None:
    """Raise ConfigurationError naming `where` unless `value` lies in
    `domain`, an Interval or a tuple of options; a tuple or list value is
    checked member by member."""
    if isinstance(value, (tuple, list)):
        for member in value:
            check_domain(domain, member, where)
    elif value not in domain:
        raise ConfigurationError(f"{where}: {domain}, got {value}"
                                 if isinstance(domain, Interval) else
                                 f"{where}: {value!r} not in {domain}")


def leaves(obj, prefix: str = ""):
    """(path, value, domain) of every record leaf under dataclass `obj`,
    the path dotted as in `sparsifier.epsilon`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value, f.metadata.get("domain")


@dataclass
class PositionalConfig:
    kind: str = _leaf("none", POSITIONAL_KINDS)
    wl_iterations: int = _leaf(2, Interval(1))
    pe_dim: int = _leaf(16, Interval(1))


@dataclass
class ScorerConfig:
    kind: str = _leaf("mlp", SCORER_KINDS)
    mlp_depth: int = _leaf(1, MLP_DEPTHS)
    # None means "match the input width"
    mlp_width: int | None = _leaf(None, Interval(1, or_null=True))
    init: str = _leaf("identity", ("glorot", "identity", "cosine"))
    heads: int = _leaf(2, Interval(1))


@dataclass
class SparsifierConfig:
    kind: str = _leaf("knn", SPARSIFIER_KINDS)
    k: int = _leaf(20, Interval(1))
    dilation: int = _leaf(2, Interval(1))
    epsilon: float = _leaf(0.5, Interval(0, 1, "()"))
    temperature: float = _leaf(1.0, Interval(0, ends="()"))

    @property
    def stride(self) -> int:
        """The top-k kinds keep k of each row's k * stride best columns."""
        return 1 if self.kind == "knn" else self.dilation


@dataclass
class ProcessorConfig:
    mode: str = _leaf("none", PROCESSOR_MODES)


@dataclass
class EncoderConfig:
    kind: str = _leaf("gcn", ENCODER_KINDS)


@dataclass
class DaeConfig:
    mask_rate: float = _leaf(0.2, Interval(0, 1, "()"))
    hidden: int = _leaf(512, Interval(1))


@dataclass
class ContrastiveConfig:
    mask_rate: float = _leaf(0.2, Interval(0, 1, "()"))
    temperature: float = _leaf(0.5, Interval(0, ends="()"))
    tau: float = _leaf(0.1, Interval(0, 1, "[)"))


@dataclass
class ObjectiveConfig:
    lambda_closeness: float = _leaf(0.0, Interval(*REG_WEIGHT_RANGE))
    lambda_smoothness: float = _leaf(0.0, Interval(*REG_WEIGHT_RANGE))
    lambda_sparse_connect: float = _leaf(0.0, Interval(*REG_WEIGHT_RANGE))
    lambda_log_barrier: float = _leaf(0.0, Interval(*REG_WEIGHT_RANGE))
    unsupervised: tuple[str, ...] = _leaf((), UNSUPERVISED)
    dae: DaeConfig = field(default_factory=DaeConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)

    def regularizer_set(self) -> tuple:
        return tuple(name for name in REGULARIZERS
                     if getattr(self, f"lambda_{name}") > 0)


@dataclass
class GslConfig:
    seed: int = _leaf(0, Interval(0))
    lr: float = _leaf(0.01, Interval(*LR_RANGE))
    weight_decay: float = _leaf(5e-4, Interval(*WEIGHT_DECAY_RANGE))
    dropout: float = _leaf(0.5, Interval(*DROPOUT_RANGE))
    activation: str = _leaf("relu", ACTIVATIONS)
    adjacency_mode: str = _leaf("one", ADJACENCY_MODES)
    hidden_units: int = _leaf(32, Interval(1))
    max_epochs: int = _leaf(1000, Interval(1))
    patience: int = _leaf(30, Interval(1))
    positional: PositionalConfig = field(default_factory=PositionalConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    sparsifier: SparsifierConfig = field(default_factory=SparsifierConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)

    def validate(self, n_nodes: int | None = None) -> None:
        """Check every leaf against its domain, whatever kinds are on, then
        the rules that span fields (a kind's scorer init, square layers for
        an identity mlp init, an even wl pe_dim) and, given n, those that
        depend on it (top-k k * stride <= n - 1, spectral pe_dim <= n)."""
        for path, value, domain in leaves(self):
            check_domain(domain, value, path)
        scorer, positional = self.scorer, self.positional
        inits = SCORER_INITS.get(scorer.kind, (scorer.init,))
        _require(scorer.init in inits,
                 f"scorer.init: {scorer.kind} init must be one of {inits}")
        _require(scorer.kind != "mlp" or scorer.init != "identity"
                 or scorer.mlp_width is None,
                 "scorer.init: identity init requires square layers "
                 "(mlp_width must be None)")
        _require(positional.kind != "wl" or positional.pe_dim % 2 == 0,
                 "positional.pe_dim: must be even for wl")
        if n_nodes is None:
            return
        k, stride = self.sparsifier.k, self.sparsifier.stride
        _require(self.sparsifier.kind not in ("knn", "dknn", "random_dknn")
                 or k * stride <= n_nodes - 1,
                 f"sparsifier.k: k*stride={k * stride} exceeds "
                 f"n-1={n_nodes - 1}")
        _require(positional.kind != "spectral" or positional.pe_dim <= n_nodes,
                 f"positional.pe_dim: {positional.pe_dim} eigenvectors exceed "
                 f"n={n_nodes}")

    def to_dict(self) -> dict:
        return to_record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GslConfig":
        return from_record(cls, d, "config")

    def config_hash(self) -> str:
        return record_hash(self.to_dict())
