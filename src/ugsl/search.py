"""Component exploration: one-at-a-time line search and full random search,
plus the reports computed from their results.

Line search takes any option the config accepts for the component it
varies (Component.domain). Random search draws each component from the
SearchSpace's list, which may be shorter: the default sparsifier list
leaves out epsnn and bernoulli.

Random search samples every trial configuration up front from a single
seeded generator, so the sampled multiset is independent of how many
workers later execute the trials. Given a worker count, it runs the trials
in spawned worker processes that start with one BLAS thread (WORKER_ENV),
so a trial's bits depend neither on the worker count nor on the thread
settings or core count of the machine that starts the search. Line
search draws its configurations up front as well, and runs them in one
such worker. Each worker also keeps its freed heap memory for reuse
(keep_freed_memory), as the CLI process does; `import ugsl` and
in-process trials leave the caller's allocator alone. Failed trials are
recorded and count toward the budget. Results stream to JSONL (one trial
per line) in trial-id order, and reruns skip trial ids already present in
the output file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .config import (ACTIVATIONS, ADJACENCY_MODES, DROPOUT_RANGE,
                     ENCODER_KINDS, FP_INITS, LR_RANGE, MLP_DEPTHS,
                     POSITIONAL_KINDS, PROCESSOR_MODES, REG_WEIGHT_RANGE,
                     REGULARIZERS, SCORER_INITS, SCORER_KINDS,
                     SPARSIFIER_KINDS, UNSUPERVISED, WEIGHT_DECAY_RANGE,
                     ContrastiveConfig, DaeConfig, EncoderConfig, GslConfig,
                     ObjectiveConfig, PositionalConfig, ProcessorConfig,
                     ScorerConfig, SparsifierConfig, check_domain,
                     from_record, leaves)
from .data import Dataset
from .errors import (ConfigurationError, IngestionError, NumericError,
                     ResourceError)
from .training import TrialResult, train

logger = logging.getLogger(__name__)


def _all_subsets(options) -> tuple:
    out = []
    for r in range(len(options) + 1):
        out.extend(itertools.combinations(options, r))
    return tuple(out)


_LAMBDAS = tuple(f"objective.lambda_{name}" for name in REGULARIZERS)

# The config leaves each SearchSpace field draws. Each value a field holds
# (an option, a subset, a range's end, or the field itself) lies in each
# leaf's domain; a regularizer subset names the lambdas drawn above zero.
SPACE_LEAVES = {
    "positional_kinds": ("positional.kind",),
    "scorer_kinds": ("scorer.kind",),
    "sparsifier_kinds": ("sparsifier.kind",),
    "processor_modes": ("processor.mode",),
    "encoder_kinds": ("encoder.kind",),
    "adjacency_modes": ("adjacency_mode",),
    "regularizer_subsets": _LAMBDAS,
    "unsupervised_subsets": ("objective.unsupervised",),
    "k_options": ("sparsifier.k",),
    "dilation_options": ("sparsifier.dilation",),
    "hidden_options": ("hidden_units",),
    "activation_options": ("activation",),
    "head_options": ("scorer.heads",),
    "mlp_depth_options": ("scorer.mlp_depth",),
    "mlp_width_options": ("scorer.mlp_width",),
    "fp_init_options": ("scorer.init",),
    "wl_iteration_options": ("positional.wl_iterations",),
    "pe_dim_options": ("positional.pe_dim",),
    "lr_range": ("lr",),
    "weight_decay_range": ("weight_decay",),
    "dropout_range": ("dropout",),
    "reg_weight_range": _LAMBDAS,
    "epsilon_range": ("sparsifier.epsilon",),
    "bernoulli_temperature_range": ("sparsifier.temperature",),
    "mask_rate_range": ("objective.dae.mask_rate",
                        "objective.contrastive.mask_rate"),
    "contrastive_temperature_range": ("objective.contrastive.temperature",),
    "contrastive_tau_range": ("objective.contrastive.tau",),
    "dae_hidden_range": ("objective.dae.hidden",),
    "max_epochs": ("max_epochs",),
    "patience": ("patience",),
}


@dataclass
class SearchSpace:
    """Option lists and ranges the sampler draws from, each field drawing
    the config leaves SPACE_LEAVES names. Defaults follow the desk-scale
    setup; the default sparsifier list leaves out the epsilon-threshold and
    Bernoulli sparsifiers, which the config accepts."""

    positional_kinds: tuple[str, ...] = POSITIONAL_KINDS
    scorer_kinds: tuple[str, ...] = SCORER_KINDS
    sparsifier_kinds: tuple[str, ...] = ("knn", "dknn", "random_dknn")
    processor_modes: tuple[str, ...] = PROCESSOR_MODES
    encoder_kinds: tuple[str, ...] = ENCODER_KINDS
    adjacency_modes: tuple[str, ...] = ADJACENCY_MODES
    regularizer_subsets: tuple[tuple[str, ...], ...] = _all_subsets(REGULARIZERS)
    unsupervised_subsets: tuple[tuple[str, ...], ...] = _all_subsets(UNSUPERVISED)

    k_options: tuple[int, ...] = (15, 20, 25, 30)
    dilation_options: tuple[int, ...] = (2, 3)
    hidden_options: tuple[int, ...] = (16, 32, 64, 128)
    activation_options: tuple[str, ...] = ACTIVATIONS
    head_options: tuple[int, ...] = (1, 2, 4)
    mlp_depth_options: tuple[int, ...] = MLP_DEPTHS
    # None keeps the input width
    mlp_width_options: tuple[int | None, ...] = (500, None)
    fp_init_options: tuple[str, ...] = FP_INITS
    wl_iteration_options: tuple[int, ...] = (2, 3)
    pe_dim_options: tuple[int, ...] = (8, 16)

    lr_range: tuple[float, float] = LR_RANGE  # sampled log-uniform
    weight_decay_range: tuple[float, float] = WEIGHT_DECAY_RANGE  # log-uniform
    dropout_range: tuple[float, float] = DROPOUT_RANGE
    reg_weight_range: tuple[float, float] = REG_WEIGHT_RANGE
    epsilon_range: tuple[float, float] = (0.1, 0.9)
    bernoulli_temperature_range: tuple[float, float] = (0.1, 2.0)
    mask_rate_range: tuple[float, float] = (0.01, 0.75)
    contrastive_temperature_range: tuple[float, float] = (0.1, 1.0)
    contrastive_tau_range: tuple[float, float] = (0.0, 0.2)
    dae_hidden_range: tuple[int, int] = (512, 1024)

    max_epochs: int = 200
    patience: int = 30

    def validate(self) -> None:
        """Raise ConfigurationError, naming the space's field rather than a
        drawn trial's, at the first of: an empty option list, a `*_range`
        whose ends are out of order, a value outside the domain of a leaf
        the field draws (SPACE_LEAVES), or an fp init or a wl pe_dim that a
        config rule spanning fields refuses."""
        domains = {path: domain for path, _, domain in leaves(GslConfig())}
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            where = f"search space.{name}"
            if value in ((), []):
                raise ConfigurationError(f"{where}: the option list is empty")
            if name.endswith("_range") and value[0] > value[1]:
                raise ConfigurationError(
                    f"{where}: low {value[0]} exceeds high {value[1]}")
            if name == "regularizer_subsets":  # members name the lambdas
                check_domain(REGULARIZERS, [*itertools.chain(*value)], where)
            elif name == "fp_init_options" and "fp" in self.scorer_kinds:
                check_domain(SCORER_INITS["fp"], value, where)
            else:
                for leaf in SPACE_LEAVES[name]:
                    check_domain(domains[leaf], value, where)
            if name == "pe_dim_options" and "wl" in self.positional_kinds \
                    and any(dim % 2 for dim in value):
                raise ConfigurationError(
                    f"{where}: must be even for wl, got {value}")


def default_search_space(**overrides) -> SearchSpace:
    return replace(SearchSpace(), **overrides)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _uniform(rng: np.random.Generator, bounds) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def _choice(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _sample_scorer(space: SearchSpace, kind: str,
                   rng: np.random.Generator) -> ScorerConfig:
    cfg = ScorerConfig(kind=kind)
    if kind == "fp":
        cfg.init = _choice(rng, space.fp_init_options)
    elif kind == "att":
        cfg.heads = int(_choice(rng, space.head_options))
    else:
        cfg.mlp_depth = int(_choice(rng, space.mlp_depth_options))
        cfg.mlp_width = _choice(rng, space.mlp_width_options)
        cfg.init = "identity" if cfg.mlp_width is None \
            and bool(rng.integers(2)) else "glorot"
    return cfg


def _sample_sparsifier(space: SearchSpace, kind: str,
                       rng: np.random.Generator) -> SparsifierConfig:
    return SparsifierConfig(
        kind=kind,
        k=int(_choice(rng, space.k_options)),
        dilation=int(_choice(rng, space.dilation_options)),
        epsilon=_uniform(rng, space.epsilon_range),
        temperature=_uniform(rng, space.bernoulli_temperature_range),
    )


def _sample_positional(space: SearchSpace, kind: str,
                       rng: np.random.Generator) -> PositionalConfig:
    return PositionalConfig(
        kind=kind,
        wl_iterations=int(_choice(rng, space.wl_iteration_options)),
        pe_dim=int(_choice(rng, space.pe_dim_options)),
    )


def _sample_objective(space: SearchSpace, regs: tuple, unsup: tuple,
                      rng: np.random.Generator) -> ObjectiveConfig:
    lambdas = {f"lambda_{name}": (_uniform(rng, space.reg_weight_range)
                                  if name in regs else 0.0)
               for name in REGULARIZERS}
    return ObjectiveConfig(
        unsupervised=tuple(unsup),
        dae=DaeConfig(mask_rate=_uniform(rng, space.mask_rate_range),
                      hidden=int(rng.integers(space.dae_hidden_range[0],
                                              space.dae_hidden_range[1] + 1))),
        contrastive=ContrastiveConfig(
            mask_rate=_uniform(rng, space.mask_rate_range),
            temperature=_uniform(rng, space.contrastive_temperature_range),
            tau=_uniform(rng, space.contrastive_tau_range)),
        **lambdas,
    )


def sample_config(space: SearchSpace, rng: np.random.Generator) -> GslConfig:
    """Draw one complete configuration. Discrete options are uniform over
    their lists; lr and weight decay are log-uniform across their two
    decades; everything else is uniform in range."""
    space.validate()
    cfg = GslConfig(
        lr=_log_uniform(rng, *space.lr_range),
        weight_decay=_log_uniform(rng, *space.weight_decay_range),
        dropout=_uniform(rng, space.dropout_range),
        activation=_choice(rng, space.activation_options),
        adjacency_mode=_choice(rng, space.adjacency_modes),
        hidden_units=int(_choice(rng, space.hidden_options)),
        max_epochs=space.max_epochs,
        patience=space.patience,
        positional=_sample_positional(space, _choice(rng, space.positional_kinds),
                                      rng),
        scorer=_sample_scorer(space, _choice(rng, space.scorer_kinds), rng),
        sparsifier=_sample_sparsifier(space,
                                      _choice(rng, space.sparsifier_kinds),
                                      rng),
        processor=ProcessorConfig(mode=_choice(rng, space.processor_modes)),
        encoder=EncoderConfig(kind=_choice(rng, space.encoder_kinds)),
        objective=_sample_objective(space,
                                    _choice(rng, space.regularizer_subsets),
                                    _choice(rng, space.unsupervised_subsets),
                                    rng),
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# the component table

def option_label(option) -> str:
    """An option as `--options` writes it: a kind as is, a subset as its
    sorted members joined with `+`, and `none` for the empty set."""
    if isinstance(option, str):
        return option
    return "+".join(sorted(option)) or "none"


@dataclass(frozen=True)
class Component:
    """One searchable component: its name in reports, the options the
    config accepts for it (the members, when the options are subsets), how
    to read a config's option (a kind, or a tuple of members), and how to
    swap an option in: `swap(config, option, space, rng)` returns the
    config with the option put in and that option's hyperparameters
    redrawn."""

    name: str
    domain: tuple
    read: Callable
    swap: Callable
    subsets: bool = False

    def label(self, config: GslConfig) -> str:
        """The config's option as reports write it (`option_label`)."""
        return option_label(self.read(config))

    def check(self, option) -> None:
        """Raise ConfigurationError unless `option` is one option the config
        accepts, or for a subset component a tuple of members it accepts."""
        if isinstance(option, str) == self.subsets:
            raise ConfigurationError(
                f"{self.name} option {option!r}: expected "
                + ("a tuple of members" if self.subsets else "one option"))
        check_domain(self.domain, option, f"{self.name} option")


# Report order. The sampler keeps its own draw order (sample_config), so
# this table may be reordered without changing any sampled configuration.
COMPONENT_TABLE = (
    Component("input", POSITIONAL_KINDS, attrgetter("positional.kind"),
              lambda cfg, kind, space, rng: replace(
                  cfg, positional=_sample_positional(space, kind, rng))),
    Component("scorer", SCORER_KINDS, attrgetter("scorer.kind"),
              lambda cfg, kind, space, rng: replace(
                  cfg, scorer=_sample_scorer(space, kind, rng))),
    Component("sparsifier", SPARSIFIER_KINDS, attrgetter("sparsifier.kind"),
              lambda cfg, kind, space, rng: replace(
                  cfg, sparsifier=_sample_sparsifier(space, kind, rng))),
    Component("processor", PROCESSOR_MODES, attrgetter("processor.mode"),
              lambda cfg, mode, space, rng: replace(
                  cfg, processor=ProcessorConfig(mode=mode))),
    Component("encoder", ENCODER_KINDS, attrgetter("encoder.kind"),
              lambda cfg, kind, space, rng: replace(
                  cfg, encoder=EncoderConfig(kind=kind),
                  hidden_units=int(_choice(rng, space.hidden_options)))),
    Component("regularizers", REGULARIZERS,
              lambda cfg: cfg.objective.regularizer_set(),
              lambda cfg, regs, space, rng: replace(
                  cfg, objective=_sample_objective(
                      space, tuple(regs), cfg.objective.unsupervised, rng)),
              subsets=True),
    Component("unsupervised", UNSUPERVISED,
              attrgetter("objective.unsupervised"),
              lambda cfg, unsup, space, rng: replace(
                  cfg, objective=_sample_objective(
                      space, cfg.objective.regularizer_set(), tuple(unsup),
                      rng)),
              subsets=True),
    Component("adjacency_mode", ADJACENCY_MODES, attrgetter("adjacency_mode"),
              lambda cfg, mode, space, rng: replace(
                  cfg, adjacency_mode=mode)),
)

COMPONENTS = tuple(component.name for component in COMPONENT_TABLE)


def architecture_key(config: GslConfig) -> tuple:
    """Discrete component tuple that identifies an architecture, ignoring
    continuous hyperparameters: one label per entry of COMPONENT_TABLE, in
    its order."""
    return tuple(component.label(config) for component in COMPONENT_TABLE)


def find_component(name: str) -> Component:
    for component in COMPONENT_TABLE:
        if component.name == name:
            return component
    raise ConfigurationError(f"unknown component {name!r} "
                             f"(expected one of {COMPONENTS})")


# ---------------------------------------------------------------------------
# results container and JSONL streaming

@dataclass
class ResultsTable:
    trials: list = field(default_factory=list)

    def ok_trials(self) -> list:
        return [t for t in self.trials if t.status == "ok"]

    def best_by_val(self) -> TrialResult | None:
        ok = self.ok_trials()
        if not ok:
            return None
        return max(ok, key=lambda t: (t.best_val_accuracy, -t.trial_id))


def append_result_jsonl(result: TrialResult, path) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def read_results_jsonl(path) -> tuple:
    """The records of a results JSONL file, header included, and the byte
    length of its intact part. A final line without its newline, or one
    that is not a JSON object, was cut short by an interrupted run: it is
    dropped with a warning. A malformed line before it is an
    IngestionError."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise IngestionError(f"results file: {err}") from err
    pieces = data.split(b"\n")  # the piece after the last newline is last
    records, bad, intact, offset = [], None, 0, 0
    for number, line in enumerate(pieces, 1):
        offset += len(line) + 1
        if not line.strip():
            continue
        if bad:
            raise IngestionError(f"{path}: line {bad} is not a JSON object")
        try:
            record = json.loads(line) if number < len(pieces) else None
        except ValueError:  # also covers bytes that are not UTF-8
            record = None
        if not isinstance(record, dict):
            bad = number
        else:
            records.append(record)
            intact = offset
    if bad:
        logger.warning("%s: dropped the incomplete final line %d", path, bad)
    return records, intact


def load_results_jsonl(path) -> ResultsTable:
    """The trials of a results JSONL file; a bad record is an IngestionError."""
    try:
        trials = [from_record(TrialResult, record, f"trial {record['trial_id']}")
                  for record in read_results_jsonl(path)[0]
                  if "trial_id" in record]  # skips the header
    except ConfigurationError as err:
        raise IngestionError(f"{path}: {err}") from err
    return ResultsTable(trials)


# ---------------------------------------------------------------------------
# the two exploration modes

# Every search worker starts with these variables, so its BLAS pools have
# one thread from the moment numpy loads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def platform_line() -> str:
    """What a trial's bits depend on besides the source and its inputs:
    the BLAS thread setting (a search worker's is WORKER_ENV's), the CPUs
    that cap it, and the numpy and BLAS builds."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"OPENBLAS_NUM_THREADS: {threads}; {cpus} CPUs; "
            f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']}")

# (parameter, value) pairs for glibc's mallopt, numbered as in malloc.h:
# M_MMAP_THRESHOLD at 32 MiB, the largest glibc accepts on a 64-bit build,
# and M_TRIM_THRESHOLD at 1 GiB, above any trial's heap
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 1 << 30))


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the heap for reuse, instead
    of handing it back to the kernel and faulting fresh zeroed pages in on
    the next allocation. Returns whether both settings took; a libc
    without `mallopt` is left as it is.

    A trial allocates and frees numpy temporaries of 0.1-30 MB in every
    op. Both thresholds are set because setting either one turns off
    glibc's dynamic adjustment of both. Only processes ugsl owns call
    this: search workers and the CLI, never `import ugsl`.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1
               for param, value in _MALLOPT_SETTINGS)


def _trial(dataset: Dataset, config: GslConfig, trial_id: int) -> TrialResult:
    """Train one configuration, without its learned graph; a configuration
    or numeric error ends the trial as a failed result instead of raising."""
    try:
        result = train(dataset, config, trial_id=trial_id)
    except (ConfigurationError, NumericError, ResourceError) as err:
        return TrialResult(config=config, trial_id=trial_id,
                           dataset=dataset.name, status="failed",
                           error=str(err))
    result.learned_adjacency = None  # not sent to the caller nor kept
    return result


def _log_failure(result: TrialResult) -> TrialResult:
    if result.status == "failed":
        logger.warning("trial %d failed: %s", result.trial_id, result.error)
    return result


_worker_dataset: Dataset | None = None


def _init_worker(dataset: Dataset) -> None:
    """Pool initializer: each worker receives the dataset once, and keeps
    its freed memory for the next trial."""
    global _worker_dataset
    keep_freed_memory()
    _worker_dataset = dataset


def _run_trial(config: GslConfig, trial_id: int) -> TrialResult:
    """The task a search worker runs: one trial on the worker's dataset."""
    return _trial(_worker_dataset, config, trial_id)


@contextlib.contextmanager
def _worker_environment():
    """WORKER_ENV in os.environ until the block ends, then the caller's
    values again; a process spawned inside inherits it from its start."""
    saved = {var: os.environ.get(var) for var in WORKER_ENV}
    os.environ.update(WORKER_ENV)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


@contextlib.contextmanager
def _trial_results(dataset: Dataset, configs: list, ids: list,
                   workers: int | None):
    """The trials' results, in the order given. With `workers`, the trials
    run in that many spawned worker processes, all shut down when the
    block ends, and a worker that dies raises ResourceError. Without, they
    run here, one after another, as the results are read."""
    if workers is None:
        yield map(partial(_trial, dataset), configs, ids)
        return
    # imported here: at module level the process pool would add about
    # 17 ms to `import ugsl`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_init_worker, initargs=(dataset,))
    try:
        # map submits every task at once, and a spawn pool starts its
        # workers as tasks are submitted
        with _worker_environment():
            results = pool.map(_run_trial, configs, ids)
        yield results
    except BrokenProcessPool as err:
        raise ResourceError(f"a search worker died ({err})") from err
    finally:
        pool.shutdown(cancel_futures=True)


def check_search_budget(n_trials: int, concurrency: int | None) -> None:
    """Raise ConfigurationError for fewer than one trial or worker."""
    if n_trials < 1:
        raise ConfigurationError(
            f"random_search: the trial count (--trials) must be >= 1, "
            f"got {n_trials}")
    if concurrency is not None and concurrency < 1:
        raise ConfigurationError(
            f"random_search: the worker count (--jobs) must be >= 1, "
            f"got {concurrency}")


def sample_trial_configs(space: SearchSpace, n_trials: int, master_seed: int,
                         input_dim: int | None = None) -> list:
    """The exact trial configurations a random search will run: drawn from
    one generator seeded with the master seed, trial seeds derived as
    master_seed + index. Execution order cannot change this list. No draw
    depends on the input width: `input_dim` is accepted and ignored."""
    sampler = np.random.default_rng(master_seed)
    configs = []
    for index in range(n_trials):
        cfg = sample_config(space, sampler)
        cfg.seed = master_seed + index
        configs.append(cfg)
    return configs


def random_search(dataset: Dataset, space: SearchSpace, n_trials: int,
                  concurrency: int | None = None, master_seed: int = 0,
                  jsonl_path=None, completed_ids=()) -> ResultsTable:
    """Run n_trials independently sampled configurations.

    Sampling happens before any trial executes, from one generator seeded
    with the master seed; per-trial seeds are master_seed + trial index.
    Completed trial ids are skipped (resume support); failures are recorded
    as failed rows and logged, rather than raised.

    `concurrency` is the number of worker processes: the trials run in
    min(concurrency, trials to run) spawned workers, each started with
    WORKER_ENV, so every worker count gives the same bits. A worker that
    dies raises ResourceError; the results appended before it stay valid.
    Spawned workers import the caller's main module again, so a script
    that passes it must guard its entry point with
    `if __name__ == "__main__":`. With None, the trials run one after
    another in this process, under its own BLAS settings.
    """
    check_search_budget(n_trials, concurrency)
    configs = sample_trial_configs(space, n_trials, master_seed)

    completed = set(completed_ids)
    ids = [i for i in range(n_trials) if i not in completed]
    workers = min(concurrency, len(ids)) if concurrency and ids else None
    table = ResultsTable()
    with _trial_results(dataset, [configs[i] for i in ids], ids,
                        workers) as results:
        for result in results:
            _log_failure(result)
            if jsonl_path is not None:
                append_result_jsonl(result, jsonl_path)
            table.trials.append(result)
    return table


def line_search(dataset: Dataset, base: GslConfig, component: str,
                options, trials_per_option: int = 3,
                master_seed: int = 0) -> ResultsTable:
    """Vary one component at a time against a fixed base model; the table
    holds the best-validation trial per option. Each trial clones the
    base, swaps in the option, and redraws that option's hyperparameters
    plus lr and weight decay from the default SearchSpace. The base must
    be valid for the dataset and every option one the config accepts
    (Component.domain), checked before any trial runs. All trials then run
    in one worker, as random_search's do, so a calling script needs the
    same `if __name__ == "__main__":` guard. An option's row is its
    best_by_val trial, or its last one if none is ok."""
    if trials_per_option < 1:
        raise ConfigurationError("line_search: trials_per_option must be >= 1")
    base.validate(n_nodes=dataset.n)
    spec = find_component(component)
    for option in options:
        spec.check(option)
    space = SearchSpace()
    rng = np.random.default_rng(master_seed)
    configs, ids = [], list(range(len(options) * trials_per_option))
    for trial_id in ids:
        cfg = GslConfig.from_dict(base.to_dict())
        cfg.lr = _log_uniform(rng, *space.lr_range)
        cfg.weight_decay = _log_uniform(rng, *space.weight_decay_range)
        cfg = spec.swap(cfg, options[trial_id // trials_per_option], space,
                        rng)
        cfg.seed = master_seed + trial_id
        configs.append(cfg)
    with _trial_results(dataset, configs, ids, 1) as results:
        trials = list(map(_log_failure, results))
    table = ResultsTable()
    for start in range(0, len(trials), trials_per_option):
        candidates = ResultsTable(trials[start:start + trials_per_option])
        table.trials.append(candidates.best_by_val() or candidates.trials[-1])
    return table


# ---------------------------------------------------------------------------
# reports

def _quartiles(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    qs = np.percentile(arr, [0, 25, 50, 75, 100])
    return {"min": float(qs[0]), "q1": float(qs[1]), "median": float(qs[2]),
            "q3": float(qs[3]), "max": float(qs[4])}


def top_fraction_analysis(results: ResultsTable) -> dict:
    """Distribution of component choices among the paper's top 5% of
    trials by validation accuracy: ceil(0.05 * N) of the N trials, ties
    resolved by trial id."""
    n_select = math.ceil(0.05 * len(results.trials))
    ranked = sorted(results.ok_trials(),
                    key=lambda t: (-t.best_val_accuracy, t.trial_id))
    selected = ranked[:n_select]
    report = {"selected": [t.trial_id for t in selected], "components": {}}
    for component in COMPONENT_TABLE:
        buckets: dict = {}
        for trial in selected:
            value = component.label(trial.config)
            buckets.setdefault(value, []).append(trial.test_accuracy_at_best_val)
        report["components"][component.name] = {
            value: {"count": len(accs), **_quartiles(accs)}
            for value, accs in sorted(buckets.items())
        }
    return report


def _best_per_key(results_per_dataset: dict, key: Callable) -> tuple:
    """Each dataset's best test accuracy per `key(config)` over its ok
    trials. Returns {key: per-dataset bests} for the keys every dataset
    has, in sorted order, and {key: datasets missing it} for the rest."""
    if not results_per_dataset:
        raise ConfigurationError("no results given")
    bests = []
    for table in results_per_dataset.values():
        best: dict = {}
        for trial in table.ok_trials():
            k, acc = key(trial.config), trial.test_accuracy_at_best_val
            best[k] = max(best.get(k, acc), acc)  # the first on ties
        bests.append(best)
    shared, missing = {}, {}
    for k in sorted(set().union(*bests)):
        accs = [best[k] for best in bests if k in best]
        if len(accs) == len(bests):
            shared[k] = accs
        else:
            missing[k] = len(bests) - len(accs)
    return shared, missing


def best_architecture_aggregate(results_per_dataset: dict) -> list:
    """The 5 architectures present in every dataset's results that rank
    first by the mean over datasets of their per-dataset best test
    accuracy; ties keep architecture order."""
    shared, _ = _best_per_key(results_per_dataset, architecture_key)
    rows = [{"architecture": arch,
             "mean_test_accuracy": float(np.mean(accs)),
             "per_dataset": dict(zip(results_per_dataset, accs))}
            for arch, accs in shared.items()]
    rows.sort(key=lambda r: -r["mean_test_accuracy"])
    return rows[:5]


def component_best_average(results_per_dataset: dict) -> dict:
    """For each component value: the mean over datasets of the best test
    accuracy among that dataset's trials using the value. Values missing
    from any dataset are omitted with a warning."""
    report: dict = {}
    for component in COMPONENT_TABLE:
        shared, missing = _best_per_key(results_per_dataset, component.label)
        for value, count in missing.items():
            logger.warning("component %s=%s missing from %d dataset(s); "
                           "omitted", component.name, value, count)
        report[component.name] = {value: float(np.mean(accs))
                                  for value, accs in shared.items()}
    return report
