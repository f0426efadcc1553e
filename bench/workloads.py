"""The benchmark's workloads, their correctness checks and their metrics.

Importing this module imports numpy and ugsl, so run.py imports it only
after it has fixed the BLAS thread count in the environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace

from ugsl import data, search, training

import tracer

# base-n2708: the Cora-shaped set of the north star. BASE_EPOCHS is the
# fixed epoch budget; patience above it keeps early stopping from firing.
BASE_SHAPE = dict(n=2708, d=1433, num_classes=7)
BASE_EPOCHS = 5

# search-n300*: the first SEARCH_TRIALS configurations random_search draws
# from default_search_space() with its default master seed, on the default
# make_blobs() set. Eight is what the run budget allows, and they hold every
# component kind but the no-op processor. The configurations and trial seeds
# do not depend on the benchmark seed, because trial cost varies tenfold
# between configurations and a new mix per seed would swamp every timing;
# the seed draws the split instead (see resplit()).
SEARCH_TRIALS = 8
SEARCH_MASTER_SEED = 0

SPLIT_FRACTIONS = (0.2, 0.3, 0.5)  # make_blobs' default
SETUP_REPEATS = 9
MIN_BASE_ACCURACY = 0.8   # 7 well-separated blobs; chance is 1/7
MIN_SEARCH_BEST_ACCURACY = 0.9


class CheckFailed(Exception):
    """The program's output is wrong; the run reports correct=false."""


def resplit(dataset: data.Dataset, seed: int) -> data.Dataset:
    """The dataset with train/validation/test nodes drawn from the seed, in
    make_blobs' proportions (seed 7 gives make_blobs' own split). Features
    stay fixed: the power-iteration solvers in the spectral encoding and
    the graph statistics take a seed-dependent number of iterations on a
    different graph, which would make cost a lottery between seeds."""
    train, val, test = data.make_splits(
        dataset.n, data.SplitSpec(seed=seed, fractions=SPLIT_FRACTIONS))
    return replace(dataset, train_mask=train, val_mask=val, test_mask=test,
                   name=f"{dataset.name}-split{seed}")


# ---------------------------------------------------------------------------
# set-up and one pass of each workload

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str         # "base" or "search"
    concurrency: int  # trials run at once


@dataclass
class Prepared:
    dataset: data.Dataset
    configs: list  # GslConfig per trial, in trial-id order


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate the inputs: everything a user does before the first trial."""
    if workload.kind == "base":
        dataset = resplit(data.make_blobs(**BASE_SHAPE), seed)
        configs = [training.base_config(dataset, seed=0,
                                        max_epochs=BASE_EPOCHS,
                                        patience=BASE_EPOCHS + 1)]
    else:
        dataset = resplit(data.make_blobs(), seed)
        configs = search.sample_trial_configs(
            search.default_search_space(), SEARCH_TRIALS, SEARCH_MASTER_SEED,
            input_dim=dataset.graph.num_features)
    return Prepared(dataset, configs)


def run_pass(workload: Workload, prepared: Prepared,
             concurrency: int | None = None) -> list:
    """One pass of the workload's trials; returns their TrialResults.
    Functions are looked up on their modules at call time, so a tracer's
    patches apply."""
    if workload.kind == "base":
        return [training.train(prepared.dataset, prepared.configs[0])]
    table = search.random_search(
        prepared.dataset, search.default_search_space(),
        n_trials=len(prepared.configs),
        concurrency=concurrency or workload.concurrency,
        master_seed=SEARCH_MASTER_SEED)
    return table.trials


def measure_setup(workload: Workload, seed: int, import_s: float):
    """Median time to generate the inputs over SETUP_REPEATS, plus the
    import time measured by the caller."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = prepare(workload, seed)
        times.append(time.perf_counter() - start)
    return import_s + statistics.median(times), prepared


@dataclass
class Pass:
    wall_s: float
    trials: list
    spans: list | None = None


def measure_passes(workload: Workload, prepared: Prepared, seconds: float,
                   traced: bool = False) -> list:
    """Run passes until the next one would overrun `seconds`; at least one.
    A traced pass records its spans with a fresh tracer that is removed
    again before the pass returns."""
    passes = []
    start = time.perf_counter()
    while True:
        tr = tracer.Tracer()
        with tr if traced else contextlib.nullcontext():
            begin = time.perf_counter()
            trials = run_pass(workload, prepared)
            wall = time.perf_counter() - begin
        passes.append(Pass(wall, trials, tr.spans if traced else None))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# correctness

def digest(trials: list) -> str:
    """SHA-256 of every serialized trial result, in trial-id order."""
    blob = json.dumps([t.to_dict() for t in trials], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def summary(trial) -> tuple:
    return (trial.trial_id, trial.status, trial.epochs_run,
            trial.best_val_accuracy, trial.test_accuracy_at_best_val)


def compare_trials(reference: list, other: list, label: str) -> None:
    """Trial for trial: status, epochs, validation and test accuracy."""
    if len(reference) != len(other):
        raise CheckFailed(f"{label}: {len(other)} trials, expected "
                          f"{len(reference)}")
    bad = [(summary(a), summary(b)) for a, b in zip(reference, other)
           if summary(a) != summary(b)]
    if bad:
        raise CheckFailed(f"{label}: {len(bad)} trial(s) differ, first "
                          f"expected {bad[0][0]}, got {bad[0][1]}")
    if digest(reference) != digest(other):
        raise CheckFailed(f"{label}: same summaries but different digests")


def check_trials(workload: Workload, prepared: Prepared, trials: list) -> None:
    """The outputs of one pass are well formed and plausible."""
    expected = [c.config_hash() for c in prepared.configs]
    got = [t.config.config_hash() for t in trials]
    if got != expected:
        raise CheckFailed("trials ran other configurations than were sampled")
    if [t.trial_id for t in trials] != list(range(len(expected))):
        raise CheckFailed("trial ids are not 0..n-1 in order")
    for t in trials:
        if t.status == "failed":
            if not t.error:
                raise CheckFailed(f"trial {t.trial_id} failed without a reason")
            continue
        if t.status != "ok":
            raise CheckFailed(f"trial {t.trial_id}: unknown status {t.status!r}")
        accs = t.val_accuracies + [t.test_accuracy_at_best_val]
        if not (1 <= t.epochs_run <= t.config.max_epochs
                and len(t.val_accuracies) == t.epochs_run
                and all(0.0 <= a <= 1.0 for a in accs)
                and all(math.isfinite(x) for x in t.train_losses)
                and t.best_val_accuracy == max(t.val_accuracies)):
            raise CheckFailed(f"trial {t.trial_id}: malformed result")
    ok = [t for t in trials if t.status == "ok"]
    if workload.kind == "base":
        t = trials[0]
        if t.status != "ok" or t.epochs_run != BASE_EPOCHS:
            raise CheckFailed(f"base trial: status {t.status}, "
                              f"{t.epochs_run} of {BASE_EPOCHS} epochs")
        if t.test_accuracy_at_best_val < MIN_BASE_ACCURACY:
            raise CheckFailed(f"base trial: test accuracy "
                              f"{t.test_accuracy_at_best_val:.3f}")
    elif not ok or max(t.test_accuracy_at_best_val for t in ok) \
            < MIN_SEARCH_BEST_ACCURACY:
        raise CheckFailed("search: no trial learned the blobs")


def check_passes(workload: Workload, prepared: Prepared, passes: list) -> str:
    """Every pass is correct and all passes agree; returns their digest."""
    for p in passes:
        check_trials(workload, prepared, p.trials)
    for index, p in enumerate(passes[1:], start=1):
        compare_trials(passes[0].trials, p.trials, f"pass {index} vs pass 0")
    return digest(passes[0].trials)


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list, setup_s: float) -> dict:
    """End-to-end metrics of untraced passes (medians over passes; every
    pass runs the same trials, so counts and accuracies agree)."""
    wall = statistics.median(p.wall_s for p in passes)
    trials = passes[0].trials
    ok = [t for t in trials if t.status == "ok"]
    return {
        "setup_s": setup_s,
        "trial_s": wall / len(trials),
        "trials_per_min": 60.0 * len(trials) / wall,
        "trial_success_rate": len(ok) / len(trials),
        "test_accuracy": (statistics.fmean(t.test_accuracy_at_best_val
                                           for t in ok) if ok else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }


def _epoch_loops(spans: list) -> tuple[float, int]:
    """Summed epoch-loop time and epochs over every training.train span.
    A trial's loop runs from its first training forward to the end of the
    evaluation forward that follows its last training forward."""
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    total, epochs = 0.0, 0
    for index, span in enumerate(spans):
        if span.name != "training.train":
            continue
        kids = sorted(children.get(index, ()), key=lambda s: s.start)
        train_fw = [i for i, s in enumerate(kids)
                    if s.name == "layers.forward_train"]
        if not train_fw:
            continue
        last = train_fw[-1]
        after = [s for s in kids[last + 1:] if s.name == "layers.forward_eval"]
        end = after[0].end if after else kids[last].end
        total += end - kids[train_fw[0]].start
        epochs += len(train_fw)
    return total, epochs


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass: self seconds per booked span
    name, inclusive forward times, counts, and the unattributed share."""
    spans = p.spans
    selfs = tracer.self_times(spans)
    out = {f"{name}.s": selfs.get(name, 0.0) for name in SELF_TIMED}
    for name in INCLUSIVE:
        out[f"{name}.s"] = sum(s.duration for s in spans if s.name == name)
    train_spans = sorted(s.duration for s in spans
                         if s.name == "training.train")
    out["training.train.s"] = (statistics.median(train_spans)
                               if train_spans else 0.0)
    out["training.train.self_s"] = selfs.get("training.train", 0.0)
    loop_s, loop_epochs = _epoch_loops(spans)
    out["training.epoch_ms"] = 1000.0 * loop_s / max(loop_epochs, 1)
    out["training.epochs"] = sum(t.epochs_run for t in p.trials)
    out["stats.missing"] = sum(t.status == "ok" and t.graph_stats is None
                               for t in p.trials)
    for name in COUNTED:
        calls, failed = tracer.counts(spans, name)
        out[f"{name}.calls"] = calls
        out[f"{name}.failed"] = failed
    out["trace.unattributed_share"] = 1.0 - tracer.covered_time(spans) / p.wall_s
    return out


SELF_TIMED = (
    "layers.score", "layers.sparsify", "layers.process", "layers.encode",
    "tensor.backward", "tensor.adam_step", "tensor.softmax_cross_entropy",
    "objectives.total_objective", "objectives.reg_closeness",
    "objectives.reg_smoothness", "objectives.reg_sparse_connect",
    "objectives.reg_log_barrier", "objectives.dae_loss",
    "objectives.contrastive_loss", "positional.build_input_features",
    "spectral.smallest_laplacian_eigenpairs", "spectral.dominant_eigenvalue",
    "stats.compute_stats", "data.knn_graph", "search.sample_trial_configs",
)
INCLUSIVE = ("layers.forward_train", "layers.forward_eval")
COUNTED = ("positional.build_input_features",
           "spectral.smallest_laplacian_eigenpairs")
