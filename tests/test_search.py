import concurrent.futures
import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ugsl import cli, search
from ugsl.config import (PROCESSOR_MODES, SPARSIFIER_KINDS, EncoderConfig,
                         GslConfig, ProcessorConfig, from_record, leaves,
                         to_record)
from ugsl.data import make_blobs
from ugsl.errors import ConfigurationError
from ugsl.training import TrialResult, base_config

from oracles import determinism_failures

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def small_blobs():
    return make_blobs(n=60, d=8, seed=5)


def _fast_space(**overrides):
    defaults = dict(max_epochs=6, patience=6, k_options=(3, 5),
                    hidden_options=(16,), dae_hidden_range=(16, 32))
    defaults.update(overrides)
    return search.default_search_space(**defaults)


# --- sampling ------------------------------------------------------------------

def _record_leaves(record, prefix=""):
    """(dotted path, value) of each leaf of a JSON record."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _record_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_every_leaf_has_a_domain_and_every_space_field_its_leaves():
    # a leaf without a domain, or a space field that names no leaf, would
    # go unchecked
    domains = {path: domain for path, _, domain in leaves(GslConfig())}
    assert [path for path, _ in _record_leaves(GslConfig().to_dict())
            if domains.get(path) is None] == []
    space_fields = {f.name for f in fields(search.SearchSpace)}
    assert sorted(space_fields ^ set(search.SPACE_LEAVES)) == []
    assert [name for name, paths in search.SPACE_LEAVES.items()
            if not paths or not set(paths) <= set(domains)] == []


def test_sampled_configs_respect_ranges():
    """Every leaf of every draw holds what the space fields that draw it
    (SPACE_LEAVES) allow."""
    space = search.default_search_space()
    rng = np.random.default_rng(0)
    for _ in range(400):
        cfg = search.sample_config(space, rng)
        drawn = {path: value for path, value, _ in leaves(cfg)}
        for name, paths in search.SPACE_LEAVES.items():
            allowed = getattr(space, name)
            if name == "regularizer_subsets":
                assert cfg.objective.regularizer_set() in allowed
                continue
            if name == "fp_init_options" and cfg.scorer.kind != "fp":
                continue  # mlp draws its init itself, and att has none
            for value in map(drawn.get, paths):
                if name.endswith("_range"):
                    assert allowed[0] <= value <= allowed[1], name
                elif name in ("max_epochs", "patience"):
                    assert value == allowed
                else:
                    assert value in allowed, name


def test_excluded_sparsifiers_never_sampled():
    # the sampler draws exactly the listed kinds: by default all but epsnn
    # and bernoulli, and all five when the space lists them
    for listed in (search.SearchSpace().sparsifier_kinds, SPARSIFIER_KINDS):
        space = search.default_search_space(sparsifier_kinds=listed)
        rng = np.random.default_rng(1)
        kinds = {search.sample_config(space, rng).sparsifier.kind
                 for _ in range(300)}
        assert kinds == set(listed)
    assert search.SearchSpace().sparsifier_kinds == \
        ("knn", "dknn", "random_dknn")


def test_a_drawn_mlp_width_equal_to_the_input_width_is_kept():
    # a one-feature dataset whose only mlp width option is 1: the space is
    # valid, so every trial draws that width and runs
    dataset = make_blobs(n=30, d=1, seed=5)
    space = _fast_space(mlp_width_options=(1,), scorer_kinds=("mlp",))
    table = search.random_search(dataset, space, n_trials=2)
    assert [t.config.scorer.mlp_width for t in table.trials] == [1, 1]
    assert [t.status for t in table.trials] == ["ok", "ok"]


def test_every_record_field_takes_two_values_across_draws():
    # a field that no draw varies belongs in a constant, not in the record;
    # max_epochs and patience are set by the space file or the CLI flags
    configs = search.sample_trial_configs(
        search.default_search_space(sparsifier_kinds=SPARSIFIER_KINDS),
        200, 0)

    seen = {}
    for cfg in configs:
        for name, value in _record_leaves(cfg.to_dict()):
            seen.setdefault(name, set()).add(json.dumps(value))
    assert sorted(name for name, values in seen.items()
                  if len(values) < 2) == ["max_epochs", "patience"]


def test_sampled_config_round_trips_through_json():
    space = search.default_search_space()
    rng = np.random.default_rng(3)
    for _ in range(25):
        cfg = search.sample_config(space, rng)
        back = GslConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.to_dict() == cfg.to_dict()



def test_search_space_round_trips_through_json():
    space = search.default_search_space(mlp_width_options=(7, None),
                                        lr_range=(0.002, 0.05))
    record = json.loads(json.dumps(to_record(space)))
    assert from_record(search.SearchSpace, record, "space") == space


@pytest.mark.parametrize("record, message", [
    ({"lr": True}, "config.lr: expected float, got bool"),
    ({"seed": 1.0}, "config.seed: expected int, got float"),
    ({"scorer": {"mlp_width": "7"}},
     "config.scorer.mlp_width: expected int, got str"),
    ({"objective": {"unsupervised": "dae"}},
     "config.objective.unsupervised: expected a list, got str"),
    ({"objective": {"unsupervised": [None]}},
     "config.objective.unsupervised[0]: expected str, got null"),
    ({"scorer": [1]}, "config.scorer: expected an object, got list"),
    ({"bogus": 1, "lr": 0.01}, "config: unknown fields ['bogus']"),
])
def test_config_record_names_the_bad_field(record, message):
    with pytest.raises(ConfigurationError) as err:
        GslConfig.from_dict(record)
    assert str(err.value) == message


def test_config_record_keeps_int_floats_and_nulls():
    cfg = GslConfig.from_dict({"dropout": 0, "scorer": {"mlp_width": None}})
    assert cfg.dropout == 0 and isinstance(cfg.dropout, int)
    assert cfg.scorer.mlp_width is None
    assert cfg.to_dict()["dropout"] == 0

# --- random search -----------------------------------------------------------------

def test_random_search_row_count(small_blobs):
    table = search.random_search(small_blobs, _fast_space(), n_trials=4)
    assert len(table.trials) == 4
    assert [t.trial_id for t in table.trials] == [0, 1, 2, 3]
    # a search keeps no trial's learned graph
    assert [t.learned_adjacency for t in table.trials] == [None] * 4


def test_random_search_deterministic(determinism_runs):
    # a case of criterion 7, run once a session (conftest.py)
    assert determinism_failures(
        determinism_runs("random-search-same-seed")) == []


def test_random_search_streams_jsonl_and_resumes(small_blobs, tmp_path):
    path = tmp_path / "results.jsonl"
    search.random_search(small_blobs, _fast_space(), n_trials=3,
                         master_seed=2, jsonl_path=path)
    first = path.read_text().splitlines()
    assert len(first) == 3
    # resume: ids 0..2 done, only 3..4 run and append
    done = [t.trial_id for t in search.load_results_jsonl(path).trials]
    search.random_search(small_blobs, _fast_space(), n_trials=5,
                         master_seed=2, jsonl_path=path, completed_ids=done)
    table = search.load_results_jsonl(path)
    assert sorted(t.trial_id for t in table.trials) == [0, 1, 2, 3, 4]
    assert path.read_text().splitlines()[:3] == first


def _failing_space():
    # k options too large for a 60-node graph with dilation -> failures
    return _fast_space(k_options=(40,), dilation_options=(2, 3),
                       sparsifier_kinds=("dknn",))


def test_random_search_records_failures(small_blobs):
    table = search.random_search(small_blobs, _failing_space(), n_trials=3)
    assert len(table.trials) == 3
    assert all(t.status == "failed" for t in table.trials)
    assert all("sparsifier.k" in t.error for t in table.trials)


def test_a_trial_too_large_for_memory_is_recorded_failed(small_blobs):
    # 10^9 hidden units: the first encoder layer alone would take terabytes
    space = _fast_space(hidden_options=(10 ** 9,))
    table = search.random_search(small_blobs, space, n_trials=2)
    assert [t.status for t in table.trials] == ["failed"] * 2
    assert all("physical memory" in t.error for t in table.trials)


def test_worker_failures_are_logged_once_by_the_caller(small_blobs, caplog):
    with caplog.at_level("WARNING"):
        table = search.random_search(small_blobs, _failing_space(),
                                     n_trials=3, concurrency=2)
    assert [t.status for t in table.trials] == ["failed"] * 3
    assert [r.getMessage() for r in caplog.records] == \
        [f"trial {i} failed: {table.trials[i].error}" for i in range(3)]
    assert multiprocessing.active_children() == []  # the workers are gone


def test_a_worker_trial_equals_train_at_one_blas_thread(determinism_runs):
    # a case of criterion 7, run once a session (conftest.py)
    assert determinism_failures(
        determinism_runs("worker-is-train-at-one-thread")) == []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: starts no process, runs no trial,
    and records its worker count and the BLAS variables at submit time."""

    started: list = []

    def __init__(self, max_workers, **kwargs):
        self.started.append({"workers": max_workers})

    def map(self, fn, configs, ids):
        self.started[-1]["env"] = {var: os.environ.get(var)
                                   for var in search.WORKER_ENV}
        return [TrialResult(config=c, trial_id=i, dataset="d", status="ok")
                for c, i in zip(configs, ids)]

    def shutdown(self, **kwargs):
        pass


@pytest.mark.parametrize("concurrency, n_trials, completed, workers", [
    (4, 2, (), 2),
    (2, 5, (), 2),
    (3, 5, (0, 1, 3), 2),
    (2, 3, (0, 1, 2), None),
    # line search runs all its trials, one per option here, in one worker
    pytest.param("line search", 3, (), 1, id="line-search"),
])
def test_the_pool_starts_one_worker_per_pending_trial_at_most(
        small_blobs, monkeypatch, concurrency, n_trials, completed, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if concurrency == "line search":
        table = search.line_search(small_blobs, base_config(small_blobs),
                                   "processor", PROCESSOR_MODES[:n_trials],
                                   trials_per_option=1)
    else:
        table = search.random_search(small_blobs, _fast_space(), n_trials,
                                     concurrency=concurrency,
                                     completed_ids=completed)
    assert [t.trial_id for t in table.trials] == \
        [i for i in range(n_trials) if i not in completed]
    if workers is None:
        assert _RecordingPool.started == []
    else:
        assert _RecordingPool.started == [{"workers": workers,
                                           "env": search.WORKER_ENV}]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("concurrency", [0, -2])
def test_random_search_needs_a_worker(small_blobs, concurrency):
    with pytest.raises(ConfigurationError, match="worker count"):
        search.random_search(small_blobs, _fast_space(), 2,
                             concurrency=concurrency)


# --- the allocator policy ---------------------------------------------------

def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Prints the minor page faults of 50 rounds that allocate, fill and free
# two 4 MiB arrays, after one round that warms the heap up. The argument
# says what runs first: the helper, an in-process search, or nothing.
_CHURN = """
import resource, sys
import numpy as np
import ugsl
from ugsl import search
from ugsl.data import make_blobs

def churn(rounds):
    for _ in range(rounds):
        a = np.ones(1 << 19)
        b = np.ones(1 << 19)
        del a, b

if sys.argv[1] == "helper":
    assert search.keep_freed_memory()
elif sys.argv[1] == "search":
    space = search.default_search_space(max_epochs=3, patience=3,
                                        k_options=(3,), hidden_options=(16,),
                                        dae_hidden_range=(16, 32))
    table = search.random_search(make_blobs(n=60, d=8, seed=5), space, 2)
    assert len(table.trials) == 2
churn(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _churn_faults(first: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHURN, first], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_freed_memory_is_reused_after_the_helper_only():
    assert _churn_faults("helper") < 100
    # glibc's defaults map and unmap every 4 MiB array, and neither
    # `import ugsl` nor an in-process search changes them
    assert _churn_faults("nothing") > 2000
    assert _churn_faults("search") > 2000


def test_search_workers_and_the_cli_keep_freed_memory(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "keep_freed_memory",
                        lambda: calls.append("worker"))
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append("cli"))
    monkeypatch.setattr(search, "_worker_dataset", None)
    search._init_worker("a dataset")
    assert search._worker_dataset == "a dataset"
    assert cli.main(["--no-such-flag"]) == 2
    assert calls == ["worker", "cli"]


class _NoMallopt:
    """A libc handle without the mallopt symbol."""

    def __init__(self, name):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _no_libc(name):
    raise OSError("no such library")


@pytest.mark.parametrize("cdll", [_NoMallopt, _no_libc])
def test_the_helper_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert search.keep_freed_memory() is False


# --- line search ----------------------------------------------------------------

def test_line_search_one_row_per_option(small_blobs):
    base = base_config(small_blobs, max_epochs=5, patience=5)
    table = search.line_search(small_blobs, base, "scorer",
                               ["mlp", "att", "fp"], trials_per_option=2)
    assert len(table.trials) == 3
    kinds = [t.config.scorer.kind for t in table.trials]
    assert kinds == ["mlp", "att", "fp"]
    # everything but the varied component and lr/wd matches the base
    for t in table.trials:
        assert t.config.encoder.kind == base.encoder.kind
        assert t.config.sparsifier.kind == base.sparsifier.kind
        assert t.config.processor.mode == base.processor.mode


def test_line_search_takes_the_sparsifiers_random_search_leaves_out(
        small_blobs):
    base = base_config(small_blobs, max_epochs=3, patience=3)
    table = search.line_search(small_blobs, base, "sparsifier",
                               ("epsnn", "bernoulli"), trials_per_option=1)
    assert [t.config.sparsifier.kind for t in table.trials] == \
        ["epsnn", "bernoulli"]


@pytest.mark.parametrize("component, option, message", [
    ("sparsifier", ("knn",), "sparsifier option ('knn',): expected one"),
    ("regularizers", "closeness", "regularizers option 'closeness': expect"),
])
def test_line_search_refuses_an_option_of_the_wrong_shape(
        small_blobs, monkeypatch, component, option, message):
    # each member is an option the config accepts, but a kind component
    # takes one kind and a subset component a tuple of members
    monkeypatch.setattr(search, "_trial_results", None)  # no trial may run
    with pytest.raises(ConfigurationError) as err:
        search.line_search(small_blobs, base_config(small_blobs), component,
                           [option], 1)
    assert str(err.value).startswith(message)


def test_line_search_unknown_component(small_blobs):
    base = base_config(small_blobs)
    with pytest.raises(ConfigurationError, match="component"):
        search.line_search(small_blobs, base, "flux", ["a"], 1)


def test_line_search_processor_beats_majority_class(small_blobs):
    base = base_config(small_blobs, max_epochs=30, patience=30)
    table = search.line_search(small_blobs, base, "processor",
                               ["none", "symmetrize"], trials_per_option=1)
    labels = small_blobs.labels[small_blobs.val_mask]
    majority = max(np.bincount(labels)) / labels.size
    for t in table.trials:
        assert t.best_val_accuracy >= majority


# --- reports ---------------------------------------------------------------------

def _toy_results(n=100, dataset="toy"):
    rng = np.random.default_rng(0)
    space = search.default_search_space()
    trials = []
    for i in range(n):
        cfg = search.sample_config(space, rng)
        trials.append(TrialResult(
            config=cfg, trial_id=i, dataset=dataset, status="ok",
            best_val_accuracy=float(rng.random()),
            test_accuracy_at_best_val=float(rng.random())))
    return search.ResultsTable(trials)


def test_top_fraction_selects_ceil():
    # 5% of 21 trials is 1.05: the report keeps 2
    report = search.top_fraction_analysis(_toy_results(21))
    assert len(report["selected"]) == 2


def test_top_fraction_tie_rule_prefers_low_trial_id():
    table = _toy_results(100)
    for t in table.trials:
        t.best_val_accuracy = 0.5
    report = search.top_fraction_analysis(table)
    assert report["selected"] == [0, 1, 2, 3, 4]


def test_top_fraction_quartiles():
    table = _toy_results(100)
    for t in table.trials:
        t.best_val_accuracy = 0.5
    for t, acc in zip(table.trials, (1.0, 2.0, 3.0, 4.0, 5.0)):
        t.best_val_accuracy = 0.9
        t.test_accuracy_at_best_val = acc
        t.config.encoder.kind = "gcn"
    report = search.top_fraction_analysis(table)
    row = report["components"]["encoder"]["gcn"]
    assert row["count"] == 5
    assert row["median"] == 3.0
    assert row["q1"] == 2.0 and row["q3"] == 4.0


def test_best_architecture_intersection_and_ranking():
    a, b = _toy_results(60, "a"), _toy_results(60, "b")
    rows = search.best_architecture_aggregate({"a": a, "b": b})
    assert 0 < len(rows) <= 5
    keys_a = {search.architecture_key(t.config) for t in a.trials}
    keys_b = {search.architecture_key(t.config) for t in b.trials}
    for row in rows:
        assert row["architecture"] in keys_a & keys_b
        assert row["mean_test_accuracy"] == pytest.approx(
            np.mean(list(row["per_dataset"].values())))
    means = [r["mean_test_accuracy"] for r in rows]
    assert means == sorted(means, reverse=True)


def test_best_architecture_single_dataset():
    table = _toy_results(30)
    rows = search.best_architecture_aggregate({"only": table})
    best = max(t.test_accuracy_at_best_val for t in table.trials
               if search.architecture_key(t.config) == rows[0]["architecture"])
    assert rows[0]["mean_test_accuracy"] == pytest.approx(best)


def test_best_architecture_two_dataset_mean():
    cfg = GslConfig()
    t1 = TrialResult(config=cfg, trial_id=0, status="ok",
                     best_val_accuracy=.5, test_accuracy_at_best_val=0.8)
    t2 = TrialResult(config=GslConfig.from_dict(cfg.to_dict()), trial_id=0,
                     status="ok", best_val_accuracy=.5,
                     test_accuracy_at_best_val=0.7)
    rows = search.best_architecture_aggregate(
        {"a": search.ResultsTable([t1]), "b": search.ResultsTable([t2])})
    assert rows[0]["mean_test_accuracy"] == pytest.approx(0.75)


def test_best_architecture_ties_come_out_in_architecture_order():
    # twelve tied architectures: a hash-ordered set would seldom come out
    # sorted, whatever PYTHONHASHSEED is
    configs = [GslConfig(encoder=EncoderConfig(kind=kind),
                         processor=ProcessorConfig(mode=mode))
               for kind in ("mlp", "gcn", "gin") for mode in PROCESSOR_MODES]
    table = search.ResultsTable([
        TrialResult(config=cfg, trial_id=i, status="ok",
                    test_accuracy_at_best_val=0.8)
        for i, cfg in enumerate(configs)])
    rows = search.best_architecture_aggregate({"a": table})
    assert [row["architecture"] for row in rows] == \
        sorted(search.architecture_key(cfg) for cfg in configs)[:5]


def test_component_best_average_identity_for_single_trials():
    cfg = GslConfig()
    t = TrialResult(config=cfg, trial_id=0, status="ok",
                    best_val_accuracy=.5, test_accuracy_at_best_val=0.62)
    report = search.component_best_average(
        {"a": search.ResultsTable([t])})
    assert report["encoder"]["gcn"] == pytest.approx(0.62)
    assert report["sparsifier"]["knn"] == pytest.approx(0.62)


def test_component_best_average_omits_partial_coverage(caplog):
    cfg_gcn = GslConfig()
    cfg_gin = GslConfig.from_dict(cfg_gcn.to_dict())
    cfg_gin.encoder.kind = "gin"
    a = search.ResultsTable([
        TrialResult(config=cfg_gcn, trial_id=0, status="ok",
                    test_accuracy_at_best_val=0.5),
        TrialResult(config=cfg_gin, trial_id=1, status="ok",
                    test_accuracy_at_best_val=0.6)])
    b = search.ResultsTable([
        TrialResult(config=GslConfig.from_dict(cfg_gcn.to_dict()), trial_id=0,
                    status="ok", test_accuracy_at_best_val=0.7)])
    with caplog.at_level("WARNING"):
        report = search.component_best_average({"a": a, "b": b})
    assert "gin" not in report["encoder"]
    assert report["encoder"]["gcn"] == pytest.approx(0.6)
    assert any("omitted" in r.message for r in caplog.records)
