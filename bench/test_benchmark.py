"""Tests of the benchmark's own machinery: span arithmetic, patch
restoration, metric names and the checks that fail a run."""

import importlib
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from tracer import Span

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans(*rows):
    """Spans from (name, start, end, parent) rows."""
    return [Span(name, start, end, parent, thread=0)
            for name, start, end, parent in rows]


# --- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("training.train", 0.0, 10.0, -1),
        ("layers.forward_train", 1.0, 4.0, 0),
        ("layers.score", 1.5, 2.5, 1),
        ("tensor.backward", 5.0, 9.0, 0),
    )
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({"training.train": 3.0,
                                   "layers.forward_train": 2.0,
                                   "layers.score": 1.0,
                                   "tensor.backward": 4.0})
    assert sum(selfs.values()) == pytest.approx(tracer.covered_time(spans))


def test_encode_inside_an_unsupervised_loss_is_booked_to_that_loss():
    spans = _spans(
        ("training.train", 0.0, 20.0, -1),
        ("layers.forward_train", 0.0, 5.0, 0),
        ("layers.encode", 1.0, 3.0, 1),                 # classifier encoder
        ("objectives.total_objective", 5.0, 15.0, 0),
        ("objectives.dae_loss", 5.0, 9.0, 3),
        ("layers.encode", 5.5, 7.5, 4),                 # DAE's own GCN
        ("objectives.contrastive_loss", 9.0, 14.0, 3),
        ("layers.encode", 10.0, 11.0, 6),
        ("tensor.softmax_cross_entropy", 12.0, 13.0, 6),
    )
    selfs = tracer.self_times(spans)
    assert selfs["layers.encode"] == pytest.approx(2.0)
    assert selfs["objectives.dae_loss"] == pytest.approx(4.0)
    assert selfs["objectives.contrastive_loss"] == pytest.approx(4.0)
    assert selfs["tensor.softmax_cross_entropy"] == pytest.approx(1.0)
    assert selfs["objectives.total_objective"] == pytest.approx(1.0)
    assert selfs["layers.forward_train"] == pytest.approx(3.0)
    assert selfs["training.train"] == pytest.approx(5.0)
    assert sum(selfs.values()) == pytest.approx(20.0)


def test_covered_time_is_the_union_of_root_spans_across_threads():
    spans = _spans(("a", 0.0, 4.0, -1), ("b", 3.0, 6.0, -1),
                   ("c", 1.0, 2.0, 0), ("d", 8.0, 9.0, -1))
    assert tracer.covered_time(spans) == pytest.approx(7.0)
    assert tracer.covered_time([]) == 0.0


def test_wrapped_calls_nest_and_record_failures():
    ticks = itertools.count()
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def encode():
        return "h"

    def dae_loss():
        return wrapped_encode() + "!"

    def broken():
        raise ValueError("no")

    wrapped_encode = tr.wrap(encode, "layers.encode")
    assert tr.wrap(dae_loss, "objectives.dae_loss")() == "h!"
    with pytest.raises(ValueError):
        tr.wrap(broken, "spectral.dominant_eigenvalue")()
    names = [(s.name, s.start, s.end, s.parent, s.raised) for s in tr.spans]
    assert names == [("objectives.dae_loss", 0.0, 3.0, -1, False),
                     ("layers.encode", 1.0, 2.0, 0, False),
                     ("spectral.dominant_eigenvalue", 4.0, 5.0, -1, True)]
    assert tracer.self_times(tr.spans)["objectives.dae_loss"] == 3.0
    assert tracer.counts(tr.spans, "spectral.dominant_eigenvalue") == (1, 1)


# --- patching --------------------------------------------------------------------

def _bound_objects():
    return {(owner, attr): getattr(tracer._resolve(owner), attr)
            for owner, attr, _ in tracer.TARGETS}


def test_every_target_exists_and_is_restored_after_a_traced_run():
    workloads = importlib.import_module("workloads")
    from ugsl import data, search

    before = _bound_objects()
    dataset = data.make_blobs(n=40, d=6, seed=3)
    space = search.default_search_space(
        max_epochs=3, patience=3, k_options=(3,), hidden_options=(8,),
        dae_hidden_range=(8, 8), positional_kinds=("spectral",),
        pe_dim_options=(4,), mlp_width_options=(None,),
        regularizer_subsets=(("closeness", "smoothness", "sparse_connect",
                              "log_barrier"),),
        unsupervised_subsets=(("dae", "contrastive"),))
    with tracer.Tracer() as tr:
        assert all(getattr(tracer._resolve(owner), attr) is not fn
                   for (owner, attr), fn in before.items())
        start = tr.clock()
        trials = search.random_search(dataset, space, n_trials=2).trials
        wall = tr.clock() - start
    assert _bound_objects() == before

    metrics = workloads.layer_metrics(workloads.Pass(wall, trials, tr.spans))
    expected = {m["name"] for m in SPEC["per_layer"]
                if not m["name"].startswith("trace.overhead")}
    assert set(metrics) == expected
    for name in ("layers.score", "layers.sparsify", "layers.encode",
                 "objectives.dae_loss", "objectives.contrastive_loss",
                 "objectives.reg_log_barrier", "tensor.backward",
                 "spectral.smallest_laplacian_eigenpairs"):
        assert metrics[f"{name}.s"] > 0.0, name
    assert metrics["positional.build_input_features.calls"] == 2
    assert metrics["training.epochs"] == sum(t.epochs_run for t in trials)
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0


def test_patches_are_restored_when_the_traced_code_raises():
    before = _bound_objects()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _bound_objects() == before


# --- metric names and BENCHMARK.json ---------------------------------------------

def test_metric_names_units_and_bounds_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25, m
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_every_listed_workload_has_a_definition():
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# --- checks that fail a run ------------------------------------------------------

def test_a_trial_mismatch_fails_the_comparison():
    workloads = importlib.import_module("workloads")
    from ugsl.config import GslConfig
    from ugsl.training import TrialResult

    def trial(epochs):
        return TrialResult(config=GslConfig(), epochs_run=epochs,
                           best_val_accuracy=0.5)

    workloads.compare_trials([trial(3)], [trial(3)], "same")
    with pytest.raises(workloads.CheckFailed, match="1 trial"):
        workloads.compare_trials([trial(3)], [trial(4)], "epochs")
    with pytest.raises(workloads.CheckFailed, match="2 trials"):
        workloads.compare_trials([trial(3)], [trial(3), trial(3)], "count")


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-n300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
