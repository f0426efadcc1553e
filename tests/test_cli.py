import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ugsl import cli, search
from ugsl.config import (SPARSIFIER_KINDS, GslConfig, ObjectiveConfig,
                         from_record, record_hash, to_record)
from ugsl.data import (load_dataset, make_blobs, make_fixture, save_dataset,
                       write_edge_tsv)
from ugsl.search import SearchSpace
from ugsl.stats import compute_stats
from ugsl.tensor import Edges
from ugsl.training import TrialResult, base_config

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def fixture_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture")
    return str(save_dataset(make_fixture(), path))


@pytest.fixture(scope="module")
def blobs_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("blobs")
    return str(save_dataset(make_blobs(n=60, d=8, seed=5), path))


def _strip_headers(text: str) -> list:
    return [line for line in text.splitlines()
            if not line.startswith("#") and '"kind": "header"' not in line]


def test_train_base_on_fixture(tmp_path, fixture_manifest):
    out = tmp_path / "run"
    code = cli.main(["train", "--data", fixture_manifest, "--base",
                     "--out", str(out), "--seed", "1"])
    assert code == 0
    assert (out / "result.jsonl").exists()
    assert (out / "learned_adjacency.tsv").exists()
    lines = (out / "result.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    record = json.loads(lines[1])
    assert record["status"] == "ok"
    assert 0.0 <= record["best_val_accuracy"] <= 1.0


def test_train_bad_manifest_exits_3(tmp_path):
    code = cli.main(["train", "--data", str(tmp_path / "missing.json"),
                     "--base", "--out", str(tmp_path / "o")])
    assert code == 3


def test_train_invalid_config_exits_2_naming_field(tmp_path, fixture_manifest,
                                                   capsys):
    cfg = base_config(make_fixture())
    cfg.sparsifier.k = 99  # impossible on a 4-node graph
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    code = cli.main(["train", "--data", fixture_manifest, "--config",
                     str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sparsifier.k" in capsys.readouterr().err


def test_train_idempotent_outside_header(tmp_path, fixture_manifest):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["train", "--data", fixture_manifest, "--base",
                         "--out", str(out), "--seed", "3"]) == 0
    assert _strip_headers((out_a / "result.jsonl").read_text()) == \
        _strip_headers((out_b / "result.jsonl").read_text())
    assert (out_a / "learned_adjacency.tsv").read_bytes() == \
        (out_b / "learned_adjacency.tsv").read_bytes()


def test_env_seed_used_when_flag_absent(tmp_path, fixture_manifest,
                                        monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("UGSL_SEED", "7")
    assert cli.main(["train", "--data", fixture_manifest, "--base",
                     "--out", str(out)]) == 0
    record = json.loads((out / "result.jsonl").read_text().splitlines()[1])
    assert record["config"]["seed"] == 7


def test_unknown_flag_exits_2(fixture_manifest, capsys):
    code = cli.main(["train", "--data", fixture_manifest, "--base",
                     "--out", "x", "--bogus"])
    capsys.readouterr()
    assert code == 2


def _space_file(tmp_path, **overrides):
    space = dict(max_epochs=4, patience=4, k_options=[3, 5],
                 hidden_options=[16], dae_hidden_range=[16, 32])
    space.update(overrides)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    return str(path)


def test_random_search_trials_and_reports(tmp_path, blobs_manifest):
    out = tmp_path / "rs"
    code = cli.main(["random-search", "--data", blobs_manifest,
                     "--space", _space_file(tmp_path), "--trials", "5",
                     "--out", str(out), "--seed", "2"])
    assert code == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert len(lines) == 1 + 5
    assert (out / "top5pct.csv").exists()
    assert (out / "best_config.json").exists()


def test_random_search_resume_runs_only_missing(tmp_path, blobs_manifest):
    out = tmp_path / "resume"
    space = _space_file(tmp_path)
    cli.main(["random-search", "--data", blobs_manifest, "--space", space,
              "--trials", "3", "--out", str(out), "--seed", "2"])
    before = (out / "results.jsonl").read_text().splitlines()
    cli.main(["random-search", "--data", blobs_manifest, "--space", space,
              "--trials", "5", "--out", str(out), "--seed", "2"])
    after = (out / "results.jsonl").read_text().splitlines()
    assert after[:len(before)] == before  # completed trials untouched
    ids = sorted(json.loads(l)["trial_id"] for l in after[1:])
    assert ids == [0, 1, 2, 3, 4]


def test_random_search_jobs_same_config_multiset(tmp_path, blobs_manifest):
    space = _space_file(tmp_path)
    outs = {}
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["random-search", "--data", blobs_manifest,
                         "--space", space, "--trials", "6", "--jobs", jobs,
                         "--out", str(out), "--seed", "11"]) == 0
        lines = (out / "results.jsonl").read_text().splitlines()[1:]
        outs[jobs] = sorted(json.dumps(json.loads(l)["config"], sort_keys=True)
                            for l in lines)
    assert outs["1"] == outs["4"]


def test_line_search_command(tmp_path, blobs_manifest):
    out = tmp_path / "ls"
    code = cli.main(["line-search", "--data", blobs_manifest,
                     "--component", "processor",
                     "--options", "none,symmetrize",
                     "--trials-per-option", "1", "--max-epochs", "4",
                     "--patience", "4", "--out", str(out), "--seed", "3"])
    assert code == 0
    lines = (out / "line_search.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 2  # header + one best row per option
    csv_lines = (out / "line_search.csv").read_text().splitlines()
    assert csv_lines[1] == "option,val_accuracy,test_accuracy,status"
    assert csv_lines[2].startswith("none,")
    assert csv_lines[3].startswith("symmetrize,")


def test_stats_path_graph(tmp_path):
    adj = np.zeros((4, 4))
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    graph_path = tmp_path / "p4.tsv"
    write_edge_tsv(Edges.from_dense(adj), graph_path)
    out_csv = tmp_path / "stats.csv"
    code = cli.main(["stats", "--graph", str(graph_path), "--n", "4",
                     "--out", str(out_csv)])
    assert code == 0
    header, columns, row = out_csv.read_text().splitlines()
    cols = columns.split(",")
    vals = row.split(",")
    assert vals[cols.index("diameter")] == "3"
    assert vals[cols.index("degree_one_count")] == "2"


def test_stats_empty_graph_degenerate_exit_0(tmp_path):
    graph_path = tmp_path / "empty.tsv"
    graph_path.write_text("")
    out_csv = tmp_path / "stats.csv"
    assert cli.main(["stats", "--graph", str(graph_path), "--n", "3",
                     "--out", str(out_csv)]) == 0
    row = out_csv.read_text().splitlines()[2].split(",")
    assert row[-1] == "True"


def test_stats_malformed_line_exits_3(tmp_path, capsys):
    graph_path = tmp_path / "bad.tsv"
    graph_path.write_text("0\t1\t1.0\n0\tnope\t1.0\n")
    code = cli.main(["stats", "--graph", str(graph_path), "--n", "3",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_stats_infinite_weight_exits_3(tmp_path, capsys):
    graph_path = tmp_path / "inf.tsv"
    graph_path.write_text("0\t1\t1.0\n1\t2\tinf\n")
    code = cli.main(["stats", "--graph", str(graph_path), "--n", "3",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_train_infinite_feature_exits_3(tmp_path, capsys):
    dataset = make_fixture()
    dataset.graph.features[1, 0] = np.inf
    manifest = save_dataset(dataset, tmp_path / "data")
    code = cli.main(["train", "--data", str(manifest), "--base",
                     "--out", str(tmp_path / "run"), "--seed", "1"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def results_file(tmp_path_factory, blobs_manifest):
    tmp = tmp_path_factory.mktemp("results")
    out = tmp / "rs"
    space = tmp / "space.json"
    space.write_text(json.dumps(dict(max_epochs=4, patience=4,
                                     k_options=[3, 5], hidden_options=[16],
                                     dae_hidden_range=[16, 32])))
    assert cli.main(["random-search", "--data", blobs_manifest,
                     "--space", str(space), "--trials", "8",
                     "--out", str(out), "--seed", "6"]) == 0
    return str(out / "results.jsonl")


def test_report_top5(tmp_path, results_file):
    out = tmp_path / "rep"
    assert cli.main(["report", "--results", results_file, "--mode", "top5",
                     "--out", str(out)]) == 0
    report = json.loads((out / "top5pct.json").read_text())
    assert len(report["selected"]) == 1  # ceil(0.05 * 8)
    assert (out / "top5pct.csv").exists()


def test_report_best_arch_two_files(tmp_path, results_file):
    out = tmp_path / "arch"
    copy = tmp_path / "results.jsonl"
    copy.write_bytes(Path(results_file).read_bytes())
    assert cli.main(["report", "--results", results_file, str(copy),
                     "--mode", "best-arch", "--out", str(out)]) == 0
    lines = (out / "best_architectures.csv").read_text().splitlines()
    assert lines[1].startswith("rank,")
    assert len(lines) >= 3  # at least one architecture in the intersection


def test_report_component_avg(tmp_path, results_file):
    out = tmp_path / "avg"
    assert cli.main(["report", "--results", results_file, "--mode",
                     "component-avg", "--out", str(out)]) == 0
    text = (out / "component_averages.csv").read_text()
    assert "encoder," in text


def test_report_correlation(tmp_path, results_file):
    out = tmp_path / "corr"
    assert cli.main(["report", "--results", results_file, "--mode",
                     "correlation", "--out", str(out)]) == 0
    lines = (out / "correlations.csv").read_text().splitlines()
    stats_in_csv = {line.split(",")[0] for line in lines[2:]}
    assert "diameter" in stats_in_csv and "avg_degree" in stats_in_csv
    for line in lines[2:]:
        rho = float(line.split(",")[1])
        assert -1.0 <= rho <= 1.0


def test_report_idempotent(tmp_path, results_file):
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    for out in (out_a, out_b):
        assert cli.main(["report", "--results", results_file, "--mode",
                         "component-avg", "--out", str(out)]) == 0
    assert (out_a / "component_averages.csv").read_bytes() == \
        (out_b / "component_averages.csv").read_bytes()


def test_line_search_labels_rows_from_parsed_options(tmp_path, blobs_manifest):
    out = tmp_path / "ls"
    assert cli.main(["line-search", "--data", blobs_manifest,
                     "--component", "processor",
                     "--options", ",none,symmetrize",
                     "--trials-per-option", "1", "--max-epochs", "2",
                     "--patience", "2", "--out", str(out), "--seed", "3"]) == 0
    rows = (out / "line_search.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["none", "symmetrize"]


@pytest.mark.parametrize("component, options, named", [
    ("regularizers", "closenes", "('closenes',)"),
    ("scorer", "mpl", "'mpl'"),
    ("flux", "a", "'flux'"),
])
def test_line_search_unknown_option_exits_2_before_training(
        tmp_path, blobs_manifest, monkeypatch, capsys, component, options,
        named):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    out = tmp_path / "ls"
    code = cli.main(["line-search", "--data", blobs_manifest,
                     "--component", component, "--options", options,
                     "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _search(manifest, out, space, seed="2", trials="3", jobs="1"):
    return cli.main(["random-search", "--data", manifest, "--space", space,
                     "--trials", trials, "--jobs", jobs, "--out", str(out),
                     "--seed", seed])


def test_random_search_refuses_to_resume_another_run(tmp_path, blobs_manifest,
                                                     capsys):
    out = tmp_path / "rs"
    space = _space_file(tmp_path)
    assert _search(blobs_manifest, out, space, seed="1", trials="2") == 0
    before = (out / "results.jsonl").read_bytes()
    assert _search(blobs_manifest, out, space, seed="5", trials="4") == 2
    assert "another run" in capsys.readouterr().err
    assert (out / "results.jsonl").read_bytes() == before


def test_random_search_refuses_to_resume_on_another_dataset(tmp_path,
                                                           blobs_manifest,
                                                           capsys):
    other = str(save_dataset(make_blobs(n=80, d=8, seed=3), tmp_path / "b80"))
    out = tmp_path / "rs"
    space = _space_file(tmp_path)
    assert _search(blobs_manifest, out, space, trials="2") == 0
    before = (out / "results.jsonl").read_bytes()
    assert _search(other, out, space, trials="4") == 2
    assert "dataset contents (--data)" in capsys.readouterr().err
    assert (out / "results.jsonl").read_bytes() == before


def test_run_hashes_name_the_dataset(tmp_path, blobs_manifest):
    other = str(save_dataset(make_blobs(n=60, d=8, seed=6), tmp_path / "b60"))
    headers = []
    for manifest in (blobs_manifest, other):
        out = tmp_path / f"ls{len(headers)}"
        assert cli.main(["line-search", "--data", manifest,
                         "--component", "processor", "--options", "none",
                         "--trials-per-option", "1", "--max-epochs", "2",
                         "--patience", "2", "--out", str(out),
                         "--seed", "3"]) == 0
        headers.append((out / "line_search.csv").read_text().splitlines()[0])
    assert headers[0] != headers[1]


def test_line_search_hash_names_max_epochs_and_patience(tmp_path,
                                                        blobs_manifest):
    headers, records = [], []
    for max_epochs, patience in (("2", "2"), ("3", "2"), ("2", "1")):
        out = tmp_path / f"ls-{max_epochs}-{patience}"
        assert cli.main(["line-search", "--data", blobs_manifest,
                         "--component", "processor", "--options", "none",
                         "--trials-per-option", "1", "--max-epochs",
                         max_epochs, "--patience", patience, "--out",
                         str(out), "--seed", "3"]) == 0
        headers.append((out / "line_search.csv").read_text().splitlines()[0])
        records.append(_strip_headers(
            (out / "line_search.jsonl").read_text()))
    assert records[0] != records[1]  # another --max-epochs, other records
    assert len(set(headers)) == 3


def test_stats_reads_the_edge_list_as_the_dense_matrix_would(tmp_path):
    rng = np.random.default_rng(4)
    adj = np.where(rng.random((12, 12)) < 0.3, rng.uniform(0.1, 2.0, (12, 12)),
                   0.0)
    graph_path = tmp_path / "g.tsv"
    write_edge_tsv(Edges.from_dense(adj), graph_path)
    out_csv = tmp_path / "stats.csv"
    assert cli.main(["stats", "--graph", str(graph_path), "--n", "12",
                     "--out", str(out_csv)]) == 0
    columns, row = out_csv.read_text().splitlines()[1:]
    want = to_record(compute_stats(Edges.from_dense(adj)))
    assert row == ",".join(str(want[c]) for c in columns.split(","))


def test_random_search_resume_drops_truncated_final_line(tmp_path,
                                                         blobs_manifest,
                                                         caplog):
    out = tmp_path / "rs"
    space = _space_file(tmp_path)
    assert _search(blobs_manifest, out, space, trials="3") == 0
    path = out / "results.jsonl"
    complete = path.read_bytes()
    path.write_bytes(complete[:-40])  # a run killed mid-append
    with caplog.at_level("WARNING"):
        assert cli.main(["report", "--results", str(path), "--mode",
                         "component-avg", "--out", str(tmp_path / "rep")]) == 0
    assert any("incomplete final line" in r.message for r in caplog.records)
    assert _search(blobs_manifest, out, space, trials="3") == 0
    assert path.read_bytes() == complete


def test_corrupt_results_line_exits_3(tmp_path, blobs_manifest, capsys):
    out = tmp_path / "rs"
    space = _space_file(tmp_path)
    assert _search(blobs_manifest, out, space, trials="3") == 0
    path = out / "results.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:30] + "\n"
    path.write_text("".join(lines))
    assert cli.main(["report", "--results", str(path), "--mode", "top5",
                     "--out", str(tmp_path / "rep")]) == 3
    assert "line 2" in capsys.readouterr().err
    assert _search(blobs_manifest, out, space, trials="4") == 3
    assert path.read_text() == "".join(lines)


def _body(out) -> bytes:
    """results.jsonl without its header line, which holds a timestamp."""
    return (out / "results.jsonl").read_bytes().split(b"\n", 1)[1]


def test_random_search_jobs_write_identical_results(tmp_path, blobs_manifest):
    space = _space_file(tmp_path)
    bodies = []
    for jobs in ("1", "2", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert _search(blobs_manifest, out, space, seed="11", trials="6",
                       jobs=jobs) == 0
        bodies.append(_body(out))
    assert bodies[0] == bodies[1] == bodies[2]


def _run_cli_at(threads, *argv) -> None:
    """Run `ugsl` in a subprocess with OPENBLAS_NUM_THREADS set to `threads`
    (unset for None) and no other BLAS thread variable."""
    env = {k: v for k, v in os.environ.items() if k not in search.WORKER_ENV}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    subprocess.run([sys.executable, "-m", "ugsl.cli", *argv], env=env,
                   check=True, capture_output=True, timeout=300)


def test_results_do_not_depend_on_the_callers_blas_threads(tmp_path,
                                                           blobs_manifest):
    # on this dataset, trials run in-process at 1 and 2 BLAS threads differ
    space = _space_file(tmp_path)
    bodies = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}"
        _run_cli_at(threads, "random-search", "--data", blobs_manifest,
                    "--space", space, "--trials", "4", "--jobs", "2",
                    "--out", str(out), "--seed", "11")
        bodies.append(_body(out))
    assert bodies[0] == bodies[1] == bodies[2]


def test_line_search_does_not_depend_on_the_callers_blas_threads(tmp_path):
    # on make_blobs(), these trials run in-process at 1 and 2 BLAS threads
    # write different records
    manifest = str(save_dataset(make_blobs(), tmp_path / "blobs"))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _run_cli_at(threads, "line-search", "--data", manifest,
                    "--component", "processor", "--options",
                    "none,symmetrize", "--seed", "0", "--trials-per-option",
                    "1", "--max-epochs", "20", "--out", str(out))
        records = (out / "line_search.jsonl").read_bytes().split(b"\n", 1)[1]
        outputs.append(((out / "line_search.csv").read_bytes(), records))
    assert outputs[0] == outputs[1]


def test_results_written_before_one_thread_workers_are_not_resumed(
        tmp_path, blobs_manifest, capsys):
    space = _space_file(tmp_path)
    out = tmp_path / "rs"
    assert _search(blobs_manifest, out, space, seed="2", trials="2") == 0
    path = out / "results.jsonl"
    body = path.read_text().split("\n", 1)[1]
    # the run hash of a results file from before the worker environment
    old_hash = record_hash({
        "seed": 2, "data": load_dataset(blobs_manifest).digest(),
        "space": to_record(from_record(SearchSpace,
                                       json.loads(Path(space).read_text()),
                                       "space file"))})
    path.write_text(cli._header_line(2, old_hash) + "\n" + body)
    before = path.read_bytes()
    assert _search(blobs_manifest, out, space, seed="2", trials="3") == 2
    assert "worker BLAS regime" in capsys.readouterr().err
    assert path.read_bytes() == before


class _ExitOnUnpickle(str):
    """A string that ends the process that unpickles it."""

    def __reduce__(self):
        return (os._exit, (1,))


def test_a_dead_worker_exits_4_and_the_written_trials_resume(
        tmp_path, blobs_manifest, monkeypatch, capsys):
    space = _space_file(tmp_path)
    fresh = tmp_path / "fresh"
    assert _search(blobs_manifest, fresh, space, trials="4", jobs="2") == 0
    out = tmp_path / "rs"
    assert _search(blobs_manifest, out, space, trials="2") == 0
    before = (out / "results.jsonl").read_bytes()

    def killing_dataset(path):
        dataset = load_dataset(path)
        return replace(dataset, name=_ExitOnUnpickle(dataset.name))

    monkeypatch.setattr(cli, "load_dataset", killing_dataset)
    assert _search(blobs_manifest, out, space, trials="4", jobs="2") == 4
    assert "worker died" in capsys.readouterr().err
    assert (out / "results.jsonl").read_bytes() == before
    monkeypatch.undo()
    assert _search(blobs_manifest, out, space, trials="4", jobs="2") == 0
    assert _body(out) == _body(fresh)


def test_a_dead_line_search_worker_exits_4_before_any_file(
        tmp_path, blobs_manifest, monkeypatch, capsys):
    def killing_dataset(path):
        dataset = load_dataset(path)
        return replace(dataset, name=_ExitOnUnpickle(dataset.name))

    monkeypatch.setattr(cli, "load_dataset", killing_dataset)
    out = tmp_path / "ls"
    assert cli.main(["line-search", "--data", blobs_manifest,
                     "--component", "processor", "--options", "none",
                     "--trials-per-option", "1", "--max-epochs", "2",
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    # nothing was written, so there is nothing to resume
    assert "worker died" in err and "resume" not in err
    assert not out.exists()


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"), ("--jobs", "-1"), ("--trials", "0")])
def test_a_count_below_one_exits_2_before_any_file_or_process(
        tmp_path, blobs_manifest, monkeypatch, capsys, flag, value):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    out = tmp_path / "rs"
    counts = {"--jobs": "1", "--trials": "3", flag: value}
    assert _search(blobs_manifest, out, _space_file(tmp_path),
                   trials=counts["--trials"], jobs=counts["--jobs"]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_best_arch_csv_names_components_and_writes_none(tmp_path):
    config = GslConfig()  # no regularizers, no unsupervised losses
    trial = TrialResult(config=config, trial_id=0, dataset="toy",
                        status="ok", best_val_accuracy=0.5,
                        test_accuracy_at_best_val=0.75)
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(trial.to_dict(), sort_keys=True) + "\n")
    out = tmp_path / "arch"
    assert cli.main(["report", "--results", str(path), "--mode", "best-arch",
                     "--out", str(out)]) == 0
    lines = (out / "best_architectures.csv").read_text().splitlines()
    assert lines[1] == ("rank,mean_test_accuracy,input,scorer,sparsifier,"
                        "processor,encoder,regularizers,unsupervised,"
                        "adjacency_mode")
    assert lines[2] == "1,0.750000,none,mlp,knn,none,gcn,none,none,one"


def test_report_reads_every_results_file_of_one_dataset(tmp_path):
    # three searches of one dataset: each file is its own table, so the
    # mean of the per-file best accuracies is over all three
    paths = []
    for i, acc in enumerate((0.1, 0.2, 0.6)):
        trial = TrialResult(config=GslConfig(), trial_id=0, dataset="toy",
                            status="ok", best_val_accuracy=acc,
                            test_accuracy_at_best_val=acc)
        path = tmp_path / f"d{i}" / "results.jsonl"
        path.parent.mkdir()
        path.write_text(json.dumps(trial.to_dict(), sort_keys=True) + "\n")
        paths.append(str(path))
    out = tmp_path / "avg"
    assert cli.main(["report", "--results", *paths, "--mode",
                     "component-avg", "--out", str(out)]) == 0
    lines = (out / "component_averages.csv").read_text().splitlines()
    assert "encoder,gcn,0.300000" in lines


def test_report_missing_results_file_exits_3(tmp_path):
    assert cli.main(["report", "--results", str(tmp_path / "none.jsonl"),
                     "--mode", "top5", "--out", str(tmp_path / "rep")]) == 3


def test_report_csv_rows_match_header_with_multi_member_labels(tmp_path):
    config = GslConfig(objective=ObjectiveConfig(
        lambda_closeness=1.0, lambda_smoothness=1.0,
        unsupervised=("dae", "contrastive")))
    trials = [TrialResult(config=cfg, trial_id=i, dataset="toy", status="ok",
                          best_val_accuracy=acc, test_accuracy_at_best_val=acc)
              for i, (cfg, acc) in enumerate([(config, 0.9),
                                              (GslConfig(), 0.5)])]
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(t.to_dict(), sort_keys=True) + "\n"
                            for t in trials))
    texts = []
    for mode, name in (("top5", "top5pct.csv"),
                       ("best-arch", "best_architectures.csv"),
                       ("component-avg", "component_averages.csv")):
        out = tmp_path / mode
        assert cli.main(["report", "--results", str(path), "--mode", mode,
                         "--out", str(out)]) == 0
        lines = (out / name).read_text().splitlines()[1:]
        width = len(lines[0].split(","))
        assert [len(line.split(",")) for line in lines[1:]] == \
            [width] * (len(lines) - 1), name
        texts.append("\n".join(lines))
    for text in texts:
        assert "closeness+smoothness" in text and "contrastive+dae" in text


def _manifest_with(tmp_path, **changes) -> str:
    path = save_dataset(make_fixture(), tmp_path / "data")
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
    return str(path)


def _empty_manifest(tmp_path) -> str:
    path = save_dataset(make_fixture(), tmp_path / "data")
    for name in ("features", "labels", "train", "val", "test"):
        (tmp_path / "data" / f"{name}.csv").write_text("")
    return str(path)


def _blobs_with_config(tmp_path, **changes) -> list:
    """`train` arguments for make_blobs() (300 nodes, 16 features) and the
    default configuration with `changes`."""
    manifest = str(save_dataset(make_blobs(), tmp_path / "blobs"))
    config = GslConfig().to_dict()
    for dotted, value in changes.items():
        *path, key = dotted.split("__")
        record = config
        for part in path:
            record = record[part]
        record[key] = value
    return ["train", "--data", manifest,
            "--config", _json_file(tmp_path, config)]


def _manifest_with_split_index(tmp_path, index: str) -> str:
    """The fixture's manifest, its train split file listing `index` too."""
    path = save_dataset(make_fixture(), tmp_path / "data")
    train = tmp_path / "data" / "train.csv"
    train.write_text(train.read_text() + index + "\n")
    return str(path)


def _two_edges(tmp_path) -> str:
    path = tmp_path / "two_edges.tsv"
    path.write_text("0\t1\t1.0\n1\t0\t1.0\n")
    return str(path)


def _far_node_edge(tmp_path) -> str:
    path = tmp_path / "far_node.tsv"
    path.write_text("9999999999\t0\t1.0\n")
    return str(path)


def _two_results_files(tmp_path) -> list:
    """Two valid results files of one trial each."""
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        path.write_text(json.dumps(TrialResult(GslConfig()).to_dict()) + "\n")
    return [str(path) for path in paths]


def _json_file(tmp_path, value) -> str:
    path = tmp_path / "value.json"
    path.write_text(json.dumps(value))
    return str(path)


@pytest.mark.parametrize("code, argv", [
    (2, lambda tmp, data: ["line-search", "--data", data, "--component",
                           "processor", "--options", "none",
                           "--trials-per-option", "0"]),
    (2, lambda tmp, data: ["stats", "--graph", _json_file(tmp, []),
                           "--n", "-1"]),
    (3, lambda tmp, data: ["stats", "--graph", str(tmp / "missing.tsv"),
                           "--n", "4"]),
    (2, lambda tmp, data: ["train", "--data", data,
                           "--config", _json_file(tmp, [1, 2])]),
    (2, lambda tmp, data: ["random-search", "--data", data,
                           "--space", _json_file(tmp, [1, 2]),
                           "--trials", "1"]),
    (3, lambda tmp, data: ["train", "--base", "--data", _manifest_with(
        tmp, splits={"train": "train.csv", "test": "test.csv"})]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, num_classes="x")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, num_classes=10 ** 12)]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _empty_manifest(tmp)]),
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"dae_hidden_range": [1024, 512]}),
                           "--trials", "1"]),
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"lr_range": [0, 0.1]}),
                           "--trials", "1"]),
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"dropout_range": [0.7, 0.1]}),
                           "--trials", "1"]),
    (2, lambda tmp, data: ["train", "--base", "--data", data,
                           "--seed", "-1"]),
    (2, lambda tmp, data: ["train", "--data", data,
                           "--config", _json_file(tmp, {"seed": -1})]),
    (2, lambda tmp, data: ["line-search", "--data", data, "--component",
                           "processor", "--options", "none",
                           "--seed", "-1"]),
    (2, lambda tmp, data: ["random-search", "--data", data, "--trials", "1",
                           "--seed", "-1"]),
    (4, lambda tmp, data: ["stats", "--graph", _two_edges(tmp),
                           "--n", "1000000"]),
    (4, lambda tmp, data: _blobs_with_config(tmp, hidden_units=10 ** 9)),
    (4, lambda tmp, data: _blobs_with_config(tmp,
                                             scorer__mlp_width=10 ** 7,
                                             scorer__init="glorot")),
    (4, lambda tmp, data: _blobs_with_config(
        tmp, objective__dae__hidden=10 ** 8,
        objective__unsupervised=["dae"])),
    (4, lambda tmp, data: _blobs_with_config(
        tmp, positional__kind="wl", positional__pe_dim=2 * 10 ** 12)),
    (4, lambda tmp, data: _blobs_with_config(tmp, scorer__kind="att",
                                             scorer__heads=10 ** 7)),
    (2, lambda tmp, data: ["stats", "--graph", _far_node_edge(tmp),
                           "--n", "10000000000"]),
    # valid spaces and flags that draw invalid trial configurations
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"lr_range": [1e-5, 1e-4]}),
                           "--trials", "1"]),
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"max_epochs": 0}),
                           "--trials", "1"]),
    (2, lambda tmp, data: ["line-search", "--data", data, "--component",
                           "processor", "--options", "none",
                           "--max-epochs", "0"]),
    (2, lambda tmp, data: ["line-search", "--data", data, "--component",
                           "processor", "--options", "none",
                           "--patience", "0"]),
    (2, lambda tmp, data: ["line-search", "--data", data, "--component",
                           "processor", "--options", ","]),
    (2, lambda tmp, data: ["stats", "--graph", _two_edges(tmp),
                           "--n", "1000000", "--seed", "-1"]),
    (2, lambda tmp, data: ["report", "--results", str(tmp / "missing.jsonl"),
                           "--mode", "top5", "--seed", "-1"]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with_split_index(tmp, "4")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with_split_index(tmp, "-1")]),
    (3, lambda tmp, data: ["train", "--base", "--data", _json_file(tmp, 5)]),
    (3, lambda tmp, data: ["train", "--base", "--data", str(tmp)]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, features=5)]),
    (3, lambda tmp, data: ["train", "--base", "--data", _manifest_with(
        tmp, splits={"train": ["train.csv"], "val": "val.csv",
                     "test": "test.csv"})]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, name=5)]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, feature_knd="binary")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, num_classes="3")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, labels=".")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, labels=5)]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, feature_kind=5)]),
    (2, lambda tmp, data: ["report", "--mode", "top5", "--results",
                           *_two_results_files(tmp)]),
    # fields that are constants now, at their former defaults
    (2, lambda tmp, data: _blobs_with_config(tmp, positional__bootstrap_k=15)),
    (2, lambda tmp, data: _blobs_with_config(tmp,
                                             sparsifier__max_edges=500_000)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__dae__noise_sigma=0.1)),
    (2, lambda tmp, data: ["random-search", "--data", data, "--space",
                           _json_file(tmp, {"bootstrap_k": 15}),
                           "--trials", "1"]),
    # every validated config leaf at one invalid value (conditional
    # fields with their kind on)
    (2, lambda tmp, data: _blobs_with_config(tmp, lr=0.0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, weight_decay=1.0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, dropout=0.9)),
    (2, lambda tmp, data: _blobs_with_config(tmp, activation="gelu")),
    (2, lambda tmp, data: _blobs_with_config(tmp, adjacency_mode="two")),
    (2, lambda tmp, data: _blobs_with_config(tmp, hidden_units=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, max_epochs=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, patience=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, positional__kind="rwpe")),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, positional__wl_iterations=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, positional__pe_dim=0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, positional__kind="wl", positional__pe_dim=3)),
    (2, lambda tmp, data: _blobs_with_config(tmp, scorer__kind="gat")),
    (2, lambda tmp, data: _blobs_with_config(tmp, scorer__mlp_depth=3)),
    (2, lambda tmp, data: _blobs_with_config(tmp, scorer__init="cosine")),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, scorer__kind="att", scorer__heads=0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, scorer__init="glorot", scorer__mlp_width=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, sparsifier__kind="topk")),
    (2, lambda tmp, data: _blobs_with_config(tmp, sparsifier__k=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, sparsifier__dilation=0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, sparsifier__epsilon=0.0)),
    (2, lambda tmp, data: _blobs_with_config(tmp, sparsifier__epsilon=1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, sparsifier__epsilon=float("nan"))),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, sparsifier__temperature=0.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, processor__mode="normalize")),
    (2, lambda tmp, data: _blobs_with_config(tmp, encoder__kind="gat")),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__lambda_closeness=-1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__lambda_smoothness=-1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__lambda_sparse_connect=-1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__lambda_log_barrier=-1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__unsupervised=["vae"])),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__unsupervised=["dae"], objective__dae__mask_rate=1.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__unsupervised=["contrastive"],
        objective__contrastive__mask_rate=0.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__unsupervised=["contrastive"],
        objective__contrastive__temperature=0.0)),
    (2, lambda tmp, data: _blobs_with_config(
        tmp, objective__unsupervised=["contrastive"],
        objective__contrastive__tau=1.0)),
    # manifest fields at their boundaries
    *[(3, lambda tmp, data, value=value: ["train", "--base", "--data",
                                          _manifest_with(tmp,
                                                         num_classes=value)])
      for value in (0, -1, 2 ** 70, 2.5, True)],
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, feature_kind="bogus")]),
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, name="")]),
    *[(3, lambda tmp, data, splits=splits: ["train", "--base", "--data",
                                            _manifest_with(tmp, splits=splits)])
      for splits in ({"val": "val.csv", "test": "test.csv"},
                     {"train": "train.csv", "val": "val.csv"},
                     {"train": 5, "val": "val.csv", "test": "test.csv"},
                     {"train": "train.csv", "val": 5, "test": "test.csv"},
                     {"train": "train.csv", "val": "val.csv", "test": 5})],
    (3, lambda tmp, data: ["train", "--base", "--data",
                           _manifest_with(tmp, features="missing.csv")]),
], ids=["zero-trials-per-option", "negative-n", "missing-graph",
        "config-array", "space-array", "splits-without-val",
        "num-classes-not-int", "num-classes-above-n", "empty-dataset",
        "space-range-reversed", "space-log-range-zero",
        "space-uniform-range-reversed", "train-negative-seed",
        "config-negative-seed", "line-search-negative-seed",
        "random-search-negative-seed", "stats-million-nodes",
        "hidden-units-huge", "scorer-mlp-width-huge", "dae-hidden-huge",
        "wl-pe-dim-huge", "att-heads-huge", "stats-n-beyond-pair-keys",
        "space-lr-outside-config", "space-max-epochs-zero",
        "line-search-max-epochs-zero", "line-search-patience-zero",
        "line-search-options-empty", "stats-negative-seed",
        "report-negative-seed", "split-index-out-of-range",
        "split-index-negative", "manifest-not-object", "manifest-is-directory",
        "manifest-features-not-str", "manifest-split-path-list",
        "manifest-name-not-str", "manifest-unknown-key",
        "manifest-num-classes-str", "manifest-labels-directory",
        "manifest-labels-not-str", "manifest-feature-kind-not-str",
        "report-top5-two-files", "config-bootstrap-k", "config-max-edges",
        "config-dae-noise-sigma", "space-bootstrap-k",
        "config-lr-zero", "config-weight-decay-one",
        "config-dropout-above-range", "config-activation-unknown",
        "config-adjacency-mode-unknown", "config-hidden-units-zero",
        "config-max-epochs-zero", "config-patience-zero",
        "config-positional-kind-unknown", "config-wl-iterations-zero",
        "config-pe-dim-zero", "config-wl-pe-dim-odd",
        "config-scorer-kind-unknown", "config-mlp-depth-three",
        "config-mlp-init-cosine", "config-att-heads-zero",
        "config-mlp-width-zero", "config-sparsifier-kind-unknown",
        "config-k-zero", "config-dilation-zero", "config-epsilon-zero",
        "config-epsilon-one", "config-epsilon-nan", "config-temperature-zero",
        "config-processor-mode-unknown", "config-encoder-kind-unknown",
        "config-lambda-closeness-negative",
        "config-lambda-smoothness-negative",
        "config-lambda-sparse-connect-negative",
        "config-lambda-log-barrier-negative", "config-unsupervised-unknown",
        "config-dae-mask-rate-one", "config-contrastive-mask-rate-zero",
        "config-contrastive-temperature-zero", "config-contrastive-tau-one",
        "manifest-num-classes-zero", "manifest-num-classes-negative",
        "manifest-num-classes-2-to-70", "manifest-num-classes-float",
        "manifest-num-classes-true", "manifest-feature-kind-unknown",
        "manifest-name-empty", "splits-without-train", "splits-without-test",
        "manifest-split-train-number", "manifest-split-val-number",
        "manifest-split-test-number", "manifest-features-missing-file"])
def test_bad_input_exits_with_code_not_traceback(tmp_path, fixture_manifest,
                                                 capsys, code, argv):
    out = tmp_path / "out"
    assert cli.main(argv(tmp_path, fixture_manifest) + ["--out", str(out)]) \
        == code
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    # rejected before any output is written: no results.jsonl, no CSV
    assert not out.exists()


def _snapshot(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("argv, out", [
    (lambda tmp, data: ["train", "--base", "--data", data], "taken"),
    (lambda tmp, data: ["train", "--base", "--data", data], "taken/run"),
    (lambda tmp, data: ["line-search", "--data", data, "--component",
                        "processor", "--options", "none",
                        "--trials-per-option", "1", "--max-epochs", "2"],
     "taken"),
    (lambda tmp, data: ["random-search", "--data", data, "--trials", "1"],
     "taken"),
    (lambda tmp, data: ["report", "--mode", "top5", "--results",
                        _results_file(tmp, TrialResult(GslConfig()).to_dict())],
     "taken"),
    (lambda tmp, data: ["stats", "--graph", _two_edges(tmp), "--n", "2"],
     "missing/stats.csv"),
    (lambda tmp, data: ["stats", "--graph", _two_edges(tmp), "--n", "2"], "."),
], ids=["train-file", "train-under-file", "line-search-file",
        "random-search-file", "report-file", "stats-missing-directory",
        "stats-directory"])
def test_bad_out_exits_2_and_writes_nothing(tmp_path, fixture_manifest,
                                            capsys, argv, out):
    """An --out that names an existing file (a directory for stats), or
    lies under a file or in no directory, is rejected before any input is
    read. These are not rows of the bad-input table, which appends its
    own --out."""
    (tmp_path / "taken").write_text("kept\n")
    argv = argv(tmp_path, fixture_manifest) + ["--out", str(tmp_path / out)]
    before = _snapshot(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err
    assert _snapshot(tmp_path) == before


# each command's required flags other than --out, with values that
# parse: a path that does not exist stands for every input, so a command
# that read its inputs before the seed and --out checks would exit 3
_REQUIRED_ARGV = {
    "train": ["--data", "missing.json", "--base"],
    "line-search": ["--data", "missing.json", "--component", "encoder",
                    "--options", "gcn"],
    "random-search": ["--data", "missing.json"],
    "stats": ["--graph", "missing.tsv", "--n", "1"],
    "report": ["--results", "missing.jsonl", "--mode", "top5"],
}


def test_the_contract_table_names_every_command():
    usage = cli.build_parser().format_usage()
    assert "{" + ",".join(_REQUIRED_ARGV) + "}" in usage


@pytest.mark.parametrize("command", sorted(_REQUIRED_ARGV))
def test_every_command_checks_seed_then_out_before_reading(
        tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("UGSL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    argv = [command, *_REQUIRED_ARGV[command]]
    (tmp_path / "taken").write_text("kept\n")
    before = _snapshot(tmp_path)
    out = str(tmp_path / "taken" / "run.csv")
    assert cli.main(argv + ["--seed", "-1", "--out", out]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert cli.main(argv + ["--out", out]) == 2
    assert "--out" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_negative_seed_from_the_environment_exits_2(tmp_path,
                                                    fixture_manifest,
                                                    monkeypatch, capsys):
    monkeypatch.setenv("UGSL_SEED", "-1")
    out = tmp_path / "out"
    assert cli.main(["random-search", "--data", fixture_manifest,
                     "--trials", "1", "--out", str(out)]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not (out / "results.jsonl").exists()


@pytest.mark.parametrize("space", [
    {"lr_range": [0, 0.1]},
    {"scorer_kinds": []},
    {"excluded_sparsifiers": list(SPARSIFIER_KINDS)},
], ids=["log-range-zero", "empty-options", "every-sparsifier-excluded"])
def test_rejected_space_leaves_no_results_file(tmp_path, fixture_manifest,
                                               space):
    out = tmp_path / "out"
    argv = ["random-search", "--data", fixture_manifest, "--space",
            _json_file(tmp_path, space), "--trials", "1", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not (out / "results.jsonl").exists()


def _results_file(tmp_path, record) -> str:
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return str(path)


def _space_args(value):
    return lambda tmp, data: ["random-search", "--data", data, "--space",
                              _json_file(tmp, value), "--trials", "1"]


@pytest.mark.parametrize("code, argv, named", [
    (2, lambda tmp, data: ["train", "--data", data, "--config",
                           _json_file(tmp, {"lr": "abc"})],
     "config.lr: expected float, got str"),
    (2, lambda tmp, data: ["train", "--data", data, "--config",
                           _json_file(tmp, {"sparsifier": {"k": "5"}})],
     "config.sparsifier.k: expected int, got str"),
    (2, _space_args({"max_epochs": "2"}),
     "space file.max_epochs: expected int, got str"),
    (2, _space_args({"lr_range": [0.01]}),
     "space file.lr_range: expected 2 items, got 1"),
    (2, _space_args({"k_options": ["a"]}),
     "space file.k_options[0]: expected int, got str"),
    (2, _space_args({"scorer_kinds": []}), "option list is empty"),
    (2, _space_args({"excluded_sparsifiers": list(SPARSIFIER_KINDS)}),
     "option list is empty"),
    (3, lambda tmp, data: ["report", "--mode", "top5", "--results",
                           _results_file(tmp, {"trial_id": 0})],
     "trial 0.config: required field missing"),
], ids=["config-lr-str", "config-nested-k-str", "space-max-epochs-str",
        "space-range-length", "space-option-str", "space-empty-options",
        "space-every-sparsifier-excluded", "results-record-without-config"])
def test_bad_record_exits_naming_the_field(tmp_path, fixture_manifest, capsys,
                                           code, argv, named):
    out = str(tmp_path / "out")
    assert cli.main(argv(tmp_path, fixture_manifest) + ["--out", out]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
