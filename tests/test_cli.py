import concurrent.futures
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ugsl import cli
from ugsl.config import (GslConfig, ObjectiveConfig, from_record, record_hash,
                         to_record)
from ugsl.data import (load_dataset, make_blobs, make_fixture, save_dataset,
                       write_edge_tsv)
from ugsl.search import SearchSpace
from ugsl.stats import compute_stats
from ugsl.tensor import Edges
from ugsl.training import TrialResult

from oracles import determinism_failures, written


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


def test_train_idempotent_outside_header(tmp_path, fixture_manifest):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["train", "--data", fixture_manifest, "--base",
                         "--out", str(out), "--seed", "3"]) == 0
    assert written(out_a) == written(out_b)


def test_env_seed_used_when_flag_absent(tmp_path, fixture_manifest,
                                        monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("UGSL_SEED", "7")
    assert cli.main(["train", "--data", fixture_manifest, "--base",
                     "--out", str(out)]) == 0
    record = json.loads((out / "result.jsonl").read_text().splitlines()[1])
    assert record["config"]["seed"] == 7


def _space_file(tmp_path, **overrides):
    space = dict(max_epochs=4, patience=4, k_options=[3, 5],
                 hidden_options=[16], dae_hidden_range=[16, 32])
    space.update(overrides)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    return str(path)


def _search(manifest, out, space, seed="2", trials="3", jobs="1"):
    return cli.main(["random-search", "--data", manifest, "--space", space,
                     "--trials", trials, "--jobs", jobs, "--out", str(out),
                     "--seed", seed])


def _line_search(manifest, out, options="none", max_epochs="2",
                 patience="2"):
    return cli.main(["line-search", "--data", manifest, "--component",
                     "processor", "--options", options, "--trials-per-option",
                     "1", "--max-epochs", max_epochs, "--patience", patience,
                     "--out", str(out), "--seed", "3"])


def test_random_search_trials_and_reports(tmp_path, blobs_manifest):
    out = tmp_path / "rs"
    assert _search(blobs_manifest, out, _space_file(tmp_path), trials="5") == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert len(lines) == 1 + 5
    assert (out / "top5pct.csv").exists()
    assert (out / "best_config.json").exists()


def test_random_search_resume_runs_only_missing(tmp_path, blobs_manifest):
    out = tmp_path / "resume"
    space = _space_file(tmp_path)
    _search(blobs_manifest, out, space, trials="3")
    before = (out / "results.jsonl").read_text().splitlines()
    _search(blobs_manifest, out, space, trials="5")
    after = (out / "results.jsonl").read_text().splitlines()
    assert after[:len(before)] == before  # completed trials untouched
    ids = sorted(json.loads(l)["trial_id"] for l in after[1:])
    assert ids == [0, 1, 2, 3, 4]


def test_line_search_command(tmp_path, blobs_manifest):
    out = tmp_path / "ls"
    assert _line_search(blobs_manifest, out, "none,symmetrize", "4", "4") == 0
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


@pytest.fixture(scope="module")
def results_file(tmp_path_factory, blobs_manifest):
    tmp = tmp_path_factory.mktemp("results")
    assert _search(blobs_manifest, tmp / "rs", _space_file(tmp), seed="6",
                   trials="8") == 0
    return str(tmp / "rs" / "results.jsonl")


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
    assert _line_search(blobs_manifest, out, ",none,symmetrize") == 0
    rows = (out / "line_search.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["none", "symmetrize"]


def test_run_hashes_name_the_dataset(tmp_path, blobs_manifest):
    other = str(save_dataset(make_blobs(n=60, d=8, seed=6), tmp_path / "b60"))
    headers = []
    for manifest in (blobs_manifest, other):
        out = tmp_path / f"ls{len(headers)}"
        assert _line_search(manifest, out) == 0
        headers.append((out / "line_search.csv").read_text().splitlines()[0])
    assert headers[0] != headers[1]


def test_line_search_hash_names_max_epochs_and_patience(tmp_path,
                                                        blobs_manifest):
    headers, records = [], []
    for max_epochs, patience in (("2", "2"), ("3", "2"), ("2", "1")):
        out = tmp_path / f"ls-{max_epochs}-{patience}"
        assert _line_search(blobs_manifest, out, "none", max_epochs,
                            patience) == 0
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


class _ExitOnUnpickle(str):
    """A string that ends the process that unpickles it."""

    def __reduce__(self):
        return (os._exit, (1,))


# Each of these three reads a case of criterion 7, whose runs conftest.py
# makes once a session (oracles.DETERMINISM_CASES).
def test_random_search_jobs_write_identical_results(determinism_runs):
    assert determinism_failures(determinism_runs("random-search-jobs")) == []


def test_results_do_not_depend_on_the_callers_blas_threads(determinism_runs):
    assert determinism_failures(
        determinism_runs("random-search-caller-blas")) == []


def test_line_search_does_not_depend_on_the_callers_blas_threads(
        determinism_runs):
    assert determinism_failures(
        determinism_runs("line-search-caller-blas")) == []


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
    assert written(out) == written(fresh)


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


def _manifest_without(tmp_path, key) -> str:
    path = save_dataset(make_fixture(), tmp_path / "data")
    record = json.loads(path.read_text())
    del record[key]
    path.write_text(json.dumps(record))
    return str(path)


def _empty_manifest(tmp_path) -> str:
    path = save_dataset(make_fixture(), tmp_path / "data")
    for name in ("features", "labels", "train", "val", "test"):
        (tmp_path / "data" / f"{name}.csv").write_text("")
    return str(path)


def _config_with(tmp_path, **changes) -> str:
    """A config file: the default configuration with `changes`, each named
    by its path with `__` between the fields."""
    config = GslConfig().to_dict()
    for dotted, value in changes.items():
        *path, key = dotted.split("__")
        record = config
        for part in path:
            record = record[part]
        record[key] = value
    return _json_file(tmp_path, config)


def _blobs_with_config(tmp_path, **changes) -> list:
    """`train` arguments for make_blobs() (300 nodes, 16 features) and the
    default configuration with `changes`."""
    manifest = str(save_dataset(make_blobs(), tmp_path / "blobs"))
    return ["train", "--data", manifest,
            "--config", _config_with(tmp_path, **changes)]


def _manifest_with_split_index(tmp_path, index: str) -> str:
    """The fixture's manifest, its train split file listing `index` too."""
    path = save_dataset(make_fixture(), tmp_path / "data")
    train = tmp_path / "data" / "train.csv"
    train.write_text(train.read_text() + index + "\n")
    return str(path)


def _graph(tmp_path, text: bytes) -> str:
    path = tmp_path / "graph.tsv"
    path.write_bytes(text)
    return str(path)


def _two_edges(tmp_path) -> str:
    return _graph(tmp_path, b"0\t1\t1.0\n1\t0\t1.0\n")


def _two_results_files(tmp_path) -> list:
    """Two valid results files of one trial each."""
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        path.write_text(json.dumps(TrialResult(GslConfig()).to_dict()) + "\n")
    return [str(path) for path in paths]


def _results_file(tmp_path, record) -> str:
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return str(path)


def _json_file(tmp_path, value) -> str:
    path = tmp_path / "value.json"
    path.write_text(json.dumps(value))
    return str(path)


def _taken(tmp_path) -> str:
    """A file that --out must neither replace nor hold."""
    path = tmp_path / "taken"
    path.write_text("kept\n")
    return str(path)


def _infinite_feature(tmp_path) -> str:
    dataset = make_fixture()
    dataset.graph.features[1, 0] = np.inf
    return str(save_dataset(dataset, tmp_path / "data"))


def _earlier_search(tmp_path, edit=None) -> tuple:
    """Search 60 blobs for 2 trials at seed 2 into tmp_path/rs, then
    `edit(results_path, manifest, space)`; returns the search's manifest,
    space file and results path."""
    manifest = str(save_dataset(make_blobs(n=60, d=8, seed=5),
                                tmp_path / "blobs"))
    space = _space_file(tmp_path)
    assert _search(manifest, tmp_path / "rs", space, trials="2") == 0
    results = tmp_path / "rs" / "results.jsonl"
    if edit is not None:
        edit(results, manifest, space)
    return manifest, space, str(results)


def _resume(tmp_path, data=None, seed="2", edit=None) -> list:
    """The argv that resumes `_earlier_search(tmp_path, edit)` for 4
    trials, on `data` (the same blobs when None) at `seed`."""
    manifest, space, _ = _earlier_search(tmp_path, edit)
    return ["random-search", "--data", data or manifest, "--space", space,
            "--trials", "4", "--seed", seed, "--out", str(tmp_path / "rs")]


def _cut_line_2(results, manifest, space) -> None:
    lines = results.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:30] + "\n"
    results.write_text("".join(lines))


def _header_before_worker_env(results, manifest, space) -> None:
    """Give the results the header that a run at seed 2 wrote before the
    run hash held the workers' environment."""
    old_hash = record_hash({
        "seed": 2, "data": load_dataset(manifest).digest(),
        "space": to_record(from_record(SearchSpace,
                                       json.loads(Path(space).read_text()),
                                       "space file"))})
    body = results.read_text().split("\n", 1)[1]
    results.write_text(cli._header_line(2, old_hash) + "\n" + body)


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


def _row(id, code, argv, named=None, env=None):
    return pytest.param(code, argv, named, env, id=id)


def _config_row(id, code, named=None, **changes):
    """A `train` row whose config changes `changes`; a refused config names
    the leaf of its last change, as in `scorer.heads:`."""
    if named is None and code == 2:
        named = list(changes)[-1].replace("__", ".") + ":"
    return _row(id, code, lambda tmp, data: _blobs_with_config(tmp, **changes),
                named)


def _manifest_row(id, code, named=None, **changes):
    return _row(id, code, lambda tmp, data: [
        "train", "--base", "--data", _manifest_with(tmp, **changes)], named)


def _space_row(id, code, space, named=None):
    return _row(id, code, lambda tmp, data: [
        "random-search", "--data", data, "--space", _json_file(tmp, space),
        "--trials", "1"], named)


# Every refusal of the CLI: (exit code, argv, text stderr must hold,
# environment). `argv(tmp_path, fixture manifest)` may write inputs or run
# an earlier search; a row without --out writes to tmp_path/out.
REFUSALS = [
    # flags
    _row("unknown-flag", 2, lambda tmp, data: [
        "train", "--data", data, "--base", "--bogus"],
        "unrecognized arguments: --bogus"),
    _row("zero-trials-per-option", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", "none", "--trials-per-option", "0"]),
    _row("negative-n", 2, lambda tmp, data: [
        "stats", "--graph", _json_file(tmp, []), "--n", "-1"]),
    _row("stats-n-beyond-pair-keys", 2, lambda tmp, data: [
        "stats", "--graph", _graph(tmp, b"9999999999\t0\t1.0\n"),
        "--n", "10000000000"]),
    _row("line-search-max-epochs-zero", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", "none", "--max-epochs", "0"]),
    _row("line-search-patience-zero", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", "none", "--patience", "0"]),
    _row("line-search-options-empty", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", ","]),
    *[_row(f"line-search-{component}-{option}", 2,
           lambda tmp, data, component=component, option=option: [
               "line-search", "--data", data, "--component", component,
               "--options", option], named)
      for component, option, named in (
          ("regularizers", "closenes", "'closenes'"),
          ("scorer", "mpl", "'mpl'"), ("flux", "a", "'flux'"))],
    *[_row(id, 2, lambda tmp, data, trials=trials, jobs=jobs: [
        "random-search", "--data", data, "--space", _space_file(tmp),
        "--trials", trials, "--jobs", jobs], flag)
      for id, flag, trials, jobs in (
          ("jobs-zero", "--jobs", "3", "0"),
          ("jobs-negative", "--jobs", "3", "-1"),
          ("trials-zero", "--trials", "0", "1"))],
    _row("report-top5-two-files", 2, lambda tmp, data: [
        "report", "--mode", "top5", "--results", *_two_results_files(tmp)]),
    # the seed (--seed, else UGSL_SEED) is checked first, then --out, and
    # both before any input is read
    _row("train-negative-seed", 2, lambda tmp, data: [
        "train", "--base", "--data", data, "--seed", "-1"]),
    _row("line-search-negative-seed", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", "none", "--seed", "-1"]),
    _row("random-search-negative-seed", 2, lambda tmp, data: [
        "random-search", "--data", data, "--trials", "1", "--seed", "-1"]),
    _row("stats-negative-seed", 2, lambda tmp, data: [
        "stats", "--graph", _two_edges(tmp), "--n", "1000000",
        "--seed", "-1"]),
    _row("report-negative-seed", 2, lambda tmp, data: [
        "report", "--results", str(tmp / "missing.jsonl"), "--mode", "top5",
        "--seed", "-1"]),
    _row("env-negative-seed", 2, lambda tmp, data: [
        "random-search", "--data", data, "--trials", "1"],
        "seed: must be >= 0", {"UGSL_SEED": "-1"}),
    *[_row(f"{command}-seed-before-out", 2,
           lambda tmp, data, argv=(command, *flags): [
               *argv, "--seed", "-1", "--out", _taken(tmp) + "/run.csv"],
           "seed: must be >= 0")
      for command, flags in _REQUIRED_ARGV.items()],
    *[_row(f"{command}-out-before-input", 2,
           lambda tmp, data, argv=(command, *flags): [
               *argv, "--out", _taken(tmp) + "/run.csv"], "--out")
      for command, flags in _REQUIRED_ARGV.items()],
    # an --out that names an existing file (a directory for stats), or
    # lies under a file or in no directory
    _row("train-file", 2, lambda tmp, data: [
        "train", "--base", "--data", data, "--out", _taken(tmp)], "--out"),
    _row("train-under-file", 2, lambda tmp, data: [
        "train", "--base", "--data", data, "--out", _taken(tmp) + "/run"],
        "--out"),
    _row("line-search-file", 2, lambda tmp, data: [
        "line-search", "--data", data, "--component", "processor",
        "--options", "none", "--trials-per-option", "1", "--max-epochs", "2",
        "--out", _taken(tmp)], "--out"),
    _row("random-search-file", 2, lambda tmp, data: [
        "random-search", "--data", data, "--trials", "1",
        "--out", _taken(tmp)], "--out"),
    _row("report-file", 2, lambda tmp, data: [
        "report", "--mode", "top5", "--results",
        _results_file(tmp, TrialResult(GslConfig()).to_dict()),
        "--out", _taken(tmp)], "--out"),
    _row("stats-missing-directory", 2, lambda tmp, data: [
        "stats", "--graph", _two_edges(tmp), "--n", "2",
        "--out", str(tmp / "missing" / "stats.csv")], "--out"),
    _row("stats-directory", 2, lambda tmp, data: [
        "stats", "--graph", _two_edges(tmp), "--n", "2", "--out", str(tmp)],
        "--out"),
    # config files
    _row("config-array", 2, lambda tmp, data: [
        "train", "--data", data, "--config", _json_file(tmp, [1, 2])]),
    _row("config-negative-seed", 2, lambda tmp, data: [
        "train", "--data", data, "--config", _json_file(tmp, {"seed": -1})]),
    _row("config-lr-str", 2, lambda tmp, data: [
        "train", "--data", data, "--config", _json_file(tmp, {"lr": "abc"})],
        "config.lr: expected float, got str"),
    _row("config-nested-k-str", 2, lambda tmp, data: [
        "train", "--data", data, "--config",
        _json_file(tmp, {"sparsifier": {"k": "5"}})],
        "config.sparsifier.k: expected int, got str"),
    _row("train-invalid-config", 2, lambda tmp, data: [
        "train", "--data", data, "--config",
        _config_with(tmp, sparsifier__k=99)], "sparsifier.k"),
    # bounds that depend on n, on the 4-node fixture
    _row("fixture-dknn-k-stride-above-n", 2, lambda tmp, data: [
        "train", "--data", data, "--config", _config_with(
            tmp, sparsifier__kind="dknn", sparsifier__k=2,
            sparsifier__dilation=2)]),
    _row("fixture-spectral-pe-dim-above-n", 2, lambda tmp, data: [
        "train", "--data", data, "--config", _config_with(
            tmp, sparsifier__k=2, positional__kind="spectral",
            positional__pe_dim=16)]),
    # what the machine cannot hold
    _row("stats-million-nodes", 4, lambda tmp, data: [
        "stats", "--graph", _two_edges(tmp), "--n", "1000000"]),
    _config_row("hidden-units-huge", 4, hidden_units=10 ** 9),
    _config_row("scorer-mlp-width-huge", 4, scorer__mlp_width=10 ** 7,
                scorer__init="glorot"),
    _config_row("dae-hidden-huge", 4, objective__dae__hidden=10 ** 8,
                objective__unsupervised=["dae"]),
    _config_row("wl-pe-dim-huge", 4, positional__kind="wl",
                positional__pe_dim=2 * 10 ** 12),
    _config_row("att-heads-huge", 4, scorer__kind="att",
                scorer__heads=10 ** 7),
    # fields that are constants now, at their former defaults
    _config_row("config-bootstrap-k", 2, "unknown fields ['bootstrap_k']",
                positional__bootstrap_k=15),
    _config_row("config-max-edges", 2, "unknown fields ['max_edges']",
                sparsifier__max_edges=500_000),
    _config_row("config-dae-noise-sigma", 2, "unknown fields ['noise_sigma']",
                objective__dae__noise_sigma=0.1),
    _space_row("space-bootstrap-k", 2, {"bootstrap_k": 15},
               "space file: unknown fields ['bootstrap_k']"),
    # every config leaf at one value outside its domain, whatever kind is
    # on, then each rule that spans fields
    _config_row("config-lr-zero", 2, lr=0.0),
    _config_row("config-weight-decay-one", 2, weight_decay=1.0),
    _config_row("config-dropout-above-range", 2, dropout=0.9),
    _config_row("config-activation-unknown", 2, activation="gelu"),
    _config_row("config-adjacency-mode-unknown", 2, adjacency_mode="two"),
    _config_row("config-hidden-units-zero", 2, hidden_units=0),
    _config_row("config-max-epochs-zero", 2, max_epochs=0),
    _config_row("config-patience-zero", 2, patience=0),
    _config_row("config-positional-kind-unknown", 2, positional__kind="rwpe"),
    _config_row("config-wl-iterations-zero", 2, positional__wl_iterations=0),
    _config_row("config-pe-dim-zero", 2, positional__pe_dim=0),
    _config_row("config-scorer-kind-unknown", 2, scorer__kind="gat"),
    _config_row("config-mlp-depth-three", 2, scorer__mlp_depth=3),
    _config_row("config-init-unknown", 2, scorer__init="xavier"),
    _config_row("config-att-heads-zero", 2, scorer__kind="att",
                scorer__heads=0),
    _config_row("config-mlp-width-zero", 2, scorer__mlp_width=0),
    _config_row("config-sparsifier-kind-unknown", 2, sparsifier__kind="topk"),
    _config_row("config-k-zero", 2, sparsifier__k=0),
    _config_row("config-dilation-zero", 2, sparsifier__dilation=0),
    _config_row("config-epsilon-zero", 2, sparsifier__epsilon=0.0),
    _config_row("config-epsilon-one", 2, sparsifier__epsilon=1.0),
    _config_row("config-epsilon-nan", 2, sparsifier__epsilon=float("nan")),
    _config_row("config-temperature-zero", 2, sparsifier__temperature=0.0),
    _config_row("config-processor-mode-unknown", 2,
                processor__mode="normalize"),
    _config_row("config-encoder-kind-unknown", 2, encoder__kind="gat"),
    *[_config_row(f"config-lambda-{name.replace('_', '-')}-negative", 2,
                  **{f"objective__lambda_{name}": -1.0})
      for name in ("closeness", "smoothness", "sparse_connect",
                   "log_barrier")],
    _config_row("config-unsupervised-unknown", 2,
                objective__unsupervised=["vae"]),
    _config_row("config-dae-mask-rate-one", 2, objective__dae__mask_rate=1.0),
    _config_row("config-dae-hidden-zero", 2, objective__dae__hidden=0),
    _config_row("config-contrastive-mask-rate-zero", 2,
                objective__contrastive__mask_rate=0.0),
    _config_row("config-contrastive-temperature-zero", 2,
                objective__contrastive__temperature=0.0),
    _config_row("config-contrastive-tau-one", 2,
                objective__contrastive__tau=1.0),
    _config_row("config-mlp-init-cosine", 2, scorer__init="cosine"),
    _config_row("config-fp-init-identity", 2, scorer__kind="fp",
                scorer__init="identity"),
    _config_row("config-mlp-identity-init-width", 2, "scorer.init:",
                scorer__mlp_width=8),
    _config_row("config-wl-pe-dim-odd", 2, positional__kind="wl",
                positional__pe_dim=3),
    # space files, each refused under the space field it names
    _space_row("space-array", 2, [1, 2],
               "space file: expected an object, got list"),
    _space_row("space-range-reversed", 2, {"dae_hidden_range": [1024, 512]},
               "search space.dae_hidden_range: low 1024 exceeds high 512"),
    _space_row("space-log-range-zero", 2, {"lr_range": [0, 0.1]},
               "search space.lr_range: must lie in [0.001, 0.1], got 0"),
    _space_row("space-uniform-range-reversed", 2,
               {"dropout_range": [0.7, 0.1]},
               "search space.dropout_range: low 0.7 exceeds high 0.1"),
    _space_row("space-max-epochs-str", 2, {"max_epochs": "2"},
               "space file.max_epochs: expected int, got str"),
    _space_row("space-range-length", 2, {"lr_range": [0.01]},
               "space file.lr_range: expected 2 items, got 1"),
    _space_row("space-option-str", 2, {"k_options": ["a"]},
               "space file.k_options[0]: expected int, got str"),
    _space_row("space-empty-options", 2, {"scorer_kinds": []},
               "search space.scorer_kinds: the option list is empty"),
    _space_row("space-every-sparsifier-excluded", 2, {"sparsifier_kinds": []},
               "search space.sparsifier_kinds: the option list is empty"),
    _space_row("space-excluded-sparsifiers-retired", 2,
               {"excluded_sparsifiers": ["epsnn"]},
               "space file: unknown fields ['excluded_sparsifiers']"),
    _space_row("space-regularizer-unknown", 2,
               {"regularizer_subsets": [["closenes"]]},
               "search space.regularizer_subsets: 'closenes' not in"),
    _space_row("space-lr-outside-config", 2, {"lr_range": [1e-5, 1e-4]},
               "search space.lr_range: must lie in [0.001, 0.1], got 1e-05"),
    _space_row("space-max-epochs-zero", 2, {"max_epochs": 0},
               "search space.max_epochs: must be >= 1"),
    _space_row("space-scorer-kind-unknown", 2, {"scorer_kinds": ["gat"]},
               "search space.scorer_kinds: 'gat' not in"),
    # a space field outside the domain of a leaf it draws, and the rules
    # that span fields as a space can break them
    *[_space_row(f"space-{name.replace('_', '-')}", 2, {name: value},
                 f"search space.{name}:")
      for name, value in (
          ("epsilon_range", [0.5, 1.5]), ("k_options", [0]),
          ("contrastive_tau_range", [0.5, 1.5]), ("head_options", [0]),
          ("mask_rate_range", [0, 0]),
          ("bernoulli_temperature_range", [-1, -0.5]),
          ("hidden_options", [0]), ("dae_hidden_range", [0, 0]),
          ("contrastive_temperature_range", [-1, 0]),
          ("dilation_options", [0]), ("wl_iteration_options", [0]),
          ("pe_dim_options", [0]), ("mlp_width_options", [0, None]))],
    _space_row("space-excluded-sparsifiers", 2, {"sparsifier_kinds": ["knnn"]},
               "search space.sparsifier_kinds: 'knnn' not in"),
    _space_row("space-wl-pe-dim-odd", 2,
               {"positional_kinds": ["wl"], "pe_dim_options": [3]},
               "search space.pe_dim_options: must be even"),
    _space_row("space-fp-init-identity", 2, {"fp_init_options": ["identity"]},
               "search space.fp_init_options: 'identity' not in"),
    # resuming another run, or a results file with a bad line
    _row("resume-another-run", 2, lambda tmp, data: _resume(tmp, seed="5"),
         "another run"),
    _row("resume-another-dataset", 2, lambda tmp, data: _resume(tmp, data),
         "dataset contents (--data)"),
    _row("resume-before-one-thread-workers", 2, lambda tmp, data: _resume(
        tmp, edit=_header_before_worker_env), "worker BLAS regime"),
    _row("resume-corrupt-results-line", 3, lambda tmp, data: _resume(
        tmp, edit=_cut_line_2), "line 2"),
    _row("report-corrupt-results-line", 3, lambda tmp, data: [
        "report", "--mode", "top5", "--results",
        _earlier_search(tmp, _cut_line_2)[2]], "line 2"),
    _row("results-record-without-config", 3, lambda tmp, data: [
        "report", "--mode", "top5", "--results",
        _results_file(tmp, {"trial_id": 0})],
        "trial 0.config: required field missing"),
    _row("report-missing-results-file", 3, lambda tmp, data: [
        "report", "--results", str(tmp / "none.jsonl"), "--mode", "top5"],
        "none.jsonl"),
    _row("report-correlation-one-trial", 2, lambda tmp, data: [
        "report", "--mode", "correlation", "--results",
        _results_file(tmp, TrialResult(GslConfig()).to_dict())],
        "at least 2 trials"),
    # edge lists
    _row("missing-graph", 3, lambda tmp, data: [
        "stats", "--graph", str(tmp / "missing.tsv"), "--n", "4"]),
    _row("stats-malformed-line", 3, lambda tmp, data: [
        "stats", "--graph", _graph(tmp, b"0\t1\t1.0\n0\tnope\t1.0\n"),
        "--n", "3"], "line 2"),
    _row("stats-infinite-weight", 3, lambda tmp, data: [
        "stats", "--graph", _graph(tmp, b"0\t1\t1.0\n1\t2\tinf\n"),
        "--n", "3"], "line 2"),
    _row("stats-graph-not-utf8", 3, lambda tmp, data: [
        "stats", "--graph", _graph(tmp, b"0\t1\t1.0\n\xff\n"), "--n", "3"],
        "can't decode byte 0xff"),
    # datasets
    _row("train-bad-manifest", 3, lambda tmp, data: [
        "train", "--data", str(tmp / "missing.json"), "--base"],
        "missing.json"),
    _row("train-infinite-feature", 3, lambda tmp, data: [
        "train", "--data", _infinite_feature(tmp), "--base", "--seed", "1"],
        "non-finite"),
    _row("empty-dataset", 3, lambda tmp, data: [
        "train", "--base", "--data", _empty_manifest(tmp)],
        "manifest.json: features: no rows"),
    _row("split-index-out-of-range", 3, lambda tmp, data: [
        "train", "--base", "--data", _manifest_with_split_index(tmp, "4")]),
    _row("split-index-negative", 3, lambda tmp, data: [
        "train", "--base", "--data", _manifest_with_split_index(tmp, "-1")]),
    _row("manifest-not-object", 3, lambda tmp, data: [
        "train", "--base", "--data", _json_file(tmp, 5)]),
    _row("manifest-is-directory", 3, lambda tmp, data: [
        "train", "--base", "--data", str(tmp)]),
    *[_row(f"manifest-without-{key}", 3, lambda tmp, data, key=key: [
        "train", "--base", "--data", _manifest_without(tmp, key)])
      for key in ("features", "labels", "splits")],
    # each manifest field at a bad value
    _manifest_row("num-classes-not-int", 3, num_classes="x"),
    _manifest_row("num-classes-above-n", 3, "manifest.json: num_classes",
                  num_classes=10 ** 12),
    _manifest_row("manifest-num-classes-str", 3, num_classes="3"),
    *[_manifest_row(f"manifest-num-classes-{name}", 3, num_classes=value)
      for name, value in (("zero", 0), ("negative", -1), ("2-to-70", 2 ** 70),
                          ("float", 2.5), ("true", True))],
    _manifest_row("manifest-name-not-str", 3, name=5),
    _manifest_row("manifest-name-empty", 3, name=""),
    _manifest_row("manifest-unknown-key", 3, feature_knd="binary"),
    _manifest_row("manifest-feature-kind-not-str", 3, feature_kind=5),
    _manifest_row("manifest-feature-kind-unknown", 3, feature_kind="bogus"),
    _manifest_row("manifest-features-not-str", 3, features=5),
    _manifest_row("manifest-features-missing-file", 3, features="missing.csv"),
    _manifest_row("manifest-labels-directory", 3, labels="."),
    _manifest_row("manifest-labels-not-str", 3, labels=5),
    _manifest_row("manifest-labels-missing-file", 3, labels="missing.csv"),
    _manifest_row("manifest-splits-number", 3, splits=5),
    _manifest_row("manifest-splits-list", 3,
                  splits=["train.csv", "val.csv", "test.csv"]),
    *[_manifest_row(id, 3, splits=splits) for id, splits in (
        ("splits-without-train", {"val": "val.csv", "test": "test.csv"}),
        ("splits-without-val", {"train": "train.csv", "test": "test.csv"}),
        ("splits-without-test", {"train": "train.csv", "val": "val.csv"}),
        ("manifest-split-train-number",
         {"train": 5, "val": "val.csv", "test": "test.csv"}),
        ("manifest-split-val-number",
         {"train": "train.csv", "val": 5, "test": "test.csv"}),
        ("manifest-split-test-number",
         {"train": "train.csv", "val": "val.csv", "test": 5}),
        ("manifest-split-path-list",
         {"train": ["train.csv"], "val": "val.csv", "test": "test.csv"}))],
]


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


def _snapshot(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("code, argv, named, env", REFUSALS)
def test_bad_input_exits_with_code_not_traceback(
        tmp_path, fixture_manifest, monkeypatch, capsys, code, argv, named,
        env):
    """A refused input exits with its error class's code and prints that
    class's label, names what it refuses, starts no worker and leaves
    every file as it was."""
    monkeypatch.chdir(tmp_path)  # where _REQUIRED_ARGV's inputs are missing
    argv = argv(tmp_path, fixture_manifest)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.delenv("UGSL_SEED", raising=False)
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()  # what building the argv printed
    before = _snapshot(tmp_path)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if cli.build_parser().parse_known_args(argv)[1]:  # a flag it does not know
        labels = ["ugsl: error"]
    else:
        labels = [label for label, exit_code in cli.ERROR_EXITS.values()
                  if exit_code == code]
    assert any(line.startswith(f"{label}: ") for line in err.splitlines()
               for label in labels), err
    assert named is None or named in err
    assert "Traceback" not in err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("space", [
    {"lr_range": [0, 0.1]},
    {"scorer_kinds": []},
    {"sparsifier_kinds": []},
], ids=["log-range-zero", "empty-options", "every-sparsifier-excluded"])
def test_rejected_space_leaves_no_results_file(tmp_path, fixture_manifest,
                                               space):
    out = tmp_path / "out"
    argv = ["random-search", "--data", fixture_manifest, "--space",
            _json_file(tmp_path, space), "--trials", "1", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not (out / "results.jsonl").exists()


@pytest.mark.parametrize("space, named", [
    ({"scorer_kinds": []}, "search space.scorer_kinds: the option list"),
    ({"sparsifier_kinds": []},
     "search space.sparsifier_kinds: the option list is empty"),
], ids=["space-empty-options", "space-every-sparsifier-excluded"])
def test_bad_record_exits_naming_the_field(tmp_path, fixture_manifest, capsys,
                                           space, named):
    """An empty option list is refused naming the space field that left it
    empty."""
    argv = ["random-search", "--data", fixture_manifest, "--space",
            _json_file(tmp_path, space), "--trials", "1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_the_contract_table_names_every_command():
    ids = {row.id for row in REFUSALS}
    commands = [command for command in _REQUIRED_ARGV
                if {f"{command}-seed-before-out",
                    f"{command}-out-before-input"} <= ids]
    usage = cli.build_parser().format_usage()
    assert "{" + ",".join(commands) + "}" in usage
