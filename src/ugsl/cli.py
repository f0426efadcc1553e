"""Command-line entry point.

Subcommands: train, line-search, random-search, stats, report. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numeric/resource failure.
Every command takes --seed and --out, and `main` checks both before the
command reads any input: the seed (--seed, else UGSL_SEED, else 0) must
be >= 0, then --out must be writable (a directory; stats' CSV file).

Every run writes a reproducibility header (tool version, seed, config
hash; train's adds `search.platform_line`). Timestamps appear only in
JSONL header lines, so rerunning a command over the same inputs
reproduces every other output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import GslConfig, from_record, record_hash, to_record
from .data import load_dataset, read_edge_list, write_edge_tsv
from .errors import (ConfigurationError, IngestionError, NumericError,
                     ResourceError)
from .search import (COMPONENTS, WORKER_ENV, SearchSpace,
                     append_result_jsonl, best_architecture_aggregate,
                     check_search_budget, component_best_average,
                     default_search_space, find_component,
                     keep_freed_memory, line_search, load_results_jsonl,
                     option_label, platform_line, random_search,
                     read_results_jsonl, sample_trial_configs,
                     top_fraction_analysis)
from .stats import compute_stats, correlate_results
from .training import base_config, train

EXIT_OK = 0
EXIT_NUMERIC = 4
# each error class: the label main prints its message under, and its exit code
ERROR_EXITS = {ConfigurationError: ("configuration error", 2),
               IngestionError: ("data error", 3),
               NumericError: ("numeric failure", EXIT_NUMERIC),
               ResourceError: ("resource error", EXIT_NUMERIC)}


def _resolve_seed(flag_value: int | None) -> int:
    """--seed, else UGSL_SEED, else 0; a negative seed is rejected."""
    seed = flag_value
    if seed is None:
        env = os.environ.get("UGSL_SEED", "0")
        try:
            seed = int(env)
        except ValueError as err:
            raise ConfigurationError(f"UGSL_SEED: not an integer ({env!r})") from err
    if seed < 0:
        raise ConfigurationError(f"seed: must be >= 0, got {seed}")
    return seed


def _read_json(path, what: str):
    """The JSON value in a file; an unreadable file is an IngestionError,
    invalid JSON a ConfigurationError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:
        raise IngestionError(f"{what}: {err}") from err
    except ValueError as err:  # also covers bytes that are not UTF-8
        raise ConfigurationError(f"{what}: invalid JSON ({err})") from err


def _out_path(raw: str, file: bool) -> Path:
    """--out, checked before any input is read: an output directory, or
    the nearest of its parents that exists, must be a directory; an
    output file must be in a directory and not be one."""
    out = Path(raw)
    found = out.parent if file else next(
        p for p in (out, *out.parents) if p.exists())
    if not found.is_dir() or (file and out.is_dir()):
        kind = "file in a directory" if file else "directory"
        raise ConfigurationError(f"--out: {raw} cannot be written as a {kind}")
    return out


def _header_line(seed: int, config_hash: str, **extra) -> str:
    record = {
        "kind": "header",
        "version": __version__,
        "seed": seed,
        "config_hash": config_hash,
        "generated": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    return json.dumps(record, sort_keys=True)


def _write_csv(path: Path, seed: int, config_hash: str, columns: list,
               rows: list) -> None:
    lines = [f"# ugsl {__version__} seed={seed} hash={config_hash}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _top5_table(report: dict) -> tuple:
    """The columns and rows of top5pct.csv."""
    cells = ["count", "min", "q1", "median", "q3", "max"]
    rows = [(component, value, *(cell[name] for name in cells))
            for component, values in report["components"].items()
            for value, cell in values.items()]
    return ["component", "value", *cells], rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args, seed: int, out: Path) -> int:
    dataset = load_dataset(args.data)
    if args.base:
        config = base_config(dataset, seed=seed)
    else:
        config = GslConfig.from_dict(_read_json(args.config, "config file"))
        if args.seed is not None or os.environ.get("UGSL_SEED") is not None:
            config.seed = seed
    result = train(dataset, config, capture_adjacency=True)
    out.mkdir(parents=True, exist_ok=True)
    # the trial ran in this process, so its bits depend on this platform
    (out / "result.jsonl").write_text(_header_line(
        config.seed, config.config_hash(), platform=platform_line()) + "\n")
    append_result_jsonl(result, out / "result.jsonl")
    if result.status != "ok":
        print(f"trial failed: {result.error}", file=sys.stderr)
        return EXIT_NUMERIC
    write_edge_tsv(result.learned_adjacency, out / "learned_adjacency.tsv")
    print(f"val {result.best_val_accuracy:.4f} "
          f"test {result.test_accuracy_at_best_val:.4f} "
          f"epochs {result.epochs_run} -> {out}")
    return EXIT_OK


def _parse_options(component: str, raw: str) -> list:
    """Comma-separated options; for a subset component each option is a
    `+`-joined member list, and `none` stands for the empty set."""
    options = [opt.strip() for opt in raw.split(",") if opt.strip()]
    if not options:
        raise ConfigurationError("line-search: empty --options")
    if find_component(component).subsets:
        return [tuple(p for p in opt.split("+") if p != "none")
                for opt in options]
    return options


def cmd_line_search(args, seed: int, out: Path) -> int:
    dataset = load_dataset(args.data)
    base = base_config(dataset, seed=seed, max_epochs=args.max_epochs,
                       patience=args.patience)
    options = _parse_options(args.component, args.options)
    table = line_search(dataset, base, args.component, options,
                        trials_per_option=args.trials_per_option,
                        master_seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    run_hash = record_hash({"component": args.component,
                            "options": args.options,
                            "trials": args.trials_per_option, "seed": seed,
                            "max_epochs": args.max_epochs,
                            "patience": args.patience,
                            "data": dataset.digest(),
                            "worker_env": WORKER_ENV})
    (out / "line_search.jsonl").write_text(_header_line(seed, run_hash) + "\n")
    for trial in table.trials:
        append_result_jsonl(trial, out / "line_search.jsonl")
    rows = [(option_label(opt), f"{t.best_val_accuracy:.6f}",
             f"{t.test_accuracy_at_best_val:.6f}", t.status)
            for opt, t in zip(options, table.trials)]
    _write_csv(out / "line_search.csv", seed, run_hash,
               ["option", "val_accuracy", "test_accuracy", "status"], rows)
    print(f"{len(table.trials)} options -> {out}")
    return EXIT_OK


def _start_or_resume(path: Path, seed: int, run_hash: str) -> list:
    """Begin results.jsonl with this run's header, or resume it: check that
    its header carries this run's hash, cut off a final line an
    interrupted run left incomplete, and return the trial ids it holds."""
    records, intact = read_results_jsonl(path) if path.exists() else ([], 0)
    if not records:
        path.write_text(_header_line(seed, run_hash) + "\n")
        return []
    found = records[0].get("config_hash")  # None when there is no header
    if found != run_hash:
        raise ConfigurationError(
            f"{path} holds another run (hash {found}, this run {run_hash}); "
            "resume needs the same --seed, --space, dataset contents "
            "(--data) and worker BLAS regime, or use a new --out")
    os.truncate(path, intact)
    return [r["trial_id"] for r in records if "trial_id" in r]


def cmd_random_search(args, seed: int, out: Path) -> int:
    dataset = load_dataset(args.data)
    space = default_search_space() if args.space is None else from_record(
        SearchSpace, _read_json(args.space, "space file"), "space file")
    # a rejected run must not leave a results.jsonl behind: every trial
    # configuration is drawn, and so validated, before anything is written
    check_search_budget(args.trials, args.jobs)
    sample_trial_configs(space, args.trials, seed,
                         input_dim=dataset.graph.num_features)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.jsonl"
    # --trials and --jobs are left out: resuming with a larger budget or
    # another worker count continues the run. The workers' environment is
    # in: trials run under another BLAS regime have other bits.
    run_hash = record_hash({"seed": seed, "space": to_record(space),
                            "data": dataset.digest(),
                            "worker_env": WORKER_ENV})
    completed = _start_or_resume(results_path, seed, run_hash)
    random_search(dataset, space, n_trials=args.trials,
                  concurrency=args.jobs, master_seed=seed,
                  jsonl_path=results_path, completed_ids=completed)

    table = load_results_jsonl(results_path)
    _write_csv(out / "top5pct.csv", seed, run_hash,
               *_top5_table(top_fraction_analysis(table)))
    best = table.best_by_val()
    if best is not None:
        payload = {"trial_id": best.trial_id,
                   "best_val_accuracy": best.best_val_accuracy,
                   "test_accuracy_at_best_val": best.test_accuracy_at_best_val,
                   "config": best.config.to_dict()}
        (out / "best_config.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    ok = len(table.ok_trials())
    print(f"{len(table.trials)} trials ({ok} ok) -> {out}")
    return EXIT_OK


def cmd_stats(args, seed: int, out: Path) -> int:
    record = compute_stats(read_edge_list(args.graph, n=args.n))
    run_hash = record_hash({"graph": str(args.graph), "n": args.n})
    stats_dict = to_record(record)
    _write_csv(out, seed, run_hash, list(stats_dict),
               [list(stats_dict.values())])
    print(f"stats -> {out}" + (" (degenerate)" if record.degenerate else ""))
    return EXIT_OK


def cmd_report(args, seed: int, out: Path) -> int:
    tables = {path: load_results_jsonl(path) for path in args.results}
    if args.mode == "top5" and len(tables) != 1:
        raise ConfigurationError("report top5 expects exactly one results file")
    run_hash = record_hash({"mode": args.mode,
                            "results": [str(p) for p in args.results]})
    # the report is built before --out is made, so a refused one leaves none
    if args.mode == "top5":
        report = top_fraction_analysis(next(iter(tables.values())))
        name, (columns, rows) = "top5pct.csv", _top5_table(report)
    elif args.mode == "best-arch":
        name = "best_architectures.csv"
        columns = ["rank", "mean_test_accuracy", *COMPONENTS]
        rows = [(i + 1, f"{r['mean_test_accuracy']:.6f}", *r["architecture"])
                for i, r in enumerate(best_architecture_aggregate(tables))]
    elif args.mode == "component-avg":
        name = "component_averages.csv"
        columns = ["component", "value", "mean_best_test_accuracy"]
        rows = [(component, value, f"{acc:.6f}")
                for component, values in component_best_average(tables).items()
                for value, acc in values.items()]
    else:  # correlation, the last of the parser's choices
        name, columns = "correlations.csv", ["stat", "rho", "degenerate"]
        rows = [(r["stat"], f"{r['rho']:.6f}", r["degenerate"])
                for r in correlate_results(trial for table in tables.values()
                                           for trial in table.trials)]
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / name, seed, run_hash, columns, rows)
    if args.mode == "top5":
        (out / "top5pct.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{args.mode} report -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugsl",
        description="Graph structure learning: train, search, and analyze.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every command, which main resolves before dispatching
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True,
                        help="output directory; for stats, the CSV file")
    common.add_argument("--seed", type=int, default=None)
    common.set_defaults(out_file=False)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="dataset manifest JSON")

    p_train = sub.add_parser("train", parents=[data, common],
                             help="train one configuration")
    group = p_train.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="GslConfig JSON file")
    group.add_argument("--base", action="store_true",
                       help="use the reference base model")
    p_train.set_defaults(func=cmd_train)

    p_line = sub.add_parser("line-search", parents=[data, common],
                            help="vary one component against the base model")
    p_line.add_argument("--component", required=True,
                        help="one of " + ", ".join(COMPONENTS))
    p_line.add_argument("--options", required=True,
                        help="comma-separated option list; a subset option "
                             "joins its members with +, none is empty")
    p_line.add_argument("--trials-per-option", type=int, default=3)
    p_line.add_argument("--max-epochs", type=int,
                        default=SearchSpace.max_epochs)
    p_line.add_argument("--patience", type=int, default=SearchSpace.patience)
    p_line.set_defaults(func=cmd_line_search)

    p_rand = sub.add_parser("random-search", parents=[data, common],
                            help="random search over all components")
    p_rand.add_argument("--space", default=None,
                        help="SearchSpace overrides JSON (default space if absent)")
    p_rand.add_argument("--trials", type=int, default=100)
    p_rand.add_argument("--jobs", type=int, default=1,
                        help="worker processes, each with one BLAS thread; "
                             "the results are the same for any count")
    p_rand.set_defaults(func=cmd_random_search)

    p_stats = sub.add_parser("stats", parents=[common],
                             help="statistics of a learned graph")
    p_stats.add_argument("--graph", required=True, help="edge-list TSV")
    p_stats.add_argument("--n", type=int, required=True, help="node count")
    p_stats.set_defaults(func=cmd_stats, out_file=True)

    p_rep = sub.add_parser("report", parents=[common],
                           help="reports over results JSONL files")
    p_rep.add_argument("--results", nargs="+", required=True)
    p_rep.add_argument("--mode", required=True,
                       choices=["top5", "best-arch", "component-avg",
                                "correlation"])
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags
        return int(exc.code or 0)
    try:
        seed = _resolve_seed(args.seed)
        return args.func(args, seed, _out_path(args.out, file=args.out_file))
    except tuple(ERROR_EXITS) as err:
        label, code = ERROR_EXITS[type(err)]
        print(f"{label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
