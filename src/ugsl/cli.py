"""Command-line entry point.

Subcommands: train, line-search, random-search, stats, report. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numeric/resource failure.
The environment variable UGSL_SEED supplies the seed when --seed is absent.

Every run writes a reproducibility header (tool version, seed, config
hash). Timestamps appear only in JSONL header lines, so rerunning a
command over the same inputs reproduces every other output byte for byte.
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
                     option_label, random_search, read_results_jsonl,
                     top_fraction_analysis)
from .stats import STAT_FIELDS, compute_stats, correlate_results
from .training import base_config, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


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


def _header_line(seed: int, config_hash: str) -> str:
    record = {
        "kind": "header",
        "version": __version__,
        "seed": seed,
        "config_hash": config_hash,
        "generated": datetime.now(timezone.utc).isoformat(),
    }
    return json.dumps(record, sort_keys=True)


def _csv_header(seed: int, config_hash: str) -> str:
    return f"# ugsl {__version__} seed={seed} hash={config_hash}"


def _write_csv(path: Path, seed: int, config_hash: str, columns: list,
               rows: list) -> None:
    lines = [_csv_header(seed, config_hash), ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_top5_csv(path: Path, seed: int, config_hash: str,
                    report: dict) -> None:
    rows = [(component, value, cell["count"], cell["min"], cell["q1"],
             cell["median"], cell["q3"], cell["max"])
            for component, values in report["components"].items()
            for value, cell in values.items()]
    _write_csv(path, seed, config_hash,
               ["component", "value", "count", "min", "q1", "median", "q3",
                "max"], rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    seed = _resolve_seed(args.seed)
    if args.base:
        config = base_config(dataset, seed=seed)
    else:
        config = GslConfig.from_dict(_read_json(args.config, "config file"))
        if args.seed is not None or os.environ.get("UGSL_SEED") is not None:
            config.seed = seed
    config.validate(n_nodes=dataset.n)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(dataset, config, capture_adjacency=True)
    (out / "result.jsonl").write_text(
        _header_line(config.seed, config.config_hash()) + "\n")
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


def cmd_line_search(args) -> int:
    dataset = load_dataset(args.data)
    seed = _resolve_seed(args.seed)
    base = base_config(dataset, seed=seed, max_epochs=args.max_epochs,
                       patience=args.patience)
    options = _parse_options(args.component, args.options)
    space = default_search_space(max_epochs=args.max_epochs,
                                 patience=args.patience)
    table = line_search(dataset, base, args.component, options,
                        trials_per_option=args.trials_per_option,
                        master_seed=seed, space=space)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_hash = record_hash({"component": args.component,
                            "options": args.options,
                            "trials": args.trials_per_option, "seed": seed,
                            "data": dataset.digest()})
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


def cmd_random_search(args) -> int:
    dataset = load_dataset(args.data)
    seed = _resolve_seed(args.seed)
    space = default_search_space() if args.space is None else from_record(
        SearchSpace, _read_json(args.space, "space file"), "space file")
    # a rejected run must not leave a results.jsonl behind
    space.validate()
    check_search_budget(args.trials, args.jobs)
    out = Path(args.out)
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
    _write_top5_csv(out / "top5pct.csv", seed, run_hash,
                    top_fraction_analysis(table, fraction=0.05))
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


def cmd_stats(args) -> int:
    record = compute_stats(read_edge_list(args.graph, n=args.n))
    seed = _resolve_seed(args.seed)
    run_hash = record_hash({"graph": str(args.graph), "n": args.n})
    stats_dict = to_record(record)
    columns = list(STAT_FIELDS) + ["degenerate"]
    _write_csv(Path(args.out), seed, run_hash, columns,
               [[stats_dict[c] for c in columns]])
    print(f"stats -> {args.out}" + (" (degenerate)" if record.degenerate else ""))
    return EXIT_OK


def cmd_report(args) -> int:
    tables = {}
    for path in args.results:
        table = load_results_jsonl(path)
        key = table.dataset if table.dataset != "dataset" else Path(path).stem
        if key in tables:
            key = f"{key}:{Path(path).stem}"
        tables[key] = table
    if not tables:
        raise ConfigurationError("report: no results files given")
    seed = _resolve_seed(args.seed)
    run_hash = record_hash({"mode": args.mode,
                            "results": [str(p) for p in args.results]})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "top5":
        if len(tables) != 1:
            raise ConfigurationError("report top5 expects exactly one results file")
        report = top_fraction_analysis(next(iter(tables.values())),
                                       fraction=0.05)
        _write_top5_csv(out / "top5pct.csv", seed, run_hash, report)
        (out / "top5pct.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif args.mode == "best-arch":
        rows = best_architecture_aggregate(tables)
        csv_rows = [(i + 1, f"{r['mean_test_accuracy']:.6f}", *r["architecture"])
                    for i, r in enumerate(rows)]
        _write_csv(out / "best_architectures.csv", seed, run_hash,
                   ["rank", "mean_test_accuracy", *COMPONENTS], csv_rows)
    elif args.mode == "component-avg":
        report = component_best_average(tables)
        rows = [(component, value, f"{acc:.6f}")
                for component, values in report.items()
                for value, acc in values.items()]
        _write_csv(out / "component_averages.csv", seed, run_hash,
                   ["component", "value", "mean_best_test_accuracy"], rows)
    elif args.mode == "correlation":
        merged = []
        for table in tables.values():
            merged.extend(table.trials)
        report = correlate_results(merged)
        rows = [(r["stat"], f"{r['rho']:.6f}", r["degenerate"]) for r in report]
        _write_csv(out / "correlations.csv", seed, run_hash,
                   ["stat", "rho", "degenerate"], rows)
    else:
        raise ConfigurationError(f"report: unknown mode {args.mode!r}")
    print(f"{args.mode} report -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugsl",
        description="Graph structure learning: train, search, and analyze.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration")
    p_train.add_argument("--data", required=True, help="dataset manifest JSON")
    group = p_train.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="GslConfig JSON file")
    group.add_argument("--base", action="store_true",
                       help="use the reference base model")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_line = sub.add_parser("line-search",
                            help="vary one component against the base model")
    p_line.add_argument("--data", required=True)
    p_line.add_argument("--component", required=True,
                        help="one of " + ", ".join(COMPONENTS))
    p_line.add_argument("--options", required=True,
                        help="comma-separated option list; a subset option "
                             "joins its members with +, none is empty")
    p_line.add_argument("--trials-per-option", type=int, default=3)
    p_line.add_argument("--max-epochs", type=int, default=200)
    p_line.add_argument("--patience", type=int, default=30)
    p_line.add_argument("--out", required=True)
    p_line.add_argument("--seed", type=int, default=None)
    p_line.set_defaults(func=cmd_line_search)

    p_rand = sub.add_parser("random-search",
                            help="random search over all components")
    p_rand.add_argument("--data", required=True)
    p_rand.add_argument("--space", default=None,
                        help="SearchSpace overrides JSON (default space if absent)")
    p_rand.add_argument("--trials", type=int, default=100)
    p_rand.add_argument("--jobs", type=int, default=1,
                        help="worker processes, each with one BLAS thread; "
                             "the results are the same for any count")
    p_rand.add_argument("--out", required=True)
    p_rand.add_argument("--seed", type=int, default=None)
    p_rand.set_defaults(func=cmd_random_search)

    p_stats = sub.add_parser("stats", help="statistics of a learned graph")
    p_stats.add_argument("--graph", required=True, help="edge-list TSV")
    p_stats.add_argument("--n", type=int, required=True, help="node count")
    p_stats.add_argument("--out", required=True, help="output CSV path")
    p_stats.add_argument("--seed", type=int, default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_rep = sub.add_parser("report", help="reports over results JSONL files")
    p_rep.add_argument("--results", nargs="+", required=True)
    p_rep.add_argument("--mode", required=True,
                       choices=["top5", "best-arch", "component-avg",
                                "correlation"])
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--seed", type=int, default=None)
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
        return args.func(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ResourceError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
