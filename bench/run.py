"""Benchmark of the ugsl toolkit. One process runs one workload:

    python3 bench/run.py --workload base-n2708 --seed 1 --seconds 20 --trace 0

The workloads and the metrics, with their units and bounds, are those
listed in BENCHMARK.json at the root of the checkout. --trace 0 measures
the end-to-end metrics with nothing patched. --trace 1 measures untraced
passes and then traced passes in this process, and reports the per-layer
metrics of the traced passes plus the tracing overhead. Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it name every metric with
its unit, the environment and the result digest. A failed correctness
check prints correct=false and exits with status 1.

The benchmark imports ugsl from the src/ directory of its checkout and
exits with status 2 when that is missing. The run record, with the spans
of a traced run, is written to .bench_build/ugsl-bench/ and never read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "ugsl-bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_REPEATS = 9

# What each workload of BENCHMARK.json runs: (kind, trials run at once).
WORKLOADS = {
    "base-n2708": ("base", 1),
    "search-n300": ("search", 1),
    "search-n300-jobs2": ("search", 2),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fix_threads(workers: int) -> dict:
    """Give every BLAS pool all CPUs this process may use, as an unset
    environment does, whatever the caller's environment says. With more
    than one worker the compute threads then exceed the CPUs; that is
    recorded, not corrected, because it is the program's own behaviour.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return {"nproc": nproc, "workers": workers, "blas_threads": nproc,
            "compute_threads": workers * nproc,
            "thread_limit": "kept" if workers == 1 else "exceeded"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import ugsl from this checkout's src/, and nothing else."""
    if not (SRC / "ugsl" / "__init__.py").is_file():
        fail(f"no ugsl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ugsl
    if Path(ugsl.__file__).resolve().parent != SRC / "ugsl":
        fail(f"imported ugsl from {ugsl.__file__}, not from {SRC}")


def median_import_s() -> float:
    """Median seconds to import ugsl (and with it numpy) in a fresh
    interpreter. One import in this process would be a single noisy
    sample of a ~0.1 s cost; fresh interpreters give several."""
    code = ("import time; t = time.perf_counter(); import ugsl; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=120).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def environment(threads: dict, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **threads, "seed": seed}


def check(workloads, workload, prepared, passes: list) -> tuple[str, int]:
    """Run every correctness check; returns the result digest and the
    number of extra passes the checks ran. Raises workloads.CheckFailed on
    the first failure."""
    digest = workloads.check_passes(workload, prepared, passes)
    print(f"check: digest {digest[:16]}, equal in all {len(passes)} "
          f"pass(es) of this run")
    if workload.concurrency == 1:
        return digest, 0
    serial = workloads.run_pass(workload, prepared, concurrency=1)
    workloads.check_trials(workload, prepared, serial)
    workloads.compare_trials(serial, passes[0].trials,
                             f"{workload.concurrency} workers vs 1")
    print(f"check: {workload.concurrency} workers match 1 worker trial for "
          f"trial ({len(serial)} trials)")
    return digest, 1


def run(args, spec: dict) -> int:
    kind, concurrency = WORKLOADS[args.workload]
    threads = fix_threads(concurrency)
    import_program()
    import workloads

    workload = workloads.Workload(args.workload, kind, concurrency)
    env = environment(threads, args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if threads["thread_limit"] == "exceeded":
        print(f"env: warning: {threads['compute_threads']} compute threads "
              f"on {threads['nproc']} CPUs")

    setup_s, prepared = workloads.measure_setup(workload, args.seed,
                                                median_import_s())
    # A traced run splits its time between untraced and traced passes, so
    # the overhead of tracing is measured on one process and one input.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = workloads.measure_passes(workload, prepared, seconds)
    traced = workloads.measure_passes(workload, prepared, seconds,
                                      traced=True) if args.trace else []
    passes = untraced + traced
    record = {"workload": workload.name, "trace": args.trace, "env": env,
              "pass_s": [p.wall_s for p in passes]}

    correct, check_passes = True, 0
    try:
        record["digest"], check_passes = check(workloads, workload, prepared,
                                               passes)
    except workloads.CheckFailed as err:
        print(f"check: FAILED: {err}")
        record["check_failed"] = str(err)
        correct = False

    trials = passes[0].trials
    failed_trials = sum(t.status == "failed" for t in trials)
    print(f"trials: {len(trials)} per pass, {len(untraced)} untraced and "
          f"{len(traced)} traced pass(es); {failed_trials} trial(s) failed, "
          f"trial_failure_rate = {failed_trials / len(trials):.4f} ratio")
    if args.trace:
        layer_runs = [workloads.layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        untraced_s = statistics.median(p.wall_s for p in untraced)
        traced_s = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        print(f"trace: traced pass {traced_s:.4f} s, untraced pass "
              f"{untraced_s:.4f} s")
        listed = spec["per_layer"]
        record["spans"] = [vars(s) for p in traced for s in p.spans]
    else:
        metrics = workloads.end_to_end(untraced, setup_s)
        listed = spec["end_to_end"]
    for metric in listed:
        print(f"metric {metric['name']} = {metrics[metric['name']]:.6g} "
              f"{metric['unit']}")
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(passes) + check_passes,
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = load_spec()
    return run(parse_args(argv, spec), spec)


if __name__ == "__main__":
    sys.exit(main())
