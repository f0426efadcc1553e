"""Print the five reference digests of a source tree.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py

Each of the first four digests is the first 16 hex digits of the sha256
of sorted-key JSON: one `train` record of the base model on
`make_blobs()`, the list of records of the first 8 trials of a
master-seed-0 random search over the default space, and the list of
records of the base model trained once with each sparsifier kind (the
search's 8 trials miss some kinds), and the list of records of the base
model trained with each positional encoding kind and the closeness
regularizer on, which pins the bootstrap kNN graph, both encodings and
the graph statistics directly. The fifth runs `ugsl train` through
`cli.main` on a saved copy of `make_blobs()`, for the base model and for
it with each processor mode, and hashes the bytes of each run's
`learned_adjacency.tsv` and the lines of its `result.jsonl` after the
header, so it compares the command's output files across source trees.

The search runs in one worker process started with one BLAS thread, so
its digest does not depend on `OPENBLAS_NUM_THREADS`. The other trials
run in this process, and their bits depend on the BLAS thread count, so
the count is printed with them; compare those four digests only at
equal counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from ugsl import cli
from ugsl.config import (POSITIONAL_KINDS, PROCESSOR_MODES, ObjectiveConfig,
                         PositionalConfig, ProcessorConfig, SPARSIFIER_KINDS,
                         SparsifierConfig)
from ugsl.data import make_blobs, save_dataset
from ugsl.search import default_search_space, random_search
from ugsl.training import base_config, train


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cli_train_digest(ds) -> tuple[str, int, int]:
    """The digest of `ugsl train` output files, with the count of ok runs
    and of runs."""
    h = hashlib.sha256()
    ok = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = str(save_dataset(ds, tmp / "data"))
        runs = [["--base", "--seed", "0"]]
        for mode in PROCESSOR_MODES:
            config = tmp / f"{mode}.json"
            config.write_text(json.dumps(base_config(
                ds, seed=0, max_epochs=20, patience=30,
                processor=ProcessorConfig(mode=mode)).to_dict()))
            runs.append(["--config", str(config)])
        for i, args in enumerate(runs):
            out = tmp / f"run{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                ok += cli.main(["train", "--data", manifest, *args,
                                "--out", str(out)]) == 0
            tsv = out / "learned_adjacency.tsv"
            h.update(tsv.read_bytes() if tsv.exists() else b"")
            lines = (out / "result.jsonl").read_text().splitlines(True)
            h.update("".join(lines[1:]).encode())
    return h.hexdigest()[:16], ok, len(runs)


def main() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS",
                             f"unset (OpenBLAS uses {os.cpu_count()})")
    print(f"OPENBLAS_NUM_THREADS: {threads}")
    ds = make_blobs()
    result = train(ds, base_config(ds, seed=0, max_epochs=20, patience=30))
    print(f"train:  {digest(result.to_dict())}")
    table = random_search(make_blobs(), default_search_space(), 8,
                          concurrency=1, master_seed=0)
    ok = sum(t.status == "ok" for t in table.trials)
    print(f"search: {digest([t.to_dict() for t in table.trials])} "
          f"({ok} of {len(table.trials)} trials ok)")
    per_kind = [train(ds, base_config(
        ds, seed=0, max_epochs=20, patience=30,
        sparsifier=SparsifierConfig(kind=kind, k=15))).to_dict()
        for kind in SPARSIFIER_KINDS]
    ok = sum(r["status"] == "ok" for r in per_kind)
    print(f"sparsifiers: {digest(per_kind)} "
          f"({ok} of {len(per_kind)} trials ok)")
    per_encoding = [train(ds, base_config(
        ds, seed=0, max_epochs=20, patience=30,
        positional=PositionalConfig(kind=kind),
        objective=ObjectiveConfig(lambda_closeness=1.0))).to_dict()
        for kind in POSITIONAL_KINDS]
    ok = sum(r["status"] == "ok" for r in per_encoding)
    print(f"encodings: {digest(per_encoding)} "
          f"({ok} of {len(per_encoding)} trials ok)")
    cli_digest, ok, runs = cli_train_digest(ds)
    print(f"cli train: {cli_digest} ({ok} of {runs} trials ok)")


if __name__ == "__main__":
    main()
