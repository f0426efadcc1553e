"""Print the four reference digests of a source tree.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py

Each digest is the first 16 hex digits of the sha256 of sorted-key JSON:
one `train` record of the base model on `make_blobs()`, the list of
records of the first 8 trials of a master-seed-0 random search over the
default space, and the list of records of the base model trained once
with each sparsifier kind (the search's 8 trials miss some kinds), and
the list of records of the base model trained with each positional
encoding kind and the closeness regularizer on, which pins the bootstrap
kNN graph, both encodings and the graph statistics directly.

The search runs in one worker process started with one BLAS thread, so
its digest does not depend on `OPENBLAS_NUM_THREADS`. The train and
sparsifier trials run in this process, and their bits depend on the BLAS
thread count, so the count is printed with them; compare those three
digests only at equal counts.
"""

from __future__ import annotations

import hashlib
import json
import os

from ugsl.config import (POSITIONAL_KINDS, ObjectiveConfig,
                         PositionalConfig, SPARSIFIER_KINDS, SparsifierConfig)
from ugsl.data import make_blobs
from ugsl.search import default_search_space, random_search
from ugsl.training import base_config, train


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


if __name__ == "__main__":
    main()
