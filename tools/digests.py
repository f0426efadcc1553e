"""Print the eight reference digests of a source tree.

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
The sixth is the list of records of the base model trained with each
scorer kind (fp, att with three heads, mlp) under the bernoulli and the
epsnn sparsifier, in both adjacency modes: the pairs where gradients
reach the scorers through edge values that a relaxation or a threshold
chose, which no other digest covers. The seventh runs `ugsl line-search`
through `cli.main` on the saved copy, varying the processor over none
and symmetrize with one trial per option for 20 epochs at seed 0, and
hashes the bytes of `line_search.csv` and the lines of
`line_search.jsonl` after the header. The eighth is the list of records
of the base model with knn k=6 (1,800 edges, 2% of the pairs, under
`tensor.DENSE_SHARE`) with gcn, with gin and tanh, and with gcn and both
unsupervised losses (dae and contrastive). Its classifier and DAE
`spmm` calls take the edge route, which no other digest pins; only the
contrastive anchor view, once the anchor grows past that share, goes
dense.

The search and the line search run their trials in one worker process
started with one BLAS thread, so their digests do not depend on
`OPENBLAS_NUM_THREADS`. The other trials run in this process, and their
bits depend on the BLAS thread count, so the first line,
`ugsl.search.platform_line()`, prints the count and the CPUs that cap
it; compare those six digests only at equal counts. Every digest also
depends on the numpy and BLAS builds, whose versions are printed on the
same line; compare digests only between runs whose first lines agree.
`ugsl train` writes the same line into its `result.jsonl` header.
`tests/digests.json` holds the digests under the first line they were
taken at, and `tests/test_digests.py` checks them when its run prints
the same line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from ugsl import cli
from ugsl.config import (POSITIONAL_KINDS, PROCESSOR_MODES, EncoderConfig,
                         ObjectiveConfig, PositionalConfig, ProcessorConfig,
                         ScorerConfig, SPARSIFIER_KINDS, SparsifierConfig)
from ugsl.data import make_blobs, save_dataset
from ugsl.search import default_search_space, platform_line, random_search
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


def cli_line_search_digest(ds) -> tuple[str, int, int]:
    """The digest of `ugsl line-search` output files, with the count of ok
    options and of options."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = str(save_dataset(ds, tmp / "data"))
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["line-search", "--data", manifest, "--component",
                      "processor", "--options", "none,symmetrize",
                      "--trials-per-option", "1", "--max-epochs", "20",
                      "--seed", "0", "--out", str(out)])
        records = (out / "line_search.jsonl").read_text().splitlines(True)[1:]
        blob = (out / "line_search.csv").read_bytes() + "".join(records).encode()
    ok = sum(json.loads(r)["status"] == "ok" for r in records)
    return hashlib.sha256(blob).hexdigest()[:16], ok, len(records)


def main() -> None:
    print(platform_line())
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
    scorers = [ScorerConfig(kind="fp", init="cosine"),
               ScorerConfig(kind="att", heads=3),
               ScorerConfig(kind="mlp", init="glorot", mlp_width=24)]
    sparsifiers = [SparsifierConfig(kind="bernoulli", epsilon=0.7,
                                    temperature=0.5),
                   SparsifierConfig(kind="epsnn", epsilon=0.8)]
    per_scorer = [train(ds, base_config(
        ds, seed=0, max_epochs=20, patience=30, adjacency_mode=mode,
        scorer=scorer, sparsifier=sparsifier)).to_dict()
        for mode in ("one", "per_layer") for scorer in scorers
        for sparsifier in sparsifiers]
    ok = sum(r["status"] == "ok" for r in per_scorer)
    print(f"scorers: {digest(per_scorer)} "
          f"({ok} of {len(per_scorer)} trials ok)")
    line_digest, ok, options = cli_line_search_digest(ds)
    print(f"cli line-search: {line_digest} ({ok} of {options} options ok)")
    knn6 = SparsifierConfig(kind="knn", k=6)
    edge_route = [train(ds, base_config(
        ds, seed=0, max_epochs=20, patience=30, sparsifier=knn6,
        **overrides)).to_dict() for overrides in (
            {},
            {"encoder": EncoderConfig(kind="gin"), "activation": "tanh"},
            {"objective": ObjectiveConfig(
                unsupervised=("dae", "contrastive"))})]
    ok = sum(r["status"] == "ok" for r in edge_route)
    print(f"edge route: {digest(edge_route)} "
          f"({ok} of {len(edge_route)} trials ok)")


if __name__ == "__main__":
    main()
