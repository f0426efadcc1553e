"""Golden digests of the configurations the samplers draw.

Random search and line search must draw from their generators in a fixed
order: the same seed has to give byte-identical configurations, or earlier
results stop being reproducible. Each digest below pins one draw sequence.
"""

import contextlib
import hashlib
import json

import pytest

from ugsl import search
from ugsl.config import (ADJACENCY_MODES, ENCODER_KINDS, POSITIONAL_KINDS,
                         PROCESSOR_MODES, SCORER_KINDS, SPARSIFIER_KINDS)
from ugsl.data import make_blobs
from ugsl.training import TrialResult, base_config


def _digest(configs) -> str:
    blob = json.dumps([c.to_dict() for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed, digest", [
    (0, "72c9a8522dc20c75"),
    (1, "fa8d2d66bb305a61"),
    (2, "7d805b16ea118f4d"),
    (3, "d467b5ac2522250b"),
], ids=["0", "1", "2", "3"])  # ids without the digest, so a refresh keeps them
def test_sample_trial_configs_golden(seed, digest):
    configs = search.sample_trial_configs(search.default_search_space(), 24,
                                          seed, input_dim=16)
    assert _digest(configs) == digest


LINE_SEARCH_GOLDEN = [
    ("input", POSITIONAL_KINDS, "c20f1e3a3e2f5f2e"),
    ("scorer", SCORER_KINDS, "05461203fec2500b"),
    ("sparsifier", SPARSIFIER_KINDS, "ff880b6d5010d01c"),
    ("processor", PROCESSOR_MODES, "4bc08643c72bdf8e"),
    ("encoder", ENCODER_KINDS, "e7a6962e185d8e17"),
    ("regularizers", [(), ("closeness",), ("smoothness", "log_barrier")],
     "2c7a4a1cacc8d7e4"),
    ("unsupervised", [(), ("dae",), ("dae", "contrastive")],
     "9c62ac013ccc73fc"),
    ("adjacency_mode", ADJACENCY_MODES, "083e4102a3052b78"),
]


@pytest.mark.parametrize("component, options, digest", LINE_SEARCH_GOLDEN,
                         ids=[row[0] for row in LINE_SEARCH_GOLDEN])
def test_line_search_configs_golden(monkeypatch, component, options, digest):
    seen = []

    @contextlib.contextmanager
    def record(dataset, configs, ids, workers):
        seen.extend(configs)
        yield [TrialResult(config=config, trial_id=trial_id,
                           dataset=dataset.name, status="ok")
               for config, trial_id in zip(configs, ids)]

    monkeypatch.setattr(search, "_trial_results", record)
    dataset = make_blobs()
    search.line_search(dataset, base_config(dataset, seed=0), component,
                       list(options), trials_per_option=2, master_seed=0)
    assert len(seen) == 2 * len(options)
    assert _digest(seen) == digest
