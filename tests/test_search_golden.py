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
    (0, "96eadc213a25c4a9"),
    (1, "80b84c37ad69de59"),
    (2, "0115511b2fdd176a"),
    (3, "b6a59837676d037c"),
])
def test_sample_trial_configs_golden(seed, digest):
    configs = search.sample_trial_configs(search.default_search_space(), 24,
                                          seed, input_dim=16)
    assert _digest(configs) == digest


LINE_SEARCH_GOLDEN = [
    ("input", POSITIONAL_KINDS, "02e136f72c296d13"),
    ("scorer", SCORER_KINDS, "85cad6bd61482a39"),
    ("sparsifier", SPARSIFIER_KINDS, "e4b59ac4922d5eb1"),
    ("processor", PROCESSOR_MODES, "59a855e05f266931"),
    ("encoder", ENCODER_KINDS, "26e48d9e735f4642"),
    ("regularizers", [(), ("closeness",), ("smoothness", "log_barrier")],
     "b762a8cf5755309c"),
    ("unsupervised", [(), ("dae",), ("dae", "contrastive")],
     "ce6863ae843f90ca"),
    ("adjacency_mode", ADJACENCY_MODES, "9c40ed52ff1ea2d6"),
]


@pytest.mark.parametrize("component, options, digest", LINE_SEARCH_GOLDEN)
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
