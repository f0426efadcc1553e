"""Fixtures that more than one test module reads, each made once a
session: the 200-epoch base model trained twice on `make_blobs()`
(criteria 4 and 7, and test_training), and the runs of each of
`oracles.DETERMINISM_CASES` (criterion 7, and the tests named after
its cases in test_search and test_cli)."""

import time

import pytest

from oracles import DETERMINISM_CASES
from ugsl.data import make_blobs
from ugsl.training import base_config, train


@pytest.fixture(scope="session")
def blobs_dataset():
    return make_blobs(n=300, d=16, num_classes=3, seed=7)


@pytest.fixture(scope="session")
def criterion4_results(blobs_dataset):
    cfg = base_config(blobs_dataset, seed=0, max_epochs=200)
    started = time.time()
    first = train(blobs_dataset, cfg)
    elapsed = time.time() - started
    second = train(blobs_dataset, base_config(blobs_dataset, seed=0,
                                              max_epochs=200))
    return first, second, elapsed


@pytest.fixture(scope="session")
def determinism_runs(tmp_path_factory, request):
    """`determinism_runs(label)`: what the runs of the case `label` wrote,
    each case run at most once a session."""
    made = {}

    def runs(label: str) -> list:
        if label not in made:
            made[label] = DETERMINISM_CASES[label].runs(
                tmp_path_factory.mktemp(label), request)
        return made[label]
    return runs
