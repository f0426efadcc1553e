"""The reference digests of `tools/digests.py`, as a check.

`tests/digests.json` maps the platform line the tool prints first to the
eight digests it printed after it. The test runs the tool at two BLAS
threads, the count the digests were taken at, and compares; on a platform
whose line is not in the file it skips and names the line. A change that
moves bits on purpose updates the file and says which digest moved and
why.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ugsl import cli
from ugsl.data import make_fixture, save_dataset
from ugsl.search import WORKER_ENV

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "digests.py"
REFERENCE = Path(__file__).resolve().parent / "digests.json"


def _tool():
    spec = importlib.util.spec_from_file_location("digests_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_reference_digests_hold(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    line = _tool().platform_line()
    expected = json.loads(REFERENCE.read_text()).get(line)
    if expected is None:
        pytest.skip(f"no reference digests for {line!r}")
    env = {k: v for k, v in os.environ.items() if k not in WORKER_ENV}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TOOL)], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=600)
    first, *rest = proc.stdout.splitlines()
    assert first == line
    printed = {name: value.split()[0]
               for name, value in (row.split(": ", 1) for row in rest)}
    assert printed == expected


def test_train_header_holds_the_platform_line(tmp_path):
    manifest = str(save_dataset(make_fixture(), tmp_path / "data"))
    out = tmp_path / "run"
    assert cli.main(["train", "--base", "--data", manifest,
                     "--out", str(out)]) == 0
    header = json.loads((out / "result.jsonl").read_text().splitlines()[0])
    assert header["platform"] == _tool().platform_line()
