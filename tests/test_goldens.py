"""Outputs must match the recorded goldens byte for byte.

``perfbench/goldens.json`` holds, for each golden seed, the SHA-256 of every
``scan`` pool entry's CSV and every ``conjecture`` batch's report.  The first
tests run a slice of each pool through ``perfbench/workloads.py``, so a change
that moves one digit fails here, not only in a benchmark run.

``tests/cli_goldens.json`` holds the exit code, the SHA-256 of stdout and the
stderr text of each CLI case in ``tests/record_cli_goldens.py``, which re-records them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from record_cli_goldens import CASES, GOLDENS_PATH, run_case  # noqa: E402

SCAN_CONFIGS = 8
CONJECTURE_BATCHES = 4


@pytest.mark.parametrize("seed", workloads.GOLDEN_SEEDS)
def test_scan_csv_matches_the_goldens(tmp_path, seed):
    scan = workloads.Scan()
    golden = workloads.load_goldens()["scan"][str(seed)]
    for index, item in enumerate(scan.generate(seed, tmp_path)[:SCAN_CONFIGS]):
        digest = hashlib.sha256(scan.call(item).encode()).hexdigest()
        assert digest == golden[index], f"scan pool entry {index} of seed {seed}"


@pytest.mark.parametrize("seed", workloads.GOLDEN_SEEDS)
def test_conjecture_reports_match_the_goldens(tmp_path, seed):
    conjecture = workloads.Conjecture()
    golden = workloads.load_goldens()["conjecture"][str(seed)]
    for index, batch_seed in enumerate(conjecture.generate(seed, tmp_path)[:CONJECTURE_BATCHES]):
        assert list(conjecture.call(batch_seed)) == golden[index], f"conjecture batch {index} of seed {seed}"


CLI_GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, config, argv", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_the_goldens(tmp_path, name, config, argv):
    assert list(run_case(config, argv, tmp_path)) == CLI_GOLDENS[name]
