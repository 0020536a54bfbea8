"""Tracing must not change what the program prints, and must clean up.

    python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from qnetfilter import cli, nlocal  # noqa: E402


def test_traced_scan_csv_is_byte_identical_and_wrappers_are_removed(tmp_path, monkeypatch):
    monkeypatch.setenv("NETFILTER_THREADS", "2")
    scan = workloads.Scan()
    pool = scan.generate(3, tmp_path)[:2]
    plain = [scan.call(item) for item in pool]
    originals = (cli.main, cli.evaluate, nlocal.minimize, nlocal.bloch_decompose)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.evaluate.perfbench_span == "nlocal.evaluate"
        assert nlocal.bloch_decompose.perfbench_span == "core.bloch_decompose"
        traced = [scan.call(item) for item in pool]

    assert traced == plain
    assert tracing.leftover_wrappers() == []
    assert (cli.main, cli.evaluate, nlocal.minimize, nlocal.bloch_decompose) == originals

    calls, self_s = tracer.reduce()
    points = 2 * scan.items_per_call
    assert calls["cli.main"] == 2
    assert calls["nlocal.evaluate"] == points
    assert calls["config.config_with_values"] == points
    assert "nlocal.nelder_mead" not in calls
    # Worker-thread spans hang under the open cli.main span.
    roots = {id(span) for span in tracer.spans if span[0] == "cli.main"}
    assert all(id(span[3]) in roots for span in tracer.spans if span[0] == "nlocal.evaluate")
    assert all(value >= -1e-9 for value in self_s.values())


def test_nelder_mead_counters_and_self_time_nesting():
    spec = nlocal.NetworkSpec(links=(np.eye(4) / 4.0, np.eye(4) / 4.0))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        nlocal.maximize_lhs(spec, seed=0, restarts=2)
    calls, self_s = tracer.reduce()
    assert calls["nlocal.maximize_lhs"] == 1
    assert calls["nlocal.nelder_mead"] == 3
    assert tracer.counters["nlocal.nelder_mead.nfev"] > 0
    total = max(span[2] for span in tracer.spans) - min(span[1] for span in tracer.spans)
    assert abs(sum(self_s.values()) - total) < 1e-6


def test_covered_merges_overlapping_children():
    assert tracing._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 6.5) == 3.5
