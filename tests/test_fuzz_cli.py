"""A fixed-seed slice of the config fuzz in ``tests/fuzz_cli.py``, which runs longer fuzzes."""

from __future__ import annotations

from fuzz_cli import fuzz

SLICE = 1000


def test_mutated_configs_exit_with_one_error_line_or_none():
    problems = [(name, found, config) for name, config, _, found in fuzz(seed=0, count=SLICE) if found is not None]
    assert problems == []
