"""Record the exit code, the SHA-256 of stdout and the stderr text of the CLI's own commands.

    python3 tests/record_cli_goldens.py

Writes ``tests/cli_goldens.json``.  ``tests/test_goldens.py`` runs the same
``CASES`` in-process and compares, so a change that moves one output digit
fails in Tier-1.  Re-record only at a commit whose outputs are the reference,
and say in CHANGES.md which outputs moved and why.

A reproduction that reports FAIL is pinned as it is, with exit code 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "cli_goldens.json"

_EXAMPLE = {
    "links": [{"family": "grud", "v": 0.1, "x": 0.23}, {"family": "grud", "v": 0.99, "x": 0.44}],
    "filters": {"middle": [[0.8, 0.97]]},
}
_SETTINGS = {"m0": [0, 0, 1], "m1": [1, 0, 0], "n0": [0, 0, 1], "n1": [1, 0, 0]}
_NOISY_SCAN = dict(
    _EXAMPLE,
    channels=[{"link": 2, "type": "bit_flip", "param": 0.0}],
    scan={"axes": [
        {"path": "channels.0.param", "min": 0.0, "max": 0.3, "steps": 3},
        {"path": "filters.middle.0.0", "min": 0.3, "max": 1.0, "steps": 4},
    ]},
)
# One-sided Kraus pairs: amplitude damping on the left qubit of link 1 only.
_DAMPED_SCAN = dict(
    _EXAMPLE,
    channels=[{"link": 1, "type": "amplitude_damping", "param": 0.0, "sides": "left"}],
    scan={"axes": [
        {"path": "channels.0.param", "min": 0.0, "max": 0.6, "steps": 3},
        {"path": "links.1.v", "min": 0.5, "max": 1.0, "steps": 3},
    ]},
)
# Link 1 as grud v=1 under a first filter of 0: its post-selection succeeds with probability 0.
_ANNIHILATED = dict(
    _EXAMPLE,
    links=[{"family": "grud", "v": 1.0, "x": 0.23}, _EXAMPLE["links"][1]],
    filters=dict(_EXAMPLE["filters"], first=0.0),
)
# The same chain scanned from v=0, where only the last v (1) annihilates.
_ANNIHILATED_SCAN = dict(
    _ANNIHILATED,
    links=[{"family": "grud", "v": 0.0, "x": 0.23}, _EXAMPLE["links"][1]],
    scan={"axes": [
        {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 3},
        {"path": "filters.middle.0.0", "min": 0.5, "max": 1.0, "steps": 2},
    ]},
)
_BITFLIP_THRESHOLD = {
    "links": [{"family": "pure_theta", "theta": 0.62}, {"family": "pure_theta", "theta": 0.62}],
    "channels": [
        {"link": 1, "type": "bit_flip", "param": 0.1},
        {"link": 2, "type": "bit_flip", "param": 0.15},
    ],
    "filters": {"middle": [[0.98, 0.79]]},
    "scan": {"axes": [{"path": "channels.0.param", "min": 0.0, "max": 0.4, "steps": 2}]},
}


def _explicit(diagonal, entries=(), imag=0.0):
    """An ``explicit`` link: ``diagonal`` plus ``imag``·i on the diagonal, and ``entries`` ((row, col), value)."""
    matrix = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for k, value in enumerate(diagonal):
        matrix[k][k] = [value, imag]
    for (row, col), value in entries:
        matrix[row][col] = [complex(value).real, complex(value).imag]
    return {"family": "explicit", "matrix": matrix}


# A valid link whose 5e-11 at [1][3] the filter diag(1e-4, 1e-4, 1, 1) amplifies to a
# Hermiticity deviation of 5e-7, and one whose -9e-10 eigenvalue it amplifies to about -0.22.
_SKEWED = _explicit([0.5, 0.5, 0.0, 0.0], [((1, 3), 5e-11)])
_BARELY_VALID = _explicit([0.5, 0.25, 0.25 + 9e-10, -9e-10])
_WERNER_ONE = {"family": "werner", "p": 1.0}
# A valid link with 2.4999e-10i on each diagonal entry, which filters near 1 renormalise
# to a trace deviation of 1.02e-9 while every Hermiticity deviation stays under 1e-9.
_TRACE_SKEWED = _explicit([1.0, 0.0, 0.0, 0.0], imag=2.4999e-10)
# I/4 with 5e-10i at [0][1] and [1][0]: valid (Hermiticity deviation 1e-9), but its decomposition
# has an imaginary part of 1e-9.  The middle filter 0 annihilates |00><00| on link 2, so eval must
# decompose the raw chain before it filters: the decomposition error wins over the annihilation.
_IMAG_COEFFICIENT = _explicit([0.25] * 4, [((0, 1), 5e-10j), ((1, 0), 5e-10j)])
_REPRODUCE_IDS = (
    "bilocal-grud",
    "bilocal-grud-allfilter",
    "trilocal-grud",
    "bilocal-werner",
    "trilocal-werner",
    "xstate-pair",
    "bitflip-threshold",
    "damping-threshold",
    "theorem1",
    "conjecture-search",
)

# Each case: its name, the config written to a file (or None), and the argv with
# ``{config}`` standing for that file's path.
CASES = [
    ("eval", _EXAMPLE, ["eval", "--config", "{config}"]),
    ("eval-settings", dict(_EXAMPLE, settings=_SETTINGS), ["eval", "--config", "{config}"]),
    ("scan", _NOISY_SCAN, ["scan", "--config", "{config}"]),
    ("scan-damping-left", _DAMPED_SCAN, ["scan", "--config", "{config}"]),
    *(
        (f"threshold-{target}", _BITFLIP_THRESHOLD,
         ["threshold", "--config", "{config}", "--axis", "channels.0.param", "--target", target])
        for target in ("b_lin", "b_seq")
    ),
    # The same axis run from max to min, and with steps omitted (the default of 101).
    ("threshold-b_lin-reversed", dict(_BITFLIP_THRESHOLD, scan={"axes": [
        {"path": "channels.0.param", "min": 0.4, "max": 0.0, "steps": 2},
    ]}), ["threshold", "--config", "{config}", "--axis", "channels.0.param", "--target", "b_lin"]),
    ("threshold-b_seq-default-steps", dict(_BITFLIP_THRESHOLD, scan={"axes": [
        {"path": "channels.0.param", "min": 0.0, "max": 0.4},
    ]}), ["threshold", "--config", "{config}", "--axis", "channels.0.param", "--target", "b_seq"]),
    ("optimize", _EXAMPLE,
     ["optimize", "--config", "{config}", "--free", "filters.middle.0.0,filters.middle.0.1", "--seed", "3"]),
    ("optimize-no-free", _EXAMPLE, ["optimize", "--config", "{config}", "--free", ""]),
    ("oracle-settings", dict(_EXAMPLE, settings=_SETTINGS), ["oracle", "--config", "{config}"]),
    ("oracle-seed", dict(_EXAMPLE, seed=11), ["oracle", "--config", "{config}"]),
    ("eval-filtered-hermiticity-link1", {"links": [_SKEWED, _WERNER_ONE], "filters": {"first": 1e-4}},
     ["eval", "--config", "{config}"]),
    ("eval-filtered-hermiticity-link2", {"links": [_WERNER_ONE, _SKEWED], "filters": {"middle": [[1.0, 1e-4]]}},
     ["eval", "--config", "{config}"]),
    ("eval-filtered-negative-eigenvalue",
     {"links": [_BARELY_VALID, _WERNER_ONE], "filters": {"first": 1e-4, "middle": [[1e-4, 1.0]]}},
     ["eval", "--config", "{config}"]),
    ("eval-filtered-trace",
     {"links": [_TRACE_SKEWED, {"family": "werner", "p": 0.5}], "filters": {"first": 0.99, "middle": [[0.99, 1.0]]}},
     ["eval", "--config", "{config}"]),
    ("eval-decomposition-before-filter",
     {"links": [_IMAG_COEFFICIENT, _explicit([1.0, 0.0, 0.0, 0.0])], "filters": {"middle": [[1.0, 0.0]]}},
     ["eval", "--config", "{config}"]),
    ("eval-annihilated", _ANNIHILATED, ["eval", "--config", "{config}"]),
    ("scan-annihilated", _ANNIHILATED_SCAN, ["scan", "--config", "{config}"]),
    *((f"reproduce-{name}", None, ["reproduce", name]) for name in _REPRODUCE_IDS),
]


def run_case(config: dict | None, argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """Run one case through ``qnetfilter.cli.main``; return its exit code, the SHA-256 of its stdout and its stderr.

    The config file's path is written ``{config}`` in stderr, as in argv.
    """
    from qnetfilter.cli import main

    path = workdir / "config.json"
    if config is not None:
        path.write_text(json.dumps(config), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace("{config}", str(path)) for arg in argv])
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return code, digest, stderr.getvalue().replace(str(path), "{config}")


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: list(run_case(config, argv, Path(tmp))) for name, config, argv in CASES}
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
