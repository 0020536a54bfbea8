"""Seeded config fuzz of the command-line interface.

    python3 tests/fuzz_cli.py [--seed N] [--seconds S]

Each mutation copies the config of one case in ``tests/record_cli_goldens.py``
(the cases that have one, in turn) and replaces or drops one or two of its
leaves; a replacement is ``null``, a boolean, a string, ``[]``, ``{}``,
±10**400, NaN, ±Infinity, -1, 0 or -0.5.  The mutated config runs in-process
through ``qnetfilter.cli.main`` with the case's argv.  A run passes when it
raises nothing and either exits 0 or 1 with empty stderr, or exits 2, 3 or 4
with exactly one stderr line that starts with the prefix ``main`` prints for
that code.  Warnings are printed, so a numpy ``RuntimeWarning`` shows up as an
extra stderr line.  ``tests/test_fuzz_cli.py`` runs a fixed-seed slice in the
test suite; this script runs for a given time and prints what it found.
"""

from __future__ import annotations

import argparse
import collections
import copy
import random
import sys
import tempfile
import time
import traceback
import warnings
from collections.abc import Iterator
from pathlib import Path

from record_cli_goldens import CASES, run_case

REPLACEMENTS = (
    None, True, False, "x", [], {}, 10**400, -(10**400), float("nan"), float("inf"), float("-inf"), -1, 0, -0.5,
)
PREFIXES = {2: "config error: ", 3: "annihilated post-selection: ", 4: "no crossing: "}
CONFIG_CASES = [(name, config, argv) for name, config, argv in CASES if config is not None]


def _leaves(node: object, path: tuple = ()) -> Iterator[tuple]:
    """The key paths of every scalar and empty container inside a non-empty ``node``."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path


def mutate(config: dict, rng: random.Random) -> dict:
    """A deep copy of ``config`` with one or two leaves replaced or dropped."""
    mutated = copy.deepcopy(config)
    for _ in range(rng.randint(1, 2)):
        leaves = list(_leaves(mutated))
        if not leaves:
            break
        *head, last = rng.choice(leaves)
        parent = mutated
        for key in head:
            parent = parent[key]
        if rng.random() < 0.25:
            del parent[last]
        else:
            parent[last] = rng.choice(REPLACEMENTS)
    return mutated


def problem(code: int, stderr: str) -> str | None:
    """What is wrong with a run that exited ``code`` and printed ``stderr``, or None."""
    if code in (0, 1):
        return None if stderr == "" else f"exit {code} with stderr {stderr!r}"
    if code in PREFIXES:
        lines = stderr.splitlines()
        if len(lines) == 1 and stderr.endswith("\n") and lines[0].startswith(PREFIXES[code]):
            return None
        return f"exit {code} with stderr {stderr!r}"
    return f"exit code {code!r}"


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def fuzz(
    seed: int, count: int | None = None, seconds: float | None = None
) -> Iterator[tuple[str, dict, int | None, str | None]]:
    """Yield (case name, mutated config, exit code or None, problem or None) per run.

    Stops after ``count`` runs or ``seconds``, whichever limit is given and reached first.
    """
    rng = random.Random(seed)
    deadline = None if seconds is None else time.monotonic() + seconds
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # Every warning goes to the redirected stderr, also where a caller records them, as pytest does.
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        index = 0
        while (count is None or index < count) and (deadline is None or time.monotonic() < deadline):
            name, config, argv = CONFIG_CASES[index % len(CONFIG_CASES)]
            mutated = mutate(config, rng)
            try:
                code, _, stderr = run_case(mutated, argv, Path(tmp))
            except Exception:  # an exception that leaves main is the finding; its traceback is the report
                yield name, mutated, None, f"uncaught exception:\n{traceback.format_exc()}"
            else:
                yield name, mutated, code, problem(code, stderr)
            index += 1


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    codes: collections.Counter = collections.Counter()
    problems = []
    start = time.monotonic()
    for name, mutated, code, found in fuzz(args.seed, seconds=args.seconds):
        codes[code] += 1
        if found is not None:
            problems.append((name, mutated, found))
    elapsed = time.monotonic() - start
    total = sum(codes.values())
    print(f"seed {args.seed}: {total} configs in {elapsed:.1f} s; exit codes {dict(sorted(codes.items(), key=str))}")
    print(f"{len(problems)} problems")
    for name, mutated, found in problems[:20]:
        print(f"{name}: {found}\n  config {mutated!r}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
