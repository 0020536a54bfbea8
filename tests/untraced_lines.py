"""Print each executable line of ``src/qnetfilter`` that Tier-1 never runs.

    PYTHONPATH=src python3 tests/untraced_lines.py [extra pytest arguments]

``coverage`` is not a dependency, so this runs Tier-1 in this process under
``sys.settrace`` and compares the lines that ran with the lines the compiler
gives the package's code objects.  A line counts as executable when some
instruction of a code object compiled from the file sits on it; a function's
first line counts as run when the function is called.  What the tests run in
a subprocess, such as the demos, is not traced.  Prints
``path:line: source`` per untraced line and the count, and exits with
pytest's exit code.  Needs only the standard library and pytest.
"""

from __future__ import annotations

import functools
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qnetfilter"


def _lines(code) -> set[int]:
    """The lines of ``code``'s own instructions (a module's first instruction sits on line 0)."""
    return {line for _, _, line in code.co_lines() if line}


def _body_lines(code) -> set[int]:
    """A function's or class body's lines without its first (def, class or decorator) line."""
    return _lines(code) - {code.co_firstlineno}


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction compiled from ``path`` sits on."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = _lines(module)
    stack = [module]
    while stack:
        for const in stack.pop().co_consts:
            if hasattr(const, "co_lines"):
                lines |= _body_lines(const)
                stack.append(const)
    return lines


def trace_tier1(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 under a line tracer; return pytest's exit code and the lines run per package file."""
    ran: dict[str, set[int]] = {}
    # The lines of each traced code object not yet seen; a code object with none left is not traced again.
    pending: dict[object, set[int]] = {}

    @functools.cache
    def package_file(filename: str) -> str | None:
        path = Path(filename).resolve()
        return str(path) if path.parent == PACKAGE else None

    def local(frame, event, arg):
        if event != "line":
            return local
        left = pending[frame.f_code]
        left.discard(frame.f_lineno)
        ran[package_file(frame.f_code.co_filename)].add(frame.f_lineno)
        return local if left else None

    def on_call(frame, event, arg):
        code = frame.f_code
        path = package_file(code.co_filename)
        if path is None:
            return None
        ran.setdefault(path, set()).add(code.co_firstlineno)
        left = pending.get(code)
        if left is None:
            left = pending[code] = _lines(code) if code.co_name == "<module>" else _body_lines(code)
        return local if left else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             str(ROOT / "tests"), str(ROOT / "perfbench"), *args]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = trace_tier1(sys.argv[1:])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} untraced lines in {PACKAGE.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
