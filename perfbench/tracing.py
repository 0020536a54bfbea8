"""Span tracing for the benchmark's traced run.

Wrappers are installed on the public functions of each ``qnetfilter`` layer,
at every module that binds them (``cli`` binds ``evaluate`` and ``b_seq`` by
name, ``nlocal`` binds ``bloch_decompose``, ``filter_network`` and scipy's
``minimize``), and removed again when the ``installed`` block ends.  Spans
are kept in memory and reduced to per-function call counts and self times
after the run.  Self time is a span's duration minus the union of its child
spans.  Spans opened in a thread with no open span (the ``scan`` worker
threads) take the open ``cli.main`` span as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of the function it times.  Several
# constructors share the aggregate span ``states.construct``.
SPANS = {
    "core.validate_density": [("core", "validate_density")],
    "core.bloch_decompose": [("core", "bloch_decompose")],
    "core.from_bloch": [("core", "from_bloch")],
    "core.canonical_frame": [("core", "canonical_frame")],
    "states.construct": [
        ("states", name)
        for name in ("grud_state", "werner_state", "x_state", "pure_theta_state", "product_state")
    ],
    "channels.apply_channel": [("channels", "apply_channel")],
    "filtering.filter_network": [("filtering", "filter_network")],
    "filtering.apply_link_filter": [("filtering", "apply_link_filter")],
    "filtering.filtered_bell_diagonal": [("filtering", "filtered_bell_diagonal")],
    "nlocal.evaluate": [("nlocal", "evaluate")],
    "nlocal.b_lin": [("nlocal", "b_lin")],
    "nlocal.b_seq": [("nlocal", "b_seq")],
    "nlocal.lhs_at_settings": [("nlocal", "lhs_at_settings")],
    "nlocal.maximize_lhs": [("nlocal", "maximize_lhs")],
    "nlocal.born_oracle": [("nlocal", "born_oracle")],
    "nlocal.born_distribution": [("nlocal", "born_distribution")],
    "nlocal.conjecture_search": [("nlocal", "conjecture_search")],
    "config.load_config": [("config", "load_config")],
    "config.config_with_values": [("config", "config_with_values")],
    "config.build_network": [("config", "build_network")],
    "config.scan_axes": [("config", "scan_axes")],
    "cli.main": [("cli", "main")],
}
# The scipy boundary: only the name ``nlocal`` imports is wrapped.
NELDER_MEAD = "nlocal.nelder_mead"
MODULES = ("core", "states", "channels", "filtering", "nlocal", "config", "cli")
# The two functions that detect annihilation; callers only re-raise.
ANNIHILATION_SITES = ("filtering.apply_link_filter", "filtering.filtered_bell_diagonal")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        # A span is [name, start, end, parent span or None].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list | None = None  # the open cli.main span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, annihilation_type=None, on_result=None):
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else self._root]
            stack.append(span)
            if is_root:
                self._root = span
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if annihilation_type is not None and isinstance(exc, annihilation_type):
                    self.count("filtering.annihilated")
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        traced.perfbench_span = name
        return traced

    def count_nelder_mead(self, result) -> None:
        self.count("nlocal.nelder_mead.nfev", int(result.nfev))
        if not result.success:
            self.count("nlocal.nelder_mead.unconverged")

    def reduce(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name, start, end, _ = span
            calls[name] += 1
            self_s[name] += (end - start) - _covered(children.get(id(span), ()), start, end)
        return dict(calls), dict(self_s)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items()) if name == "qnetfilter" or name.startswith("qnetfilter.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install span wrappers at every import site; restore the originals on exit."""
    from qnetfilter import filtering, nlocal

    wrappers = {}
    for span_name, sites in SPANS.items():
        for module_name, attr in sites:
            original = getattr(sys.modules[f"qnetfilter.{module_name}"], attr)
            annihilation = filtering.FilterAnnihilatesState if span_name in ANNIHILATION_SITES else None
            wrappers[id(original)] = tracer.wrap(span_name, original, annihilation_type=annihilation)
    replaced = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    replaced.append((nlocal, "minimize", nlocal.minimize))
    nlocal.minimize = tracer.wrap(NELDER_MEAD, nlocal.minimize, on_result=tracer.count_nelder_mead)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def leftover_wrappers() -> list[str]:
    """Names in the package that are still bound to a span wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "perfbench_span")
    ]
