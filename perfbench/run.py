"""qnetfilter benchmark: one closed-loop client, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {scan,search,conjecture} --seed N --seconds S --trace {0,1}

The benchmark process is the only client: it issues each call after the
previous one returns, for ``--seconds`` seconds, then checks every output.
The last line of stdout is the result object; the line before it holds the
provenance and the counts behind the metrics.

``--trace 0`` reports the end-to-end metrics.  Every time in them is scaled
to the host's nominal speed by a fixed kernel timed after each call (see
``calibration.py``); the detail line holds the raw figures too.

- ``setup_s``: import plus input generation, median of this process and
  six fresh interpreters;
- ``items_per_s``: items completed over the summed time of the calls;
- ``call_ms_p50``: median call latency;
- ``call_ms_tail``: the latency with exactly ten calls slower than it (the
  percentile and call count are in the detail line);
- ``cpu_ms_per_item``: process CPU time of the calls, all threads, per item;
- ``peak_rss_mib``: peak resident memory of the process.

``--trace 1`` replays the calls of an untraced half-length pass with span
wrappers installed (see ``tracing.py``) and reports per-layer call counts and
self times per item, each module's share of all self time, and
``trace.overhead_frac``.

BLAS runs on one thread and ``NETFILTER_THREADS`` is the number of usable
cores, so the process never runs more threads than cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "qnetfilter"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 6  # fresh interpreters timed besides this process
SETUP_KERNELS = 9  # kernel samples that scale each set-up time
TAIL_BEYOND = 10  # calls slower than the reported tail latency


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "search", "conjecture"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def _setup(name: str, seed: int, workdir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name]()
    return workload, workload.generate(seed, workdir)


def _setup_probes(args: argparse.Namespace) -> list[tuple[float, float]]:
    """(set-up time, kernel time) of fresh interpreters, in seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup_s, kernel_s = probe.stdout.split()[-2:]
        samples.append((float(setup_s), float(kernel_s)))
    return samples


def _loop(
    workload, pool: list, seconds: float | None = None, calls: int | None = None, calibrate: bool = False
) -> dict:
    """Closed loop over the pool, for ``seconds`` or for ``calls`` calls.

    With ``calibrate`` each call's process CPU time and the time of one
    calibration kernel run right after it are kept too.
    """
    records, cpu_times, kernel_times = [], [], []
    cpu_start = time.process_time()
    start = time.perf_counter()
    while (calls is None and time.perf_counter() - start < seconds) or (calls is not None and len(records) < calls):
        index = len(records) % len(pool)
        cpu_began = time.process_time()
        began = time.perf_counter()
        try:
            out, error = workload.call(pool[index]), None
        except Exception as exc:  # a failed call is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        records.append((index, time.perf_counter() - began, out, error))
        if calibrate:
            cpu_times.append(time.process_time() - cpu_began)
            kernel_times.append(calibration.kernel())
    return {
        "records": records,
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu_start,
        "cpu_times": cpu_times,
        "kernel_times": kernel_times,
    }


def _failures(check, records: list, label: str) -> dict[str, str]:
    """Failed or incorrect calls, keyed by pass and call number."""
    failures = {}
    for call, (index, _, out, error) in enumerate(records):
        if error is not None:
            failures[f"{label} call {call}"] = f"pool {index}: {error}"
        elif not check(index, out):
            failures[f"{label} call {call}"] = f"pool {index}: output failed its check"
    return failures


def _items(workload, records: list) -> int:
    return workload.items_per_call * sum(1 for record in records if record[3] is None)


def _loadavg() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: found.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "NETFILTER_THREADS": os.environ["NETFILTER_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timings(items: int, durations: list[float], cpu_s: float, setup: list[float]) -> dict:
    """The timed end-to-end metrics from per-call durations, in seconds."""
    durations = sorted(durations)
    # With ten calls or fewer no percentile has ten beyond it: report the slowest.
    beyond = TAIL_BEYOND if len(durations) > TAIL_BEYOND else 0
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "items_per_s": _metric(items / sum(durations), "1/s"),
        "call_ms_p50": _metric(1000.0 * statistics.median(durations), "ms"),
        "call_ms_tail": _metric(1000.0 * durations[-1 - beyond], "ms"),
        "cpu_ms_per_item": _metric(1000.0 * cpu_s / max(items, 1), "ms"),
    }


def _end_to_end(workload, run: dict, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    records = run["records"]
    items = _items(workload, records)
    durations = [record[1] for record in records]
    scales = calibration.factors(run["kernel_times"])
    metrics = _timings(
        items,
        [d * f for d, f in zip(durations, scales)],
        sum(c * f for c, f in zip(run["cpu_times"], scales)),
        [s * calibration.factor(k) for s, k in setup_samples],
    )
    metrics["peak_rss_mib"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    raw = _timings(items, durations, sum(run["cpu_times"]), [s for s, _ in setup_samples])
    beyond = TAIL_BEYOND if len(durations) > TAIL_BEYOND else 0
    detail = {
        "calls": len(records),
        "items": items,
        "tail_percentile": 100.0 * (len(durations) - beyond) / len(durations),
        "tail_calls_beyond": beyond,
        "unscaled": {name: metric["value"] for name, metric in raw.items()},
        "loop_wall_s": run["wall_s"],
        "kernel_ms_median": 1000.0 * statistics.median(run["kernel_times"]),
        "setup_samples_s": [list(sample) for sample in setup_samples],
    }
    return metrics, detail


def _per_layer(tracer, items: int, overhead: float) -> dict:
    calls, self_s = tracer.reduce()
    per_item = 1.0 / max(items, 1)
    metrics = {}
    for name in [*tracing.SPANS, tracing.NELDER_MEAD]:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) * per_item, "count/item")
        metrics[f"{name}.self_ms"] = _metric(1000.0 * self_s.get(name, 0.0) * per_item, "ms/item")
    for counter in ("nlocal.nelder_mead.nfev", "nlocal.nelder_mead.unconverged", "filtering.annihilated"):
        metrics[counter] = _metric(tracer.counters[counter] * per_item, "count/item")
    total = sum(self_s.values())
    for module in tracing.MODULES:
        share = sum(value for name, value in self_s.items() if name.startswith(module + "."))
        metrics[f"{module}.self_frac"] = _metric(share / total if total else 0.0, "1")
    metrics["trace.overhead_frac"] = _metric(overhead, "1")
    return metrics


def main() -> int:
    args = _parse_args()
    if not (SOURCE / "__init__.py").is_file():
        print(f"perfbench: no qnetfilter sources at {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["NETFILTER_THREADS"] = str(NPROC)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        started = time.perf_counter()
        workload, pool = _setup(args.workload, args.seed, Path(tmp))
        setup_s = time.perf_counter() - started
        setup_kernel_s = calibration.warm_median(SETUP_KERNELS)
        if args.setup_probe:
            print(setup_s, setup_kernel_s)
            return 0

        load_start = _loadavg()
        check = workload.checker(args.seed, pool)
        leftovers = []
        if args.trace == 0:
            run = _loop(workload, pool, seconds=args.seconds, calibrate=True)
            failures = _failures(check, run["records"], "timed")
            metrics, detail = _end_to_end(workload, run, [(setup_s, setup_kernel_s), *_setup_probes(args)])
            attempted = len(run["records"])
        else:
            plain = _loop(workload, pool, seconds=args.seconds / 2.0)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = _loop(workload, pool, calls=len(plain["records"]))
            leftovers = tracing.leftover_wrappers()
            failures = _failures(check, plain["records"], "untraced")
            for call, (a, b) in enumerate(zip(plain["records"], traced["records"])):
                if a[2] != b[2]:
                    failures[f"traced call {call}"] = "output differs from the untraced call"
            failures.update(_failures(check, traced["records"], "traced"))
            overhead = traced["wall_s"] / plain["wall_s"] - 1.0
            metrics = _per_layer(tracer, _items(workload, traced["records"]), overhead)
            attempted = len(plain["records"]) + len(traced["records"])
            detail = {"calls": attempted, "spans": len(tracer.spans)}

    detail.update(
        provenance=_provenance(args),
        loadavg_1min_start=load_start,
        loadavg_1min_end=_loadavg(),
        fail_frac={"value": len(failures) / attempted, "unit": "1"},
        failures=dict(list(failures.items())[:20]),
        wrappers_left_installed=leftovers,
    )
    correct = not failures and not leftovers
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
