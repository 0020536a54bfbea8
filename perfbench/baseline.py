"""Run the benchmark over many seeds and write a baseline with premise checks.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 100] [--out perfbench/BASELINE.json]

For each workload: one untraced run per seed (median, quartiles and the
quartile spread over the median of every end-to-end metric), then one
traced run at the first seed (per-layer metrics and each module's share of
self time).  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import MODULES

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
        ],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def _premises(layers: dict[str, dict]) -> dict:
    def share(workload: str, *modules: str) -> float:
        return sum(layers[workload][f"{module}.self_frac"]["value"] for module in modules)

    search = share("search", "core", "config", "cli")
    conjecture = share("conjecture", "config", "cli")
    scan_nm = layers["scan"]["nlocal.nelder_mead.calls"]["value"]
    return {
        "search: core+config+cli share of self time is a few percent or less (<= 0.05)": {
            "measured": search, "holds": search <= 0.05,
        },
        "conjecture: no config or cli time": {"measured": conjecture, "holds": conjecture == 0.0},
        "scan: no nelder_mead calls": {"measured": scan_nm, "holds": scan_nm == 0.0},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    baseline = {"run_seconds": BENCHMARK["run_seconds"], "seeds": seeds, "workloads": {}}
    layers = {}
    provenance = None
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [_run(workload, seed, trace=0) for seed in seeds]
        traced = _run(workload, seeds[0], trace=1)
        provenance = runs[0]["detail"]["provenance"]
        layers[workload] = traced["result"]["metrics"]
        baseline["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "tail_percentile": _summary([r["detail"]["tail_percentile"] for r in runs])["median"],
            "loadavg_1min": [r["detail"]["loadavg_1min_start"] for r in runs],
            "end_to_end": {
                metric["name"]: _summary([r["result"]["metrics"][metric["name"]]["value"] for r in runs])
                for metric in BENCHMARK["end_to_end"]
            },
            "module_share_of_self_time": {m: layers[workload][f"{m}.self_frac"]["value"] for m in MODULES},
            "per_layer": {name: m["value"] for name, m in layers[workload].items()},
        }
    baseline["premises"] = _premises(layers)
    baseline["provenance"] = {k: v for k, v in provenance.items() if k not in ("workload", "seed", "trace")}
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for workload, entry in baseline["workloads"].items():
        spreads = {name: round(s["spread"], 4) for name, s in entry["end_to_end"].items()}
        print(workload, "correct" if entry["correct"] else "INCORRECT", spreads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
