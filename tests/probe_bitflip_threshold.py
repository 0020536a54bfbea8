"""What ``test_acceptance.py::test_bitflip_noise_thresholds`` computes, and the variants tried.

    python3 tests/probe_bitflip_threshold.py

The test quotes the thresholds p1* = 0.214 without filters and 0.235 with the
middle pair (0.98, 0.79) for two pure_theta(0.62) links under bit flip (p1
scanned on link 1, p2 = 0.15 on link 2).  ``b_lin`` ignores the filters, so the
unfiltered mismatch lies in the channel or in theta.  The probe bisects with
``cli._threshold`` on ``reproduce bitflip-threshold``'s config as quoted, and
prints the unfiltered threshold of each variant of the channel or theta that a
config can express (and the filtered one for the tied reading):

- the scanned link flipped on one qubit only (``channels.0.sides``);
- link 2 noiseless, or flipped with the same p as link 1 (both params tied);
- amplitude damping in place of bit flip, on both links;
- theta halved, for a cos(theta/2) convention (2 theta lies outside (0, pi/4]).

Only the tied reading comes within the tolerance of 0.214 (0.2151367188).
Under it the filtered threshold is 0.2200195313, 0.015 below 0.235 and outside
its 0.005 tolerance, so no variant here explains both quoted numbers.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path


def variants(quoted: dict) -> list[tuple[str, str, list[str], dict]]:
    """(label, target, scanned paths, config) for each variant; tied paths take the same value."""
    axis = quoted["scan"]["axes"][0]["path"]
    rows = []
    for side in ("left", "right"):
        one_sided = copy.deepcopy(quoted)
        one_sided["channels"][0]["sides"] = side
        rows.append((f"channels.0 flipped on the {side} qubit only", "b_lin", [axis], one_sided))
    noiseless = copy.deepcopy(quoted)
    noiseless["channels"][1]["param"] = 0.0
    rows.append(("link 2 noiseless", "b_lin", [axis], noiseless))
    for target in ("b_lin", "b_seq"):
        rows.append(("link 2 flipped with the same p", target, [axis, "channels.1.param"], quoted))
    damped = copy.deepcopy(quoted)
    for channel in damped["channels"]:
        channel["type"] = "amplitude_damping"
    rows.append(("amplitude damping for bit flip", "b_lin", [axis], damped))
    halved = copy.deepcopy(quoted)
    for link in halved["links"]:
        link["theta"] /= 2.0
    rows.append(("theta halved", "b_lin", [axis], halved))
    return rows


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qnetfilter import b_lin, b_seq, bisect, cli
    from qnetfilter.config import network_factory, scan_axes

    def tied_threshold(config: dict, paths: list[str], target: str) -> float:
        """Where ``target`` crosses 1 with every path at one value, bisected as ``cli._threshold`` does."""
        (axis,) = scan_axes(config)
        build = network_factory(config, paths)

        def objective(value: float) -> float:
            spec = build((float(value),) * len(paths))
            return (b_lin(spec.links) if target == "b_lin" else b_seq(spec)[0]) - 1.0

        return bisect(objective, axis.low, axis.high, xtol=1e-4)

    quoted = cli._REPRODUCTIONS["bitflip-threshold"][1]["config"]
    (axis,) = scan_axes(quoted)
    print("quoted thresholds: b_lin 0.214 +- 0.005, b_seq 0.235 +- 0.005")
    for target in ("b_lin", "b_seq"):
        print(f"as quoted: {target} threshold {cli._threshold(quoted, axis, target):.10g}")
    for label, target, paths, config in variants(quoted):
        try:
            threshold = f"{tied_threshold(config, paths, target):.10g}"
        except ValueError as exc:
            threshold = f"none ({exc})"
        print(f"{label}: {target} threshold {threshold}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
