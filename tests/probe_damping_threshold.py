"""What ``test_acceptance.py::test_damping_noise_thresholds`` computes, and the variants ruled out.

    python3 tests/probe_damping_threshold.py

The test quotes a filtered threshold gamma2* = 0.54 for two pure_theta(0.55)
links under amplitude damping (gamma1 = 0.21 on link 1, gamma2 scanned on
link 2), with filters first 0.78, middle (0.22, 0.1) and last 0.79.  The
unfiltered threshold, 0.20, matches.  The probe bisects with
``cli._threshold`` on ``reproduce damping-threshold``'s config as quoted, and
on each variant of the quoted numbers that does not reach 0.54:

- the middle pair reversed, (0.1, 0.22);
- the first and last strengths swapped;
- damping on one qubit of the scanned link only (``channels.1.sides``), which
  also moves the unfiltered threshold away from its quoted 0.20.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path


def variants(quoted: dict) -> list[tuple[str, str, dict]]:
    """(label, target, config) for the quoted config and each variant of it."""
    reversed_middle = copy.deepcopy(quoted)
    reversed_middle["filters"]["middle"] = [pair[::-1] for pair in quoted["filters"]["middle"]]
    swapped_ends = copy.deepcopy(quoted)
    swapped_ends["filters"]["first"], swapped_ends["filters"]["last"] = (
        quoted["filters"]["last"],
        quoted["filters"]["first"],
    )
    rows = [("as quoted", "b_lin", quoted), ("as quoted", "b_seq", quoted)]
    rows += [("middle pair reversed", "b_seq", reversed_middle), ("first and last swapped", "b_seq", swapped_ends)]
    for side in ("left", "right"):
        one_sided = copy.deepcopy(quoted)
        one_sided["channels"][1]["sides"] = side
        rows.append((f"channels.1 damped on the {side} qubit only", "b_lin", one_sided))
    return rows


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qnetfilter import cli
    from qnetfilter.config import scan_axes

    quoted = cli._REPRODUCTIONS["damping-threshold"][1]["config"]
    print("quoted thresholds: b_lin 0.20 +- 0.01, b_seq 0.54 +- 0.01")
    for label, target, config in variants(quoted):
        (axis,) = scan_axes(config)
        print(f"{label}: {target} threshold {cli._threshold(config, axis, target):.10g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
