"""Why ``test_cli.py::test_scan_separable_partner_region_nonempty`` finds no hidden violation.

    python3 tests/probe_separable_partner.py

The test pairs a grud link with ``werner_state(p)``, p in [0.25, 0.30], and its
filters (middle pair (0.46, 1.0), first and last 1.0) leave the Werner link
unfiltered.  That link has null Bloch vectors and correlation singular values
p, p, p, and a filtered link's singular values are at most 1, so the closed form
gives

    b_seq = sqrt(t1 p + t2 p) <= sqrt(2 p) <= sqrt(0.6) = 0.774597

whatever the grud link and its filters are.  The probe prints the Werner link's
strengths, Bloch vectors and singular values, the cap at each p of the test's
grid, and the largest ``b_seq`` on that grid, which sits just under the cap.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

# The test's config, as written there.
CONFIG = {
    "links": [
        {"family": "grud", "v": 0.0, "x": 0.1},
        {"family": "werner", "p": 0.25},
    ],
    "filters": {"middle": [[0.46, 1.0]]},
    "scan": {
        "axes": [
            {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 6},
            {"path": "links.0.x", "min": 0.1, "max": 0.7, "steps": 6},
            {"path": "links.1.p", "min": 0.25, "max": 0.30, "steps": 6},
        ]
    },
}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qnetfilter import bloch_decompose, correlation_singular_values, evaluate, werner_state
    from qnetfilter.config import network_factory, scan_axes

    axes = scan_axes(CONFIG)
    build = network_factory(CONFIG, [axis.path for axis in axes])
    filters = build([axis.low for axis in axes]).filters
    print(f"werner link strengths: left {filters.middle[0][1]}, right {filters.eps_last}")
    for p in axes[2].values:
        form = bloch_decompose(werner_state(p))
        svs = ", ".join(f"{s:.6f}" for s in correlation_singular_values(werner_state(p)))
        null = not form.a.any() and not form.b.any()
        print(f"p {p:.2f}: null Bloch vectors {null}, singular values {svs}, cap sqrt(2p) {math.sqrt(2 * p):.6f}")
    grid = itertools.product(*(axis.values for axis in axes))
    bound, point = max((evaluate(build(point)).b_seq, point) for point in grid)
    print(f"grid maximum b_seq {bound:.6f} at (v1, x1, p2) = ({', '.join(f'{v:.6g}' for v in point)})")
    print(f"there the filtered grud link has t1 + t2 = b_seq^2 / p2 = {bound**2 / point[2]:.6f} <= 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
