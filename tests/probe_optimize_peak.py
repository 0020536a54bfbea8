"""Why ``test_cli.py::test_optimize_recovers_reference_violation`` finds no peak of 1.081.

    python3 tests/probe_optimize_peak.py

The test frees the middle filter pair of its two-grud-link example and asks
``optimize`` for a ``b_seq`` of at least 1.081 - 2e-3.  The probe evaluates
``b_seq`` on a 460x460 grid of that pair: 60 geometric steps from 1e-8 to
1e-2, then 400 linear steps to 1.  It prints the grid's largest value, which
stays below 1, the value at (1e-8, 1e-8), and each filtered link's correlation
singular values there.  As both strengths go to 0, the first link tends to
|01> and the second to |10>: product states with |W_zz| = 1 and the other two
singular values 0, so ``b_seq = sqrt(t1 t1' + t2 t2')`` tends to 1.
Runs in about half a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# The test's config, as written there (``_example_config``), and its free paths.
CONFIG = {
    "links": [
        {"family": "grud", "v": 0.1, "x": 0.23},
        {"family": "grud", "v": 0.99, "x": 0.44},
    ],
    "filters": {"middle": [[0.8, 0.97]]},
}
FREE = ["filters.middle.0.0", "filters.middle.0.1"]
QUOTED_PEAK = 1.081


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qnetfilter import b_seq, correlation_singular_values, filter_network
    from qnetfilter.config import network_factory

    build = network_factory(CONFIG, FREE)
    strengths = np.concatenate([np.geomspace(1e-8, 1e-2, 60), np.linspace(1e-2, 1.0, 401)[1:]]).tolist()
    peak, point = -1.0, None
    for a in strengths:
        for b in strengths:
            value = b_seq(build((a, b)))[0]
            if value > peak:
                peak, point = value, (a, b)
    print(f"grid of {len(strengths)}x{len(strengths)} middle pairs from {strengths[0]:g} to {strengths[-1]:g}")
    print(f"largest b_seq {peak!r} at ({point[0]:.6g}, {point[1]:.6g}); quoted peak {QUOTED_PEAK}")
    edge = build((1e-8, 1e-8))
    bound, success = b_seq(edge)
    print(f"at (1e-08, 1e-08): b_seq {bound!r}, success {success:.6g}")
    filtered, _ = filter_network(edge.links, edge.filters)
    for k, link in enumerate(filtered, start=1):
        svs = ", ".join(f"{s:.3e}" for s in correlation_singular_values(link))
        print(f"  filtered link {k}: singular values {svs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
