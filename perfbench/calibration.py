"""Host-speed calibration for the timed end-to-end metrics.

On a shared host identical work runs up to 1.5x slower or faster in phases
that last from seconds to minutes, often longer than a whole run, and the
slowdown shows in CPU time as much as in wall time.  So the untraced run
times a fixed kernel right after every call and scales the call by the
kernel's nominal time over its measured time around that call: the timed
metrics read as milliseconds at the host's nominal speed.

The kernel is the numpy reference of one fixed ``scan`` config
(``reference.expected_rows``): the same kind of small-matrix numpy and
Python work as the program, but none of its code, so a change to
qnetfilter never moves it.  Raw, unscaled figures are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on the 2-vCPU host the baseline was recorded on, so that
# scaled times read as milliseconds there at its usual speed.
NOMINAL_MS = 7.5
# A call is scaled by the median of the kernel samples within this many calls.
NEIGHBOURS = 2
WARMUP = 3

# A fixed trilocal grud chain with a bit-flip channel on link 2, 5x5 points.
_CONFIG = {
    "links": [
        {"family": "grud", "v": 0.1, "x": 0.3},
        {"family": "grud", "v": 0.2, "x": 0.5},
        {"family": "grud", "v": 0.05, "x": 0.7},
    ],
    "channels": [{"link": 2, "type": "bit_flip", "param": 0.0, "sides": "both"}],
    "filters": {"first": 0.8, "last": 0.7, "middle": [[0.6, 0.9], [0.5, 0.75]]},
    "scan": {
        "axes": [
            {"path": "channels.0.param", "min": 0.0, "max": 0.3, "steps": 5},
            {"path": "filters.middle.0.1", "min": 0.3, "max": 1.0, "steps": 5},
        ]
    },
}


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    import reference  # numpy; not imported before run.py has timed the set-up

    start = time.perf_counter()
    reference.expected_rows(_CONFIG)
    return time.perf_counter() - start


def warm_median(samples: int) -> float:
    """Median kernel time over ``samples`` runs after a warm-up, in seconds."""
    for _ in range(WARMUP):
        kernel()
    return statistics.median(kernel() for _ in range(samples))


def factor(seconds: float) -> float:
    """Scale factor for work timed while the kernel took ``seconds``."""
    return NOMINAL_MS / 1000.0 / seconds


def factors(samples: list[float]) -> list[float]:
    """Per call, the scale factor from the kernel samples around it."""
    return [
        factor(statistics.median(samples[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]))
        for i in range(len(samples))
    ]
