"""One SHA-256 over the package's numerical outputs on a fixed seeded corpus.

    PYTHONPATH=src python3 tests/fingerprint.py

The hash covers the ``float.hex`` of every float, and the type and message of
every ``ValueError``, that these calls give:

- ``evaluate``, ``b_seq`` and ``b_lin`` on 2,400 random chains of 2 to 5 links.
  A fifth of them have identity filters, some hold a ``|00>`` link whose left
  strength is 0 (the filter annihilates it), and some a link whose
  decomposition has an imaginary part (the raw chain's error comes first);
- ``lhs_at_settings``, ``born_oracle`` and ``maximize_lhs(restarts=2)`` on 48
  chains of 2 to 4 links;
- ``conjecture_search(300)`` for seeds 0, 1 and 2, at the default
  annihilation threshold, where no trial annihilates, and with
  ``filtering.ANNIHILATION_ATOL`` raised to 0.15, where some trials lose their
  second link after the first link's quaternions were drawn, and some lose
  both links to the chain filter;
- the networks that ``config.network_factory`` builds: the rows of a seeded 7x7
  scan over a noise channel and a filter strength (``cli._scan_rows``), the
  ``b_seq`` and ``b_lin`` thresholds along a filter axis (``cli._threshold``),
  and ``optimize``'s objective, ``b_seq`` of the network at a filter
  assignment, at 12 random assignments, one of which annihilates.

Two commits that print the same hash computed the same bits on this corpus, so
a change meant to keep every output can be checked by running the script before
and after it.  Needs only numpy; runs in a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from qnetfilter import (
    MeasurementSettings,
    NetworkFilterSpec,
    NetworkSpec,
    b_lin,
    b_seq,
    born_oracle,
    conjecture_search,
    evaluate,
    lhs_at_settings,
    maximize_lhs,
)
from qnetfilter import cli, filtering
from qnetfilter.config import network_factory, scan_axes

PRODUCT_00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
# Valid to a Hermiticity deviation of 1e-9, but its decomposition has an imaginary part.
SKEWED = np.eye(4, dtype=complex) / 4.0
SKEWED[0, 1] = SKEWED[1, 0] = 5e-10j


def _words(value: object) -> list[str]:
    """Every float of ``value`` as ``float.hex``, and every other leaf as its repr, in a fixed order."""
    if dataclasses.is_dataclass(value):
        return [word for field in dataclasses.fields(value) for word in _words(getattr(value, field.name))]
    if isinstance(value, (tuple, list)):
        return [word for item in value for word in _words(item)]
    if isinstance(value, np.ndarray):
        return [word for item in value.ravel().tolist() for word in _words(item)]
    if isinstance(value, float):
        return [value.hex()]
    return [f"{type(value).__name__}:{value!r}"]


def _record(digest, call, *args, **kwargs) -> bool:
    """Feed ``call(*args, **kwargs)``'s result, or the type and message of its domain error, to ``digest``.

    Returns whether the call raised.  Only ``ValueError`` and its subclasses (the package's validation
    errors and ``FilterAnnihilatesState``) are outputs; any other exception propagates, so a script broken
    the same way on two commits cannot print matching hashes.
    """
    try:
        words = _words(call(*args, **kwargs))
        raised = False
    except ValueError as exc:
        words = [f"{type(exc).__name__}: {exc}"]
        raised = True
    digest.update(("\n".join([call.__name__, *words]) + "\n").encode())
    return raised


def _random_density(rng: np.random.Generator) -> np.ndarray:
    """A Ginibre state of rank 1, 2 or 4; the pure ones let some chains violate."""
    rank = (1, 2, 4)[int(rng.integers(3))]
    ginibre = rng.normal(size=(4, rank)) + 1.0j * rng.normal(size=(4, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


def _random_spec(rng: np.random.Generator, n: int, low: float, special: bool) -> NetworkSpec:
    """A chain of ``n`` random links with strengths in [``low``, 1), identity filters in a fifth of the draws.

    With ``special``, a tenth of the draws put a ``|00>`` link somewhere and cut its left strength to 0,
    and a twentieth put the skewed link first.
    """
    links = [_random_density(rng) for _ in range(n)]
    eps = rng.uniform(low, 1.0, size=2 * n)
    kind = rng.uniform()
    if special and kind < 0.1:
        k = int(rng.integers(n))
        links[k] = PRODUCT_00
        eps[2 * k] = 0.0
    elif special and kind < 0.15:
        links[0] = SKEWED
    if rng.uniform() < 0.2:
        return NetworkSpec(links=links)
    middle = tuple(zip(eps[1:-1:2].tolist(), eps[2::2].tolist()))
    return NetworkSpec(links=links, filters=NetworkFilterSpec(float(eps[0]), float(eps[-1]), middle))


def _random_settings(rng: np.random.Generator) -> MeasurementSettings:
    vectors = rng.normal(size=(4, 3))
    return MeasurementSettings(*(vectors / np.linalg.norm(vectors, axis=1, keepdims=True)))


def _scan_config(rng: np.random.Generator) -> dict:
    """A trilocal grud chain with bit flip on link 2, scanned over the flip and one middle filter strength."""
    return {
        "links": [
            {"family": "grud", "v": float(rng.uniform(0.0, 0.3)), "x": float(rng.uniform(0.1, 0.78))} for _ in range(3)
        ],
        "channels": [{"link": 2, "type": "bit_flip", "param": 0.0}],
        "filters": {
            "first": float(rng.uniform(0.5, 1.0)),
            "last": float(rng.uniform(0.5, 1.0)),
            "middle": rng.uniform(0.3, 1.0, size=(2, 2)).tolist(),
        },
        "scan": {"axes": [
            {"path": "channels.0.param", "min": 0.0, "max": float(rng.uniform(0.1, 0.5)), "steps": 7},
            {"path": "filters.middle.1.0", "min": float(rng.uniform(0.2, 0.5)), "max": 1.0, "steps": 7},
        ]},
    }


# Two noisy pure links whose b_seq crosses 1 along the second middle strength; b_lin does not.
THRESHOLD_CONFIG = {
    "links": [{"family": "pure_theta", "theta": 0.62}, {"family": "pure_theta", "theta": 0.62}],
    "channels": [{"link": 1, "type": "bit_flip", "param": 0.2}, {"link": 2, "type": "bit_flip", "param": 0.15}],
    "filters": {"middle": [[0.98, 0.79]]},
    "scan": {"axes": [{"path": "filters.middle.0.1", "min": 0.05, "max": 1.0, "steps": 2}]},
}
# A grud link and a |00> link: a second middle strength of 0, the left one on link 2, annihilates it.
OPTIMIZE_CONFIG = {
    "links": [{"family": "grud", "v": 0.1, "x": 0.23}, {"family": "product", "m": [0, 0, 1], "n": [0, 0, 1]}],
    "filters": {"first": 1.0, "last": 1.0, "middle": [[0.8, 0.97]]},
}
OPTIMIZE_FREE = ["filters.first", "filters.middle.0.0", "filters.middle.0.1"]


def fingerprint() -> tuple[str, int, int]:
    """The hash, the number of calls and the number of them that raised."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(2400):
        spec = _random_spec(rng, int(rng.integers(2, 6)), 0.0, special=True)
        outcomes.append(_record(digest, evaluate, spec))
        outcomes.append(_record(digest, b_seq, spec))
        outcomes.append(_record(digest, b_lin, spec.links))
    for seed in range(48):
        spec = _random_spec(rng, int(rng.integers(2, 5)), 0.3, special=False)
        settings = _random_settings(rng)
        outcomes.append(_record(digest, lhs_at_settings, spec, settings))
        outcomes.append(_record(digest, born_oracle, spec, settings))
        outcomes.append(_record(digest, maximize_lhs, spec, seed=seed, restarts=2))
    for seed in range(3):
        outcomes.append(_record(digest, conjecture_search, 300, seed=seed))
    default_atol = filtering.ANNIHILATION_ATOL
    filtering.ANNIHILATION_ATOL = 0.15
    try:
        for seed in range(3):
            outcomes.append(_record(digest, conjecture_search, 300, seed=seed))
    finally:
        filtering.ANNIHILATION_ATOL = default_atol
    outcomes.append(_record(digest, cli._scan_rows, _scan_config(rng)))
    (axis,) = scan_axes(THRESHOLD_CONFIG)
    for target in ("b_seq", "b_lin"):
        outcomes.append(_record(digest, cli._threshold, THRESHOLD_CONFIG, axis, target))
    build = network_factory(OPTIMIZE_CONFIG, OPTIMIZE_FREE)

    def optimize_objective(values: list[float]) -> tuple[float, float]:
        return b_seq(build(values))

    assignments = rng.uniform(0.0, 1.0, size=(12, 3))
    assignments[5, 2] = 0.0
    for values in assignments.tolist():
        outcomes.append(_record(digest, optimize_objective, values))
    return digest.hexdigest(), len(outcomes), sum(outcomes)


if __name__ == "__main__":
    value, calls, raised = fingerprint()
    print(f"{value}  ({raised} of {calls} calls raised)")
