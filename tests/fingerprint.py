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
- ``conjecture_search(300)`` for seeds 0, 1 and 2.

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
    return digest.hexdigest(), len(outcomes), sum(outcomes)


if __name__ == "__main__":
    value, calls, raised = fingerprint()
    print(f"{value}  ({raised} of {calls} calls raised)")
