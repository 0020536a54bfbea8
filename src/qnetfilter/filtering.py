"""Local filtering of link states.

Each party may apply the diagonal filter F(eps) = diag(eps, 1) to a qubit it
holds; keeping only the "success" branch maps a link state rho to

    rho'' = (F_L @ F_R) rho (F_L @ F_R)+ / trace,

where the trace is the post-selection success probability of that link.  For
an n-link chain the first and last party hold one qubit each while every
intermediate party holds two qubits belonging to adjacent links, so a network
filter assignment is (eps_first, eps_last) plus one (eps1, eps2) pair per
intermediate party, and link j is filtered with a left and a right strength.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import _first_failure, validate_density

__all__ = [
    "FilterAnnihilatesState",
    "NetworkFilterSpec",
    "apply_link_filter",
    "filter_network",
    "filtered_bell_diagonal",
]

# A post-selection probability at or below this is treated as annihilation.
ANNIHILATION_ATOL = 1e-12


class FilterAnnihilatesState(ValueError):
    """Filtering left (numerically) no success branch to normalise."""


def _check_eps(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class NetworkFilterSpec:
    """Per-party filter strengths for an n-link chain.

    ``middle`` holds one (eps_on_link_j, eps_on_link_j+1) pair per intermediate
    party, ordered along the chain, n-1 in all; every strength is stored as a float in [0, 1].
    """

    eps_first: float = 1.0
    eps_last: float = 1.0
    middle: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_first", _check_eps("eps_first", self.eps_first))
        object.__setattr__(self, "eps_last", _check_eps("eps_last", self.eps_last))
        try:
            pairs = tuple(self.middle)
        except TypeError:
            raise ValueError(f"middle must be a sequence of strength pairs, got {self.middle!r}") from None
        normalised = []
        for i, pair in enumerate(pairs):
            try:
                eps1, eps2 = pair
            except (TypeError, ValueError):
                raise ValueError(f"middle[{i}] must be a pair of two strengths, got {pair!r}") from None
            normalised.append((_check_eps(f"middle[{i}][0]", eps1), _check_eps(f"middle[{i}][1]", eps2)))
        object.__setattr__(self, "middle", tuple(normalised))

    @classmethod
    def identity(cls, n_links: int) -> "NetworkFilterSpec":
        """All-ones assignment for a chain of ``n_links`` links."""
        return cls(middle=((1.0, 1.0),) * (n_links - 1))

    @classmethod
    def _checked(cls, flat: list[float]) -> "NetworkFilterSpec":
        """The spec of ``_flat_strengths`` that are floats in [0, 1] already: nothing is checked again."""
        spec = object.__new__(cls)
        spec.__dict__.update(eps_first=flat[0], eps_last=flat[-1], middle=tuple(zip(flat[1:-1:2], flat[2:-1:2])))
        return spec

    @property
    def _flat_strengths(self) -> tuple[float, ...]:
        """(eps_first, *middle pairs, eps_last): entries 2j and 2j+1 are link j's strengths (left, right)."""
        return (self.eps_first, *itertools.chain.from_iterable(self.middle), self.eps_last)

    @functools.cached_property
    def _strengths(self) -> np.ndarray:
        """The read-only ``(n, 2)`` strengths (left, right) of the links, built once."""
        eps = np.array(self._flat_strengths).reshape(-1, 2)
        eps.flags.writeable = False
        return eps


def _check_chain(n_links: int, spec: NetworkFilterSpec | None = None) -> None:
    """Raise ValueError unless the chain has at least 2 links and ``spec`` (if given) one pair per middle party."""
    if n_links < 2:
        raise ValueError(f"a chain needs at least 2 links, got {n_links}")
    if spec is not None and len(spec.middle) != n_links - 1:
        raise ValueError(
            f"expected {n_links - 1} intermediate filter pairs for {n_links} links, got {len(spec.middle)}"
        )


def _check_success(success: float, where: str = "") -> float:
    """Return a success probability; FilterAnnihilatesState, after ``where``, at or below ANNIHILATION_ATOL."""
    if success <= ANNIHILATION_ATOL:
        raise FilterAnnihilatesState(
            f"{where}post-selection success probability {success:.3e} is at or below {ANNIHILATION_ATOL:.0e}"
        )
    return success


def _rescale(links: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(..., 4, 4)`` links conjugated by F_L @ F_R for ``(..., 2)`` strengths (left, right), and their traces."""
    # F_L @ F_R = diag(eps_l * eps_r, eps_l, eps_r, 1), so conjugation is an elementwise rescale.
    diag = np.ones((*eps.shape[:-1], 4))
    diag[..., 0] = eps[..., 0] * eps[..., 1]
    diag[..., 1:3] = eps
    scaled = links * (diag[..., :, None] * diag[..., None, :])
    return scaled, scaled.trace(axis1=-2, axis2=-1).real


def apply_link_filter(rho: np.ndarray, eps_left: float, eps_right: float) -> tuple[np.ndarray, float]:
    """Filter one link and post-select on joint success; returns the state and its success probability.

    ``rho`` must be a density matrix (``NetworkSpec`` validates the links).  The
    identity filter returns it unchanged with success probability exactly 1; any
    other output is validated, since renormalising scales a rounding-level
    negative eigenvalue of ``rho`` by up to 1/success.  Raises
    FilterAnnihilatesState when the success probability falls at or below 1e-12.
    """
    eps_l = _check_eps("eps_left", eps_left)
    eps_r = _check_eps("eps_right", eps_right)
    if eps_l == 1.0 and eps_r == 1.0:
        return rho, 1.0
    scaled, success = _rescale(np.asarray(rho, dtype=complex), np.array([eps_l, eps_r]))
    success = _check_success(float(success))
    return validate_density(scaled / success), success


def _filter_chains(chains: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter a ``(..., n, 4, 4)`` stack of chains with ``(..., n, 2)`` strengths (left, right).

    Returns the links, their successes and the mask of chains with no annihilated link.  An identity
    link passes unchanged with success exactly 1; the other links before their chain's first annihilated
    one are normalised and validated in one call, which names the first failing link in C order
    (``link k: filtered state has``).  From a chain's first annihilated link on, links stay unnormalised.
    """
    filtered = np.array(chains, dtype=complex)
    success = np.ones(eps.shape[:-1])
    active = (eps != 1.0).any(axis=-1)
    filtered[active], success[active] = _rescale(filtered[active], eps[active])
    before_dead = np.logical_and.accumulate(~(success <= ANNIHILATION_ATOL), axis=-1)  # NaN is not annihilation
    checked = before_dead & active
    outputs = filtered[checked] / success[checked][:, None, None]
    try:
        filtered[checked] = validate_density(outputs)
    except ValueError:
        (position,), error = _first_failure(outputs)
        raise type(error)(f"link {np.argwhere(checked)[position][-1] + 1}: filtered state has {error}") from None
    return filtered, success, before_dead[..., -1]


def filter_network(states: np.ndarray | list[np.ndarray], spec: NetworkFilterSpec) -> tuple[np.ndarray, float]:
    """Filter every link of a chain; returns the ``(n, 4, 4)`` filtered links and the overall success.

    Link j takes entries 2j and 2j+1 of (eps_first, *middle pairs, eps_last).  The
    overall success probability is the product of the per-link traces.  The chain
    is filtered by ``_filter_chains``, and the error names the first link (1-based)
    that annihilates or whose filtered state fails validation (``link k: filtered state has``).
    """
    _check_chain(len(states), spec)
    filtered, success, alive = _filter_chains(states, spec._strengths)
    if not alive:
        dead = np.flatnonzero(success <= ANNIHILATION_ATOL)[0]
        _check_success(success[dead], f"link {dead + 1}: ")  # raises
    return filtered, math.prod(success.tolist())


def filtered_bell_diagonal(
    w: np.ndarray, eps_left: float, eps_right: float
) -> tuple[np.ndarray, float]:
    """Closed form for filtering a state with null Bloch vectors.

    For rho with a = b = 0 and diagonal correlation tensor diag(w1, w2, w3),
    filtering with (eps_left, eps_right) gives success probability c1/4 and
    diagonal correlation entries

        w1'' = 4 eL eR w1 / c1,
        w2'' = 4 eL eR w2 / c1,
        w3'' = ((1 - eL^2)(1 - eR^2) + w3 (1 + eL^2)(1 + eR^2)) / c1,

    with c1 = w3 (1 - eL^2)(1 - eR^2) + (1 + eL^2)(1 + eR^2).  The w3 entry is
    signed; at eps = 1 the state is unchanged.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("expected three diagonal correlation entries")
    eps_l = _check_eps("eps_left", eps_left)
    eps_r = _check_eps("eps_right", eps_right)
    w1, w2, w3 = w.tolist()
    c1 = _closed_form_c1(w3, eps_l, eps_r)
    success = _check_success(c1 / 4.0)
    return np.array(_closed_form_entries(w1, w2, w3, eps_l, eps_r, c1)), success


def _closed_form_c1(w3, eps_l, eps_r):
    """c1 of ``filtered_bell_diagonal``, unchecked, on floats or arrays."""
    return w3 * (1.0 - eps_l * eps_l) * (1.0 - eps_r * eps_r) + (1.0 + eps_l * eps_l) * (1.0 + eps_r * eps_r)


def _closed_form_entries(w1, w2, w3, eps_l, eps_r, c1) -> tuple:
    """The filtered entries (w1'', w2'', w3'') of ``filtered_bell_diagonal``, unchecked, on floats or arrays."""
    scale = 4.0 * eps_l * eps_r
    return (
        scale * w1 / c1,
        scale * w2 / c1,
        ((1.0 - eps_l * eps_l) * (1.0 - eps_r * eps_r) + w3 * (1.0 + eps_l * eps_l) * (1.0 + eps_r * eps_r)) / c1,
    )
