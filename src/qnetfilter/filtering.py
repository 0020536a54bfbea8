"""Local filtering of link states.

Each party may apply the diagonal filter F(eps) = diag(eps, 1) to a qubit it
holds; keeping only the "success" branch maps a link state rho to

    rho'' = (F_L @ F_R) rho (F_L @ F_R)+ / trace,

where the trace is the post-selection success probability of that link.  For
an n-link chain the first and last party hold one qubit each while every
intermediate party holds two qubits belonging to adjacent links, so a network
filter assignment is (eps_first, eps_last) plus one (eps1, eps2) pair per
intermediate party.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NotPositive, validate_density

__all__ = [
    "FilterAnnihilatesState",
    "LinkFilter",
    "NetworkFilterSpec",
    "FilteredLink",
    "filter_operator",
    "apply_link_filter",
    "assign_network_filters",
    "filter_network",
    "filtered_bell_diagonal",
]

# A post-selection probability at or below this is treated as annihilation.
ANNIHILATION_ATOL = 1e-12


class FilterAnnihilatesState(ValueError):
    """Filtering left (numerically) no success branch to normalise."""


def _check_eps(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def filter_operator(eps: float) -> np.ndarray:
    """Single-qubit filter diag(eps, 1); eps = 1 is the identity."""
    return np.diag([complex(_check_eps("eps", eps)), 1.0 + 0.0j])


@dataclass(frozen=True)
class LinkFilter:
    """Filter strengths applied to the left and right qubit of one link."""

    epsL: float
    epsR: float

    def __post_init__(self) -> None:
        _check_eps("epsL", self.epsL)
        _check_eps("epsR", self.epsR)

    @property
    def is_identity(self) -> bool:
        return self.epsL == 1.0 and self.epsR == 1.0


@dataclass(frozen=True)
class NetworkFilterSpec:
    """Per-party filter strengths for an n-link chain.

    ``middle`` holds one (eps_on_link_j, eps_on_link_j+1) pair per
    intermediate party, ordered along the chain; it must have n-1 entries.
    """

    eps_first: float = 1.0
    eps_last: float = 1.0
    middle: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        _check_eps("eps_first", self.eps_first)
        _check_eps("eps_last", self.eps_last)
        normalised = tuple(
            (_check_eps(f"middle[{i}][0]", pair[0]), _check_eps(f"middle[{i}][1]", pair[1]))
            for i, pair in enumerate(self.middle)
        )
        object.__setattr__(self, "middle", normalised)

    @classmethod
    def identity(cls, n_links: int) -> "NetworkFilterSpec":
        """All-ones assignment for a chain of ``n_links`` links."""
        return cls(middle=((1.0, 1.0),) * (n_links - 1))


@dataclass(frozen=True)
class FilteredLink:
    """Normalised post-filter state together with its success probability."""

    state: np.ndarray
    success_prob: float


def apply_link_filter(rho: np.ndarray, link_filter: LinkFilter) -> FilteredLink:
    """Filter one link and post-select on joint success.

    ``rho`` must be a density matrix (``NetworkSpec`` validates the links).  The
    identity filter returns it unchanged with success probability exactly 1; any
    other output is validated, since renormalising scales a rounding-level
    negative eigenvalue of ``rho`` by up to 1/success.  Raises
    FilterAnnihilatesState when the success probability falls at or below 1e-12.
    """
    if link_filter.is_identity:
        return FilteredLink(state=rho, success_prob=1.0)
    eps_l = link_filter.epsL
    eps_r = link_filter.epsR
    # (F_L @ F_R) is diagonal, so conjugation is an elementwise rescale.
    diag = np.array([eps_l * eps_r, eps_l, eps_r, 1.0])
    scaled = np.asarray(rho, dtype=complex) * np.outer(diag, diag)
    success = float(np.real(np.trace(scaled)))
    if success <= ANNIHILATION_ATOL:
        raise FilterAnnihilatesState(
            f"post-selection success probability {success:.3e} is at or below {ANNIHILATION_ATOL:.0e}"
        )
    return FilteredLink(state=validate_density(scaled / success), success_prob=success)


def assign_network_filters(n_links: int, spec: NetworkFilterSpec) -> list[LinkFilter]:
    """Distribute per-party filter strengths onto the n links of a chain."""
    if n_links < 2:
        raise ValueError(f"a chain needs at least 2 links, got {n_links}")
    if len(spec.middle) != n_links - 1:
        raise ValueError(
            f"expected {n_links - 1} intermediate filter pairs for {n_links} links, got {len(spec.middle)}"
        )
    filters = [LinkFilter(spec.eps_first, spec.middle[0][0])]
    for j in range(1, n_links - 1):
        filters.append(LinkFilter(spec.middle[j - 1][1], spec.middle[j][0]))
    filters.append(LinkFilter(spec.middle[-1][1], spec.eps_last))
    return filters


def filter_network(
    states: list[np.ndarray] | tuple[np.ndarray, ...], spec: NetworkFilterSpec
) -> tuple[list[FilteredLink], float]:
    """Filter every link of a chain; returns the links and overall success.

    The overall success probability is the product of the per-link traces.
    Annihilation and positivity errors are re-raised with the 1-based link index.
    """
    filters = assign_network_filters(len(states), spec)
    filtered: list[FilteredLink] = []
    overall = 1.0
    for index, (rho, link_filter) in enumerate(zip(states, filters), start=1):
        try:
            link = apply_link_filter(rho, link_filter)
        except FilterAnnihilatesState as exc:
            raise FilterAnnihilatesState(f"link {index}: {exc}") from None
        except NotPositive as exc:
            raise NotPositive(f"link {index}: filtered state has {exc}") from None
        filtered.append(link)
        overall *= link.success_prob
    return filtered, overall


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
    shrink_l = 1.0 - eps_l * eps_l
    shrink_r = 1.0 - eps_r * eps_r
    grow_l = 1.0 + eps_l * eps_l
    grow_r = 1.0 + eps_r * eps_r
    c1 = w[2] * shrink_l * shrink_r + grow_l * grow_r
    success = c1 / 4.0
    if success <= ANNIHILATION_ATOL:
        raise FilterAnnihilatesState(
            f"post-selection success probability {success:.3e} is at or below {ANNIHILATION_ATOL:.0e}"
        )
    filtered = np.array(
        [
            4.0 * eps_l * eps_r * w[0] / c1,
            4.0 * eps_l * eps_r * w[1] / c1,
            (shrink_l * shrink_r + w[2] * grow_l * grow_r) / c1,
        ]
    )
    return filtered, success
