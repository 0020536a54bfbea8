"""n-local bounds and the chain inequality for linear two-qubit networks.

A chain of n links connects n+1 parties: the two end parties each hold one
qubit and measure a dichotomic spin observable chosen from two settings, and
every intermediate party holds two qubits belonging to adjacent links and
performs a Bell-basis measurement whose four outcomes are encoded as two bits
(the sigma_z@sigma_z and sigma_x@sigma_x parities).  The inequality is

    sqrt(|I|) + sqrt(|J|) <= 1,

where I and J average the end-to-end correlators over the end settings.  The
maximal quantum value over settings is the closed-form bound

    B = sqrt(prod_i t_i1 + prod_i t_i2)

built from the two largest correlation-tensor singular values t_i1 >= t_i2 of
every link i; b_lin evaluates it on the raw links and b_seq on the filtered
ones (hidden violation: b_lin <= 1 < b_seq).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import ID2, PAULIS, _bloch_form, bloch_decompose, canonical_frame, from_bloch, validate_density
from .filtering import (
    FilterAnnihilatesState,
    NetworkFilterSpec,
    apply_link_filter,
    filter_network,
    filtered_bell_diagonal,
)

__all__ = [
    "DimensionTooLarge",
    "NetworkSpec",
    "MeasurementSettings",
    "EvalResult",
    "OracleResult",
    "ConjectureReport",
    "b_lin",
    "b_seq",
    "evaluate",
    "lhs_at_settings",
    "maximize_lhs",
    "nelder_mead",
    "born_distribution",
    "born_oracle",
    "conjecture_search",
]

UNIT_ATOL = 1e-10


class DimensionTooLarge(ValueError):
    """Born-rule enumeration was requested for a chain that is too long."""


@dataclass(frozen=True)
class NetworkSpec:
    """A chain of link states plus the per-party filter strengths.

    ``links`` takes any sequence of 4x4 density matrices and holds them, validated,
    as a read-only ``(n, 4, 4)`` complex array.
    """

    links: np.ndarray
    filters: NetworkFilterSpec | None = None

    def __post_init__(self) -> None:
        links = [validate_density(link) for link in self.links]
        if len(links) < 2:
            raise ValueError(f"a chain needs at least 2 links, got {len(links)}")
        filters = self.filters
        if filters is None:
            filters = NetworkFilterSpec.identity(len(links))
        if len(filters.middle) != len(links) - 1:
            raise ValueError(
                f"expected {len(links) - 1} intermediate filter pairs for {len(links)} links, "
                f"got {len(filters.middle)}"
            )
        stacked = np.stack(links)
        stacked.flags.writeable = False
        object.__setattr__(self, "links", stacked)
        object.__setattr__(self, "filters", filters)

    @property
    def n(self) -> int:
        return len(self.links)


def _unit_vector(name: str, vec: np.ndarray) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} is not finite, got {arr}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_ATOL:
        raise ValueError(f"{name} must be a unit vector, got norm {norm}")
    return arr


@dataclass(frozen=True)
class MeasurementSettings:
    """End-party observable directions: A1 measures m0/m1, the last party n0/n1."""

    m0: np.ndarray
    m1: np.ndarray
    n0: np.ndarray
    n1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("m0", "m1", "n0", "n1"):
            object.__setattr__(self, name, _unit_vector(name, getattr(self, name)))


@dataclass(frozen=True)
class EvalResult:
    """Bounds and post-selection data for one network configuration."""

    b_lin: float
    b_seq: float
    success_prob: float
    violation: bool
    lhs_at_settings: float | None = None


def _bound(tensors: np.ndarray | list[np.ndarray]) -> float:
    first = 1.0
    second = 1.0
    for svs in np.linalg.svd(tensors, compute_uv=False):
        first *= svs[0]
        second *= svs[1]
    return float(np.sqrt(first + second))


def _filtered_tensors(spec: NetworkSpec) -> tuple[np.ndarray, float]:
    filtered, success = filter_network(spec.links, spec.filters)
    return _bloch_form(filtered).W, success


def b_lin(links: np.ndarray | tuple[np.ndarray, ...] | list[np.ndarray]) -> float:
    """Closed-form n-local bound of the unfiltered chain; validates each link."""
    return _bound([bloch_decompose(link).W for link in links])


def b_seq(spec: NetworkSpec) -> tuple[float, float]:
    """Closed-form bound of the filtered chain and its overall success probability."""
    tensors, success = _filtered_tensors(spec)
    return _bound(tensors), success


def evaluate(spec: NetworkSpec, settings: MeasurementSettings | None = None) -> EvalResult:
    """Evaluate both bounds (and optionally the LHS at fixed settings)."""
    unfiltered = _bound(_bloch_form(spec.links).W)
    tensors, success = _filtered_tensors(spec)
    filtered = _bound(tensors)
    lhs = None
    if settings is not None:
        lhs = _lhs_core(tensors, settings.m0, settings.m1, settings.n0, settings.n1)
    return EvalResult(
        b_lin=unfiltered,
        b_seq=filtered,
        success_prob=success,
        violation=filtered > 1.0,
        lhs_at_settings=lhs,
    )


def _lhs_core(
    tensors: np.ndarray | list,
    m0: np.ndarray,
    m1: np.ndarray,
    n0: np.ndarray,
    n1: np.ndarray,
) -> float:
    # h = 0 pairs the summed end vectors with the z@z parity of every
    # intermediate party, h = 1 the differences with the x@x parity.
    # Scalar arithmetic: this sits in the optimizer's inner loop.
    first, last = tensors[0], tensors[-1]
    total = 0.0
    for h, axis in ((0, 2), (1, 0)):
        sign = 1.0 if h == 0 else -1.0
        value = (
            (m0[0] + sign * m1[0]) * first[0][axis]
            + (m0[1] + sign * m1[1]) * first[1][axis]
            + (m0[2] + sign * m1[2]) * first[2][axis]
        )
        for w in tensors[1:-1]:
            value *= w[axis][axis]
        value *= (
            last[axis][0] * (n0[0] + sign * n1[0])
            + last[axis][1] * (n0[1] + sign * n1[1])
            + last[axis][2] * (n0[2] + sign * n1[2])
        )
        total += math.sqrt(abs(value))
    return 0.5 * total


def lhs_at_settings(spec: NetworkSpec, settings: MeasurementSettings) -> float:
    """sqrt(|I|) + sqrt(|J|) at fixed end-party settings, on the filtered chain.

    Works in the lab frame of the supplied states (no canonicalisation), so
    the result matches the Born-rule oracle for the same settings.
    """
    return _lhs_core(_filtered_tensors(spec)[0], settings.m0, settings.m1, settings.n0, settings.n1)


def _angles_to_vectors(angles) -> tuple[tuple[float, float, float], ...]:
    vectors = []
    for k in range(4):
        theta, phi = angles[2 * k], angles[2 * k + 1]
        sin_theta = math.sin(theta)
        vectors.append((sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta)))
    return tuple(vectors)


def maximize_lhs(
    spec: NetworkSpec, seed: int = 0, restarts: int = 16
) -> tuple[float, MeasurementSettings]:
    """Maximise the inequality LHS over the four end-party directions.

    The chain is first rotated link by link into the canonical frame (which
    leaves the maximum invariant); the returned settings therefore apply to
    the canonicalised network.  Nelder--Mead is run from a deterministic warm
    start at the closed-form optimum plus ``restarts`` seeded random starts,
    and the best value wins (earliest start on ties).
    """
    filtered, _ = filter_network(spec.links, spec.filters)
    tensors = []
    for link in filtered:
        _, form = canonical_frame(link)
        tensors.append(tuple(tuple(float(e) for e in row) for row in form.W))

    def negative_lhs(angles: np.ndarray) -> float:
        m0, m1, n0, n1 = _angles_to_vectors(angles)
        return -_lhs_core(tensors, m0, m1, n0, n1)

    # Closed-form optimum: mix axis 3 and axis 1 with tan(alpha) =
    # sqrt(prod t2 / prod t1) at both ends.
    prod_t1 = float(np.prod([w[2][2] for w in tensors]))
    prod_t2 = float(np.prod([w[0][0] for w in tensors]))
    alpha = float(np.arctan2(np.sqrt(abs(prod_t2)), np.sqrt(abs(prod_t1))))
    warm = np.array([alpha, 0.0, alpha, np.pi, alpha, 0.0, alpha, np.pi])

    rng = np.random.default_rng(seed)
    starts = [warm]
    for _ in range(restarts):
        thetas = rng.uniform(0.0, np.pi, size=4)
        phis = rng.uniform(-np.pi, np.pi, size=4)
        starts.append(np.column_stack([thetas, phis]).reshape(-1))

    lowest, best_angles = nelder_mead(negative_lhs, starts, None)
    m0, m1, n0, n1 = _angles_to_vectors(best_angles)
    return float(-lowest), MeasurementSettings(m0=m0, m1=m1, n0=n0, n1=n1)


def nelder_mead(objective, starts, bounds) -> tuple[float, np.ndarray]:
    """Minimise ``objective`` by Nelder--Mead from every start and keep the best.

    ``bounds`` is a list of (lo, hi) pairs or None.  Returns the lowest value
    and its argument; the strict comparison keeps the earliest start on ties.
    """
    lowest = np.inf
    best_x = starts[0]
    for x0 in starts:
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000},
        )
        if result.fun < lowest:
            lowest = result.fun
            best_x = result.x
    return lowest, best_x


# ---------------------------------------------------------------------------
# Born-rule oracle
# ---------------------------------------------------------------------------

_BELL_VECTORS = (
    np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),   # phi+ -> bits (0, 0)
    np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),  # phi- -> bits (0, 1)
    np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),   # psi+ -> bits (1, 0)
    np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),  # psi- -> bits (1, 1)
)
# Outcome bits of the Bell measurement: first bit is the z@z parity,
# second bit the x@x parity.
BELL_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))

# _BELL_TENSORS[m, b, a, b', a']: projector m on the pair an intermediate party
# holds, b from the link on its left and a from the link on its right.
_BELL_TENSORS = np.array([np.outer(vec, vec.conj()) for vec in _BELL_VECTORS], dtype=complex).reshape(4, 2, 2, 2, 2)


def _spin_projectors(direction: np.ndarray) -> np.ndarray:
    """Projectors onto outcome 0 (spin +1) and 1 (spin -1) along ``direction``, as a (2, 2, 2) stack."""
    observable = sum(direction[i] * PAULIS[i] for i in range(3))
    return np.stack([0.5 * (ID2 + observable), 0.5 * (ID2 - observable)])


def _link_tensors(spec: NetworkSpec) -> np.ndarray:
    """The filtered links as ``rho[k, a, b, a', b']`` over each link's two qubits; at most 3 links."""
    if spec.n > 3:
        raise DimensionTooLarge(f"Born-rule enumeration supports at most 3 links, got n = {spec.n}")
    filtered, _ = filter_network(spec.links, spec.filters)
    return filtered.reshape(-1, 2, 2, 2, 2)


def _distribution(
    links: np.ndarray, settings: MeasurementSettings, y_first: int, y_last: int
) -> np.ndarray:
    """``p[o_first, bell_2, ..., bell_n, o_last]``, the Born rule traced link by link.

    ``partial[..., b, b']`` has every qubit traced out up to the latest link's right one.
    """
    first = _spin_projectors(settings.m0 if y_first == 0 else settings.m1)
    last = _spin_projectors(settings.n0 if y_last == 0 else settings.n1)
    partial = np.einsum("oxa,abxc->obc", first, links[0])
    for link in links[1:]:
        partial = np.einsum("...bc,mcybz,zdye->...mde", partial, _BELL_TENSORS, link)
    return np.einsum("...bc,ocb->...o", partial, last).real


def born_distribution(
    spec: NetworkSpec, settings: MeasurementSettings, y_first: int, y_last: int
) -> dict[tuple[int, ...], float]:
    """Joint outcome distribution for one choice of end settings.

    Keys are (o_first, bell_2, ..., bell_n, o_last) with bell outcomes in
    0..3 indexed per BELL_BITS.  Only chains with at most 3 links are
    enumerated (the number of outcomes grows as 4^n).
    """
    links = _link_tensors(spec)
    if y_first not in (0, 1) or y_last not in (0, 1):
        raise ValueError("settings choices must be 0 or 1")
    return {outcome: float(p) for outcome, p in np.ndenumerate(_distribution(links, settings, y_first, y_last))}


@dataclass(frozen=True)
class OracleResult:
    """Born-rule evaluation of the inequality at fixed settings."""

    i_value: float
    j_value: float
    lhs: float
    max_distribution_dev: float  # largest |sum of outcome probabilities - 1|


def _parity_signs(n: int, bit: int) -> np.ndarray:
    """(-1)^parity over the outcome axes of ``_distribution``; a Bell outcome adds its ``bit``."""
    signs = np.array([1.0, -1.0])
    for _ in range(n - 1):
        signs = np.multiply.outer(signs, [(-1.0) ** bits[bit] for bits in BELL_BITS])
    return np.multiply.outer(signs, [1.0, -1.0])


def born_oracle(spec: NetworkSpec, settings: MeasurementSettings) -> OracleResult:
    """Evaluate I, J and the LHS by direct outcome enumeration.

    Independent of the closed-form path: probabilities come from projector
    traces on the filtered link states, the middle parities from the Bell outcome
    bits.  Serves as the ground truth for lhs_at_settings.  The chain is filtered
    once for all four setting pairs.
    """
    links = _link_tensors(spec)
    sign_zz, sign_xx = _parity_signs(spec.n, 0), _parity_signs(spec.n, 1)
    i_value = 0.0
    j_value = 0.0
    max_dev = 0.0
    for y_first, y_last in itertools.product((0, 1), repeat=2):
        distribution = _distribution(links, settings, y_first, y_last)
        max_dev = max(max_dev, abs(float(distribution.sum()) - 1.0))
        i_value += float((sign_zz * distribution).sum())
        j_value += (-1.0) ** (y_first + y_last) * float((sign_xx * distribution).sum())
    i_value /= 4.0
    j_value /= 4.0
    lhs = float(np.sqrt(abs(i_value)) + np.sqrt(abs(j_value)))
    return OracleResult(i_value=i_value, j_value=j_value, lhs=lhs, max_distribution_dev=max_dev)


# ---------------------------------------------------------------------------
# Randomised search for counterexamples to "no hidden violation without
# entanglement advantage": filtered pairs with null Bloch vectors and
# b_lin <= 1 should never exceed 1 after filtering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureReport:
    """Summary of a randomised bilocal filtering search."""

    trials: int
    seed: int
    max_b_seq: float
    max_b_lin: float
    max_closed_form_dev: float
    rejected: int  # drawn pairs with b_lin > 1
    annihilated: int  # filter draws that annihilated a link


def _random_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    # Rejection sampling inside the tetrahedron of physical diagonal
    # correlation tensors (the four Bell-basis eigenvalues must be >= 0).
    while True:
        w = rng.uniform(-1.0, 1.0, size=3)
        eigs = (
            1.0 + w[0] - w[1] + w[2],
            1.0 - w[0] + w[1] + w[2],
            1.0 + w[0] + w[1] - w[2],
            1.0 - w[0] - w[1] - w[2],
        )
        if min(eigs) >= 0.0:
            return w


def _random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    from .core import SIGMA_X, SIGMA_Y, SIGMA_Z

    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    return quat[0] * ID2 - 1.0j * (quat[1] * SIGMA_X + quat[2] * SIGMA_Y + quat[3] * SIGMA_Z)


def conjecture_search(trials: int, seed: int = 0) -> ConjectureReport:
    """Random bilocal pairs with b_lin <= 1: filter them and track max b_seq.

    Each trial samples two states with null Bloch vectors (random diagonal
    correlation tensors rotated by random local unitaries), rejects pairs
    with b_lin > 1, applies random filters, and evaluates b_seq through the
    full pipeline.  The closed-form filtered correlation entries are checked
    against direct filtering on every trial; the report carries the largest
    deviation seen and counts the rejected pairs and the annihilating filter draws.
    """
    rng = np.random.default_rng(seed)
    zeros = np.zeros(3)
    max_b_seq = 0.0
    max_b_lin = 0.0
    max_dev = 0.0
    done = 0
    rejected = 0
    annihilated = 0
    while done < trials:
        w_pair = (_random_bell_diagonal(rng), _random_bell_diagonal(rng))
        svs = [np.sort(np.abs(w))[::-1] for w in w_pair]
        blin = float(np.sqrt(svs[0][0] * svs[1][0] + svs[0][1] * svs[1][1]))
        if blin > 1.0:
            rejected += 1
            continue
        eps = rng.uniform(size=(2, 2))
        try:
            links = []
            for w, (eps_l, eps_r) in zip(w_pair, eps):
                aligned = from_bloch(zeros, zeros, np.diag(w))
                closed_w, closed_success = filtered_bell_diagonal(w, eps_l, eps_r)
                direct, direct_success = apply_link_filter(aligned, eps_l, eps_r)
                max_dev = max(
                    max_dev,
                    float(np.max(np.abs(_bloch_form(direct).W - np.diag(closed_w)))),
                    abs(direct_success - closed_success),
                )
                u_left = _random_local_unitary(rng)
                u_right = _random_local_unitary(rng)
                local = np.kron(u_left, u_right)
                links.append(local @ aligned @ local.conj().T)
            spec = NetworkSpec(
                links=tuple(links),
                filters=NetworkFilterSpec(
                    eps_first=eps[0][0],
                    eps_last=eps[1][1],
                    middle=((eps[0][1], eps[1][0]),),
                ),
            )
            filtered_bound, _ = b_seq(spec)
        except FilterAnnihilatesState:
            annihilated += 1
            continue
        max_b_seq = max(max_b_seq, filtered_bound)
        max_b_lin = max(max_b_lin, blin)
        done += 1
    return ConjectureReport(
        trials=trials,
        seed=seed,
        max_b_seq=max_b_seq,
        max_b_lin=max_b_lin,
        max_closed_form_dev=max_dev,
        rejected=rejected,
        annihilated=annihilated,
    )
