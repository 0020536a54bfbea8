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

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    ID2,
    PAULIS,
    _bloch_form,
    _first_failure,
    _quaternion_unitary,
    bloch_decompose,
    from_bloch,
    validate_density,
)
from . import filtering
from .filtering import (
    FilterAnnihilatesState,
    NetworkFilterSpec,
    _check_chain,
    _closed_form_c1,
    _closed_form_entries,
    _filter_chains,
    apply_link_filter,
    filter_network,
    filtered_bell_diagonal,
)
from .solvers import minimize

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
ORACLE_MAX_LINKS = 6  # the longest chain the Born-rule oracle enumerates
# Chains per stacked pass: the trials of a conjecture_search batch, the points of a grid chunk.
# It bounds the memory of a long search or a large grid.
_STACK_SIZE = 1024


class DimensionTooLarge(ValueError):
    """Born-rule enumeration was requested for a chain that is too long."""


@dataclass(frozen=True)
class NetworkSpec:
    """A chain of link states plus the per-party filter strengths.

    ``links`` takes any sequence of 4x4 density matrices and holds them, validated
    in one pass that names the first bad link, as a read-only ``(n, 4, 4)`` complex array.
    Building a spec never filters: the chain is filtered once, on first use, or with the
    other chains of a grid chunk by ``_bound_chains``.  A spec derived for other filters
    shares the validated links and their unfiltered bound.
    """

    links: np.ndarray
    filters: NetworkFilterSpec | None = None

    def __post_init__(self) -> None:
        # Validate the links before the first one that is not a 4x4 matrix as one stack, then reject that one.
        n_matrices = next((k for k, link in enumerate(self.links) if np.shape(link) != (4, 4)), len(self.links))
        links = validate_density(np.array(self.links[:n_matrices], dtype=complex).reshape(-1, 4, 4))
        if n_matrices < len(self.links):
            raise ValueError(f"expected a 4x4 matrix, got shape {np.shape(self.links[n_matrices])}")
        filters = NetworkFilterSpec.identity(len(links)) if self.filters is None else self.filters
        _check_chain(len(links), filters)
        links.flags.writeable = False
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "filters", filters)

    @property
    def n(self) -> int:
        return len(self.links)

    @classmethod
    def _trusted(cls, links: np.ndarray, filters: NetworkFilterSpec) -> NetworkSpec:
        """The spec of read-only links validated elsewhere, under filters that fit them: nothing is checked again."""
        spec = object.__new__(cls)  # skips __post_init__, which would validate the links
        spec.__dict__.update(links=links, filters=filters)
        return spec

    def _with_filters(self, filters: NetworkFilterSpec) -> NetworkSpec:
        """This chain under ``filters``: the links are not validated again, and a computed unfiltered bound is kept."""
        _check_chain(self.n, filters)
        derived = self._trusted(self.links, filters)
        if "_unfiltered" in self.__dict__:
            derived.__dict__["_unfiltered"] = self._unfiltered
        return derived

    @functools.cached_property
    def _unfiltered(self) -> float:
        """The raw chain's bound; a decomposition error raises on every use."""
        return _bound(_bloch_form(self.links).W)

    @functools.cached_property
    def _filtered(self) -> tuple[np.ndarray, float]:
        """The read-only ``(n, 4, 4)`` filtered links and the overall success; a failure raises on every use."""
        filtered, success = filter_network(self.links, self.filters)
        filtered.flags.writeable = False
        return filtered, success

    @functools.cached_property
    def _filtered_bound(self) -> float:
        """The filtered chain's bound; a filter or decomposition error raises on every use."""
        return _bound(_bloch_form(self._filtered[0]).W)


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


def _bound(tensors: np.ndarray | list[np.ndarray]) -> float | np.ndarray:
    """sqrt(prod t1 + prod t2) of a chain's ``(n, 3, 3)`` correlation tensors, multiplied link by link.

    A ``(t, n, 3, 3)`` stack of t chains gives an array of t bounds.
    """
    first = 1.0
    second = 1.0
    # Transposed, the singular values come first and the links second.
    svs = np.linalg.svd(tensors, compute_uv=False).T
    for t1, t2 in zip(svs[0], svs[1]):
        first *= t1
        second *= t2
    return math.sqrt(first + second) if svs.ndim == 2 else np.sqrt(first + second)


def b_lin(links: np.ndarray | tuple[np.ndarray, ...] | list[np.ndarray]) -> float:
    """Closed-form n-local bound of the unfiltered chain of at least 2 links; validates the chain as one stack."""
    _check_chain(len(links))
    stack = np.asarray(links, dtype=complex)
    if stack.shape[1:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {stack.shape[1:]}")
    return _bound(bloch_decompose(stack).W)


def b_seq(spec: NetworkSpec) -> tuple[float, float]:
    """Closed-form bound of the filtered chain and its overall success probability."""
    return spec._filtered_bound, spec._filtered[1]


def _validate_chains(chains: np.ndarray) -> tuple[int, ValueError | None]:
    """Validate a complex ``(k, n, 4, 4)`` stack of chains in one pass, each as ``NetworkSpec`` validates its links.

    Returns the number of chains before the first invalid one and that chain's error, or ``(k, None)``.
    """
    try:
        validate_density(chains)
    except ValueError:
        (chain, _), error = _first_failure(chains)
        return chain, error
    return len(chains), None


def _bound_chains(specs: list[NetworkSpec], strengths: np.ndarray) -> None:
    """Filter and bound the chains of ``specs``, all of one length, as one stack, and keep the results on each spec.

    ``strengths`` holds the specs' ``(m, n, 2)`` filter strengths, row by row.

    One ``_bound`` for the distinct raw chains (the specs of one state set share its links array), one
    ``_filter_chains`` and one ``_bound`` for the chains that survive, with the arithmetic of
    ``_unfiltered``, ``_filtered`` and ``_filtered_bound`` on one spec, so every float is theirs to the
    bit.  A spec whose chain annihilates keeps only its raw bound: its own filtering raises the
    annihilation on use.  When any step raises, no spec keeps anything, and each one computes, and
    raises, its own results on use, in the order its caller asks for them.
    """
    distinct = {id(spec.links): spec.links for spec in specs}  # each links array once, by identity
    rows = {key: row for row, key in enumerate(distinct)}
    index = [rows[id(spec.links)] for spec in specs]
    try:
        unique = np.stack(list(distinct.values()))
        raw = _bound(_bloch_form(unique).W).tolist()
        filtered, success, alive = _filter_chains(unique[index], strengths)
        bounds = iter(_bound(_bloch_form(filtered[alive]).W).tolist())
    except ValueError:
        return
    filtered.flags.writeable = False
    for spec, row, chain, successes, survives in zip(specs, index, filtered, success.tolist(), alive):
        spec.__dict__["_unfiltered"] = raw[row]
        if survives:
            spec.__dict__.update(_filtered=(chain, math.prod(successes)), _filtered_bound=next(bounds))


def evaluate(spec: NetworkSpec) -> EvalResult:
    """Both bounds, the success probability and the violation flag: the raw chain's bound, then ``b_seq``."""
    unfiltered = spec._unfiltered  # before filtering: its decomposition error comes first
    bound, success = b_seq(spec)
    return EvalResult(b_lin=unfiltered, b_seq=bound, success_prob=success, violation=bound > 1.0)


def _lhs_product(
    first_z: float, middle_z: tuple | list, last_z: float, first_x: float, middle_x: tuple | list, last_x: float
) -> float:
    """The LHS from each parity's end projections and the middle links' diagonal entries.

    Each parity's product runs from its first projection through the middle entries, in
    chain order, to its last projection.  The one definition of the LHS: ``_lhs_core``
    feeds it any chain's projections and ``maximize_lhs``'s objective its own.
    """
    total = 0.0
    for value, middle, last in ((first_z, middle_z, last_z), (first_x, middle_x, last_x)):
        for entry in middle:
            value *= entry
        value *= last
        total += math.sqrt(abs(value))
    return 0.5 * total


def _lhs_core(
    tensors: np.ndarray | list,
    m0: np.ndarray,
    m1: np.ndarray,
    n0: np.ndarray,
    n1: np.ndarray,
) -> float:
    # h = 0 pairs the summed end vectors with the z@z parity of every
    # intermediate party, h = 1 the differences with the x@x parity.
    # lhs_at_settings projects its lab-frame end vectors here; the products are _lhs_product's.
    first, last, middle = tensors[0], tensors[-1], tensors[1:-1]
    factors = []
    for h, axis in ((0, 2), (1, 0)):
        sign = 1.0 if h == 0 else -1.0
        factors += [
            (m0[0] + sign * m1[0]) * first[0][axis]
            + (m0[1] + sign * m1[1]) * first[1][axis]
            + (m0[2] + sign * m1[2]) * first[2][axis],
            [w[axis][axis] for w in middle],
            last[axis][0] * (n0[0] + sign * n1[0])
            + last[axis][1] * (n0[1] + sign * n1[1])
            + last[axis][2] * (n0[2] + sign * n1[2]),
        ]
    return _lhs_product(*factors)


def lhs_at_settings(spec: NetworkSpec, settings: MeasurementSettings) -> float:
    """sqrt(|I|) + sqrt(|J|) at fixed end-party settings, on the filtered chain.

    Works in the lab frame of the supplied states (no canonicalisation), so
    the result matches the Born-rule oracle for the same settings.
    """
    return _lhs_core(_bloch_form(spec._filtered[0]).W, settings.m0, settings.m1, settings.n0, settings.n1)


def _non_negative_int(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a non-negative integer (bool excluded)."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return number


def maximize_lhs(
    spec: NetworkSpec, seed: int = 0, restarts: int = 16
) -> tuple[float, MeasurementSettings]:
    """Maximise the inequality LHS over the four end-party directions.

    The LHS runs on each filtered link's tensor in the canonical frame,
    diag(t2, t3, t1) up to the sign of t3 (which leaves the maximum invariant);
    the returned settings therefore apply to the chain rotated by
    ``canonical_frame``.  The LHS never reads the t3 entry, so t1 and t2 come
    from one SVD of the filtered stack.

    The LHS reads each end pair only through the z component of its sum and the
    x component of its difference, and grows with the size of both.  The sum and
    the difference of two unit vectors are orthogonal, with squared lengths
    adding to 4, so the xz-plane pair with the sum on z and the difference on x
    matches any pair in their lengths: a y component cannot raise the LHS.  So
    each end vector is searched as one angle ``a``, ``(sin a, 0, cos a)``, in the
    xz plane of the canonical frame.  Nelder--Mead is run over the four angles
    from a deterministic warm start at the closed-form optimum plus ``restarts``
    seeded random starts, and the best value wins (earliest start on ties).
    ``seed`` and ``restarts`` must be non-negative integers.
    """
    seed = _non_negative_int("seed", seed)
    restarts = _non_negative_int("restarts", restarts)
    t1, t2, _ = zip(*np.linalg.svd(_bloch_form(spec._filtered[0]).W, compute_uv=False).tolist())
    middle_t1, middle_t2 = t1[1:-1], t2[1:-1]
    cos, sin = math.cos, math.sin

    def negative_lhs(angles: list[float]) -> float:
        # _lhs_core on the tensors diag(t2, 0, t1) and the end vectors (sin a, 0, cos a): each
        # end projection is one product, as its other two terms are zeros (whose sign abs drops).
        a0, a1, b0, b1 = angles
        return -_lhs_product(
            (cos(a0) + cos(a1)) * t1[0], middle_t1, t1[-1] * (cos(b0) + cos(b1)),
            (sin(a0) - sin(a1)) * t2[0], middle_t2, t2[-1] * (sin(b0) - sin(b1)),
        )

    # Closed-form optimum: mix axis 3 and axis 1 with tan(alpha) =
    # sqrt(prod t2 / prod t1) at both ends, +alpha for m0 and n0, -alpha for m1 and n1.
    prod_t1 = float(np.prod(t1))
    prod_t2 = float(np.prod(t2))
    alpha = float(np.arctan2(np.sqrt(prod_t2), np.sqrt(prod_t1)))
    warm = np.array([alpha, -alpha, alpha, -alpha])

    rng = np.random.default_rng(seed)
    starts = [warm, *rng.uniform(-np.pi, np.pi, size=(restarts, 4))]

    lowest, best_angles = nelder_mead(negative_lhs, starts, None)
    m0, m1, n0, n1 = [(math.sin(a), 0.0, math.cos(a)) for a in best_angles]
    return float(-lowest), MeasurementSettings(m0=m0, m1=m1, n0=n0, n1=n1)


def nelder_mead(objective, starts, bounds) -> tuple[float, list[float]]:
    """Minimise ``objective`` by Nelder--Mead from every start and keep the best.

    ``bounds`` is a list of (lo, hi) pairs or None.  Returns the lowest value
    and its argument; the strict comparison keeps the earliest start on ties.
    """
    lowest = np.inf
    best_x = starts[0]
    for x0 in starts:
        result = minimize(objective, x0, bounds)
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
    """The filtered links as ``rho[k, a, b, a', b']`` over each link's two qubits; at most 6 links."""
    if spec.n > ORACLE_MAX_LINKS:
        raise DimensionTooLarge(f"Born-rule enumeration supports at most {ORACLE_MAX_LINKS} links, got n = {spec.n}")
    return spec._filtered[0].reshape(-1, 2, 2, 2, 2)


def _distribution(links: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """``p[o_first, bell_2, ..., bell_n, o_last]``, the Born rule traced link by link.

    ``first`` and ``last`` are the end parties' ``_spin_projectors``.  ``partial[..., b, b']``
    has every qubit traced out up to the latest link's right one.
    """
    partial = np.einsum("oxa,abxc->obc", first, links[0])
    for link in links[1:]:
        partial = np.einsum("...bc,mcybz,zdye->...mde", partial, _BELL_TENSORS, link)
    return np.einsum("...bc,ocb->...o", partial, last).real


def born_distribution(
    spec: NetworkSpec, settings: MeasurementSettings, y_first: int, y_last: int
) -> dict[tuple[int, ...], float]:
    """Joint outcome distribution for one choice of end settings.

    Keys are (o_first, bell_2, ..., bell_n, o_last) with bell outcomes in
    0..3 indexed per BELL_BITS.  Only chains with at most 6 links are
    enumerated (the number of outcomes grows as 4^n).
    """
    if y_first not in (0, 1) or y_last not in (0, 1):
        raise ValueError("settings choices must be 0 or 1")
    links = _link_tensors(spec)
    first = _spin_projectors(settings.m0 if y_first == 0 else settings.m1)
    last = _spin_projectors(settings.n0 if y_last == 0 else settings.n1)
    return {outcome: float(p) for outcome, p in np.ndenumerate(_distribution(links, first, last))}


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
    bits.  Serves as the ground truth for lhs_at_settings.  All four setting pairs
    read the spec's filtered chain, which is filtered once per spec, and each end's
    projectors, which are built once per call.
    """
    links = _link_tensors(spec)
    sign_zz, sign_xx = _parity_signs(spec.n, 0), _parity_signs(spec.n, 1)
    firsts = [_spin_projectors(settings.m0), _spin_projectors(settings.m1)]
    lasts = [_spin_projectors(settings.n0), _spin_projectors(settings.n1)]
    i_value = 0.0
    j_value = 0.0
    max_dev = 0.0
    for y_first, y_last in itertools.product((0, 1), repeat=2):
        distribution = _distribution(links, firsts[y_first], lasts[y_last])
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


def _random_bell_diagonal(rng: np.random.Generator) -> list[float]:
    # Rejection sampling inside the tetrahedron of physical diagonal
    # correlation tensors (the four Bell-basis eigenvalues must be >= 0).
    while True:
        # uniform(-1.0, 1.0)'s own arithmetic on the same doubles, at a third of its call cost.
        u1, u2, u3 = rng.random(3).tolist()
        w1, w2, w3 = -1.0 + 2.0 * u1, -1.0 + 2.0 * u2, -1.0 + 2.0 * u3
        if min(1.0 + w1 - w2 + w3, 1.0 - w1 + w2 + w3, 1.0 + w1 + w2 - w3, 1.0 - w1 - w2 - w3) >= 0.0:
            return [w1, w2, w3]


def _link_annihilates(w: list[float], eps_l: float, eps_r: float) -> bool:
    """Whether filtering the aligned state of ``w`` annihilates it, as the direct filter finds.

    Read off the closed form's success c1/4.  At or below twice ANNIHILATION_ATOL, where
    c1 cancels and the closed form and the trace of the filtered state may round to
    opposite sides of the threshold, both filters decide on this one link.
    """
    if _closed_form_c1(w[2], eps_l, eps_r) / 4.0 > 2.0 * filtering.ANNIHILATION_ATOL:
        return False
    zeros = np.zeros(3)
    aligned = from_bloch(zeros, zeros, np.diag(w))
    try:
        filtered_bell_diagonal(w, eps_l, eps_r)
        apply_link_filter(aligned, eps_l, eps_r)
    except FilterAnnihilatesState:
        return True
    return False


@dataclass(frozen=True)
class _Draws:
    """A batch of drawn trials and, in draw order, every link that passed its own filter."""

    w: np.ndarray  # (p, 3) diagonal correlation entries of each link
    eps: np.ndarray  # (p, 2) its filter strengths, (left, right)
    first: np.ndarray  # (t,) index of each trial's first link; its second link follows
    quats: np.ndarray  # (t, 2, 2, 4) normal draws, one quaternion before normalising, (left, right) per link
    b_lin: np.ndarray  # (t,)
    rejected: int
    annihilated: int


def _draw_trials(rng: np.random.Generator, count: int) -> _Draws:
    """Draw trials one at a time until ``count`` of them have both links past their own filters.

    A trial draws a Bell-diagonal pair, rejected when b_lin > 1, then its four filter
    strengths, then two quaternions for each link that its own filter leaves, link by
    link; a link that annihilates ends the trial.  Which draws happen depends only on
    these scalar tests, so no matrix is built here except near the annihilation threshold.

    The numbers and stream positions are those of a per-trial loop of ``uniform`` and
    ``normal(size=4)`` calls, read through cheaper calls: the uniform draws are
    ``rng.random`` doubles mapped as ``uniform`` maps them, ``low + (high - low) * u``,
    and a trial's quaternions come from one ``normal`` call after both links' annihilation
    tests, which draw nothing.
    """
    trials: list[tuple] = []
    link_w: list[list[float]] = []
    link_eps: list[list[float]] = []
    rejected = 0
    annihilated = 0
    while len(trials) < count:
        w_pair = (_random_bell_diagonal(rng), _random_bell_diagonal(rng))
        first, second = (sorted(map(abs, w), reverse=True) for w in w_pair)
        blin = math.sqrt(first[0] * second[0] + first[1] * second[1])
        if blin > 1.0:
            rejected += 1
            continue
        strengths = rng.random(4).tolist()  # uniform(size=(2, 2)) on [0, 1), row by row
        eps_pair = (strengths[:2], strengths[2:])
        passed = 0
        while passed < 2 and not _link_annihilates(w_pair[passed], *eps_pair[passed]):
            passed += 1
        start = len(link_w)
        link_w += w_pair[:passed]
        link_eps += eps_pair[:passed]
        # The per-trial loop's two normal(size=4) draws per passed link, in one call (none
        # when the first link annihilates); a first link that passed spends its draws.
        quats = rng.normal(size=(2 * passed, 4))
        if passed == 2:
            trials.append((start, quats, blin))
        else:
            annihilated += 1
    starts, quats, blins = zip(*trials)
    return _Draws(
        w=np.array(link_w),
        eps=np.array(link_eps),
        first=np.array(starts),
        quats=np.array(quats).reshape(-1, 2, 2, 4),
        b_lin=np.array(blins),
        rejected=rejected,
        annihilated=annihilated,
    )


def _bound_trials(draws: _Draws) -> tuple[float, np.ndarray, np.ndarray]:
    """Build, filter, validate and bound a batch of drawn trials as stacks.

    Returns the largest closed-form deviation over every link past its own filter, the mask of
    trials the chain filter leaves, and their b_seq.  Each stage is validated in one call, and a
    failure raises.  The arithmetic is that of from_bloch, apply_link_filter, NetworkSpec and
    b_seq on one trial at a time, so every value equals theirs to the bit.
    """
    diagonal_w = np.zeros((len(draws.w), 3, 3))
    diagonal = (slice(None), *np.diag_indices(3))
    diagonal_w[diagonal] = draws.w
    zeros = np.zeros((len(draws.w), 3))
    aligned = from_bloch(zeros, zeros, diagonal_w)
    # The direct filter, each link a chain of one, against the closed form.
    direct, direct_success, _ = _filter_chains(aligned[:, None], draws.eps[:, None])
    eps_l, eps_r = draws.eps.T
    c1 = _closed_form_c1(draws.w[:, 2], eps_l, eps_r)
    diagonal_w[diagonal] = np.stack(_closed_form_entries(*draws.w.T, eps_l, eps_r, c1), axis=-1)
    closed_success = c1 / 4.0
    max_dev = max(
        float(np.abs(_bloch_form(direct[:, 0]).W - diagonal_w).max()),
        float(np.abs(direct_success[:, 0] - closed_success).max()),
    )
    # Each quaternion's norm is one dot product, as np.linalg.norm takes it; norm(axis=-1) sums in another order.
    norms = np.sqrt(draws.quats[..., None, :] @ draws.quats[..., :, None])[..., 0]
    unitaries = _quaternion_unitary(np.moveaxis(draws.quats / norms, -1, 0)[..., None, None])
    # Rotate each link by the Kronecker product of its two local unitaries, element by element as np.kron.
    local = (unitaries[:, :, 0, :, None, :, None] * unitaries[:, :, 1, None, :, None, :]).reshape(-1, 2, 4, 4)
    pairs = draws.first[:, None] + np.arange(2)
    rotated = validate_density(local @ aligned[pairs] @ local.conj().swapaxes(-1, -2))
    filtered, _, passed = _filter_chains(rotated, draws.eps[pairs])
    return max_dev, passed, _bound(_bloch_form(filtered[passed]).W)


def conjecture_search(trials: int, seed: int = 0) -> ConjectureReport:
    """Random bilocal pairs with b_lin <= 1: filter them and track max b_seq.

    Each trial samples two states with null Bloch vectors (random diagonal
    correlation tensors rotated by random local unitaries), rejects pairs
    with b_lin > 1, applies random filters, and evaluates b_seq through the
    full pipeline.  The closed-form filtered correlation entries are checked
    against direct filtering on every trial; the report carries the largest
    deviation seen and counts the rejected pairs and the annihilating filter draws.

    The trials' numbers are drawn one trial at a time, in the order a per-trial loop
    draws them; the states are then built, filtered, validated and bounded in stacks
    of at most 1,024 trials with that loop's arithmetic, so the report does not depend
    on the batching.  ``trials`` and ``seed`` must be non-negative integers.
    """
    count = _non_negative_int("trials", trials)
    seed = _non_negative_int("seed", seed)
    rng = np.random.default_rng(seed)
    max_b_seq = 0.0
    max_b_lin = 0.0
    max_dev = 0.0
    done = 0
    rejected = 0
    annihilated = 0
    while done < count:
        draws = _draw_trials(rng, min(count - done, _STACK_SIZE))
        batch_dev, passed, bounds = _bound_trials(draws)
        max_dev = max(max_dev, batch_dev)
        # max over a list compares left to right, in trial order, as one trial at a time would.
        max_b_seq = max([max_b_seq, *bounds.tolist()])
        max_b_lin = max([max_b_lin, *draws.b_lin[passed].tolist()])
        done += len(bounds)
        rejected += draws.rejected
        annihilated += draws.annihilated + len(passed) - len(bounds)
    return ConjectureReport(
        trials=count,
        seed=seed,
        max_b_seq=max_b_seq,
        max_b_lin=max_b_lin,
        max_closed_form_dev=max_dev,
        rejected=rejected,
        annihilated=annihilated,
    )
