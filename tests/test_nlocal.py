"""Tests for the chain bounds, the settings optimizer and the Born-rule oracle."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect
from scipy.optimize import minimize as scipy_minimize

from qnetfilter import (
    ConjectureReport,
    DimensionTooLarge,
    EvalResult,
    FilterAnnihilatesState,
    MeasurementSettings,
    NetworkFilterSpec,
    NetworkSpec,
    NotPositive,
    apply_link_filter,
    b_lin,
    b_seq,
    bisect,
    born_distribution,
    born_oracle,
    canonical_frame,
    conjecture_search,
    evaluate,
    filter_network,
    filtered_bell_diagonal,
    from_bloch,
    grud_state,
    lhs_at_settings,
    maximize_lhs,
    product_state,
    pure_theta_state,
    validate_density,
    werner_state,
    x_state,
)
from qnetfilter import filtering, nlocal, solvers
from qnetfilter.config import network_factory
from qnetfilter.core import _bloch_form, _quaternion_unitary
from qnetfilter.solvers import MAXFEV, minimize

SINGLET = werner_state(1.0)

# Optimal end settings for a chain of singlets: both parties mix the z and x
# axes at 45 degrees, which attains sqrt(|I|) + sqrt(|J|) = sqrt(2).
HALF = np.sqrt(0.5)
OPTIMAL_SINGLET_SETTINGS = MeasurementSettings(
    m0=np.array([HALF, 0.0, HALF]),
    m1=np.array([-HALF, 0.0, HALF]),
    n0=np.array([HALF, 0.0, HALF]),
    n1=np.array([-HALF, 0.0, HALF]),
)


def random_density(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


def random_settings(rng: np.random.Generator) -> MeasurementSettings:
    vectors = []
    for _ in range(4):
        vec = rng.normal(size=3)
        vectors.append(vec / np.linalg.norm(vec))
    return MeasurementSettings(*vectors)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_diagonal(w1: float, w2: float, w3: float) -> np.ndarray:
    return from_bloch(np.zeros(3), np.zeros(3), np.diag([w1, w2, w3]))


# Six Werner links with the maximally mixed state I/4 as the second: W = 0 on that link.
MIXED_IN_SIX = (werner_state(0.9), np.eye(4) / 4.0, *[werner_state(0.9)] * 4)

# diag(1.5, -0.5, 0, 0): Hermitian with unit trace, but not positive.
NOT_POSITIVE = np.diag([1.5, -0.5, 0.0, 0.0])


class TestSpecTypes:
    def test_network_validates_its_links(self) -> None:
        with pytest.raises(NotPositive, match="minimum eigenvalue"):
            NetworkSpec(links=(SINGLET, NOT_POSITIVE))

    def test_network_names_the_first_bad_link(self) -> None:
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(3, 3\)"):
            NetworkSpec(links=(SINGLET, np.eye(3) / 3.0, NOT_POSITIVE))
        with pytest.raises(NotPositive, match="minimum eigenvalue"):
            NetworkSpec(links=(SINGLET, NOT_POSITIVE, np.eye(3) / 3.0))
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(1, 4, 4\)"):
            NetworkSpec(links=(SINGLET[None], SINGLET[None]))

    def test_network_validates_its_links_in_one_call(self, monkeypatch) -> None:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.nlocal.validate_density", counted)
        NetworkSpec(links=[SINGLET, np.eye(4) / 4.0, SINGLET])
        assert calls == [(3, 4, 4)]

    def test_a_ragged_network_validates_its_links_in_one_call(self, monkeypatch) -> None:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.nlocal.validate_density", counted)
        with pytest.raises(ValueError, match=r"got shape \(3, 3\)"):
            NetworkSpec(links=[SINGLET, np.eye(4) / 4.0, np.eye(3) / 3.0, NOT_POSITIVE])
        assert calls == [(2, 4, 4)]

    def test_network_needs_two_links(self) -> None:
        with pytest.raises(ValueError, match="at least 2 links"):
            NetworkSpec(links=(SINGLET,))

    def test_network_checks_filter_shape(self) -> None:
        with pytest.raises(ValueError, match="intermediate filter pairs"):
            NetworkSpec(links=(SINGLET, SINGLET), filters=NetworkFilterSpec(middle=()))

    def test_links_are_a_read_only_stack(self) -> None:
        spec = NetworkSpec(links=[SINGLET, np.eye(4) / 4.0, SINGLET])
        assert spec.links.shape == (3, 4, 4) and spec.links.dtype == complex
        assert np.array_equal(spec.links[1], np.eye(4) / 4.0)
        with pytest.raises(ValueError, match="read-only"):
            spec.links[0, 0, 0] = 1.0

    def test_default_filters_are_identity(self) -> None:
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        assert spec.filters == NetworkFilterSpec.identity(2)
        assert spec.n == 2

    def test_settings_require_unit_vectors(self) -> None:
        with pytest.raises(ValueError, match="unit vector"):
            MeasurementSettings(
                m0=np.array([0.0, 0.0, 2.0]),
                m1=np.array([1.0, 0.0, 0.0]),
                n0=np.array([0.0, 0.0, 1.0]),
                n1=np.array([1.0, 0.0, 0.0]),
            )


# Every consumer of a spec's filtered chain, called once each.
SPEC_CONSUMERS = [
    evaluate,
    b_seq,
    lambda spec: maximize_lhs(spec, restarts=0),
    lambda spec: lhs_at_settings(spec, OPTIMAL_SINGLET_SETTINGS),
    lambda spec: born_oracle(spec, OPTIMAL_SINGLET_SETTINGS),
    lambda spec: born_distribution(spec, OPTIMAL_SINGLET_SETTINGS, 0, 1),
]


class TestFilteredStates:
    """Each filtered path sees the same validated filter output."""

    # Valid to -9e-10; the filter scales that eigenvalue to about -0.22.
    BARELY_VALID = np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10])
    STRONG = NetworkFilterSpec(eps_first=1e-4, eps_last=1.0, middle=((1e-4, 1.0),))

    @pytest.mark.parametrize(
        "entry",
        SPEC_CONSUMERS,
        ids=["evaluate", "b_seq", "maximize_lhs", "lhs_at_settings", "born_oracle", "born_distribution"],
    )
    def test_every_path_rejects_an_amplified_negative_eigenvalue(self, entry) -> None:
        spec = NetworkSpec(links=(self.BARELY_VALID, SINGLET), filters=self.STRONG)
        with pytest.raises(NotPositive, match="link 1: filtered state has minimum eigenvalue"):
            entry(spec)

    def test_every_path_accepts_the_exact_state(self) -> None:
        exact = NetworkSpec(links=(np.diag([0.5, 0.25, 0.25, 0.0]), SINGLET), filters=self.STRONG)
        bound, _ = b_seq(exact)
        assert bound <= 1.0
        assert evaluate(exact).b_seq == bound
        assert maximize_lhs(exact, restarts=0)[0] == pytest.approx(bound, abs=1e-6)


# The middle filter 0 annihilates |00><00| on link 2.
PRODUCT_00 = np.diag([1.0, 0.0, 0.0, 0.0])
CUT_MIDDLE = NetworkFilterSpec(middle=((1.0, 0.0),))


class TestFilteredOnce:
    """A spec filters its chain on first use and keeps the result, but not a failure."""

    @pytest.fixture
    def filter_calls(self, monkeypatch) -> list:
        calls = []

        def counted(states, spec):
            calls.append(spec)
            return filter_network(states, spec)

        monkeypatch.setattr("qnetfilter.nlocal.filter_network", counted)
        return calls

    def test_every_consumer_shares_one_filter_call(self, filter_calls) -> None:
        spec = NetworkSpec(links=(SINGLET, werner_state(0.8)), filters=NetworkFilterSpec(middle=((0.7, 0.9),)))
        assert filter_calls == []
        for consume in SPEC_CONSUMERS:
            consume(spec)
        assert len(filter_calls) == 1

    def test_an_annihilating_spec_builds_and_raises_on_every_use(self, filter_calls) -> None:
        spec = NetworkSpec(links=(SINGLET, PRODUCT_00), filters=CUT_MIDDLE)
        message = r"^link 2: post-selection success probability 0\.000e\+00"
        for consume in SPEC_CONSUMERS * 2:
            with pytest.raises(FilterAnnihilatesState, match=message):
                consume(spec)
        assert len(filter_calls) == 2 * len(SPEC_CONSUMERS)

    def test_the_filtered_links_are_read_only(self) -> None:
        spec = NetworkSpec(links=(SINGLET, werner_state(0.8)), filters=NetworkFilterSpec(middle=((0.7, 0.9),)))
        filtered, success = spec._filtered
        assert filtered.shape == (2, 4, 4) and 0.0 < success < 1.0
        with pytest.raises(ValueError, match="read-only"):
            filtered[0, 0, 0] = 1.0

    def test_evaluate_decomposes_the_raw_chain_before_it_filters(self) -> None:
        # Valid to a Hermiticity deviation of 1e-9, but its decomposition has an imaginary part.
        skewed = np.eye(4, dtype=complex) / 4.0
        skewed[0, 1] = skewed[1, 0] = 5e-10j
        spec = NetworkSpec(links=(skewed, PRODUCT_00), filters=CUT_MIDDLE)
        with pytest.raises(FilterAnnihilatesState, match="^link 2: "):
            b_seq(spec)
        with pytest.raises(ValueError, match="^decomposition coefficient has imaginary part 1.000e-09$"):
            evaluate(spec)


class TestDerivedSpec:
    """A spec derived for other filters shares the validated links and, once computed, their unfiltered bound."""

    LINKS = (SINGLET, werner_state(0.8), grud_state(0.1, 0.3))
    OTHER = NetworkFilterSpec(eps_first=0.9, eps_last=0.7, middle=((0.5, 0.6), (0.8, 1.0)))

    def test_shares_the_links_and_the_unfiltered_bound(self, monkeypatch) -> None:
        spec = NetworkSpec(links=self.LINKS)
        before = spec._with_filters(self.OTHER)
        evaluate(spec)
        calls = []
        monkeypatch.setattr("qnetfilter.nlocal.validate_density", lambda rho: calls.append(rho) or rho)
        derived = spec._with_filters(self.OTHER)
        assert derived.links is spec.links and derived.filters is self.OTHER
        assert "_unfiltered" not in before.__dict__  # derived before the bound was computed
        assert derived.__dict__.keys() == {"links", "filters", "_unfiltered"}
        assert calls == []

    def test_evaluates_as_a_spec_built_from_its_links(self) -> None:
        spec = NetworkSpec(links=self.LINKS)
        evaluate(spec)
        fresh = evaluate(NetworkSpec(links=self.LINKS, filters=self.OTHER))
        for derived in (spec._with_filters(self.OTHER), NetworkSpec(links=self.LINKS)._with_filters(self.OTHER)):
            result = evaluate(derived)
            assert [float(v).hex() for v in dataclasses.astuple(result)] == [
                float(v).hex() for v in dataclasses.astuple(fresh)
            ]

    def test_checks_the_filter_shape(self) -> None:
        with pytest.raises(ValueError, match="^expected 2 intermediate filter pairs for 3 links, got 1$"):
            NetworkSpec(links=self.LINKS)._with_filters(CUT_MIDDLE)

    def test_a_decomposition_error_is_raised_on_every_use(self) -> None:
        skewed = np.eye(4, dtype=complex) / 4.0
        skewed[0, 1] = skewed[1, 0] = 5e-10j
        spec = NetworkSpec(links=(skewed, SINGLET))
        for target in (spec, spec._with_filters(CUT_MIDDLE), spec):
            with pytest.raises(ValueError, match="^decomposition coefficient has imaginary part 1.000e-09$"):
                evaluate(target)
        assert "_unfiltered" not in spec.__dict__


def _strengths(specs: list[NetworkSpec]) -> np.ndarray:
    """The ``(m, n, 2)`` filter strengths of ``specs``, as ``network_factory`` gives them for a chunk."""
    return np.array([spec.filters._strengths for spec in specs])


def _random_filters(rng: np.random.Generator, n: int) -> NetworkFilterSpec:
    eps = rng.uniform(0.05, 1.0, size=2 * n).tolist()
    return NetworkFilterSpec(eps[0], eps[-1], tuple(zip(eps[1:-1:2], eps[2::2])))


class TestBoundChains:
    """One stacked pass keeps on each spec the floats that the spec computes on its own."""

    SKEWED = np.eye(4, dtype=complex) / 4.0
    SKEWED[0, 1] = SKEWED[1, 0] = 5e-10j

    def chains(self, rng: np.random.Generator) -> list[NetworkSpec]:
        """Filtered, identity, annihilated and derived chains of 3 links."""
        specs = []
        for k in range(24):
            links = [random_density(rng) for _ in range(3)]
            if k % 6 == 1:
                specs.append(NetworkSpec(links=links))
            elif k % 6 == 2:
                links[1] = PRODUCT_00
                specs.append(NetworkSpec(links=links, filters=NetworkFilterSpec(middle=((1.0, 0.0), (0.5, 0.5)))))
            else:
                specs.append(NetworkSpec(links=links, filters=_random_filters(rng, 3)))
        specs.append(specs[0]._with_filters(_random_filters(rng, 3)))
        return specs

    def test_each_spec_keeps_its_own_floats(self) -> None:
        specs = self.chains(np.random.default_rng(28))
        nlocal._bound_chains(specs, _strengths(specs))
        for spec in specs:
            fresh = NetworkSpec(links=spec.links, filters=spec.filters)
            assert spec.__dict__["_unfiltered"].hex() == fresh._unfiltered.hex()
            try:
                expected = b_seq(fresh)
            except FilterAnnihilatesState as exc:
                assert spec.__dict__.keys() == {"links", "filters", "_unfiltered"}
                with pytest.raises(FilterAnnihilatesState, match=f"^{re.escape(str(exc))}$"):
                    evaluate(spec)
                continue
            filtered, _ = spec.__dict__["_filtered"]
            assert np.array_equal(filtered, fresh._filtered[0]) and not filtered.flags.writeable
            assert [value.hex() for value in b_seq(spec)] == [value.hex() for value in expected]
        assert sum("_filtered" not in spec.__dict__ for spec in specs) == 4

    def test_evaluate_reads_the_kept_results(self, monkeypatch) -> None:
        specs = self.chains(np.random.default_rng(29))
        expected = [dataclasses.astuple(evaluate(NetworkSpec(links=s.links, filters=s.filters))) for s in specs[:2]]
        nlocal._bound_chains(specs, _strengths(specs))

        def unexpected(*args):
            raise AssertionError("recomputed a kept result")

        monkeypatch.setattr(nlocal, "filter_network", unexpected)
        monkeypatch.setattr(nlocal, "_bound", unexpected)
        assert [dataclasses.astuple(evaluate(spec)) for spec in specs[:2]] == expected

    def test_the_workload_grid_decomposes_each_raw_chain_once(self, monkeypatch) -> None:
        # A trilocal grud chain with bit flip on link 2, over 7 noise values and 7 filter strengths:
        # the factory builds the 7 specs of one noise value on one links array.
        cfg = {
            "links": [{"family": "grud", "v": 0.1, "x": x} for x in (0.35, 0.56, 0.78)],
            "channels": [{"link": 2, "type": "bit_flip", "param": 0.0}],
            "filters": {"first": 0.9, "last": 0.8, "middle": [[0.6, 0.99], [0.99, 0.99]]},
        }
        build = network_factory(cfg, ["channels.0.param", "filters.middle.0.1"])
        grid = itertools.product(np.linspace(0.0, 0.3, 7).tolist(), np.linspace(0.3, 1.0, 7).tolist())
        specs, strengths, error = build.chunk(list(grid))
        assert error is None and np.array_equal(strengths, _strengths(specs))
        expected = [NetworkSpec(links=spec.links, filters=spec.filters)._unfiltered.hex() for spec in specs]
        decomposed = []

        def counted(mat):
            decomposed.append(mat.shape)
            return _bloch_form(mat)

        monkeypatch.setattr(nlocal, "_bloch_form", counted)
        nlocal._bound_chains(specs, strengths)
        assert decomposed == [(7, 3, 4, 4), (49, 3, 4, 4)]  # the raw chains, then the filtered ones
        assert [spec.__dict__["_unfiltered"].hex() for spec in specs] == expected

    @pytest.mark.parametrize("position", [0, 5, 24])
    @pytest.mark.parametrize("failure", ["decomposition", "filtered-state"])
    def test_a_stack_that_raises_keeps_nothing(self, position, failure) -> None:
        specs = self.chains(np.random.default_rng(30))
        links = list(specs[position].links)
        if failure == "decomposition":
            links[2] = self.SKEWED
            filters = specs[position].filters
        else:
            links[0] = np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10])  # the filter amplifies its eigenvalue of -9e-10
            filters = NetworkFilterSpec(eps_first=1e-4, middle=((1e-4, 1.0), (1.0, 1.0)))
        specs[position] = NetworkSpec(links=links, filters=filters)
        nlocal._bound_chains(specs, _strengths(specs))
        assert all(spec.__dict__.keys() == {"links", "filters"} for spec in specs)
        with pytest.raises(ValueError, match="^decomposition coefficient|^link 1: filtered state has"):
            evaluate(specs[position])


class TestBLin:
    def test_validates_its_links(self) -> None:
        with pytest.raises(NotPositive, match="minimum eigenvalue"):
            b_lin([SINGLET, NOT_POSITIVE])

    @pytest.mark.parametrize("n_links", [0, 1])
    def test_needs_two_links(self, n_links) -> None:
        with pytest.raises(ValueError, match=f"^a chain needs at least 2 links, got {n_links}$"):
            b_lin([werner_state(1.0)] * n_links)

    def test_rejects_a_chain_that_is_not_a_stack_of_4x4_matrices(self) -> None:
        link = werner_state(0.5)
        with pytest.raises(ValueError, match=r"^expected a 4x4 matrix, got shape \(1, 4, 4\)$"):
            b_lin([link[None], link[None]])

    def test_validates_its_chain_in_one_call(self, monkeypatch) -> None:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.core.validate_density", counted)
        b_lin([SINGLET, np.eye(4) / 4.0, SINGLET])
        assert calls == [(3, 4, 4)]

    def test_singlet_pair_reaches_sqrt_two(self) -> None:
        assert b_lin([SINGLET, SINGLET]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "links, expected, tol",
        [
            # Rank 1: each link has singular values (1, sin 1.24, sin 1.24).
            ([pure_theta_state(0.62)] * 6, np.sqrt(1.0 + np.sin(1.24) ** 6), 1e-12),
            (list(MIXED_IN_SIX), 0.0, 0.0),
        ],
        ids=["six-rank-one-links", "maximally-mixed-link-in-six"],
    )
    def test_six_link_chains_at_the_rank_extremes(self, links, expected, tol) -> None:
        assert b_lin(links) == pytest.approx(expected, abs=tol)

    def test_product_partner_caps_the_bound_at_one(self) -> None:
        e3 = np.array([0.0, 0.0, 1.0])
        assert b_lin([SINGLET, product_state(e3, e3)]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_hand_formula_on_diagonal_tensors(self) -> None:
        # Entries within |w1| + |w2| + |w3| <= 1 always give a physical state.
        rng = np.random.default_rng(83)
        for _ in range(25):
            entries = [rng.uniform(-1.0, 1.0, size=3) / 3.0 for _ in range(2)]
            links = [bell_diagonal(*w) for w in entries]
            sorted_svs = [np.sort(np.abs(w))[::-1] for w in entries]
            expected = np.sqrt(
                sorted_svs[0][0] * sorted_svs[1][0] + sorted_svs[0][1] * sorted_svs[1][1]
            )
            assert b_lin(links) == pytest.approx(expected, abs=1e-10)

    def test_x_state_pair_closed_form(self) -> None:
        """The bound maximises the pairing of the two largest singular values."""
        rng = np.random.default_rng(89)
        for _ in range(20):
            params = []
            for _ in range(2):
                x1, x2, x3 = (float(v) for v in rng.dirichlet(np.ones(3)))
                x4 = float(rng.uniform(-1.0, 1.0) * np.sqrt(x1 * x3))
                params.append((x1, x2, x3, x4))
            (x11, x12, x13, x14), (x21, x22, x23, x24) = params
            l1 = 4.0 * abs(x14 * x24)
            l2 = 2.0 * abs((x11 - x12 + x13) * x24)
            l3 = 2.0 * abs((x21 - x22 + x23) * x14)
            l4 = abs((x11 - x12 + x13) * (x21 - x22 + x23))
            expected = max(
                np.sqrt(2.0 * l1),
                np.sqrt(l1 + l2),
                np.sqrt(l1 + l3),
                np.sqrt(l2 + l3),
                np.sqrt(l1 + l4),
            )
            computed = b_lin([x_state(*params[0]), x_state(*params[1])])
            assert computed == pytest.approx(expected, abs=1e-10)


class TestBSeq:
    def test_identity_filters_equal_b_lin_exactly(self) -> None:
        rng = np.random.default_rng(97)
        for _ in range(10):
            links = (random_density(rng), random_density(rng))
            spec = NetworkSpec(links=links)
            bound, success = b_seq(spec)
            assert bound == b_lin(list(links))
            assert success == 1.0

    def test_matches_filtered_closed_form_on_diagonal_tensors(self) -> None:
        """Check the pipeline against independent arithmetic for the filtered
        correlation entries of null-Bloch-vector links."""
        rng = np.random.default_rng(101)

        def filtered_entries(w: np.ndarray, eps_l: float, eps_r: float) -> tuple[np.ndarray, float]:
            shrink = (1.0 - eps_l**2) * (1.0 - eps_r**2)
            grow = (1.0 + eps_l**2) * (1.0 + eps_r**2)
            c1 = w[2] * shrink + grow
            scaled = np.array(
                [
                    4.0 * eps_l * eps_r * w[0] / c1,
                    4.0 * eps_l * eps_r * w[1] / c1,
                    (shrink + w[2] * grow) / c1,
                ]
            )
            return scaled, c1 / 4.0

        for _ in range(20):
            entries = [rng.uniform(-1.0, 1.0, size=3) / 3.0 for _ in range(2)]
            eps = rng.uniform(0.2, 1.0, size=4)
            spec = NetworkSpec(
                links=tuple(bell_diagonal(*w) for w in entries),
                filters=NetworkFilterSpec(
                    eps_first=eps[0], eps_last=eps[3], middle=((eps[1], eps[2]),)
                ),
            )
            first_w, first_success = filtered_entries(entries[0], eps[0], eps[1])
            second_w, second_success = filtered_entries(entries[1], eps[2], eps[3])
            svs = [np.sort(np.abs(w))[::-1] for w in (first_w, second_w)]
            expected = np.sqrt(svs[0][0] * svs[1][0] + svs[0][1] * svs[1][1])
            bound, success = b_seq(spec)
            assert bound == pytest.approx(expected, abs=1e-10)
            assert success == pytest.approx(first_success * second_success, abs=1e-12)

    @pytest.mark.parametrize(
        "filters",
        [
            NetworkFilterSpec(eps_first=0.3, eps_last=0.7, middle=((0.5, 0.9),) * 5),
            NetworkFilterSpec(middle=((1.0, 0.2), (0.3, 1.0), (0.6, 0.6), (1.0, 1.0), (0.4, 0.8))),
            NetworkFilterSpec(eps_first=0.05, eps_last=0.05, middle=((0.05, 0.05),) * 5),
        ],
        ids=["uniform", "mixed-strengths", "strong"],
    )
    def test_maximally_mixed_link_keeps_the_filtered_bound_at_most_one(self, filters) -> None:
        # A filter leaves I/4 a product state, whose tensor has rank 1.
        bound, _ = b_seq(NetworkSpec(links=MIXED_IN_SIX, filters=filters))
        assert bound <= 1.0

    def test_evaluate_sets_the_violation_flag(self) -> None:
        links = (x_state(0.2, 0.1, 0.7, 0.15), x_state(0.86, 0.0, 0.14, 0.33))
        quiet = evaluate(NetworkSpec(links=links))
        assert isinstance(quiet, EvalResult)
        assert not quiet.violation and quiet.b_seq <= 1.0
        loud = evaluate(
            NetworkSpec(
                links=links,
                filters=NetworkFilterSpec(eps_first=0.77, eps_last=0.77, middle=((0.77, 0.77),)),
            )
        )
        assert loud.violation and loud.b_seq > 1.0

    def test_evaluate_b_lin_is_b_lin_to_the_bit(self) -> None:
        # 2 to 5 links in turn; every fifth chain has identity filters.
        rng = np.random.default_rng(211)
        for k in range(40):
            n = 2 + k % 4
            links = tuple(random_density(rng) for _ in range(n))
            eps = rng.uniform(0.0, 1.0, size=2 * n)
            middle = tuple(zip(eps[1:-1:2], eps[2::2]))
            filters = None if k % 5 == 0 else NetworkFilterSpec(eps[0], eps[-1], middle)
            assert _bits([evaluate(NetworkSpec(links=links, filters=filters)).b_lin]) == _bits([b_lin(links)])


class TestLhsAtSettings:
    def test_singlet_pair_at_the_optimal_settings(self) -> None:
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        assert lhs_at_settings(spec, OPTIMAL_SINGLET_SETTINGS) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_degenerate_settings_give_zero(self) -> None:
        settings = MeasurementSettings(
            m0=np.array([0.0, 0.0, 1.0]),
            m1=np.array([0.0, 0.0, 1.0]),
            n0=np.array([0.0, 0.0, 1.0]),
            n1=np.array([0.0, 0.0, -1.0]),
        )
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        assert lhs_at_settings(spec, settings) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_the_closed_form_bound(self) -> None:
        rng = np.random.default_rng(103)
        for _ in range(25):
            spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
            value = lhs_at_settings(spec, random_settings(rng))
            bound, _ = b_seq(spec)
            assert value <= bound + 1e-9


class TestMaximizeLhs:
    def test_singlet_chain_attains_sqrt_two(self) -> None:
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        value, settings = maximize_lhs(spec)
        assert value == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert isinstance(settings, MeasurementSettings)

    def test_value_is_attained_on_the_canonicalised_chain(self) -> None:
        """The returned settings reproduce the value on the rotated links."""
        rng = np.random.default_rng(107)
        spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
        value, settings = maximize_lhs(spec)
        rotated = tuple(canonical_frame(link)[0] for link in spec.links)
        assert lhs_at_settings(NetworkSpec(links=rotated), settings) == pytest.approx(
            value, abs=1e-9
        )
        # The search runs in the xz plane of the canonical frame.
        assert [vec[1] for vec in (settings.m0, settings.m1, settings.n0, settings.n1)] == [0.0] * 4

    def test_agrees_with_the_bound_on_random_chains(self) -> None:
        rng = np.random.default_rng(109)
        for _ in range(5):
            spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
            value, _ = maximize_lhs(spec)
            bound, _ = b_seq(spec)
            assert value == pytest.approx(bound, abs=1e-6)

    @pytest.mark.parametrize(
        "filters",
        [None, NetworkFilterSpec(eps_first=0.7, eps_last=0.9, middle=((0.6, 0.8),))],
        ids=["unfiltered", "filtered"],
    )
    def test_tied_singular_values_reach_the_bound(self, filters) -> None:
        # Werner(0.6) has three equal singular values, diag(0.5, 0.5, -0.2) two.
        rng = np.random.default_rng(131)
        links = []
        for rho in (werner_state(0.6), bell_diagonal(0.5, 0.5, -0.2)):
            local = np.kron(random_unitary(rng), random_unitary(rng))
            links.append(local @ rho @ local.conj().T)
        spec = NetworkSpec(links=tuple(links), filters=filters)
        value, _ = maximize_lhs(spec)
        bound, _ = b_seq(spec)
        assert value == pytest.approx(bound, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cold_starts_alone_reach_the_bound(self, monkeypatch, n) -> None:
        """The warm start sits at the closed-form optimum, so only the random starts check the closed form."""
        runs = []

        def recording(objective, x0, bounds):
            runs.append(minimize(objective, x0, bounds))
            return runs[-1]

        monkeypatch.setattr(nlocal, "minimize", recording)
        rng = np.random.default_rng(150 + n)
        for seed in range(8):
            eps = rng.uniform(0.3, 1.0, size=2 * n)
            spec = NetworkSpec(
                links=tuple(random_density(rng) for _ in range(n)),
                filters=NetworkFilterSpec(
                    eps_first=eps[0], eps_last=eps[1], middle=tuple(zip(eps[2::2], eps[3::2]))
                ),
            )
            runs.clear()
            value, _ = maximize_lhs(spec, seed=seed)
            assert len(runs) == 17
            assert value == -min(run.fun for run in runs)
            assert -min(run.fun for run in runs[1:]) == pytest.approx(b_seq(spec)[0], abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_objective_is_lhs_core_in_the_xz_plane(self, monkeypatch, n) -> None:
        """The optimizer's objective is -_lhs_core on the tensors diag(t2, 0, t1), bit for bit."""
        objectives = []

        def recording(objective, x0, bounds):
            objectives.append(objective)
            return minimize(objective, x0, bounds)

        monkeypatch.setattr(nlocal, "minimize", recording)
        rng = np.random.default_rng(190 + n)
        eps = rng.uniform(0.3, 1.0, size=2 * n)
        spec = NetworkSpec(
            links=tuple(random_density(rng) for _ in range(n)),
            filters=NetworkFilterSpec(eps_first=eps[0], eps_last=eps[1], middle=tuple(zip(eps[2::2], eps[3::2]))),
        )
        maximize_lhs(spec, restarts=0)
        t1, t2, _ = np.linalg.svd(_bloch_form(spec._filtered[0]).W, compute_uv=False).T
        tensors = np.array([np.diag([b, 0.0, a]) for a, b in zip(t1, t2)])
        # Sums of cosines and differences of sines cancel to +0 or -0 among these angles.
        special = itertools.product([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi], repeat=4)
        for angles in [*special, *rng.uniform(-np.pi, np.pi, size=(200, 4)).tolist()]:
            vectors = [(math.sin(a), 0.0, math.cos(a)) for a in angles]
            assert _bits([objectives[0](list(angles))]) == _bits([-nlocal._lhs_core(tensors, *vectors)])

    def test_deterministic_for_fixed_seed(self) -> None:
        rng = np.random.default_rng(113)
        spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
        first, _ = maximize_lhs(spec, seed=4)
        second, _ = maximize_lhs(spec, seed=4)
        assert first == second

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"restarts": -1}, "restarts"),
            ({"restarts": True}, "restarts"),
            ({"restarts": 2.5}, "restarts"),
            ({"seed": True}, "seed"),
            ({"seed": 2.5}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"seed": -1}, "seed"),
        ],
        ids=[
            "restarts-negative", "restarts-bool", "restarts-float", "seed-bool", "seed-float", "seed-str", "seed-negative"
        ],
    )
    def test_rejects_a_seed_or_restart_count_that_is_not_a_non_negative_integer(self, kwargs, name) -> None:
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got "):
            maximize_lhs(spec, **kwargs)

    def test_takes_numpy_integer_seeds_and_restarts(self) -> None:
        rng = np.random.default_rng(113)
        spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
        value, settings = maximize_lhs(spec, seed=np.int64(4), restarts=np.int32(2))
        expected_value, expected_settings = maximize_lhs(spec, seed=4, restarts=2)
        assert value == expected_value
        assert all(np.array_equal(*pair) for pair in zip(vars(settings).values(), vars(expected_settings).values()))


# scipy is the reference for the package's own Nelder--Mead and bisection:
# both must return scipy's floats bit for bit, and take as many evaluations.
SCIPY_NELDER_MEAD = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000}


def _bits(values) -> list[str]:
    """Floats as hex strings: equal only bit for bit, with signed zeros told apart and NaNs equal."""
    return [float(v).hex() for v in np.ravel(values)]


def assert_minimize_matches_scipy(objective, x0, bounds=None, maxfev=MAXFEV):
    ours = minimize(objective, x0, bounds)
    with np.errstate(all="ignore"):  # a diverging simplex overflows inside scipy's array arithmetic
        theirs = scipy_minimize(
            objective, np.array(x0, dtype=float), method="Nelder-Mead", bounds=bounds,
            options=dict(SCIPY_NELDER_MEAD, maxfev=maxfev),
        )
    assert (_bits(ours.x), _bits(ours.fun), ours.nfev, ours.success) == (
        _bits(theirs.x), _bits(theirs.fun), theirs.nfev, theirs.success
    )
    return ours


def _box_objective(x) -> float:
    # The minimum lies outside the unit box, so trial points are clipped onto its edges.
    return (x[0] - 1.3) ** 2 + (x[1] + 0.2) ** 2 + 0.5 * x[0] * x[1]


class TestSolversMatchScipy:
    @pytest.mark.parametrize("n", [2, 3])
    def test_maximize_lhs_runs_match(self, monkeypatch, n) -> None:
        runs = []

        def paired(objective, x0, bounds):
            runs.append(assert_minimize_matches_scipy(objective, x0, bounds))
            return runs[-1]

        monkeypatch.setattr(nlocal, "minimize", paired)
        rng = np.random.default_rng(170 + n)
        for seed in range(2):
            spec = NetworkSpec(
                links=tuple(random_density(rng) for _ in range(n)),
                filters=NetworkFilterSpec(middle=((0.8, 0.6),) * (n - 1), eps_first=0.9, eps_last=0.7),
            )
            maximize_lhs(spec, seed=seed, restarts=2)
        assert len(runs) == 2 * 3

    @pytest.mark.parametrize(
        "x0",
        [[1.0, 1.0], [0.99, 0.0], [0.0, 0.0], [0.999, 0.98]],
        ids=["on-upper", "near-upper-and-zero", "on-lower", "near-upper"],
    )
    def test_bounded_runs_match(self, x0) -> None:
        # A 5% step from a start on or near an upper bound leaves the box: the first simplex is reflected.
        result = assert_minimize_matches_scipy(_box_objective, x0, [(0.0, 1.0), (0.0, 1.0)])
        assert result.success and result.x == [1.0, 0.0]

    @pytest.mark.parametrize(
        "objective",
        [lambda x: 1.0, lambda x: (x[0] - 0.3) ** 2],
        ids=["constant", "one-coordinate"],
    )
    def test_tied_values_sort_as_scipy(self, objective) -> None:
        # Vertices that differ only in coordinates the objective ignores tie; np.argsort may reorder
        # ties (it does with AVX-512), and the port must follow it.
        result = assert_minimize_matches_scipy(objective, [0.7, -0.4, 0.2, 0.9, -0.6, 0.1, 0.5, 0.0])
        assert result.success

    @pytest.mark.parametrize(
        "x0", [[0.7, -0.4], [-1.5, 2.0], [3.0, 0.0], [0.0, 0.0]], ids=["near", "far", "on-axis", "origin"]
    )
    def test_values_that_tie_mid_run_sort_as_scipy(self, x0) -> None:
        # A quantised bowl: once the steps fall below its 1/64 levels, trial points tie the vertices they join.
        assert_minimize_matches_scipy(lambda x: math.floor(64 * ((x[0] - 0.3) ** 2 + (x[1] + 0.1) ** 2)) / 64, x0)

    @pytest.mark.parametrize(
        "x0", [[0.5, 0.5], [2.0, -1.0], [0.05, 0.3]], ids=["near", "far", "at-edge"]
    )
    def test_nan_values_that_appear_mid_run_match(self, x0) -> None:
        # The bowl's minimum lies in the half-plane x[0] < 0, where the objective is NaN.
        assert_minimize_matches_scipy(
            lambda x: math.nan if x[0] < 0.0 else (x[0] + 0.1) ** 2 + (x[1] - 0.2) ** 2, x0
        )

    def test_diverging_run_stops_at_maxfev_as_scipy(self) -> None:
        # Unbounded below: the simplex expands until it overflows, and the evaluation cap ends the run mid-iteration.
        result = assert_minimize_matches_scipy(lambda x: x[0] + 2.0 * x[1], [0.1, 0.2])
        assert (result.success, result.nfev, result.fun) == (False, MAXFEV, -math.inf)

    def test_nan_values_match(self) -> None:
        # A NaN value fails every comparison, so the simplex only shrinks, the value test never passes
        # and the run ends at the evaluation cap; scipy reports fun as np.min over the values, NaN.
        result = assert_minimize_matches_scipy(lambda x: math.nan, [0.5, 0.5])
        assert (result.success, result.nfev, math.isnan(result.fun)) == (False, MAXFEV, True)

    def test_rugged_objective_matches(self) -> None:
        assert_minimize_matches_scipy(
            lambda x: math.sin(1e3 * x[0]) * math.cos(7e2 * x[1]) + 1e-3 * (x[0] ** 2 + x[1] ** 2), [0.4, -0.3]
        )

    @pytest.mark.parametrize(
        "cfg, lo, hi",
        [
            (
                {
                    "links": [{"family": "pure_theta", "theta": 0.62}, {"family": "pure_theta", "theta": 0.62}],
                    "channels": [
                        {"link": 1, "type": "bit_flip", "param": 0.0},
                        {"link": 2, "type": "bit_flip", "param": 0.15},
                    ],
                    "filters": {"middle": [[0.98, 0.79]]},
                },
                0.0,
                0.4,
            ),
            (
                {
                    "links": [{"family": "pure_theta", "theta": 0.55}, {"family": "pure_theta", "theta": 0.55}],
                    "channels": [
                        {"link": 1, "type": "amplitude_damping", "param": 0.21},
                        {"link": 2, "type": "amplitude_damping", "param": 0.0},
                    ],
                    "filters": {"first": 0.78, "last": 0.79, "middle": [[0.22, 0.1]]},
                },
                0.0,
                0.9,
            ),
        ],
        ids=["bit-flip", "damping"],
    )
    def test_threshold_bisections_match(self, cfg, lo, hi) -> None:
        path = "channels.0.param" if cfg["channels"][0]["type"] == "bit_flip" else "channels.1.param"
        build = network_factory(cfg, [path])
        objectives = {
            "b_lin": lambda value: b_lin(build((value,)).links) - 1.0,
            "b_seq": lambda value: b_seq(build((value,)))[0] - 1.0,
        }
        # Shifted to be exactly 0 at one endpoint: both return that endpoint without a halving.
        objectives["zero-at-lo"] = lambda value, f=objectives["b_seq"], f_lo=objectives["b_seq"](lo): f(value) - f_lo
        objectives["zero-at-hi"] = lambda value, f=objectives["b_seq"], f_hi=objectives["b_seq"](hi): f(value) - f_hi
        for name, objective in objectives.items():
            expected = scipy_bisect(objective, lo, hi, xtol=1e-4)
            given = bisect(objective, lo, hi, xtol=1e-4, f_a=objective(lo), f_b=objective(hi))
            assert _bits([bisect(objective, lo, hi, xtol=1e-4), given]) == _bits([expected] * 2), name
        assert scipy_bisect(objectives["zero-at-lo"], lo, hi, xtol=1e-4) == lo
        assert scipy_bisect(objectives["zero-at-hi"], lo, hi, xtol=1e-4) == hi

    @pytest.mark.parametrize(
        "f, a, b, xtol",
        [
            (lambda x: x - 0.25, 0.0, 1.0, 2e-12),
            (math.cos, 0.0, 3.0, 2e-12),
            (lambda x: x**3 - 2.0, 2.0, -1.0, 2e-12),
            (math.cos, 0.0, 3.0, 1e-300),
        ],
        ids=["exact-midpoint-root", "cos", "reversed-bracket", "relative-tolerance"],
    )
    def test_bisect_matches(self, f, a, b, xtol) -> None:
        assert _bits([bisect(f, a, b, xtol=xtol)]) == _bits([scipy_bisect(f, a, b, xtol=xtol)])

    @pytest.mark.parametrize(
        "f, a, b, xtol, error, message",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0, 2e-12, ValueError, "different signs"),
            (lambda x: float("nan") if x == 0.0 else x - 0.3, 0.0, 1.0, 2e-12, ValueError, "NaN"),
            (lambda x: float("nan") if 0.4 < x < 0.6 else x - 0.7, 0.0, 1.0, 1e-4, ValueError, "NaN"),
            (lambda x: x - 1e-300, -1.0, 1.0, 1e-320, RuntimeError, "(?i)failed to converge after 100"),
            # Never evaluated: a call would raise ZeroDivisionError, not ValueError.
            (lambda x: 1.0 / 0.0, 0.0, 1.0, 0.0, ValueError, r"^xtol too small \(0 <= 0\)$"),
            (lambda x: 1.0 / 0.0, 0.0, 1.0, -1e-4, ValueError, r"^xtol too small \(-0\.0001 <= 0\)$"),
        ],
        ids=["same-sign", "nan-at-an-endpoint", "nan-at-a-midpoint", "no-convergence", "xtol-zero", "xtol-negative"],
    )
    def test_bisect_raises_as_scipy(self, f, a, b, xtol, error, message) -> None:
        for solver in (bisect, scipy_bisect):
            with pytest.raises(error, match=message):
                solver(f, a, b, xtol=xtol)


class TestSolverEdgesMatchScipy:
    """Inputs the search never gives: a NaN start, and an evaluation cap below the first simplex's n + 1."""

    @pytest.mark.parametrize(
        "objective",
        [lambda x: (x[0] - 0.3) ** 2 + (x[1] + 0.1) ** 2, lambda x: (x[1] + 0.1) ** 2],
        ids=["reads-the-nan", "ignores-the-nan"],
    )
    def test_nan_start_under_bounds_matches(self, objective) -> None:
        # Clipping keeps a NaN start coordinate NaN, as np.clip does, and it spreads to every vertex.
        result = assert_minimize_matches_scipy(objective, [math.nan, 0.5], [(0.0, 1.0), (-1.0, 1.0)])
        assert (result.success, result.nfev, math.isnan(result.x[0])) == (False, MAXFEV, True)

    @pytest.mark.parametrize("maxfev", [0, 1, 2])
    def test_maxfev_reached_in_the_first_simplex_matches(self, monkeypatch, maxfev) -> None:
        # The cap stops the first simplex's evaluations; the vertices not evaluated keep the value inf.
        monkeypatch.setattr(solvers, "MAXFEV", maxfev)
        result = assert_minimize_matches_scipy(_box_objective, [0.5, 0.5], maxfev=maxfev)
        assert (result.success, result.nfev) == (False, maxfev)


# The dense Born-rule enumeration that the link-by-link contraction replaced:
# the 4^n joint state as a Kronecker product of the filtered links, and one
# Kronecker operator per outcome.  Independent of the package's projectors.
DENSE_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# phi+, phi-, psi+, psi-, with (z@z, x@x) parity bits (0, 0), (0, 1), (1, 0), (1, 1).
DENSE_BELL = [np.array(v) / np.sqrt(2.0) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
DENSE_PARITY_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def dense_born_reference(spec: NetworkSpec, settings: MeasurementSettings):
    """Per (y_first, y_last), the outcome distribution as a dict; then I and J."""
    filtered, _ = filter_network(spec.links, spec.filters)
    joint = functools.reduce(np.kron, filtered)

    def spin(direction):
        observable = sum(d * pauli for d, pauli in zip(direction, DENSE_PAULIS))
        return 0.5 * (np.eye(2) + observable), 0.5 * (np.eye(2) - observable)

    distributions = {}
    i_value = j_value = 0.0
    for y_first, y_last in itertools.product((0, 1), repeat=2):
        first = spin((settings.m0, settings.m1)[y_first])
        last = spin((settings.n0, settings.n1)[y_last])
        distribution = {}
        for outcome in itertools.product((0, 1), *[range(4)] * (spec.n - 1), (0, 1)):
            factors = [np.outer(DENSE_BELL[m], DENSE_BELL[m]) for m in outcome[1:-1]]
            operator = functools.reduce(np.kron, [first[outcome[0]], *factors, last[outcome[-1]]])
            distribution[outcome] = float(np.einsum("ij,ji->", joint, operator).real)
        for outcome, prob in distribution.items():
            ends = outcome[0] + outcome[-1]
            i_value += (-1.0) ** (ends + sum(DENSE_PARITY_BITS[m][0] for m in outcome[1:-1])) * prob / 4.0
            j_value += (-1.0) ** (
                y_first + y_last + ends + sum(DENSE_PARITY_BITS[m][1] for m in outcome[1:-1])
            ) * prob / 4.0
        distributions[(y_first, y_last)] = distribution
    return distributions, i_value, j_value


class TestBornOracle:
    def test_distributions_are_normalised(self) -> None:
        rng = np.random.default_rng(127)
        for n in (2, 3):
            spec = NetworkSpec(links=tuple(random_density(rng) for _ in range(n)))
            settings = random_settings(rng)
            for y_first in (0, 1):
                for y_last in (0, 1):
                    dist = born_distribution(spec, settings, y_first, y_last)
                    assert len(dist) == 2 * 4 ** (n - 1) * 2
                    assert min(dist.values()) >= -1e-12
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_dense_enumeration(self, n) -> None:
        rng = np.random.default_rng(137 + n)
        for _ in range(4):
            spec = NetworkSpec(
                links=tuple(random_density(rng) for _ in range(n)),
                filters=NetworkFilterSpec(
                    eps_first=rng.uniform(0.2, 1.0),
                    eps_last=rng.uniform(0.2, 1.0),
                    middle=tuple(tuple(rng.uniform(0.2, 1.0, size=2)) for _ in range(n - 1)),
                ),
            )
            settings = random_settings(rng)
            distributions, i_value, j_value = dense_born_reference(spec, settings)
            for (y_first, y_last), expected in distributions.items():
                dist = born_distribution(spec, settings, y_first, y_last)
                assert list(dist) == list(expected)
                assert max(abs(dist[key] - prob) for key, prob in expected.items()) <= 1e-15
            oracle = born_oracle(spec, settings)
            assert abs(oracle.i_value - i_value) <= 1e-15
            assert abs(oracle.j_value - j_value) <= 1e-15

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_the_closed_form_on_long_chains(self, n) -> None:
        rng = np.random.default_rng(149 + n)
        for _ in range(3):
            spec = NetworkSpec(
                links=tuple(random_density(rng) for _ in range(n)),
                filters=NetworkFilterSpec(
                    eps_first=rng.uniform(0.2, 1.0),
                    eps_last=rng.uniform(0.2, 1.0),
                    middle=tuple(tuple(rng.uniform(0.2, 1.0, size=2)) for _ in range(n - 1)),
                ),
            )
            settings = random_settings(rng)
            oracle = born_oracle(spec, settings)
            assert abs(oracle.lhs - lhs_at_settings(spec, settings)) <= 1e-10
            assert oracle.max_distribution_dev <= 1e-10

    def test_rejects_long_chains(self) -> None:
        spec = NetworkSpec(links=(SINGLET,) * 7)
        with pytest.raises(DimensionTooLarge, match="at most 6 links"):
            born_distribution(spec, OPTIMAL_SINGLET_SETTINGS, 0, 0)

    def test_rejects_bad_setting_choice(self) -> None:
        # Checked before the chain, so a chain too long to enumerate gets the same error.
        for n in (2, 7):
            with pytest.raises(ValueError, match="settings choices must be 0 or 1"):
                born_distribution(NetworkSpec(links=(SINGLET,) * n), OPTIMAL_SINGLET_SETTINGS, 2, 0)

    def test_oracle_attains_the_singlet_bound(self) -> None:
        """Direct outcome enumeration reproduces sqrt(2) at the optimum."""
        oracle = born_oracle(NetworkSpec(links=(SINGLET, SINGLET)), OPTIMAL_SINGLET_SETTINGS)
        assert oracle.lhs == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert oracle.max_distribution_dev <= 1e-12

    def test_matches_closed_form_with_filters(self) -> None:
        rng = np.random.default_rng(131)
        spec = NetworkSpec(
            links=(grud_state(0.1, 0.23), grud_state(0.99, 0.44)),
            filters=NetworkFilterSpec(middle=((0.8, 0.97),)),
        )
        for _ in range(5):
            settings = random_settings(rng)
            oracle = born_oracle(spec, settings)
            assert oracle.lhs == pytest.approx(lhs_at_settings(spec, settings), abs=1e-10)
            assert abs(np.sqrt(abs(oracle.i_value)) + np.sqrt(abs(oracle.j_value)) - oracle.lhs) <= 1e-12


# The per-trial loop that conjecture_search ran before it drew its trials first and
# stacked the matrix work, kept as the reference its reports must equal field for
# field.  The only addition is ``stages``: for each annihilated trial, the number of
# links built before the annihilation (2 when only the chain filter annihilated).


def reference_random_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
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


def reference_random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    return _quaternion_unitary(quat)


def reference_conjecture_search(trials: int, seed: int = 0, stages: list | None = None) -> ConjectureReport:
    rng = np.random.default_rng(seed)
    zeros = np.zeros(3)
    max_b_seq = 0.0
    max_b_lin = 0.0
    max_dev = 0.0
    done = 0
    rejected = 0
    annihilated = 0
    while done < trials:
        w_pair = (reference_random_bell_diagonal(rng), reference_random_bell_diagonal(rng))
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
                u_left = reference_random_local_unitary(rng)
                u_right = reference_random_local_unitary(rng)
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
            if stages is not None:
                stages.append(len(links))
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


# conjecture_search draws the reference loop's numbers through cheaper generator calls.  These are
# the numpy identities it relies on, each compared bit for bit on fresh generators; a numpy release
# that breaks one fails the test that names it.
IDENTITY_SEEDS = range(8)


def _hex(values) -> list[str]:
    return [float(value).hex() for value in np.ravel(values)]


def _same_stream(seed: int, reference, cheap) -> None:
    """``reference`` and ``cheap`` give the same floats and leave their generators at the same position."""
    reference_rng, cheap_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _hex(reference(reference_rng)) == _hex(cheap(cheap_rng))
    assert reference_rng.bit_generator.state == cheap_rng.bit_generator.state


class TestNumpyIdentities:
    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_uniform_on_minus_one_to_one_is_random_mapped(self, seed) -> None:
        _same_stream(
            seed,
            lambda rng: [rng.uniform(-1.0, 1.0, size=3) for _ in range(50)],
            lambda rng: [[-1.0 + 2.0 * u for u in rng.random(3).tolist()] for _ in range(50)],
        )

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_uniform_block_on_zero_to_one_is_random(self, seed) -> None:
        _same_stream(
            seed,
            lambda rng: [rng.uniform(size=(2, 2)) for _ in range(50)],
            lambda rng: [rng.random(4) for _ in range(50)],
        )

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_four_normal_calls_are_one_block(self, seed) -> None:
        _same_stream(
            seed,
            lambda rng: [[rng.normal(size=4) for _ in range(4)] for _ in range(50)],
            lambda rng: [rng.normal(size=(4, 4)) for _ in range(50)],
        )

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    def test_an_empty_normal_block_draws_nothing(self, seed) -> None:
        _same_stream(
            seed,
            lambda rng: rng.normal(size=3),
            lambda rng: [*rng.normal(size=(0, 4)).ravel(), *rng.normal(size=3)],
        )


class TestConjectureSearch:
    def test_smoke_run(self) -> None:
        report = conjecture_search(25, seed=3)
        assert report.trials == 25
        assert report.seed == 3
        assert report.max_b_lin <= 1.0
        assert report.max_b_seq <= 1.0 + 1e-9
        assert report.max_closed_form_dev <= 1e-10

    def test_counts_rejected_and_annihilated_draws(self) -> None:
        report = conjecture_search(50, seed=2)
        assert (report.trials, report.seed) == (50, 2)
        # Counting leaves the sampled stream, and so the maxima, as they were without it.
        assert report.max_b_seq == pytest.approx(0.9465922964477721, rel=1e-12)
        assert report.max_b_lin == pytest.approx(0.9351491759200449, rel=1e-12)
        assert report.rejected >= 0 and report.annihilated >= 0
        again = conjecture_search(50, seed=2)
        assert (again.rejected, again.annihilated) == (report.rejected, report.annihilated)

    # The default threshold annihilates nothing on these seeds; the raised ones reach the
    # second link annihilating after the first link's deviation was taken (stage 1) and the
    # chain filter annihilating a trial whose links both passed their own filters (stage 2).
    @pytest.mark.parametrize(
        "atol, stages_reached", [(filtering.ANNIHILATION_ATOL, set()), (0.05, {1}), (0.15, {1, 2})]
    )
    def test_reports_equal_the_per_trial_loop(self, monkeypatch, atol, stages_reached) -> None:
        monkeypatch.setattr(filtering, "ANNIHILATION_ATOL", atol)
        stages: list[int] = []
        for seed in range(20):
            expected = reference_conjecture_search(100, seed=seed, stages=stages)
            assert conjecture_search(100, seed=seed) == expected, f"seed {seed}"
        assert stages_reached <= set(stages)

    @pytest.mark.parametrize("trials", [2.5, -3, True])
    def test_rejects_a_trial_count_that_is_not_a_non_negative_integer(self, trials) -> None:
        with pytest.raises(ValueError, match="trials must be a non-negative integer"):
            conjecture_search(trials)

    def test_takes_numpy_integers_and_zero(self) -> None:
        report = conjecture_search(np.int64(5), seed=1)
        assert report == conjecture_search(5, seed=1)
        assert type(report.trials) is int
        assert conjecture_search(0) == ConjectureReport(
            trials=0, seed=0, max_b_seq=0.0, max_b_lin=0.0, max_closed_form_dev=0.0, rejected=0, annihilated=0
        )

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed) -> None:
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            conjecture_search(5, seed=seed)

    def test_takes_a_numpy_integer_seed(self) -> None:
        report = conjecture_search(5, seed=np.int64(1))
        assert report == conjecture_search(5, seed=1)
        assert type(report.seed) is int

    def test_validates_each_stack_in_one_call_and_raises_its_failure(self, monkeypatch) -> None:
        calls = []
        failing = []

        def counted(rho):
            calls.append(np.shape(rho))
            if len(calls) in failing:
                raise NotPositive("injected")
            return validate_density(rho)

        def located(outputs):
            # The filter stages locate a failure after validate_density raises; the injected one too.
            return (0,), NotPositive("injected")

        monkeypatch.setattr("qnetfilter.core.validate_density", counted)
        monkeypatch.setattr("qnetfilter.nlocal.validate_density", counted)
        monkeypatch.setattr("qnetfilter.filtering.validate_density", counted)
        monkeypatch.setattr("qnetfilter.filtering._first_failure", located)
        conjecture_search(100, seed=4)
        # The aligned states, the direct filter outputs, the rotated links and the chain filter outputs.
        assert calls == [(200, 4, 4), (200, 4, 4), (100, 2, 4, 4), (200, 4, 4)]
        for call in range(1, 5):
            calls.clear()
            failing[:] = [call]
            with pytest.raises(NotPositive, match="injected"):
                conjecture_search(100, seed=4)
