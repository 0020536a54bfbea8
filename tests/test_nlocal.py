"""Tests for the chain bounds, the settings optimizer and the Born-rule oracle."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from qnetfilter import (
    DimensionTooLarge,
    EvalResult,
    MeasurementSettings,
    NetworkFilterSpec,
    NetworkSpec,
    NotPositive,
    b_lin,
    b_seq,
    born_distribution,
    born_oracle,
    canonical_frame,
    conjecture_search,
    evaluate,
    filter_network,
    from_bloch,
    grud_state,
    lhs_at_settings,
    maximize_lhs,
    product_state,
    pure_theta_state,
    werner_state,
    x_state,
)

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


class TestFilteredStates:
    """Each filtered path sees the same validated filter output."""

    # Valid to -9e-10; the filter scales that eigenvalue to about -0.22.
    BARELY_VALID = np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10])
    STRONG = NetworkFilterSpec(eps_first=1e-4, eps_last=1.0, middle=((1e-4, 1.0),))

    @pytest.mark.parametrize(
        "entry",
        [
            evaluate,
            lambda spec: b_seq(spec),
            lambda spec: maximize_lhs(spec, restarts=0),
            lambda spec: lhs_at_settings(spec, OPTIMAL_SINGLET_SETTINGS),
            lambda spec: born_oracle(spec, OPTIMAL_SINGLET_SETTINGS),
        ],
        ids=["evaluate", "b_seq", "maximize_lhs", "lhs_at_settings", "born_oracle"],
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


class TestBLin:
    def test_validates_its_links(self) -> None:
        with pytest.raises(NotPositive, match="minimum eigenvalue"):
            b_lin([SINGLET, NOT_POSITIVE])

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
        assert loud.lhs_at_settings is None


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

    def test_deterministic_for_fixed_seed(self) -> None:
        rng = np.random.default_rng(113)
        spec = NetworkSpec(links=(random_density(rng), random_density(rng)))
        first, _ = maximize_lhs(spec, seed=4)
        second, _ = maximize_lhs(spec, seed=4)
        assert first == second


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
            distribution[outcome] = float(np.real(np.trace(joint @ operator)))
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

    @pytest.mark.parametrize("n", [2, 3])
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

    def test_rejects_long_chains(self) -> None:
        spec = NetworkSpec(links=(SINGLET,) * 4)
        with pytest.raises(DimensionTooLarge, match="at most 3 links"):
            born_distribution(spec, OPTIMAL_SINGLET_SETTINGS, 0, 0)

    def test_rejects_bad_setting_choice(self) -> None:
        spec = NetworkSpec(links=(SINGLET, SINGLET))
        with pytest.raises(ValueError, match="0 or 1"):
            born_distribution(spec, OPTIMAL_SINGLET_SETTINGS, 2, 0)

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
