"""Tests for local filtering and the per-link network assignment."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qnetfilter import (
    FilterAnnihilatesState,
    NetworkFilterSpec,
    NotPositive,
    apply_link_filter,
    filter_network,
    filtered_bell_diagonal,
    bloch_decompose,
    from_bloch,
    validate_density,
)
from qnetfilter.filtering import _filter_chains


# Valid within tolerance with an eigenvalue of -9e-10, which a strong filter amplifies past it.
BARELY_VALID = np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10]).astype(complex)
# |00><00|: a 0 filter on either qubit leaves nothing to post-select.
GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def random_density(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


def random_bell_diagonal_entries(rng: np.random.Generator) -> np.ndarray:
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


def conjugated(rho: np.ndarray, eps_l: float, eps_r: float) -> tuple[np.ndarray, float]:
    """Direct conjugation by diag(eps_l, 1) @ diag(eps_r, 1), normalised, and its trace."""
    op = np.kron(np.diag([eps_l, 1.0]), np.diag([eps_r, 1.0]))
    raw = op @ rho @ op.conj().T
    success = np.trace(raw).real
    return raw / success, success


class TestApplyLinkFilter:
    """Single-link filtering against direct operator conjugation."""

    def test_identity_filter_is_a_no_op(self) -> None:
        rho = np.eye(4, dtype=complex) / 4.0
        state, success = apply_link_filter(rho, 1.0, 1.0)
        assert state is rho
        assert success == 1.0
        state, success = apply_link_filter(rho, 1.0, 0.99)
        assert state is not rho and success < 1.0

    def test_matches_direct_conjugation(self) -> None:
        rng = np.random.default_rng(43)
        for _ in range(40):
            rho = random_density(rng)
            eps_l, eps_r = rng.uniform(0.05, 1.0, size=2)
            state, success = apply_link_filter(rho, eps_l, eps_r)
            expected, expected_success = conjugated(rho, eps_l, eps_r)
            assert success == pytest.approx(expected_success, abs=1e-12)
            np.testing.assert_allclose(state, expected, atol=1e-12)

    @pytest.mark.parametrize("eps_l, eps_r", [(0.0, 0.6), (0.6, 0.0), (1.0, 0.3), (0.3, 1.0)])
    def test_boundary_strengths_match_direct_conjugation(self, eps_l, eps_r) -> None:
        # eps 0 projects one qubit onto |1>; eps 1 on one side only leaves that qubit unfiltered.
        rng = np.random.default_rng(67)
        for _ in range(10):
            rho = random_density(rng)
            state, success = apply_link_filter(rho, eps_l, eps_r)
            expected, expected_success = conjugated(rho, eps_l, eps_r)
            assert success == pytest.approx(expected_success, abs=1e-12)
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_output_is_normalised(self) -> None:
        rng = np.random.default_rng(47)
        state, _ = apply_link_filter(random_density(rng), 0.4, 0.9)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)

    def test_annihilated_state_raises(self) -> None:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00| is killed by a zero filter on either qubit
        with pytest.raises(FilterAnnihilatesState, match="success probability"):
            apply_link_filter(rho, 0.0, 0.5)

    @pytest.mark.parametrize("eps_l, eps_r, name", [(-0.1, 0.5, "eps_left"), (0.5, 1.5, "eps_right")])
    def test_rejects_out_of_range(self, eps_l, eps_r, name) -> None:
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            apply_link_filter(np.eye(4) / 4.0, eps_l, eps_r)


class TestFilterNetwork:
    @pytest.mark.parametrize(
        "spec, strengths",
        [
            (
                NetworkFilterSpec(eps_first=0.9, eps_last=0.8, middle=((0.1, 0.2),)),
                [(0.9, 0.1), (0.2, 0.8)],
            ),
            (
                NetworkFilterSpec(eps_first=0.9, eps_last=0.8, middle=((0.1, 0.2), (0.3, 0.4))),
                [(0.9, 0.1), (0.2, 0.3), (0.4, 0.8)],
            ),
        ],
        ids=["two-links", "three-links"],
    )
    def test_equals_per_link_filters(self, spec, strengths) -> None:
        rng = np.random.default_rng(71)
        states = [random_density(rng) for _ in strengths]
        filtered, overall = filter_network(states, spec)
        assert filtered.shape == (len(states), 4, 4)
        expected = [apply_link_filter(rho, *pair)[0] for rho, pair in zip(states, strengths)]
        assert np.array_equal(filtered, np.stack(expected))

    def test_overall_success_is_the_product(self) -> None:
        rng = np.random.default_rng(53)
        states = [random_density(rng) for _ in range(3)]
        spec = NetworkFilterSpec(eps_first=0.7, eps_last=0.9, middle=((0.5, 0.6), (0.8, 0.95)))
        _, overall = filter_network(states, spec)
        strengths = [(0.7, 0.5), (0.6, 0.8), (0.95, 0.9)]
        successes = [apply_link_filter(rho, *pair)[1] for rho, pair in zip(states, strengths)]
        assert overall == pytest.approx(np.prod(successes), abs=1e-15)

    def test_identity_spec_returns_inputs(self) -> None:
        rng = np.random.default_rng(59)
        states = [random_density(rng) for _ in range(2)]
        filtered, overall = filter_network(states, NetworkFilterSpec.identity(2))
        assert overall == 1.0
        assert np.array_equal(filtered, np.stack(states))

    def test_strengths_are_one_read_only_row_per_link(self) -> None:
        spec = NetworkFilterSpec(eps_first=0.1, eps_last=0.6, middle=((0.2, 0.3), (0.4, 0.5)))
        assert spec._strengths.tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        assert spec._strengths is spec._strengths
        with pytest.raises(ValueError, match="read-only"):
            spec._strengths[0, 0] = 1.0

    def test_identity_classmethod(self) -> None:
        spec = NetworkFilterSpec.identity(4)
        assert spec.eps_first == spec.eps_last == 1.0
        assert spec.middle == ((1.0, 1.0),) * 3

    def test_rejects_wrong_middle_length(self) -> None:
        states = [np.eye(4) / 4.0] * 3
        with pytest.raises(ValueError, match="expected 2 intermediate filter pairs for 3 links, got 1"):
            filter_network(states, NetworkFilterSpec(middle=((0.5, 0.5),)))

    @pytest.mark.parametrize(
        "middle",
        [((0.1, 0.2, 0.3),), ((0.5,),), (0.5,), ((0.5, 0.5), (0.5,))],
        ids=["triple", "single", "scalar", "second-entry"],
    )
    def test_rejects_a_middle_entry_that_is_not_a_pair(self, middle) -> None:
        index = len(middle) - 1
        with pytest.raises(ValueError, match=rf"middle\[{index}\] must be a pair of two strengths"):
            NetworkFilterSpec(middle=middle)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"middle": 0.5}, "middle must be a sequence of strength pairs, got 0.5"),
            ({"middle": None}, "middle must be a sequence of strength pairs, got None"),
            ({"eps_first": None}, "eps_first must be a number in [0, 1], got None"),
            ({"eps_last": "high"}, "eps_last must be a number in [0, 1], got 'high'"),
            ({"middle": ((0.5, None),)}, "middle[0][1] must be a number in [0, 1], got None"),
        ],
        ids=["middle-scalar", "middle-none", "first-none", "last-string", "pair-none"],
    )
    def test_rejects_a_field_that_is_not_a_strength(self, fields, message) -> None:
        with pytest.raises(ValueError) as caught:
            NetworkFilterSpec(**fields)
        assert str(caught.value) == message

    def test_stores_every_strength_as_a_float(self) -> None:
        spec = NetworkFilterSpec(eps_first="0.5", eps_last=np.float32(0.25), middle=[(1, np.float64(0.97))])
        strengths = (spec.eps_first, spec.eps_last, *spec.middle[0])
        assert strengths == (0.5, 0.25, 1.0, 0.97)
        assert all(type(eps) is float for eps in strengths)
        _, success = filter_network([np.eye(4) / 4.0, np.eye(4) / 4.0], spec)
        assert 0.0 < success < 1.0

    def test_rejects_short_chain(self) -> None:
        with pytest.raises(ValueError, match="a chain needs at least 2 links, got 1"):
            filter_network([np.eye(4) / 4.0], NetworkFilterSpec(middle=()))

    def test_annihilation_names_the_link(self) -> None:
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        states = [np.eye(4, dtype=complex) / 4.0, ground]
        spec = NetworkFilterSpec(eps_first=1.0, eps_last=0.0, middle=((1.0, 0.0),))
        with pytest.raises(FilterAnnihilatesState, match="link 2:"):
            filter_network(states, spec)

    @pytest.mark.parametrize(
        "states, spec, error, message",
        [
            (
                (BARELY_VALID, GROUND),
                NetworkFilterSpec(eps_first=1e-4, eps_last=1.0, middle=((1.0, 0.0),)),
                NotPositive,
                "link 1: filtered state has minimum eigenvalue -3.600e-09 below -1e-09",
            ),
            (
                (GROUND, BARELY_VALID),
                NetworkFilterSpec(eps_first=0.0, eps_last=1.0, middle=((1.0, 1e-4),)),
                FilterAnnihilatesState,
                "link 1: post-selection success probability 0.000e+00 is at or below 1e-12",
            ),
            (
                (BARELY_VALID, GROUND, BARELY_VALID),
                NetworkFilterSpec(eps_first=1.0, eps_last=1e-4, middle=((1.0, 0.0), (1.0, 1.0))),
                FilterAnnihilatesState,
                "link 2: post-selection success probability 0.000e+00 is at or below 1e-12",
            ),
        ],
        ids=["not-positive-then-annihilated", "annihilated-then-not-positive", "identity-link-first"],
    )
    def test_the_first_failing_link_is_reported(self, states, spec, error, message) -> None:
        # Link by link, as each link would fail alone: positivity of link k before annihilation
        # of link k+1, and annihilation of link k before positivity of link k+1.
        with pytest.raises(ValueError) as caught:
            filter_network(states, spec)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_filtered_links_are_validated_in_one_call(self, monkeypatch) -> None:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.filtering.validate_density", counted)
        rng = np.random.default_rng(73)
        states = [random_density(rng) for _ in range(4)]
        spec = NetworkFilterSpec(eps_first=0.7, eps_last=0.9, middle=((0.5, 1.0), (1.0, 1.0), (0.8, 0.95)))
        filter_network(states, spec)
        assert calls == [(3, 4, 4)]

    def test_an_annihilating_link_is_reported_without_replaying_the_chain(self, monkeypatch) -> None:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.filtering.validate_density", counted)
        monkeypatch.setattr("qnetfilter.filtering.apply_link_filter", lambda *args: calls.append("apply_link_filter"))
        rng = np.random.default_rng(73)
        states = [random_density(rng) for _ in range(3)]
        # Link 2 filters |00><00| with a 0 on its first qubit.
        states[1] = GROUND
        spec = NetworkFilterSpec(eps_first=0.7, eps_last=0.9, middle=((0.5, 0.0), (0.8, 0.95)))
        with pytest.raises(FilterAnnihilatesState, match="link 2:"):
            filter_network(states, spec)
        # Only link 1, the filtered link before the annihilated one, is validated.
        assert calls == [(1, 4, 4)]

    def test_identity_links_pass_unchanged_among_filtered_ones(self) -> None:
        rng = np.random.default_rng(61)
        states = np.array([random_density(rng) for _ in range(3)])
        spec = NetworkFilterSpec(eps_first=1.0, eps_last=0.6, middle=((1.0, 1.0), (1.0, 0.9)))
        filtered, overall = filter_network(states, spec)
        assert np.array_equal(filtered[:2], states[:2])
        state, success = apply_link_filter(states[2], 0.9, 0.6)
        assert np.array_equal(filtered[2], state)
        assert overall == 1.0 * 1.0 * success


def chain_spec(eps: np.ndarray) -> NetworkFilterSpec:
    """The spec that gives a chain the ``(n, 2)`` strengths (left, right) per link."""
    return NetworkFilterSpec(eps_first=eps[0, 0], eps_last=eps[-1, 1], middle=tuple(zip(eps[:-1, 1], eps[1:, 0])))


def random_chain_stack(rng: np.random.Generator, t: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t, n, 4, 4)`` chains and ``(t, n, 2)`` strengths mixing filtered, identity and annihilated links.

    An annihilated link is GROUND under a 0 strength; a link after it may be BARELY_VALID under
    (1e-4, 1), whose filtered state would fail validation.
    """
    chains = np.array([[random_density(rng) for _ in range(n)] for _ in range(t)])
    eps = rng.uniform(0.05, 1.0, size=(t, n, 2))
    kinds = rng.choice(3, size=(t, n), p=[0.6, 0.25, 0.15])
    eps[kinds == 1] = 1.0
    for chain, link in np.argwhere(kinds == 2):
        chains[chain, link] = GROUND
        eps[chain, link, rng.integers(2)] = 0.0
        if link + 1 < n and rng.uniform() < 0.5:
            later = rng.integers(link + 1, n)
            chains[chain, later] = BARELY_VALID
            eps[chain, later] = (1e-4, 1.0)
    return chains, eps


class TestFilterChains:
    """The stacked chain filter agrees with filter_network on every chain of a stack."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_chain_matches_filter_network(self, n) -> None:
        rng = np.random.default_rng(1000 + n)
        chains, eps = random_chain_stack(rng, 40, n)
        filtered, success, alive = _filter_chains(chains, eps)
        assert filtered.shape == chains.shape and success.shape == alive.shape + (n,) == (40, n)
        for chain, links in enumerate(chains):
            assert np.array_equal(chain_spec(eps[chain])._strengths, eps[chain])
            try:
                expected, overall = filter_network(links, chain_spec(eps[chain]))
            except FilterAnnihilatesState:
                assert not alive[chain]
                continue
            assert alive[chain]
            assert np.array_equal(filtered[chain], expected)
            assert success[chain].tolist() == [apply_link_filter(*link)[1] for link in zip(links, *eps[chain].T)]
            assert math.prod(success[chain].tolist()) == overall
        identity = (eps == 1.0).all(axis=-1)
        assert np.array_equal(filtered[identity], chains[identity]) and (success[identity] == 1.0).all()
        # Every kind of chain occurs: surviving, annihilated, and annihilated before a link that would fail.
        after_dead = (chains == BARELY_VALID).all(axis=(-2, -1)).any(axis=-1)
        assert alive.any() and (~alive & ~after_dead).any() and after_dead.any()

    def test_the_first_chain_that_fails_validation_raises_its_error(self) -> None:
        rng = np.random.default_rng(77)
        chains, eps = random_chain_stack(rng, 40, 3)
        alive = _filter_chains(chains, eps)[2]
        first, second = np.flatnonzero(alive)[[3, 5]]
        # In C order, the last link of the earlier chain fails before the first link of the later one.
        for chain, link in ((first, 2), (second, 0)):
            chains[chain, link] = BARELY_VALID
            eps[chain, link] = (1e-4, 1.0)
        with pytest.raises(ValueError) as expected:
            filter_network(chains[first], chain_spec(eps[first]))
        with pytest.raises(ValueError) as caught:
            _filter_chains(chains, eps)
        assert type(caught.value) is type(expected.value) is NotPositive
        assert str(caught.value) == str(expected.value)
        assert str(caught.value).startswith("link 3: filtered state has")


class TestFilteredBellDiagonal:
    """Closed form for null-Bloch-vector states versus the generic path."""

    def test_matches_generic_filtering(self) -> None:
        rng = np.random.default_rng(61)
        for _ in range(40):
            w = random_bell_diagonal_entries(rng)
            eps_l, eps_r = rng.uniform(0.1, 1.0, size=2)
            closed_w, closed_success = filtered_bell_diagonal(w, eps_l, eps_r)
            direct, direct_success = apply_link_filter(
                from_bloch(np.zeros(3), np.zeros(3), np.diag(w)), eps_l, eps_r
            )
            assert closed_success == pytest.approx(direct_success, abs=1e-12)
            np.testing.assert_allclose(np.diag(closed_w), bloch_decompose(direct).W, atol=1e-12)

    def test_one_sided_zero_filter_matches_generic_filtering(self) -> None:
        rng = np.random.default_rng(73)
        for _ in range(10):
            w = random_bell_diagonal_entries(rng)
            closed_w, closed_success = filtered_bell_diagonal(w, 0.0, 1.0)
            direct, direct_success = apply_link_filter(
                from_bloch(np.zeros(3), np.zeros(3), np.diag(w)), 0.0, 1.0
            )
            assert closed_success == pytest.approx(direct_success, abs=1e-12)
            np.testing.assert_allclose(np.diag(closed_w), bloch_decompose(direct).W, atol=1e-12)

    def test_identity_filter_keeps_the_state(self) -> None:
        w = np.array([0.3, -0.5, 0.7])
        filtered, success = filtered_bell_diagonal(w, 1.0, 1.0)
        assert success == 1.0
        np.testing.assert_allclose(filtered, w, atol=1e-15)

    def test_annihilation_raises(self) -> None:
        # w3 = -1 with zero filters sends the success probability to zero.
        with pytest.raises(FilterAnnihilatesState):
            filtered_bell_diagonal(np.array([-1.0, -1.0, -1.0]), 0.0, 0.0)

    def test_rejects_bad_shape(self) -> None:
        with pytest.raises(ValueError, match="three diagonal"):
            filtered_bell_diagonal(np.zeros(4), 0.5, 0.5)
