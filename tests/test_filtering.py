"""Tests for local filtering and the per-link network assignment."""

from __future__ import annotations

import numpy as np
import pytest

from qnetfilter import (
    FilterAnnihilatesState,
    FilteredLink,
    LinkFilter,
    NetworkFilterSpec,
    apply_link_filter,
    assign_network_filters,
    filter_network,
    filter_operator,
    filtered_bell_diagonal,
    bloch_decompose,
    from_bloch,
)


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


class TestFilterOperator:
    def test_matrix(self) -> None:
        np.testing.assert_allclose(filter_operator(0.3), np.diag([0.3, 1.0]))

    def test_rejects_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="must lie in"):
            filter_operator(1.5)


class TestLinkFilter:
    def test_identity_detection(self) -> None:
        assert LinkFilter(1.0, 1.0).is_identity
        assert not LinkFilter(1.0, 0.99).is_identity

    def test_rejects_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="epsL"):
            LinkFilter(-0.1, 0.5)


class TestApplyLinkFilter:
    """Single-link filtering against direct operator conjugation."""

    def test_identity_filter_is_a_no_op(self) -> None:
        rho = np.eye(4, dtype=complex) / 4.0
        out = apply_link_filter(rho, LinkFilter(1.0, 1.0))
        assert isinstance(out, FilteredLink)
        assert out.state is rho
        assert out.success_prob == 1.0

    def test_matches_direct_conjugation(self) -> None:
        rng = np.random.default_rng(43)
        for _ in range(40):
            rho = random_density(rng)
            eps_l, eps_r = rng.uniform(0.05, 1.0, size=2)
            out = apply_link_filter(rho, LinkFilter(eps_l, eps_r))
            op = np.kron(filter_operator(eps_l), filter_operator(eps_r))
            raw = op @ rho @ op.conj().T
            success = np.trace(raw).real
            assert out.success_prob == pytest.approx(success, abs=1e-12)
            np.testing.assert_allclose(out.state, raw / success, atol=1e-12)

    def test_output_is_normalised(self) -> None:
        rng = np.random.default_rng(47)
        out = apply_link_filter(random_density(rng), LinkFilter(0.4, 0.9))
        assert np.trace(out.state).real == pytest.approx(1.0, abs=1e-12)

    def test_annihilated_state_raises(self) -> None:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00| is killed by a zero filter on either qubit
        with pytest.raises(FilterAnnihilatesState, match="success probability"):
            apply_link_filter(rho, LinkFilter(0.0, 0.5))


class TestAssignNetworkFilters:
    def test_chain_of_three(self) -> None:
        spec = NetworkFilterSpec(eps_first=0.9, eps_last=0.8, middle=((0.1, 0.2), (0.3, 0.4)))
        filters = assign_network_filters(3, spec)
        assert filters == [LinkFilter(0.9, 0.1), LinkFilter(0.2, 0.3), LinkFilter(0.4, 0.8)]

    def test_chain_of_two(self) -> None:
        spec = NetworkFilterSpec(eps_first=0.9, eps_last=0.8, middle=((0.1, 0.2),))
        assert assign_network_filters(2, spec) == [LinkFilter(0.9, 0.1), LinkFilter(0.2, 0.8)]

    def test_rejects_wrong_middle_length(self) -> None:
        with pytest.raises(ValueError, match="intermediate filter pairs"):
            assign_network_filters(3, NetworkFilterSpec(middle=((0.5, 0.5),)))

    def test_rejects_short_chain(self) -> None:
        with pytest.raises(ValueError, match="at least 2 links"):
            assign_network_filters(1, NetworkFilterSpec(middle=()))

    def test_identity_classmethod(self) -> None:
        spec = NetworkFilterSpec.identity(4)
        assert spec.eps_first == spec.eps_last == 1.0
        assert all(f.is_identity for f in assign_network_filters(4, spec))


class TestFilterNetwork:
    def test_overall_success_is_the_product(self) -> None:
        rng = np.random.default_rng(53)
        states = [random_density(rng) for _ in range(3)]
        spec = NetworkFilterSpec(eps_first=0.7, eps_last=0.9, middle=((0.5, 0.6), (0.8, 0.95)))
        filtered, overall = filter_network(states, spec)
        assert len(filtered) == 3
        assert overall == pytest.approx(np.prod([f.success_prob for f in filtered]), abs=1e-15)

    def test_identity_spec_returns_inputs(self) -> None:
        rng = np.random.default_rng(59)
        states = [random_density(rng) for _ in range(2)]
        filtered, overall = filter_network(states, NetworkFilterSpec.identity(2))
        assert overall == 1.0
        assert filtered[0].state is states[0]
        assert filtered[1].state is states[1]

    def test_annihilation_names_the_link(self) -> None:
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        states = [np.eye(4, dtype=complex) / 4.0, ground]
        spec = NetworkFilterSpec(eps_first=1.0, eps_last=0.0, middle=((1.0, 0.0),))
        with pytest.raises(FilterAnnihilatesState, match="link 2:"):
            filter_network(states, spec)


class TestFilteredBellDiagonal:
    """Closed form for null-Bloch-vector states versus the generic path."""

    def test_matches_generic_filtering(self) -> None:
        rng = np.random.default_rng(61)
        for _ in range(40):
            w = random_bell_diagonal_entries(rng)
            eps_l, eps_r = rng.uniform(0.1, 1.0, size=2)
            closed_w, closed_success = filtered_bell_diagonal(w, eps_l, eps_r)
            direct = apply_link_filter(
                from_bloch(np.zeros(3), np.zeros(3), np.diag(w)), LinkFilter(eps_l, eps_r)
            )
            assert closed_success == pytest.approx(direct.success_prob, abs=1e-12)
            np.testing.assert_allclose(
                np.diag(closed_w), bloch_decompose(direct.state).W, atol=1e-12
            )

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
