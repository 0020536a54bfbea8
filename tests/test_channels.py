"""Tests for the Kraus channels.

Closed-form expectations are derived directly from the Kraus operators:

* bit flip on both qubits of the singlet mixes it with the "flipped singlet"
  (X@X maps |01>-|10> to itself up to sign, X@I maps it onto (|00>-|11>)):

      rho -> ((1-p)^2 + p^2) |psi-><psi-| + 2p(1-p) |phi-><phi-|

* amplitude damping on both qubits of cos t|01> + sin t|10> leaks the single
  excitation to the ground state:

      rho -> (1-g) |psi_t><psi_t| + g |00><00|
"""

from __future__ import annotations

import numpy as np
import pytest

from qnetfilter import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    bit_flip,
    pure_theta_state,
    validate_density,
    werner_state,
)


def ket(index: int) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[index] = 1.0
    return vec


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def random_density(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


class TestKrausChannel:
    def test_rejects_incomplete_operators(self) -> None:
        with pytest.raises(ValueError, match="completeness deviation"):
            KrausChannel(ops=(0.5 * np.eye(2),), name="broken")

    def test_rejects_wrong_shape(self) -> None:
        with pytest.raises(ValueError, match="must be 2x2"):
            KrausChannel(ops=(np.eye(3),))

    def test_rejects_empty(self) -> None:
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(ops=())


class TestBitFlip:
    def test_zero_probability_is_the_identity_channel(self) -> None:
        rng = np.random.default_rng(67)
        rho = random_density(rng)
        np.testing.assert_allclose(apply_channel(rho, bit_flip(0.0)), rho, atol=1e-12)

    def test_left_qubit_population_transfer(self) -> None:
        """On |00><00| the left-side channel moves weight to |10><10|."""
        p = 0.3
        out = apply_channel(projector(ket(0)), bit_flip(p), sides="left")
        expected = (1.0 - p) * projector(ket(0)) + p * projector(ket(2))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_both_sides_on_the_singlet(self) -> None:
        p = 0.25
        singlet = werner_state(1.0)
        phi_minus = projector((ket(0) - ket(3)) / np.sqrt(2.0))
        expected = ((1.0 - p) ** 2 + p**2) * singlet + 2.0 * p * (1.0 - p) * phi_minus
        np.testing.assert_allclose(apply_channel(singlet, bit_flip(p)), expected, atol=1e-12)

    def test_rejects_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="p must lie"):
            bit_flip(1.01)


class TestAmplitudeDamping:
    def test_decay_of_the_doubly_excited_state(self) -> None:
        """|11><11| decays through |01>, |10> into |00> at the expected rates."""
        gamma = 0.4
        out = apply_channel(projector(ket(3)), amplitude_damping(gamma))
        expected = (
            (1.0 - gamma) ** 2 * projector(ket(3))
            + gamma * (1.0 - gamma) * (projector(ket(1)) + projector(ket(2)))
            + gamma**2 * projector(ket(0))
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_excitation_states_decay_to_ground(self) -> None:
        for theta in (0.2, 0.55):
            for gamma in (0.1, 0.7):
                base = pure_theta_state(theta)
                expected = (1.0 - gamma) * base + gamma * projector(ket(0))
                np.testing.assert_allclose(
                    apply_channel(base, amplitude_damping(gamma), sides="both"),
                    expected,
                    atol=1e-12,
                )

    def test_full_damping_reaches_the_ground_state(self) -> None:
        rng = np.random.default_rng(71)
        out = apply_channel(random_density(rng), amplitude_damping(1.0))
        np.testing.assert_allclose(out, projector(ket(0)), atol=1e-12)

    def test_rejects_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="gamma must lie"):
            amplitude_damping(-0.2)


class TestApplyChannel:
    def test_output_is_a_density_matrix(self) -> None:
        rng = np.random.default_rng(73)
        for _ in range(15):
            rho = random_density(rng)
            channel = bit_flip(rng.uniform()) if rng.uniform() < 0.5 else amplitude_damping(rng.uniform())
            for sides in ("both", "left", "right"):
                out = apply_channel(rho, channel, sides=sides)
                validate_density(out)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_left_and_right_sides_differ_on_asymmetric_states(self) -> None:
        rho = projector(ket(1))  # |01><01|
        channel = amplitude_damping(0.5)
        left = apply_channel(rho, channel, sides="left")
        right = apply_channel(rho, channel, sides="right")
        np.testing.assert_allclose(left, rho, atol=1e-12)  # left qubit already |0>
        assert not np.allclose(right, rho)

    def test_equals_the_kron_pair_loop(self) -> None:
        ident = np.eye(2, dtype=complex)
        rng = np.random.default_rng(29)
        for _ in range(20):
            rho = random_density(rng)
            for channel in (bit_flip(rng.uniform()), amplitude_damping(rng.uniform())):
                for sides, pairs in (
                    ("left", [np.kron(op, ident) for op in channel.ops]),
                    ("right", [np.kron(ident, op) for op in channel.ops]),
                    ("both", [np.kron(op_a, op_b) for op_a in channel.ops for op_b in channel.ops]),
                ):
                    expected = np.zeros((4, 4), dtype=complex)
                    for op in pairs:
                        expected += op @ rho @ op.conj().T
                    # Bytes, not ==, so that a -0.0 in place of 0.0 fails too.
                    assert apply_channel(rho, channel, sides=sides).tobytes() == expected.tobytes(), sides

    def test_rejects_unknown_sides(self) -> None:
        with pytest.raises(ValueError, match="sides must be one of"):
            apply_channel(np.eye(4) / 4.0, bit_flip(0.1), sides="up")
