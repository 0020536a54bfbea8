"""Tests for the density-matrix kernel: validation, Bloch form, canonical frame."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from qnetfilter import (
    BlochForm,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    bloch_decompose,
    canonical_frame,
    correlation_singular_values,
    from_bloch,
    grud_state,
    matrix_from_pairs,
    matrix_to_pairs,
    product_state,
    pure_theta_state,
    rotation_to_unitary,
    validate_density,
    werner_state,
)
from qnetfilter.core import _bloch_form

SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5

PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_density(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


# diag(1.5, -0.5, 0, 0): Hermitian with unit trace, but not positive.
NOT_POSITIVE = np.diag([1.5, -0.5, 0.0, 0.0])


@pytest.mark.parametrize("entry", [bloch_decompose, canonical_frame, correlation_singular_values])
def test_public_decompositions_validate_their_input(entry) -> None:
    # States are validated where they enter the package; these functions take a caller's matrix.
    with pytest.raises(NotPositive, match="minimum eigenvalue"):
        entry(NOT_POSITIVE)


class TestValidateDensity:
    """Shape, hermiticity, trace and positivity checks."""

    def test_accepts_valid_matrix(self) -> None:
        out = validate_density(np.eye(4) / 4.0)
        assert out.dtype == complex
        np.testing.assert_allclose(out, np.eye(4) / 4.0)

    def test_rejects_wrong_shape(self) -> None:
        with pytest.raises(ValueError, match="4x4"):
            validate_density(np.eye(2) / 2.0)

    def test_rejects_non_hermitian(self) -> None:
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.3
        with pytest.raises(NotHermitian, match="hermiticity deviation"):
            validate_density(mat)

    def test_rejects_wrong_trace(self) -> None:
        with pytest.raises(NotUnitTrace, match="trace deviation"):
            validate_density(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self) -> None:
        with pytest.raises(NotPositive, match="minimum eigenvalue"):
            validate_density(np.diag([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, entry) -> None:
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = entry
        with pytest.raises(ValueError, match="not finite"):
            validate_density(mat)

    def test_tolerates_tiny_numerical_noise(self) -> None:
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 1e-12
        validate_density(mat)


def _non_hermitian() -> np.ndarray:
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = 0.3
    return mat


def _non_finite() -> np.ndarray:
    mat = np.eye(4, dtype=complex) / 4.0
    mat[2, 3] = np.nan
    return mat


def _fails_every_check_but_finiteness() -> np.ndarray:
    mat = 2.0 * NOT_POSITIVE.astype(complex)
    mat[0, 1] = 0.3
    return mat


# Each fails a different first check of the single-matrix order: finite, Hermitian, trace, positivity.
FAILING = {
    "non-finite": _non_finite(),
    "non-hermitian": _non_hermitian(),
    "wrong-trace": np.eye(4, dtype=complex) / 2.0,
    "non-positive": NOT_POSITIVE.astype(complex),
    "hermitian-first": _fails_every_check_but_finiteness(),
}


class TestValidateStack:
    """A stack raises what checking its matrices one by one would raise first."""

    @pytest.mark.parametrize("later", sorted(FAILING))
    @pytest.mark.parametrize("first", sorted(FAILING))
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_raises_the_first_failing_matrix_error(self, index, first, later) -> None:
        rng = np.random.default_rng(17)
        stack = np.array([random_density(rng) for _ in range(4)])
        stack[index] = FAILING[first]
        stack[index + 1] = FAILING[later]
        with pytest.raises(ValueError) as single:
            validate_density(stack[index])
        with pytest.raises(ValueError) as stacked:
            validate_density(stack)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)

    def test_failure_in_a_deeper_stack(self) -> None:
        rng = np.random.default_rng(19)
        stack = np.array([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        stack[1, 0] = NOT_POSITIVE
        stack[1, 2] = _non_hermitian()
        with pytest.raises(NotPositive, match="minimum eigenvalue -5.000e-01"):
            validate_density(stack)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 3)])
    def test_passing_stack_comes_back_unchanged(self, shape) -> None:
        rng = np.random.default_rng(23)
        stack = np.array([random_density(rng) for _ in range(int(np.prod(shape)))]).reshape(*shape, 4, 4)
        original = stack.copy()
        assert validate_density(stack) is stack
        assert np.array_equal(stack, original)

    def test_real_stack_is_returned_as_complex(self) -> None:
        out = validate_density(np.stack([np.eye(4) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0])]))
        assert out.dtype == complex and out.shape == (2, 4, 4)

    def test_empty_stack_passes(self) -> None:
        assert validate_density(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_rejects_a_stack_of_wrong_shape(self) -> None:
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(2, 3, 3\)"):
            validate_density(np.zeros((2, 3, 3)))


class TestBlochDecompose:
    """Known decompositions and the reconstruction roundtrip."""

    def test_singlet_has_null_vectors_and_minus_identity_tensor(self) -> None:
        form = bloch_decompose(SINGLET)
        np.testing.assert_allclose(form.a, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(form.b, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(form.W, -np.eye(3), atol=1e-12)

    def test_computational_basis_state(self) -> None:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        form = bloch_decompose(rho)
        np.testing.assert_allclose(form.a, [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(form.b, [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(form.W, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_phi_plus_correlations(self) -> None:
        """(|00> + |11>)/sqrt(2) correlates +xx, -yy, +zz."""
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        form = bloch_decompose(np.outer(vec, vec))
        np.testing.assert_allclose(form.W, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_roundtrip_through_from_bloch(self) -> None:
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = random_density(rng)
            form = bloch_decompose(rho)
            np.testing.assert_allclose(from_bloch(form.a, form.b, form.W), rho, atol=1e-12)

    def test_from_bloch_rejects_unphysical_coefficients(self) -> None:
        with pytest.raises(NotPositive):
            from_bloch(np.zeros(3), np.zeros(3), 2.0 * np.eye(3))

    def test_from_bloch_rejects_bad_shapes(self) -> None:
        with pytest.raises(ValueError, match="expected a"):
            from_bloch(np.zeros(2), np.zeros(3), np.eye(3))


def trace_decompose(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace definition a_i = tr(rho sigma_i@I), ..., one np.trace per coefficient."""
    ident = np.eye(2, dtype=complex)
    a = np.array([np.trace(rho @ np.kron(sig, ident)).real for sig in PAULIS])
    b = np.array([np.trace(rho @ np.kron(ident, sig)).real for sig in PAULIS])
    w = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS] for si in PAULIS])
    return a, b, w


def summed_from_bloch(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The expansion (1/4)(I@I + a.sigma@I + I@b.sigma + sum W_ij sigma_i@sigma_j), summed term by term."""
    ident = np.eye(2, dtype=complex)
    mat = np.kron(ident, ident)
    for i, sig_i in enumerate(PAULIS):
        mat += a[i] * np.kron(sig_i, ident)
        mat += b[i] * np.kron(ident, sig_i)
        for j, sig_j in enumerate(PAULIS):
            mat += w[i, j] * np.kron(sig_i, sig_j)
    return mat / 4.0


def kernel_states() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(2017)
    named = [
        ("product", product_state([0.6, 0.0, 0.8], [0.0, 1.0, 0.0])),
        ("pure_theta", pure_theta_state(0.62)),
        ("maximally_mixed", np.eye(4, dtype=complex) / 4.0),
        ("werner", werner_state(0.7)),
        ("grud", grud_state(0.1, 0.23)),
    ]
    return named + [(f"random_{k}", random_density(rng)) for k in range(50)]


class TestKernelBits:
    """The table kernel reproduces the trace and summation definitions bit for bit."""

    def test_bloch_decompose_equals_the_trace_loop(self) -> None:
        for name, rho in kernel_states():
            form = bloch_decompose(rho)
            a, b, w = trace_decompose(np.asarray(rho, dtype=complex))
            assert np.array_equal(form.a, a), name
            assert np.array_equal(form.b, b), name
            assert np.array_equal(form.W, w), name

    def test_from_bloch_equals_the_summed_expansion(self) -> None:
        for name, rho in kernel_states():
            form = bloch_decompose(rho)
            expected = summed_from_bloch(form.a, form.b, form.W)
            assert np.array_equal(from_bloch(form.a, form.b, form.W), expected), name

    def test_stacked_decomposition_equals_the_per_matrix_calls(self) -> None:
        states = np.stack([np.asarray(rho, dtype=complex) for _, rho in kernel_states()])
        stacked = _bloch_form(states)
        assert stacked.W.shape == (len(states), 3, 3)
        for k, rho in enumerate(states):
            single = _bloch_form(rho)
            assert np.array_equal(stacked.a[k], single.a), k
            assert np.array_equal(stacked.b[k], single.b), k
            assert np.array_equal(stacked.W[k], single.W), k

    def test_imaginary_coefficient_is_rejected(self) -> None:
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = mat[1, 0] = 5e-10j
        validate_density(mat)
        with pytest.raises(ValueError, match="imaginary part 1.000e-09"):
            bloch_decompose(mat)


class TestCorrelationSingularValues:
    def test_sorted_descending(self) -> None:
        rng = np.random.default_rng(5)
        for _ in range(20):
            svs = correlation_singular_values(random_density(rng))
            assert svs.shape == (3,)
            assert svs[0] >= svs[1] >= svs[2] >= 0.0

    def test_singlet_spectrum_is_all_ones(self) -> None:
        np.testing.assert_allclose(correlation_singular_values(SINGLET), np.ones(3), atol=1e-12)


class TestRotationToUnitary:
    """SU(2) lift of SO(3) rotations, u (v.sigma) u+ = (Rv).sigma."""

    @staticmethod
    def _dot_sigma(vec: np.ndarray) -> np.ndarray:
        return sum(vec[i] * PAULIS[i] for i in range(3))

    def test_conjugation_property_on_random_rotations(self) -> None:
        rng = np.random.default_rng(3)
        rotations = Rotation.random(30, random_state=17).as_matrix()
        for rot in rotations:
            u = rotation_to_unitary(rot)
            vec = rng.normal(size=3)
            lhs = u @ self._dot_sigma(vec) @ u.conj().T
            np.testing.assert_allclose(lhs, self._dot_sigma(rot @ vec), atol=1e-12)

    def test_half_turns_about_each_axis(self) -> None:
        """Trace -1 rotations hit every branch of the quaternion extraction."""
        for axis in range(3):
            rot = -np.eye(3)
            rot[axis, axis] = 1.0
            u = rotation_to_unitary(rot)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            vec = np.array([0.3, -0.8, 0.52])
            np.testing.assert_allclose(
                u @ self._dot_sigma(vec) @ u.conj().T, self._dot_sigma(rot @ vec), atol=1e-12
            )

    def test_identity_rotation(self) -> None:
        np.testing.assert_allclose(rotation_to_unitary(np.eye(3)), np.eye(2), atol=1e-12)

    def test_rejects_reflection(self) -> None:
        with pytest.raises(ValueError, match="not a proper rotation"):
            rotation_to_unitary(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self) -> None:
        with pytest.raises(ValueError, match="not a proper rotation"):
            rotation_to_unitary(np.eye(3) * 1.5)

    @pytest.mark.parametrize(
        "matrix", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])], ids=["nan", "inf"]
    )
    def test_rejects_non_finite(self, matrix) -> None:
        # NaN would pass both the orthogonality and the determinant comparison.
        with pytest.raises(ValueError, match="not a proper rotation"):
            rotation_to_unitary(matrix)


class TestCanonicalFrame:
    """Local-unitary rotation into a diagonal correlation tensor."""

    def test_diagonalises_with_largest_value_on_axis_three(self) -> None:
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(rng)
            svs = correlation_singular_values(rho)
            _, form = canonical_frame(rho)
            off_diag = form.W - np.diag(np.diag(form.W))
            np.testing.assert_allclose(off_diag, np.zeros((3, 3)), atol=1e-9)
            assert form.W[2, 2] == pytest.approx(svs[0], abs=1e-9)
            assert form.W[0, 0] == pytest.approx(svs[1], abs=1e-9)
            assert abs(form.W[1, 1]) == pytest.approx(svs[2], abs=1e-9)

    def test_middle_entry_carries_the_tensor_determinant_sign(self) -> None:
        rng = np.random.default_rng(29)
        seen = 0
        while seen < 10:
            rho = random_density(rng)
            det = np.linalg.det(bloch_decompose(rho).W)
            if abs(det) < 1e-6:
                continue
            _, form = canonical_frame(rho)
            assert np.sign(form.W[1, 1]) == np.sign(det)
            seen += 1

    def test_rotation_is_local_unitary(self) -> None:
        """Eigenvalues and singular values survive; only the frame changes."""
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_density(rng)
            rotated, _ = canonical_frame(rho)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(rho), atol=1e-10
            )
            np.testing.assert_allclose(
                correlation_singular_values(rotated), correlation_singular_values(rho), atol=1e-10
            )

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(37)
        rho = random_density(rng)
        first_state, first_form = canonical_frame(rho)
        second_state, second_form = canonical_frame(rho)
        assert np.array_equal(first_state, second_state)
        assert np.array_equal(first_form.W, second_form.W)

    @pytest.mark.parametrize(
        "rho",
        [werner_state(0.6), from_bloch(np.zeros(3), np.zeros(3), np.diag([0.5, 0.5, -0.2]))],
        ids=["werner-all-tied", "two-tied"],
    )
    def test_tied_singular_values(self, rho) -> None:
        """With a degenerate spectrum the SVD gauge is free; the frame must still be diagonal and fixed."""
        for seed in range(5):
            rotations = Rotation.random(2, random_state=seed).as_matrix()
            local = np.kron(rotation_to_unitary(rotations[0]), rotation_to_unitary(rotations[1]))
            rotated = local @ rho @ local.conj().T
            svs = correlation_singular_values(rotated)
            state, form = canonical_frame(rotated)
            np.testing.assert_allclose(form.W - np.diag(np.diag(form.W)), np.zeros((3, 3)), atol=1e-9)
            np.testing.assert_allclose(np.abs(np.diag(form.W)), [svs[1], svs[2], svs[0]], atol=1e-9)
            again_state, again_form = canonical_frame(rotated)
            assert np.array_equal(again_state, state)
            assert np.array_equal(again_form.W, form.W)

    def test_already_canonical_states_stay_diagonal(self) -> None:
        rho = from_bloch(np.zeros(3), np.zeros(3), np.diag([0.4, -0.2, 0.6]))
        _, form = canonical_frame(rho)
        np.testing.assert_allclose(np.diag(form.W), [0.4, -0.2, 0.6], atol=1e-12)


class TestMatrixPairs:
    def test_roundtrip(self) -> None:
        rng = np.random.default_rng(41)
        mat = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(matrix_from_pairs(matrix_to_pairs(mat)), mat)

    def test_rejects_bad_shape(self) -> None:
        with pytest.raises(ValueError, match="re, im"):
            matrix_from_pairs([[1.0, 2.0], [3.0, 4.0]])


class TestBlochFormShape:
    def test_fields(self) -> None:
        form = bloch_decompose(np.eye(4) / 4.0)
        assert isinstance(form, BlochForm)
        assert form.a.shape == (3,)
        assert form.b.shape == (3,)
        assert form.W.shape == (3, 3)
        np.testing.assert_allclose(form.W, np.zeros((3, 3)), atol=1e-12)
