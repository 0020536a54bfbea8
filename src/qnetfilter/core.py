"""Two-qubit density-matrix kernel.

Validation, Bloch decomposition, correlation spectra, and the local-unitary
canonical frame used by the network bounds.  Axes are indexed x=1, y=2, z=3
throughout, and a two-qubit state is written as

    rho = (1/4) (I@I + a.sigma@I + I@b.sigma + sum_ij W_ij sigma_i@sigma_j)

where ``a`` and ``b`` are the local Bloch vectors and ``W`` is the 3x3
correlation tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "ID2",
    "NotHermitian",
    "NotUnitTrace",
    "NotPositive",
    "BlochForm",
    "validate_density",
    "bloch_decompose",
    "from_bloch",
    "correlation_singular_values",
    "rotation_to_unitary",
    "canonical_frame",
    "matrix_to_pairs",
    "matrix_from_pairs",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)

# Validation tolerances (absolute).
HERMITICITY_ATOL = 1e-9
TRACE_ATOL = 1e-9
POSITIVITY_ATOL = 1e-9
# Imaginary parts smaller than this are discarded when extracting real
# decomposition coefficients; anything larger means the matrix is not Hermitian.
IMAG_ATOL = 1e-10


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTrace(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below -tolerance."""


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check that ``rho`` is a 4x4 density matrix, or a ``(..., 4, 4)`` stack of them; return it as complex.

    Raises ValueError for non-finite entries, then NotHermitian / NotUnitTrace /
    NotPositive with the measured deviation in the message, in that order.  A
    stack is checked in one pass and raises its first failing matrix's error.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    # Whole-stack reductions; NaN fails every comparison, and eigvalsh runs only on finite input.
    # The builtin abs is cheaper than np.abs on the scalar trace of a single matrix.
    adjoint = mat.swapaxes(-1, -2).conj()
    valid = np.abs(mat - adjoint).max(initial=0.0) <= HERMITICITY_ATOL
    valid = valid and abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0) <= TRACE_ATOL
    if valid and mat.size:
        valid = np.linalg.eigvalsh(0.5 * (mat + adjoint))[..., 0].min() >= -POSITIVITY_ATOL
    if not valid:
        raise _first_failure(mat)[1]
    return mat


def _first_failure(mat: np.ndarray) -> tuple[tuple[int, ...], ValueError]:
    """The C-order index of the first failing matrix of a complex ``(..., 4, 4)`` stack and its error."""
    adjoint = mat.swapaxes(-1, -2).conj()
    herm_dev = np.abs(mat - adjoint).max(axis=(-2, -1))
    trace_dev = np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0)
    # A non-finite entry makes herm_dev non-finite, and NaN fails both comparisons.
    checked = (herm_dev <= HERMITICITY_ATOL) & (trace_dev <= TRACE_ATOL)
    eigmin = np.zeros(mat.shape[:-2])
    eigmin[checked] = np.linalg.eigvalsh(0.5 * (mat + adjoint)[checked])[..., 0]
    failing = np.argwhere(~checked | (eigmin < -POSITIVITY_ATOL))
    index = tuple(failing[0])
    if not math.isfinite(herm_dev[index]):
        return index, ValueError("matrix entries are not finite")
    if herm_dev[index] > HERMITICITY_ATOL:
        return index, NotHermitian(f"hermiticity deviation {herm_dev[index]:.3e} exceeds {HERMITICITY_ATOL:.0e}")
    if trace_dev[index] > TRACE_ATOL:
        return index, NotUnitTrace(f"trace deviation {trace_dev[index]:.3e} exceeds {TRACE_ATOL:.0e}")
    return index, NotPositive(f"minimum eigenvalue {eigmin[index]:.3e} below -{POSITIVITY_ATOL:.0e}")


def _pauli_products() -> np.ndarray:
    products = []
    for sig_i in PAULIS:
        products += [np.kron(sig_i, ID2), np.kron(ID2, sig_i)] + [np.kron(sig_i, sig_j) for sig_j in PAULIS]
    return np.array(products)


# sigma_i@I, I@sigma_i, sigma_i@sigma_j for each i: the coefficient order a_i, b_i, W_i0, W_i1, W_i2.
_PRODUCTS = _pauli_products()
# Each product has one nonzero entry per column k, +-1 or +-i, in row _ROWS[., k], so
# trace(mat @ P) is sum_k mat[k, _ROWS[., k]] * _PHASES[., k]; _ENTRIES holds the flat
# indices 4*k + _ROWS[., k].  Summing along the last axis associates like np.trace, which
# keeps the result bit-identical to the trace.
_ROWS = np.argmax(np.abs(_PRODUCTS), axis=1)
_ENTRIES = 4 * np.arange(4) + _ROWS
_PHASES = np.take_along_axis(_PRODUCTS, _ROWS[:, None, :], axis=1)[:, 0, :]
# Identity first, then the products: summing over axis 0 adds them in that order.
_TERMS = np.concatenate([np.eye(4, dtype=complex)[None], _PRODUCTS])


@dataclass(frozen=True)
class BlochForm:
    """Bloch decomposition of a two-qubit state: local vectors and correlations."""

    a: np.ndarray  # (..., 3) Bloch vector of the first qubit
    b: np.ndarray  # (..., 3) Bloch vector of the second qubit
    W: np.ndarray  # (..., 3, 3) correlation tensor W_ij = <sigma_i @ sigma_j>


def _bloch_form(mat: np.ndarray) -> BlochForm:
    """Decompose a ``(..., 4, 4)`` state or stack of states, one form with leading axes."""
    # Not validated: callers pass a state validated where it entered, or the package's arithmetic on one.
    # take(axis=-1) keeps the terms contiguous and each sum bit-identical to one matrix's; [..., _ENTRIES] does not.
    values = (mat.reshape(*mat.shape[:-2], 16).take(_ENTRIES, axis=-1) * _PHASES).sum(axis=-1)
    offending = np.abs(values.imag) > IMAG_ATOL
    if offending.any():
        raise NotHermitian(f"decomposition coefficient has imaginary part {values.imag[offending][0]:.3e}")
    coeffs = values.real.reshape(*mat.shape[:-2], 3, 5)
    return BlochForm(a=coeffs[..., 0].copy(), b=coeffs[..., 1].copy(), W=coeffs[..., 2:].copy())


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Validate a density matrix and decompose it into its Bloch vectors and correlation tensor."""
    return _bloch_form(validate_density(rho))


def from_bloch(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rebuild the density matrix from Bloch vectors and correlation tensor.

    Stacks of ``(..., 3)`` vectors and ``(..., 3, 3)`` tensors give a ``(..., 4, 4)``
    stack.  The result is validated in one call, so unphysical coefficient sets are rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    if a.shape[-1:] != (3,) or b.shape != a.shape or w.shape != (*a.shape, 3):
        raise ValueError("expected a(3,), b(3,), w(3,3)")
    coeffs = np.concatenate([a[..., None], b[..., None], w], axis=-1).reshape(*a.shape[:-1], 15)
    # One term at a time, in the expansion's order: the sums of adding a (16, 4, 4) product along its
    # first axis, without building that product for every matrix of a stack.
    mat = _TERMS[0]
    for coeff, term in zip(np.moveaxis(coeffs, -1, 0), _TERMS[1:]):
        mat = mat + coeff[..., None, None] * term
    return validate_density(mat / 4.0)


def correlation_singular_values(rho: np.ndarray) -> np.ndarray:
    """Singular values of the correlation tensor, sorted descending."""
    return np.linalg.svd(bloch_decompose(rho).W, compute_uv=False)


def _quaternion_unitary(quat) -> np.ndarray:
    """The SU(2) element qw I - i (qx sigma_x + qy sigma_y + qz sigma_z) of a unit quaternion (qw, qx, qy, qz).

    Components of shape ``(..., 1, 1)`` give a ``(..., 2, 2)`` stack.
    """
    return quat[0] * ID2 - 1.0j * (quat[1] * SIGMA_X + quat[2] * SIGMA_Y + quat[3] * SIGMA_Z)


def rotation_to_unitary(rotation: np.ndarray) -> np.ndarray:
    """SU(2) element u with u (v.sigma) u+ = (R v).sigma for R in SO(3).

    Reads the quaternion q = (qw, qx, qy, qz) of R off the symmetric table
    K[i, k] = 4 q_i q_k, whose diagonal is (1 + tr R, 1 + 2 R_ii - tr R) and
    whose other entries are sums and differences of R_ij and R_ji.  Column k of
    the largest diagonal entry gives q_k = sqrt(K[k, k]) / 2 and the other
    components as K[i, k] / (4 q_k), which is stable for every rotation angle.
    """
    rot = np.asarray(rotation, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {rot.shape}")
    # Finiteness first: NaN passes both comparisons below, and inf warns inside them.
    if not np.isfinite(rot).all() or np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9 or np.linalg.det(rot) < 0.0:
        raise ValueError("matrix is not a proper rotation")
    t = float(np.trace(rot))
    table = np.empty((4, 4))
    table[1:, 1:] = rot + rot.T
    table[0, 1:] = table[1:, 0] = (rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1])
    np.fill_diagonal(table, (1.0 + t, *(1.0 + 2.0 * np.diag(rot) - t)))
    k = int(np.argmax(np.diag(table)))
    q_k = 0.5 * np.sqrt(table[k, k])
    quat = table[:, k] / (4.0 * q_k)
    quat[k] = q_k
    return _quaternion_unitary(quat)


_CYCLIC = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def canonical_frame(rho: np.ndarray) -> tuple[np.ndarray, BlochForm]:
    """Rotate a density matrix (validated here) into the frame with a diagonal correlation tensor.

    Local unitaries (one per qubit) diagonalise W so that axis 3 carries the
    largest singular value t1, axis 1 the second one t2, and axis 2 the third
    singular value with the sign of det(W).  Returns the rotated state and its
    decomposition.  The frame is deterministic: the SVD gauge is fixed by
    making the first nonzero component of each left singular vector positive.
    """
    mat = validate_density(rho)
    u, s, vt = np.linalg.svd(_bloch_form(mat).W)
    v = vt.T.copy()
    u = u.copy()
    for k in range(3):
        nonzero = np.flatnonzero(np.abs(u[:, k]) > 1e-12)
        if nonzero.size and u[nonzero[0], k] < 0.0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    det_u = 1.0 if np.linalg.det(u) > 0.0 else -1.0
    det_v = 1.0 if np.linalg.det(v) > 0.0 else -1.0
    u[:, 2] *= det_u
    v[:, 2] *= det_v
    rot_a = _CYCLIC @ u.T
    rot_b = _CYCLIC @ v.T
    local = np.kron(rotation_to_unitary(rot_a), rotation_to_unitary(rot_b))
    rotated = local @ mat @ local.conj().T
    return rotated, _bloch_form(rotated)


def matrix_to_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    """Serialise a complex matrix as nested [re, im] pairs (row-major)."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_pairs(data: object) -> np.ndarray:
    """Rebuild a 4x4 complex matrix from nested [re, im] pairs; non-finite pairs are rejected before any arithmetic."""
    arr = np.asarray(data, dtype=float)
    if arr.shape != (4, 4, 2):
        raise ValueError(f"expected 4x4 [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries are not finite")
    return arr[..., 0] + 1.0j * arr[..., 1]
