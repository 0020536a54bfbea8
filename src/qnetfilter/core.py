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
# decomposition coefficients; anything larger indicates a broken input.
IMAG_ATOL = 1e-10


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTrace(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below -tolerance."""


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check that ``rho`` is a 4x4 density matrix and return it as complex.

    Raises ValueError for non-finite entries, then NotHermitian / NotUnitTrace /
    NotPositive with the measured deviation in the message, in that order.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    # Any NaN or inf entry makes herm_dev non-finite; the comparisons below would pass NaN.
    if not math.isfinite(herm_dev):
        raise ValueError("matrix entries are not finite")
    if herm_dev > HERMITICITY_ATOL:
        raise NotHermitian(f"hermiticity deviation {herm_dev:.3e} exceeds {HERMITICITY_ATOL:.0e}")
    trace_dev = abs(complex(mat.trace()) - 1.0)
    if trace_dev > TRACE_ATOL:
        raise NotUnitTrace(f"trace deviation {trace_dev:.3e} exceeds {TRACE_ATOL:.0e}")
    eigmin = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
    if eigmin < -POSITIVITY_ATOL:
        raise NotPositive(f"minimum eigenvalue {eigmin:.3e} below -{POSITIVITY_ATOL:.0e}")
    return mat


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

    a: np.ndarray  # (3,) Bloch vector of the first qubit
    b: np.ndarray  # (3,) Bloch vector of the second qubit
    W: np.ndarray  # (3,3) correlation tensor W_ij = <sigma_i @ sigma_j>


def _bloch_form(mat: np.ndarray) -> BlochForm:
    # Not validated: callers pass a state validated where it entered, or the package's arithmetic on one.
    values = (mat.take(_ENTRIES) * _PHASES).sum(axis=1)
    offending = np.abs(values.imag) > IMAG_ATOL
    if offending.any():
        raise ValueError(f"decomposition coefficient has imaginary part {values.imag[offending][0]:.3e}")
    coeffs = values.real.reshape(3, 5)
    return BlochForm(a=coeffs[:, 0].copy(), b=coeffs[:, 1].copy(), W=coeffs[:, 2:].copy())


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Validate a density matrix and decompose it into its Bloch vectors and correlation tensor."""
    return _bloch_form(validate_density(rho))


def from_bloch(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rebuild the density matrix from Bloch vectors and correlation tensor.

    The result is validated, so unphysical coefficient sets are rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    if a.shape != (3,) or b.shape != (3,) or w.shape != (3, 3):
        raise ValueError("expected a(3,), b(3,), w(3,3)")
    coeffs = np.concatenate([[1.0], np.column_stack([a, b, w]).ravel()])
    mat = (coeffs[:, None, None] * _TERMS).sum(axis=0)
    return validate_density(mat / 4.0)


def correlation_singular_values(rho: np.ndarray) -> np.ndarray:
    """Singular values of the correlation tensor, sorted descending."""
    return np.linalg.svd(bloch_decompose(rho).W, compute_uv=False)


def rotation_to_unitary(rotation: np.ndarray) -> np.ndarray:
    """SU(2) element u with u (v.sigma) u+ = (R v).sigma for R in SO(3).

    Uses the quaternion extraction that branches on the largest of the four
    squared components, so it is stable for every rotation angle.
    """
    rot = np.asarray(rotation, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {rot.shape}")
    if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9 or np.linalg.det(rot) < 0.0:
        raise ValueError("matrix is not a proper rotation")
    t = float(np.trace(rot))
    candidates = (
        1.0 + t,
        1.0 + 2.0 * rot[0, 0] - t,
        1.0 + 2.0 * rot[1, 1] - t,
        1.0 + 2.0 * rot[2, 2] - t,
    )
    case = int(np.argmax(candidates))
    if case == 0:
        qw = 0.5 * np.sqrt(candidates[0])
        qx = (rot[2, 1] - rot[1, 2]) / (4.0 * qw)
        qy = (rot[0, 2] - rot[2, 0]) / (4.0 * qw)
        qz = (rot[1, 0] - rot[0, 1]) / (4.0 * qw)
    elif case == 1:
        qx = 0.5 * np.sqrt(candidates[1])
        qw = (rot[2, 1] - rot[1, 2]) / (4.0 * qx)
        qy = (rot[0, 1] + rot[1, 0]) / (4.0 * qx)
        qz = (rot[0, 2] + rot[2, 0]) / (4.0 * qx)
    elif case == 2:
        qy = 0.5 * np.sqrt(candidates[2])
        qw = (rot[0, 2] - rot[2, 0]) / (4.0 * qy)
        qx = (rot[0, 1] + rot[1, 0]) / (4.0 * qy)
        qz = (rot[1, 2] + rot[2, 1]) / (4.0 * qy)
    else:
        qz = 0.5 * np.sqrt(candidates[3])
        qw = (rot[1, 0] - rot[0, 1]) / (4.0 * qz)
        qx = (rot[0, 2] + rot[2, 0]) / (4.0 * qz)
        qy = (rot[1, 2] + rot[2, 1]) / (4.0 * qz)
    return qw * ID2 - 1.0j * (qx * SIGMA_X + qy * SIGMA_Y + qz * SIGMA_Z)


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
    """Rebuild a 4x4 complex matrix from nested [re, im] pairs."""
    arr = np.asarray(data, dtype=float)
    if arr.shape != (4, 4, 2):
        raise ValueError(f"expected 4x4 [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1.0j * arr[..., 1]
