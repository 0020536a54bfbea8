"""Constructors for the two-qubit link states used by the network scenarios."""

from __future__ import annotations

import numpy as np

from .core import ID2, PAULIS, validate_density

__all__ = [
    "grud_state",
    "werner_state",
    "x_state",
    "pure_theta_state",
    "product_state",
]

_X_CONSTRAINT_ATOL = 1e-12


def _ket(index: int) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[index] = 1.0
    return vec


def _projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def grud_state(v: float, x: float) -> np.ndarray:
    """Mixture v|00><00| + (1-v)|phi_x><phi_x| with |phi_x> = sin x|01> + cos x|10>."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v must lie in [0, 1], got {v}")
    if not 0.0 <= x <= np.pi / 4.0:
        raise ValueError(f"x must lie in [0, pi/4], got {x}")
    phi = np.sin(x) * _ket(1) + np.cos(x) * _ket(2)
    return validate_density(v * _projector(_ket(0)) + (1.0 - v) * _projector(phi))


def werner_state(p: float) -> np.ndarray:
    """Singlet fraction p mixed with white noise: (1-p) I/4 + p |psi-><psi-|."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    psi_minus = (_ket(1) - _ket(2)) / np.sqrt(2.0)
    return validate_density((1.0 - p) * np.eye(4) / 4.0 + p * _projector(psi_minus))


def x_state(x1: float, x2: float, x3: float, x4: float) -> np.ndarray:
    """X-shaped state x1|00><00| + x2|01><01| + x3|11><11| + x4(|00><11| + h.c.).

    Requires x1 + x2 + x3 = 1, x4^2 <= x1*x3 and all weights in [0, 1]; the
    constraints are enforced exactly (tolerance 1e-12), out-of-range input is
    rejected rather than clamped.
    """
    for name, value in (("x1", x1), ("x2", x2), ("x3", x3)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if abs(x1 + x2 + x3 - 1.0) > _X_CONSTRAINT_ATOL:
        raise ValueError(f"x1 + x2 + x3 must equal 1, got {x1 + x2 + x3}")
    if x4 * x4 > x1 * x3 + _X_CONSTRAINT_ATOL:
        raise ValueError(f"x4^2 = {x4 * x4} exceeds x1*x3 = {x1 * x3}")
    mat = (
        x1 * _projector(_ket(0))
        + x2 * _projector(_ket(1))
        + x3 * _projector(_ket(3))
        + x4 * (np.outer(_ket(0), _ket(3)) + np.outer(_ket(3), _ket(0)))
    )
    return validate_density(mat)


def pure_theta_state(theta: float) -> np.ndarray:
    """Pure partially entangled state cos(theta)|01> + sin(theta)|10>."""
    if not 0.0 < theta <= np.pi / 4.0:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    psi = np.cos(theta) * _ket(1) + np.sin(theta) * _ket(2)
    return validate_density(_projector(psi))


def product_state(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Product of two single-qubit states with Bloch vectors m and n."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    if m.shape != (3,) or n.shape != (3,):
        raise ValueError("Bloch vectors must have shape (3,)")
    if np.linalg.norm(m) > 1.0 + 1e-12 or np.linalg.norm(n) > 1.0 + 1e-12:
        raise ValueError("Bloch vectors must have norm at most 1")
    qubit_m = ID2.copy()
    qubit_n = ID2.copy()
    for i, sigma in enumerate(PAULIS):
        qubit_m += m[i] * sigma
        qubit_n += n[i] * sigma
    return validate_density(np.kron(qubit_m / 2.0, qubit_n / 2.0))
