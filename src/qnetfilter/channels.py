"""Single-qubit noise channels acting on link states.

A channel is a set of Kraus operators {K_i} with sum_i K_i+ K_i = I.  Acting
on one qubit of a two-qubit link state the update is

    rho -> sum_i (K_i @ I) rho (K_i @ I)+        (left qubit)
    rho -> sum_ij (K_i @ K_j) rho (K_i @ K_j)+   (both qubits, independent noise)

and symmetrically for the right qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ID2, SIGMA_X

__all__ = [
    "KrausChannel",
    "bit_flip",
    "amplitude_damping",
    "apply_channel",
]

COMPLETENESS_ATOL = 1e-10

SIDES = ("both", "left", "right")


@dataclass(frozen=True)
class KrausChannel:
    """A single-qubit channel given by its Kraus operators.

    Parameters
    ----------
    ops:
        Tuple of 2x2 complex matrices.  The completeness relation
        sum_i K_i+ K_i = I is checked to 1e-10 at construction time.
    name:
        Human-readable label used in error messages and reports.
    """

    ops: tuple[np.ndarray, ...]
    name: str = "channel"

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(op, dtype=complex) for op in self.ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got shape {op.shape}")
        total = sum(op.conj().T @ op for op in ops)
        deviation = float(np.max(np.abs(total - ID2)))
        if deviation > COMPLETENESS_ATOL:
            raise ValueError(
                f"{self.name}: Kraus completeness deviation {deviation:.3e} exceeds {COMPLETENESS_ATOL:.0e}"
            )
        object.__setattr__(self, "ops", ops)


def bit_flip(p: float) -> KrausChannel:
    """Bit-flip channel: applies sigma_x with probability p.

    Kraus operators sqrt(1-p) I and sqrt(p) sigma_x.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return KrausChannel(
        ops=(np.sqrt(1.0 - p) * ID2, np.sqrt(p) * SIGMA_X),
        name=f"bit_flip(p={p})",
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude-damping channel that decays |1> to |0> with probability gamma.

    Kraus operators diag(1, sqrt(1-gamma)) and sqrt(gamma) |0><1|.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    decay = np.zeros((2, 2), dtype=complex)
    decay[0, 1] = np.sqrt(gamma)
    return KrausChannel(
        ops=(np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex), decay),
        name=f"amplitude_damping(gamma={gamma})",
    )


def apply_channel(rho: np.ndarray, channel: KrausChannel, sides: str = "both") -> np.ndarray:
    """Apply a single-qubit channel to one or both qubits of a link state.

    Parameters
    ----------
    rho:
        4x4 two-qubit density matrix.
    channel:
        The KrausChannel to apply.
    sides:
        "left", "right", or "both" (independent copies of the channel on the
        two qubits).

    Returns
    -------
    The output state, not validated again (Kraus completeness is checked in KrausChannel).
    """
    if sides not in SIDES:
        raise ValueError(f"sides must be one of {SIDES}, got {sides!r}")
    mat = np.asarray(rho, dtype=complex)
    ops = np.array(channel.ops)
    left = ops if sides != "right" else ID2[None]
    right = ops if sides != "left" else ID2[None]
    # The Kronecker products left_a @ right_b for every pair (a, b), multiplied as np.kron does.
    pairs = (left[:, None, :, None, :, None] * right[None, :, None, :, None, :]).reshape(-1, 4, 4)
    out = np.zeros((4, 4), dtype=complex)
    for op in pairs:
        out += op @ mat @ op.conj().T
    return out
