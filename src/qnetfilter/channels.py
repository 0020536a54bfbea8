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


def _deviations(ops: np.ndarray) -> np.ndarray:
    """max |sum_i K_i+ K_i - I| of each channel in a ``(..., r, 2, 2)`` stack of Kraus operators."""
    total = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    return np.abs(total - ID2).max(axis=(-2, -1))


def _incomplete(name: str, deviation: float) -> ValueError:
    return ValueError(f"{name}: Kraus completeness deviation {deviation:.3e} exceeds {COMPLETENESS_ATOL:.0e}")


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
        deviation = float(_deviations(np.array(ops)))
        if deviation > COMPLETENESS_ATOL:
            raise _incomplete(self.name, deviation)
        object.__setattr__(self, "ops", ops)


def _bit_flip_ops(p: np.ndarray) -> np.ndarray:
    return np.stack([np.sqrt(1.0 - p)[:, None, None] * ID2, np.sqrt(p)[:, None, None] * SIGMA_X], axis=1)


def _damping_ops(gamma: np.ndarray) -> np.ndarray:
    ops = np.zeros((len(gamma), 2, 2, 2), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1] = np.sqrt(1.0 - gamma)
    ops[:, 1, 0, 1] = np.sqrt(gamma)
    return ops


# Each channel type: the name of its parameter and its Kraus operators, as a (k, 2, 2, 2) stack, for k parameters.
_TYPES = {"bit_flip": ("p", _bit_flip_ops), "amplitude_damping": ("gamma", _damping_ops)}


def _check_param(kind: str, value: float) -> None:
    """Raise ValueError unless the parameter of a ``kind`` channel lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{_TYPES[kind][0]} must lie in [0, 1], got {value}")


def _name(kind: str, value: float) -> str:
    return f"{kind}({_TYPES[kind][0]}={value})"


def _kraus_ops(kind: str, params: list[float]) -> tuple[np.ndarray, tuple[int, ValueError] | None]:
    """The ``(k, r, 2, 2)`` Kraus operators of ``kind`` channels at k parameters in [0, 1], checked as one stack.

    Also returns the index of the first channel that fails the completeness check, with its error, or None.
    """
    ops = _TYPES[kind][1](np.array(params, dtype=float))
    deviations = _deviations(ops)
    failing = np.flatnonzero(deviations > COMPLETENESS_ATOL)
    if not failing.size:
        return ops, None
    first = int(failing[0])
    return ops, (first, _incomplete(_name(kind, params[first]), float(deviations[first])))


def _channel(kind: str, value: float) -> KrausChannel:
    _check_param(kind, value)
    ops = _TYPES[kind][1](np.array([value], dtype=float))[0]
    return KrausChannel(ops=tuple(ops), name=_name(kind, value))


def bit_flip(p: float) -> KrausChannel:
    """Bit-flip channel: applies sigma_x with probability p.

    Kraus operators sqrt(1-p) I and sqrt(p) sigma_x.
    """
    return _channel("bit_flip", p)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude-damping channel that decays |1> to |0> with probability gamma.

    Kraus operators diag(1, sqrt(1-gamma)) and sqrt(gamma) |0><1|.
    """
    return _channel("amplitude_damping", gamma)


def _apply_kraus(states: np.ndarray, ops: np.ndarray, sides: str) -> np.ndarray:
    """``(k, 4, 4)`` states, each under the channel of its ``(r, 2, 2)`` Kraus operators in ``(k, r, 2, 2)`` ``ops``."""
    left = ops if sides != "right" else ID2[None, None]
    right = ops if sides != "left" else ID2[None, None]
    # The Kronecker products left_a @ right_b for every pair (a, b), multiplied as np.kron does.
    pairs = (left[:, :, None, :, None, :, None] * right[:, None, :, None, :, None, :]).reshape(len(ops), -1, 4, 4)
    # Summed pair by pair from +0.0, so no entry comes out as -0.0.
    return (pairs @ states[:, None] @ pairs.conj().swapaxes(-1, -2)).sum(axis=1, initial=0.0)


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
    return _apply_kraus(np.asarray(rho, dtype=complex)[None], np.array(channel.ops)[None], sides)[0]
