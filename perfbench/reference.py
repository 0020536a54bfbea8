"""Independent numpy reference for the `scan` workload's CSV rows.

Recomputes b_lin, b_seq and the success probability of a grud chain with a
two-sided bit-flip channel from the formulas in the package docstrings,
without importing ``qnetfilter``: states from their kets, the channel from
its Kraus pairs, filters as a diagonal rescale, the correlation tensor by one
Pauli contraction, and the bound from the two largest singular values.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

_PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
# _PAIRS[i, j] = sigma_i (x) sigma_j
_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULIS, _PAULIS).reshape(3, 3, 4, 4)
_X = _PAULIS[0]
_I = np.eye(2, dtype=complex)

# A row passes when every number agrees to this relative tolerance; the CSV
# prints 12 significant digits.
REL_TOL = 1e-9


def _grud(v: float, x: float) -> np.ndarray:
    phi = np.array([0.0, np.sin(x), np.cos(x), 0.0], dtype=complex)
    rho = (1.0 - v) * np.outer(phi, phi.conj())
    rho[0, 0] += v
    return rho


def _bit_flip_both(rho: np.ndarray, p: float) -> np.ndarray:
    kraus = (np.sqrt(1.0 - p) * _I, np.sqrt(p) * _X)
    out = np.zeros((4, 4), dtype=complex)
    for left, right in itertools.product(kraus, kraus):
        op = np.kron(left, right)
        out += op @ rho @ op.conj().T
    return out


def _filter(rho: np.ndarray, eps_l: float, eps_r: float) -> tuple[np.ndarray, float]:
    diag = np.array([eps_l * eps_r, eps_l, eps_r, 1.0])
    scaled = rho * np.outer(diag, diag)
    success = float(np.real(np.trace(scaled)))
    return scaled / success, success


def _top_two(rho: np.ndarray) -> np.ndarray:
    w = np.real(np.einsum("ijab,ba->ij", _PAIRS, rho))
    return np.linalg.svd(w, compute_uv=False)[:2]


def _bound(states: list[np.ndarray]) -> float:
    svs = np.array([_top_two(rho) for rho in states])
    return float(np.sqrt(np.prod(svs[:, 0]) + np.prod(svs[:, 1])))


def expected_rows(cfg: dict) -> list[tuple[float, ...]]:
    """(axis values..., b_lin, b_seq, success) for every grid point of a scan config."""
    axes = cfg["scan"]["axes"]
    grids = [np.linspace(float(a["min"]), float(a["max"]), a["steps"]) for a in axes]
    rows = []
    for values in itertools.product(*grids):
        point = {a["path"]: float(v) for a, v in zip(axes, values)}
        middle = [list(pair) for pair in cfg["filters"]["middle"]]
        for path, value in point.items():
            if path.startswith("filters.middle."):
                _, _, j, i = path.split(".")
                middle[int(j)][int(i)] = value
        states = [_grud(link["v"], link["x"]) for link in cfg["links"]]
        for index, channel in enumerate(cfg["channels"]):
            p = point.get(f"channels.{index}.param", channel["param"])
            states[channel["link"] - 1] = _bit_flip_both(states[channel["link"] - 1], p)
        eps = [cfg["filters"]["first"], *itertools.chain.from_iterable(middle), cfg["filters"]["last"]]
        filtered = [_filter(rho, eps[2 * k], eps[2 * k + 1]) for k, rho in enumerate(states)]
        success = float(np.prod([s for _, s in filtered]))
        rows.append((*(float(v) for v in values), _bound(states), _bound([f for f, _ in filtered]), success))
    return rows


def csv_matches(cfg: dict, text: str) -> bool:
    """True when the scan CSV has the expected header and every row agrees."""
    table = list(csv.reader(io.StringIO(text)))
    paths = [a["path"] for a in cfg["scan"]["axes"]]
    if not table or table[0] != [*paths, "b_lin", "b_seq", "success_prob", "violation"]:
        return False
    expected = expected_rows(cfg)
    if len(table) - 1 != len(expected):
        return False
    for row, want in zip(table[1:], expected):
        numbers = [float(cell) for cell in row[:-1]]
        if not np.allclose(numbers, want, rtol=REL_TOL, atol=1e-12):
            return False
        b_seq = want[-2]
        if abs(b_seq - 1.0) > REL_TOL and row[-1] != ("1" if b_seq > 1.0 else "0"):
            return False
    return True
