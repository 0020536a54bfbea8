"""Measure the rounding errors that the 1e-12 margin of ``validate_density``'s Cholesky certificate must cover.

    python3 tests/probe_positivity_margin.py [--states N] [--seed S]

``validate_density`` passes a stack without eigenvalues when ``np.linalg.cholesky``
factors H + tau I with positive pivots, where H is each matrix's Hermitian part and
tau = ``CHOLESKY_SHIFT`` = ``POSITIVITY_ATOL`` - 1e-12.  That agrees with the rule
lambda_min(H) >= -``POSITIVITY_ATOL`` on ``eigvalsh``'s eigenvalues as long as the
factorisation's backward error and ``eigvalsh``'s error both stay well below the 1e-12
margin.  This script measures both, on N Haar-rotated trace-one states per rank:

- rank r = 1, 2, 3: r eigenvalues drawn at random, and 4 - r at -1e-9 + d, with d
  uniform in [-4e-12, 4e-12], so near the tolerance and the shift;
- rank 4: generic full-rank states, the common case.

For each rank it prints the largest error of ``eigvalsh``'s lowest eigenvalue against
the exact lowest eigenvalue of the same float matrix, and the largest
||L L+ - (H + tau I)||_2 over the factorisations that complete, each next to the
margin; then how many states the factorisation certified, and how many of those the
eigenvalue rule rejects (soundness needs 0).  The exact eigenvalue comes from
refining ``eigh``'s eigenvectors in ``np.longdouble``: the eigenvectors are
reorthonormalised, H is rotated into their basis, and the cluster of eigenvalues
within 1e-6 of the lowest is solved on its own, where its entries are of the order
of its spread.  That reference is as accurate as ``np.longdouble``, 1e-19 where it
has a 64-bit mantissa; where it is plain double, the first column only bounds the
error at about 1e-16.  Needs only numpy; runs in a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

MARGIN = 1e-12
CLUSTER = 1e-6  # eigenvalues this close to the lowest are solved together


def haar_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """QR of complex Ginibre matrices with the phases of R's diagonal fixed."""
    q, r = np.linalg.qr(rng.normal(size=(count, 4, 4)) + 1.0j * rng.normal(size=(count, 4, 4)))
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def spectra(rng: np.random.Generator, rank: int, count: int) -> np.ndarray:
    """``count`` trace-one spectra of ``rank`` random eigenvalues and 4 - ``rank`` near -1e-9, lowest first."""
    low = -1e-9 + rng.uniform(-4e-12, 4e-12, size=(count, 4 - rank))
    weights = rng.random((count, rank))
    high = weights / weights.sum(axis=1, keepdims=True) * (1.0 - low.sum(axis=1, keepdims=True))
    return np.concatenate([low, high], axis=1)


def exact_lowest(herm: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of each float matrix of a Hermitian stack, refined in ``np.longdouble``."""
    values, vectors = np.linalg.eigh(herm)
    basis = vectors.astype(np.clongdouble)
    # One Newton step of Q (Q+ Q)^(-1/2): Q+ Q = I + E with |E| ~ 1e-16, so Q (I - E / 2) is orthonormal to E^2.
    gram = basis.conj().swapaxes(-1, -2) @ basis
    basis = basis @ (1.5 * np.eye(4) - 0.5 * gram)
    rotated = basis.conj().swapaxes(-1, -2) @ herm.astype(np.clongdouble) @ basis
    lowest = np.empty(len(herm), dtype=np.longdouble)
    for k, (block, approx) in enumerate(zip(rotated, values)):
        # Off-cluster couplings of about 1e-16 move the lowest eigenvalue by (1e-16)^2 / CLUSTER at most.
        size = int(np.count_nonzero(approx - approx[0] < CLUSTER))
        centre = block[0, 0].real
        cluster = block[:size, :size] - centre * np.eye(size)
        # The cluster's entries are of the order of its spread, so double precision resolves them to far below 1e-19.
        lowest[k] = centre + np.longdouble(np.linalg.eigvalsh(cluster.astype(complex))[0])
    return lowest


def measure(rng: np.random.Generator, rank: int, count: int, shift: float, atol: float) -> dict:
    unitaries = haar_unitaries(rng, count)
    mats = (unitaries * spectra(rng, rank, count)[:, None, :]) @ unitaries.conj().swapaxes(-1, -2)
    # The Hermitian part as validate_density forms it.
    herm = 0.5 * mats + 0.5 * mats.swapaxes(-1, -2).conj()
    eigmin = np.linalg.eigvalsh(herm)[:, 0]
    exact = exact_lowest(herm)
    backward = []
    certified = unsound = 0
    for mat, low in zip(herm, eigmin):
        shifted = mat + shift * np.eye(4)
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        if not factor.diagonal().real.min() > 0.0:
            continue
        certified += 1
        unsound += bool(low < -atol)
        product = factor.astype(np.clongdouble) @ factor.conj().T.astype(np.clongdouble)
        backward.append(np.linalg.norm((product - shifted.astype(np.clongdouble)).astype(complex), 2))
    return {
        "eigvalsh": float(np.max(np.abs(eigmin.astype(np.longdouble) - exact))),
        "backward": max(backward, default=float("nan")),
        "certified": certified,
        "unsound": unsound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=2000, help="states per rank (default 2000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qnetfilter.core import CHOLESKY_SHIFT, POSITIVITY_ATOL

    rng = np.random.default_rng(args.seed)
    print(f"tau = {CHOLESKY_SHIFT!r}, margin {MARGIN:.0e}, longdouble eps {np.finfo(np.longdouble).eps:.1e}")
    print("rank  states  max |eigvalsh - exact|  max ||LL+ - (H + tau I)||_2  certified  certified but rejected")
    unsound = 0
    for rank in (1, 2, 3, 4):
        row = measure(rng, rank, args.states, CHOLESKY_SHIFT, POSITIVITY_ATOL)
        unsound += row["unsound"]
        print(
            f"{rank:>4}  {args.states:>6}  {row['eigvalsh']:.2e} (margin {MARGIN:.0e})"
            f"  {row['backward']:>11.2e} (margin {MARGIN:.0e})"
            f"  {row['certified']:>9}  {row['unsound']:>21}"
        )
    return 1 if unsound else 0


if __name__ == "__main__":
    raise SystemExit(main())
