"""Nelder--Mead and bisection on plain floats.

Both loops are ports of scipy 1.17's ``minimize(method="Nelder-Mead")`` and
``bisect`` that take the same floating-point steps in the same order, so they
return the same floats; the tests pin them against scipy.  Written out here
so that the package needs only numpy.  On the simplex method see Lagarias et
al., SIAM J. Optim. 9, 112 (1998).

After a step that replaces only the worst vertex, the new one is inserted
among the others instead of the simplex being re-sorted.  When their values
and the new one are distinct and not NaN, there is only one sorted order, so
the insertion gives the order ``np.argsort`` gives; otherwise the simplex is
sorted as scipy sorts it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["MinimizeResult", "minimize", "bisect"]

# Nelder--Mead stops when every vertex is within XATOL of the best one in
# every coordinate and within FATOL of it in value, or after MAXITER
# iterations or MAXFEV evaluations, whichever comes first.
XATOL = 1e-9
FATOL = 1e-12
MAXITER = 2000
MAXFEV = 4000
# Trial points are a * centroid - b * worst vertex: reflection, expansion,
# outside and inside contraction with scipy's coefficients 1, 2, 0.5, 0.5.
# scipy's inside contraction 0.5 * centroid + 0.5 * worst is the same float
# as 0.5 * centroid - (-0.5) * worst.
REFLECT = (2, 1)
EXPAND = (3, 2)
CONTRACT_OUTSIDE = (1.5, 0.5)
CONTRACT_INSIDE = (0.5, -0.5)
SHRINK = 0.5
# The first simplex steps each coordinate by 5%, or to ZERO_STEP if it is 0.
NONZERO_STEP = 0.05
ZERO_STEP = 0.00025

BISECT_RTOL = 4.0 * np.finfo(float).eps
BISECT_MAXITER = 100


@dataclass(frozen=True)
class MinimizeResult:
    """The best vertex, its value, the number of evaluations and whether the tolerances were met."""

    x: list[float]
    fun: float
    nfev: int
    success: bool


class _TooManyEvaluations(Exception):
    """The objective was asked for an evaluation past MAXFEV."""


def _clip(value: float, low: float, high: float) -> float:
    # np.clip's comparisons in its order, so NaN and signed zeros come out as they do there.
    if value != value:
        return value
    value = value if value > low else low
    return value if value < high else high


def _order(values: list[float]) -> list[int]:
    """The indices that sort ``values`` as ``np.argsort`` does."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranked = [values[i] for i in order]
    if all(map(operator.lt, ranked, ranked[1:])):
        return order
    # A tie or a NaN: np.argsort's quicksort is not stable, so only it gives its own order.
    return np.argsort(values).tolist()


def minimize(objective, x0, bounds=None) -> MinimizeResult:
    """Minimise ``objective`` from ``x0`` by Nelder--Mead.

    ``objective`` receives each point as a list of floats.  ``bounds`` is a
    list of (lo, hi) pairs or None; with bounds the start and every vertex
    and trial point are clipped into them, after the first simplex is
    reflected off the upper bounds.
    """
    n = len(x0)
    x0 = [float(v) for v in x0]
    if bounds is not None:
        lows = [float(lo) for lo, _ in bounds]
        highs = [float(hi) for _, hi in bounds]

        def clip(point: list[float]) -> list[float]:
            return [_clip(v, lo, hi) for v, lo, hi in zip(point, lows, highs)]

        x0 = clip(x0)
    sim = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = (1 + NONZERO_STEP) * vertex[k] if vertex[k] != 0 else ZERO_STEP
        sim.append(vertex)
    if bounds is not None:
        sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(vertex, highs)]) for vertex in sim]

    nfev = 0

    def evaluate(point: list[float]) -> float:
        nonlocal nfev
        if nfev >= MAXFEV:
            raise _TooManyEvaluations
        nfev += 1
        return objective(list(point))

    def trial(centroid: list[float], worst: list[float], coefficients: tuple[float, float]) -> list[float]:
        a, b = coefficients
        point = [a * c - b * w for c, w in zip(centroid, worst)]
        return point if bounds is None else clip(point)

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _TooManyEvaluations:
        pass
    for _ in range(2):  # scipy sorts the first simplex twice, which can reorder ties
        order = _order(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    # Whether the values of all but the worst vertex strictly increase.
    kept_increasing = all(map(operator.lt, fsim[:-2], fsim[1:-1]))

    iterations = 1
    while nfev < MAXFEV and iterations < MAXITER:
        replaced = False
        try:
            best = sim[0]
            # fsim is sorted with any NaN last, so fsim[-1] - fsim[0] is its largest distance
            # from fsim[0], or NaN, which fails the test as it fails np.max's.
            if fsim[-1] - fsim[0] <= FATOL and all(
                abs(v - b) <= XATOL for vertex in sim[1:] for v, b in zip(vertex, best)
            ):
                break
            # The centroid of all but the worst vertex, summed vertex by vertex in order
            # (lazily: each element is ((v0 + v1) + v2) + ... when the list is built).
            total = sim[0]
            for vertex in sim[1:-1]:
                total = map(operator.add, total, vertex)
            centroid = [t / n for t in total]
            worst = sim[-1]
            xr = trial(centroid, worst, REFLECT)
            fxr = evaluate(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = trial(centroid, worst, EXPAND)
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = trial(centroid, worst, CONTRACT_OUTSIDE)
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = trial(centroid, worst, CONTRACT_INSIDE)
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    vertex = [b + SHRINK * (v - b) for b, v in zip(best, sim[j])]
                    sim[j] = vertex if bounds is None else clip(vertex)
                    fsim[j] = evaluate(sim[j])
            replaced = not shrink
            iterations += 1
        except _TooManyEvaluations:
            pass  # a vertex moved by the shrink keeps its old value, as in scipy
        # Only the worst vertex changed: insert it among the kept ones when that order is unique.
        # Its value won a comparison to be kept, so it is not NaN.
        value = fsim[-1]
        k = bisect_left(fsim, value, 0, n)
        if replaced and kept_increasing and (k == n or fsim[k] != value):
            sim.insert(k, sim.pop())
            fsim.insert(k, fsim.pop())
        else:
            order = _order(fsim)
            sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
            kept_increasing = all(map(operator.lt, fsim[:-2], fsim[1:-1]))

    return MinimizeResult(
        x=sim[0], fun=np.min(fsim), nfev=nfev, success=nfev < MAXFEV and iterations < MAXITER
    )


def bisect(f, a: float, b: float, xtol: float = 2e-12, f_a: float | None = None, f_b: float | None = None) -> float:
    """A root of ``f`` between ``a`` and ``b`` by bisection.

    Stops when ``f`` is exactly 0 at the midpoint or the half-width falls
    below ``xtol + 4 eps |midpoint|``.  ``f_a`` and ``f_b`` are f(a) and f(b)
    when the caller has them already.  Raises ValueError when f(a) and f(b)
    have the same sign or ``f`` returns NaN, and RuntimeError after 100
    halvings without convergence.  Like scipy, rejects ``xtol <= 0`` before any evaluation.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    a, b = float(a), float(b)
    f_a = f(a) if f_a is None else f_a
    f_b = f(b) if f_b is None else f_b
    if math.isnan(f_a) or math.isnan(f_b):
        raise ValueError("f is NaN at an endpoint; bisection cannot continue")
    if f_a * f_b > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if f_a == 0:
        return a
    if f_b == 0:
        return b
    # f_a keeps the value at the original a, as scipy's loop does; only its sign is read.
    step = b - a
    for _ in range(BISECT_MAXITER):
        step *= 0.5
        mid = a + step
        f_mid = f(mid)
        if math.isnan(f_mid):
            raise ValueError(f"f is NaN at {mid!r}; bisection cannot continue")
        if f_mid * f_a >= 0:
            a = mid
        if f_mid == 0 or abs(step) < xtol + BISECT_RTOL * abs(mid):
            return mid
    raise RuntimeError(f"failed to converge after {BISECT_MAXITER} iterations, value is {a}")
