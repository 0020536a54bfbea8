"""Command-line front end.

Subcommands::

    qnetfilter eval      --config FILE                  bounds for one configuration
    qnetfilter scan      --config FILE [--out FILE]     CSV grid scan (1-3 axes)
    qnetfilter threshold --config FILE --axis P --target {b_lin,b_seq}
    qnetfilter optimize  --config FILE --free P[,P...] [--seed N]
    qnetfilter oracle    --config FILE [--seed N]       Born-rule cross-check
    qnetfilter reproduce ID                             named reference scenarios

Exit codes: 0 success, 1 reproduction or cross-check failure, 2 config error,
3 annihilated post-selection, 4 no threshold crossing in range.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterator

import numpy as np

from .config import (
    ConfigError,
    ScanAxis,
    _number,
    build_network,
    build_settings,
    config_seed,
    get_path,
    load_config,
    network_factory,
    scan_axes,
)
from .filtering import FilterAnnihilatesState, NetworkFilterSpec
from .nlocal import (
    MeasurementSettings,
    NetworkSpec,
    b_seq,
    born_oracle,
    conjecture_search,
    evaluate,
    lhs_at_settings,
    nelder_mead,
)
from .solvers import bisect
from .states import product_state

__all__ = ["main", "NoCrossing"]

ORACLE_ATOL = 1e-10
BOUND_SLACK = 1e-9


class NoCrossing(ValueError):
    """The requested bound does not cross 1 inside the scan range."""


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# eval / scan / threshold / optimize / oracle
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec, settings = build_network(cfg), build_settings(cfg)
    payload = dataclasses.asdict(evaluate(spec))
    if settings is not None:
        payload["lhs_at_settings"] = lhs_at_settings(spec, settings)
    _print_json(payload)
    return 0


def _grid(cfg: dict, axes: list[ScanAxis]) -> Iterator[tuple[tuple[float, ...], NetworkSpec]]:
    """Yield each point of the axes' grid in row-major order, with the network built at it."""
    build = network_factory(cfg, [axis.path for axis in axes])
    for point in itertools.product(*[axis.values for axis in axes]):
        values = tuple(float(v) for v in point)
        yield values, build(values)


def _scan_rows(cfg: dict) -> tuple[list[str], list[list[str]]]:
    axes = scan_axes(cfg)
    rows = []
    for values, spec in _grid(cfg, axes):
        result = evaluate(spec)
        numbers = (*values, result.b_lin, result.b_seq, result.success_prob)
        rows.append([*map(_fmt, numbers), "1" if result.violation else "0"])
    header = [*(axis.path for axis in axes), "b_lin", "b_seq", "success_prob", "violation"]
    return header, rows


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        # Opened before the grid is computed, so an unwritable path fails at once, and in
        # append mode, so a grid that fails leaves an existing file as it was.
        try:
            target = open(args.out, "a", newline="", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    with target as handle:
        header, rows = _scan_rows(cfg)
        # Emptied once the rows exist; like mode "w", only a regular file is truncated.
        if args.out is not None and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(0)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _threshold(cfg: dict, axis: ScanAxis, target: str) -> float:
    """Bisect where ``target`` crosses 1 as the config value on ``axis`` runs from its low to its high."""
    build = network_factory(cfg, [axis.path])

    def objective(value: float) -> float:
        spec = build((float(value),))
        # The spec validated its links, and a filter axis's specs share the bound they carry.
        bound = spec._unfiltered if target == "b_lin" else b_seq(spec)[0]
        return bound - 1.0

    lo, hi = axis.low, axis.high
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo * f_hi > 0.0:
        raise NoCrossing(
            f"{target} - 1 has the same sign at both endpoints "
            f"({f_lo:+.3e} at {_fmt(lo)}, {f_hi:+.3e} at {_fmt(hi)})"
        )
    # bisect returns an endpoint at which the objective is exactly 0.
    return bisect(objective, lo, hi, xtol=1e-4, f_a=f_lo, f_b=f_hi)


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    matching = [axis for axis in scan_axes(cfg) if axis.path == args.axis]
    if len(matching) != 1:
        raise ConfigError(f"scan block must contain exactly one axis with path {args.axis!r}")
    (axis,) = matching
    root = _threshold(cfg, axis, args.target)
    _print_json({"axis": axis.path, "target": args.target, "range": [axis.low, axis.high], "threshold": root})
    return 0


def _seed(args: argparse.Namespace, cfg: dict) -> int:
    """The ``--seed`` value if given, else the config's seed; a negative one is a config error."""
    name, seed = ("--seed", args.seed) if args.seed is not None else ("seed", config_seed(cfg))
    if seed < 0:
        raise ConfigError(f"{name} must be non-negative, got {seed}")
    return seed


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    free = [token.strip() for token in args.free.split(",") if token.strip()]
    seed = _seed(args, cfg)
    start = []
    for position, path in enumerate(free):
        if not path.startswith("filters."):
            raise ConfigError(f"--free path {path!r} must reference a filter entry")
        if path in free[:position]:
            raise ConfigError(
                f"--free path {position + 1} ({path!r}) names the same value as --free path {free.index(path) + 1}"
            )
        value = get_path(cfg, path)
        try:
            start.append(float(_number(value, path)))
        except ConfigError:
            raise ConfigError(f"--free path {path!r} must name a number, got {value!r}") from None

    build = network_factory(cfg, free)
    build(start)  # the config as given: rejected here as eval rejects it

    def negative_b_seq(values: list[float]) -> float:
        try:
            return -b_seq(build(values))[0]
        except FilterAnnihilatesState:
            return 1.0  # score -1.0: annihilating assignments never win

    rng = np.random.default_rng(seed)
    starts = [np.array(start), *rng.uniform(0.0, 1.0, size=(16, len(free)))]
    # With no free value there is nothing to search: the config as given is the result.
    best_x = nelder_mead(negative_b_seq, starts, [(0.0, 1.0)] * len(free))[1] if free else start
    argmax = dict(zip(free, (float(v) for v in best_x)))
    final = evaluate(build(list(argmax.values())))
    _print_json({"seed": seed, "free": free, "argmax": argmax, "best": dataclasses.asdict(final)})
    return 0


def _random_settings(rng: np.random.Generator) -> MeasurementSettings:
    vectors = []
    for _ in range(4):
        vec = rng.normal(size=3)
        vectors.append(vec / np.linalg.norm(vec))
    return MeasurementSettings(*vectors)


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    spec = build_network(cfg)
    settings = build_settings(cfg)
    seed = _seed(args, cfg)
    used_random = settings is None
    if settings is None:
        settings = _random_settings(np.random.default_rng(seed))
    closed = lhs_at_settings(spec, settings)
    oracle = born_oracle(spec, settings)
    diff = abs(closed - oracle.lhs)
    agrees = diff <= ORACLE_ATOL and oracle.max_distribution_dev <= ORACLE_ATOL
    payload = {
        "i_value": oracle.i_value,
        "j_value": oracle.j_value,
        "lhs_oracle": oracle.lhs,
        "lhs_closed_form": closed,
        "abs_diff": diff,
        "max_distribution_dev": oracle.max_distribution_dev,
        "agrees": agrees,
    }
    if used_random:
        payload["seed"] = seed
    _print_json(payload)
    return 0 if agrees else 1


# ---------------------------------------------------------------------------
# reproduce: named reference scenarios
# ---------------------------------------------------------------------------


def _report(label: str, expected: float, tol: float, computed: float) -> bool:
    passed = abs(computed - expected) <= tol
    verdict = "PASS" if passed else "FAIL"
    print(f"{label}: expected {expected:g} (tol {tol:g}), computed {_fmt(computed)} -> {verdict}")
    return passed


def _run_point(config: dict, checks: list) -> bool:
    """Compare the named EvalResult fields of one configuration with references."""
    result = evaluate(build_network(config))
    # A list, not a generator: every check is printed, also after a FAIL.
    return all([_report(field, expected, tol, getattr(result, field)) for field, expected, tol in checks])


def _run_region(label: str, config: dict, min_success: float | None) -> bool:
    """Report the hidden violation (b_lin <= 1 < b_seq) with the largest b_seq on the scan grid."""
    best = None
    for point, spec in _grid(config, scan_axes(config)):
        try:
            result = evaluate(spec)
        except FilterAnnihilatesState:
            continue
        hidden = result.b_lin <= 1.0 < result.b_seq
        if hidden and (min_success is None or result.success_prob >= min_success):
            if best is None or result.b_seq > best[1].b_seq:
                best = (point, result)
    if best is None:
        floor = "" if min_success is None else f", success >= {min_success:.2f}"
        print(f"region search over {label}: no grid point with b_lin <= 1 and b_seq > 1{floor}")
        return False
    point, result = best
    coords = ", ".join(map(_fmt, point))
    success = "" if min_success is None else f", success {_fmt(result.success_prob)}"
    print(f"witness at {label} = ({coords}): b_seq {_fmt(result.b_seq)}{success}")
    return True


def _run_thresholds(config: dict, checks: list) -> bool:
    """Bisect each target bound along the config's single scan axis and compare."""
    (axis,) = scan_axes(config)
    reports = [
        _report(label, expected, tol, _threshold(config, axis, target))
        for label, target, expected, tol in checks
    ]
    return all(reports)


def _random_density(rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return rho / float(np.real(np.trace(rho)))


def _random_bloch(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    return vec * rng.uniform() ** (1.0 / 3.0)


def _theorem1(seed: int, specs: int) -> bool:
    # Chains containing at least one product link can never exceed 1 after
    # filtering, whatever the other links and filter strengths are.
    rng = np.random.default_rng(seed)
    max_bound = 0.0
    done = 0
    while done < specs:
        n = int(rng.integers(2, 5))
        product_slot = int(rng.integers(0, n))
        links = []
        for index in range(n):
            if index == product_slot:
                links.append(product_state(_random_bloch(rng), _random_bloch(rng)))
            else:
                links.append(_random_density(rng))
        filters = NetworkFilterSpec(
            eps_first=rng.uniform(),
            eps_last=rng.uniform(),
            middle=tuple((rng.uniform(), rng.uniform()) for _ in range(n - 1)),
        )
        try:
            bound, _ = b_seq(NetworkSpec(links=tuple(links), filters=filters))
        except FilterAnnihilatesState:
            continue
        max_bound = max(max_bound, bound)
        done += 1
    print(f"seed {seed}, {specs} random chains with a product link, max b_seq {_fmt(max_bound)}")
    return max_bound <= 1.0 + BOUND_SLACK


def _conjecture_search(seed: int, trials: int) -> bool:
    report = conjecture_search(trials, seed=seed)
    print(
        f"seed {report.seed}, {report.trials} filtered bilocal pairs with b_lin <= 1: max b_seq "
        f"{_fmt(report.max_b_seq)}, max closed-form deviation {report.max_closed_form_dev:.3e}"
    )
    return report.max_b_seq <= 1.0 + BOUND_SLACK and report.max_closed_form_dev <= ORACLE_ATOL


# Each scenario is a runner and its arguments.  ``config`` is a config in the
# schema that eval, scan and threshold read; ``checks`` pairs a label (an
# EvalResult field, or a label and a target bound for thresholds) with the
# reference value and its tolerance.
_REPRODUCTIONS = {
    "bilocal-grud": (_run_point, {
        "config": {
            "links": [{"family": "grud", "v": 0.1, "x": 0.23}, {"family": "grud", "v": 0.99, "x": 0.44}],
            "filters": {"middle": [[0.8, 0.97]]},
        },
        "checks": [["b_lin", 0.8871, 5e-4], ["b_seq", 1.081, 2e-3], ["success_prob", 0.62, 0.02]],
    }),
    # End filters fixed, intermediate filters and v1 free; the reference
    # claims a hidden-violation region with success >= 0.30 exists.
    "bilocal-grud-allfilter": (_run_region, {
        "label": "(v1, eps2_1, eps2_2)", "min_success": 0.30,
        "config": {
            "links": [{"family": "grud", "v": 0.0, "x": 0.23}, {"family": "grud", "v": 0.15, "x": 0.34}],
            "filters": {"first": 0.95, "last": 0.76, "middle": [[1.0, 1.0]]},
            "scan": {"axes": [
                {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 11},
                {"path": "filters.middle.0.0", "min": 0.1, "max": 1.0, "steps": 10},
                {"path": "filters.middle.0.1", "min": 0.1, "max": 1.0, "steps": 10},
            ]},
        },
    }),
    "trilocal-grud": (_run_point, {
        "config": {
            "links": [
                {"family": "grud", "v": 0.1, "x": 0.3455},
                {"family": "grud", "v": 0.12, "x": 0.5586},
                {"family": "grud", "v": 0.1, "x": 0.7799},
            ],
            "filters": {"middle": [[0.6362, 0.99], [0.989, 0.989]]},
        },
        "checks": [["b_lin", 0.9888, 5e-4], ["b_seq", 1.2332, 2e-3], ["success_prob", 0.44, 0.02]],
    }),
    # One separable-regime partner: Werner link with p2 in [0.25, 0.30],
    # intermediate filters (0.46, 1).
    "bilocal-werner": (_run_region, {
        "label": "(v1, x1, p2)", "min_success": None,
        "config": {
            "links": [{"family": "grud", "v": 0.0, "x": 0.0}, {"family": "werner", "p": 0.25}],
            "filters": {"middle": [[0.46, 1.0]]},
            "scan": {"axes": [
                {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 11},
                {"path": "links.0.x", "min": 0.0, "max": np.pi / 4.0, "steps": 11},
                {"path": "links.1.p", "min": 0.25, "max": 0.30, "steps": 6},
            ]},
        },
    }),
    # The middle source again stays in the separable Werner range.
    "trilocal-werner": (_run_region, {
        "label": "(v3, x3, p2)", "min_success": None,
        "config": {
            "links": [
                {"family": "grud", "v": 0.07, "x": 0.3},
                {"family": "werner", "p": 0.25},
                {"family": "grud", "v": 0.0, "x": 0.0},
            ],
            "filters": {"middle": [[0.762, 0.038], [0.038, 1.0]]},
            "scan": {"axes": [
                {"path": "links.2.v", "min": 0.0, "max": 1.0, "steps": 9},
                {"path": "links.2.x", "min": 0.0, "max": np.pi / 4.0, "steps": 9},
                {"path": "links.1.p", "min": 0.25, "max": 0.30, "steps": 6},
            ]},
        },
    }),
    "xstate-pair": (_run_point, {
        "config": {
            "links": [
                {"family": "x", "x1": 0.2, "x2": 0.1, "x3": 0.7, "x4": 0.15},
                {"family": "x", "x1": 0.86, "x2": 0.0, "x3": 0.14, "x4": 0.33},
            ],
            "filters": {"first": 0.77, "last": 0.77, "middle": [[0.77, 0.77]]},
        },
        "checks": [["b_lin", 0.999, 5e-4], ["b_seq", 1.023, 2e-3], ["success_prob", 0.37, 0.02]],
    }),
    # b_lin ignores the filters, so one config serves both targets.
    "bitflip-threshold": (_run_thresholds, {
        "config": {
            "links": [{"family": "pure_theta", "theta": 0.62}, {"family": "pure_theta", "theta": 0.62}],
            "channels": [
                {"link": 1, "type": "bit_flip", "param": 0.0},
                {"link": 2, "type": "bit_flip", "param": 0.15},
            ],
            "filters": {"middle": [[0.98, 0.79]]},
            "scan": {"axes": [{"path": "channels.0.param", "min": 0.0, "max": 0.4, "steps": 2}]},
        },
        "checks": [
            ["p1* (no filters)", "b_lin", 0.214, 5e-3],
            ["p1* (filters 0.98, 0.79)", "b_seq", 0.235, 5e-3],
        ],
    }),
    "damping-threshold": (_run_thresholds, {
        "config": {
            "links": [{"family": "pure_theta", "theta": 0.55}, {"family": "pure_theta", "theta": 0.55}],
            "channels": [
                {"link": 1, "type": "amplitude_damping", "param": 0.21},
                {"link": 2, "type": "amplitude_damping", "param": 0.0},
            ],
            "filters": {"first": 0.78, "last": 0.79, "middle": [[0.22, 0.1]]},
            "scan": {"axes": [{"path": "channels.1.param", "min": 0.0, "max": 0.9, "steps": 2}]},
        },
        "checks": [
            ["gamma2* (no filters)", "b_lin", 0.2, 0.01],
            ["gamma2* (filters 0.78, (0.22, 0.1), 0.79)", "b_seq", 0.54, 0.01],
        ],
    }),
    "theorem1": (_theorem1, {"seed": 0, "specs": 1000}),
    "conjecture-search": (_conjecture_search, {"seed": 0, "trials": 10000}),
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.id not in _REPRODUCTIONS:
        known = ", ".join(sorted(_REPRODUCTIONS))
        raise ConfigError(f"unknown reproduction id {args.id!r}; known ids: {known}")
    print(f"# reproduce {args.id}")
    run, fields = _REPRODUCTIONS[args.id]
    passed = run(**fields)
    print(f"result: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


@functools.cache  # built once per process: in-process callers run main once per grid or config
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetfilter",
        description="n-local bounds for filtered linear networks of two-qubit links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate bounds for one configuration")
    p_eval.add_argument("--config", required=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_scan = sub.add_parser("scan", help="grid scan over 1-3 config axes, CSV output")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_scan.set_defaults(handler=cmd_scan)

    p_threshold = sub.add_parser("threshold", help="bisect a bound crossing 1 along an axis")
    p_threshold.add_argument("--config", required=True)
    p_threshold.add_argument("--axis", required=True, help="dotted config path of the axis")
    p_threshold.add_argument("--target", required=True, choices=("b_lin", "b_seq"))
    p_threshold.set_defaults(handler=cmd_threshold)

    p_optimize = sub.add_parser("optimize", help="maximize b_seq over free filter parameters")
    p_optimize.add_argument("--config", required=True)
    p_optimize.add_argument("--free", required=True, help="comma-separated dotted filter paths")
    p_optimize.add_argument("--seed", type=int, default=None)
    p_optimize.set_defaults(handler=cmd_optimize)

    p_oracle = sub.add_parser("oracle", help="cross-check the closed form against the Born rule")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.set_defaults(handler=cmd_oracle)

    p_reproduce = sub.add_parser("reproduce", help="run a named reference scenario")
    p_reproduce.add_argument("id", help=f"one of: {', '.join(sorted(_REPRODUCTIONS))}")
    p_reproduce.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; exit 3 on annihilation, 4 on no crossing, 2 on any other ValueError (bad input)."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FilterAnnihilatesState as exc:
        print(f"annihilated post-selection: {exc}", file=sys.stderr)
        return 3
    except NoCrossing as exc:
        print(f"no crossing: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
