"""``b_seq`` and the success against an X-state closed form that shares no arithmetic with the package.

The grud, werner, x and pure_theta links are X-states: in the basis |00>, |01>,
|10>, |11> only the diagonal and the coherences rho_03 and rho_12 can be
non-zero, and all of them are real.  Bit flip and amplitude damping on either
qubit keep that shape, and so does the filter diag(eps, 1) on each qubit.  For
strengths (eL, eR), with d = (eL eR, eL, eR, 1), p_i = rho_ii d_i^2 and
N = sum p_i (the link's success), the filtered link's correlation tensor has the
singular values

    2 eL eR (|rho_03| + |rho_12|) / N,  2 eL eR ||rho_03| - |rho_12|| / N,  |p0 - p1 - p2 + p3| / N.

The oracle reads the families' and the channels' parameters off a config and
works on plain floats with ``math``: no matrix, SVD or eigensolver, and no code
of the package.  Unlike ``conjecture_search``'s Bell-diagonal closed form, it
reaches the noise channels and links whose local Bloch vectors are not null.
On X-states see Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007).
"""

from __future__ import annotations

import collections
import contextlib
import copy
import csv
import io
import itertools
import json
import math
import re

import numpy as np
import pytest

from fuzz_cli import fuzz
from qnetfilter import b_seq, build_network, cli, evaluate
from qnetfilter.config import network_factory, scan_axes
from record_cli_goldens import CASES, GOLDENS_PATH, run_case
from test_fuzz_cli import SLICE

ATOL = 1e-12
# The CLI prints 12 significant digits: a printed value is within this fraction of its float.
PRINTED_RTOL = 5e-12
CHAINS = 1200
FAMILIES = ("grud", "werner", "x", "pure_theta")


def _family(entry: dict) -> tuple[list[float], float, float]:
    """The diagonal, rho_03 and rho_12 of a link family."""
    family = entry["family"]
    if family == "grud":  # v|00><00| + (1 - v)|phi><phi|, |phi> = sin x|01> + cos x|10>
        v, s, c = entry["v"], math.sin(entry["x"]), math.cos(entry["x"])
        return [v, (1 - v) * s * s, (1 - v) * c * c, 0.0], 0.0, (1 - v) * s * c
    if family == "werner":  # (1 - p) I/4 + p|psi-><psi-|
        p = entry["p"]
        return [(1 - p) / 4, (1 - p) / 4 + p / 2, (1 - p) / 4 + p / 2, (1 - p) / 4], 0.0, -p / 2
    if family == "x":  # x1|00><00| + x2|01><01| + x3|11><11| + x4(|00><11| + h.c.)
        return [entry["x1"], entry["x2"], 0.0, entry["x3"]], entry["x4"], 0.0
    # pure_theta: cos(theta)|01> + sin(theta)|10>
    c, s = math.cos(entry["theta"]), math.sin(entry["theta"])
    return [0.0, c * c, s * s, 0.0], 0.0, c * s


def _bit_flip(link, p: float, bit: int):
    # Flipping the qubit of ``bit`` (2 left, 1 right) swaps basis states i and i ^ bit, and rho_03 with rho_12.
    diag, c03, c12 = link
    return [(1 - p) * diag[i] + p * diag[i ^ bit] for i in range(4)], (1 - p) * c03 + p * c12, (1 - p) * c12 + p * c03


def _damping(link, gamma: float, bit: int):
    # |1> decays to |0> on the qubit of ``bit``: state i | bit hands gamma of its weight to i.
    diag, c03, c12 = link
    decayed = [(1 - gamma) * diag[i] if i & bit else diag[i] + gamma * diag[i | bit] for i in range(4)]
    keep = math.sqrt(1 - gamma)
    return decayed, keep * c03, keep * c12


def xstate_b_seq(cfg: dict) -> tuple[float, float]:
    """``b_seq`` and the success of an X-state chain config, from the closed form."""
    links = [_family(entry) for entry in cfg["links"]]
    for channel in cfg.get("channels", []):
        apply = _bit_flip if channel["type"] == "bit_flip" else _damping
        sides = channel.get("sides", "both")
        for side, bit in (("left", 2), ("right", 1)):
            if sides in (side, "both"):
                links[channel["link"] - 1] = apply(links[channel["link"] - 1], channel["param"], bit)
    filters = cfg.get("filters", {})
    middle = filters.get("middle", [[1.0, 1.0]] * (len(links) - 1))
    strengths = [filters.get("first", 1.0), *(eps for pair in middle for eps in pair), filters.get("last", 1.0)]
    first = second = success = 1.0
    for k, (diag, c03, c12) in enumerate(links):
        e_left, e_right = strengths[2 * k], strengths[2 * k + 1]
        p = [rho * d * d for rho, d in zip(diag, (e_left * e_right, e_left, e_right, 1.0))]
        norm = sum(p)
        coherence = 2 * e_left * e_right
        t1, t2, _ = sorted(
            (
                coherence * (abs(c03) + abs(c12)) / norm,
                coherence * abs(abs(c03) - abs(c12)) / norm,
                abs(p[0] - p[1] - p[2] + p[3]) / norm,
            ),
            reverse=True,
        )
        first *= t1
        second *= t2
        success *= norm
    return math.sqrt(first + second), success


def _random_link(rng: np.random.Generator) -> dict:
    family = FAMILIES[rng.integers(len(FAMILIES))]
    if family == "grud":
        return {"family": "grud", "v": float(rng.uniform()), "x": float(rng.uniform(0.0, math.pi / 4))}
    if family == "werner":
        return {"family": "werner", "p": float(rng.uniform())}
    if family == "x":
        x1 = float(rng.uniform())
        x2 = float(rng.uniform()) * (1 - x1)
        x3 = (1 - x1) - x2
        return {"family": "x", "x1": x1, "x2": x2, "x3": x3, "x4": float(rng.uniform(-1.0, 1.0)) * math.sqrt(x1 * x3)}
    return {"family": "pure_theta", "theta": float(rng.uniform(0.01, math.pi / 4))}


def _random_config(rng: np.random.Generator) -> dict:
    n = int(rng.integers(2, 5))
    channels = [
        {
            "link": int(rng.integers(1, n + 1)),
            "type": ("bit_flip", "amplitude_damping")[rng.integers(2)],
            "param": float(rng.uniform()),
            "sides": ("left", "right", "both")[rng.integers(3)],
        }
        for _ in range(rng.integers(0, 4))
    ]
    return {
        "links": [_random_link(rng) for _ in range(n)],
        "channels": channels,
        "filters": {
            "first": float(rng.uniform(0.05, 1.0)),
            "last": float(rng.uniform(0.05, 1.0)),
            "middle": [[float(rng.uniform(0.05, 1.0)) for _ in range(2)] for _ in range(n - 1)],
        },
    }


def test_random_chains_match_the_closed_form() -> None:
    rng = np.random.default_rng(20070459)
    bounds = []
    for index in range(CHAINS):
        cfg = _random_config(rng)
        bound, success = b_seq(build_network(cfg))
        expected_bound, expected_success = xstate_b_seq(cfg)
        assert abs(bound - expected_bound) <= ATOL, (index, cfg)
        assert abs(success - expected_success) <= ATOL, (index, cfg)
        bounds.append(bound)
    # The corpus holds chains on both sides of the n-local bound.
    assert min(bounds) < 1.0 < max(bounds)


def test_a_scan_grid_matches_the_closed_form() -> None:
    # Shaped like the benchmark's scan: three grud links, bit flip on link 2, a 7x7 grid over its
    # strength and one middle filter strength.
    rng = np.random.default_rng(7)
    cfg = {
        "links": [
            {"family": "grud", "v": float(rng.uniform(0.0, 0.3)), "x": float(rng.uniform(0.1, 0.78))}
            for _ in range(3)
        ],
        "channels": [{"link": 2, "type": "bit_flip", "param": 0.0, "sides": "both"}],
        "filters": {
            "first": float(rng.uniform(0.5, 1.0)),
            "last": float(rng.uniform(0.5, 1.0)),
            "middle": [[float(rng.uniform(0.3, 1.0)) for _ in range(2)] for _ in range(2)],
        },
    }
    build = network_factory(cfg, ["channels.0.param", "filters.middle.1.0"])
    for noise in np.linspace(0.0, float(rng.uniform(0.1, 0.5)), 7).tolist():
        for strength in np.linspace(float(rng.uniform(0.2, 0.5)), 1.0, 7).tolist():
            point = copy.deepcopy(cfg)
            point["channels"][0]["param"] = noise
            point["filters"]["middle"][1][0] = strength
            bound, success = b_seq(build((noise, strength)))
            expected_bound, expected_success = xstate_b_seq(point)
            assert abs(bound - expected_bound) <= ATOL, (noise, strength)
            assert abs(success - expected_success) <= ATOL, (noise, strength)


def _assign(cfg: dict, paths: list[str], values) -> dict:
    """A copy of ``cfg`` with each dotted path set to its value."""
    point = copy.deepcopy(cfg)
    for path, value in zip(paths, values):
        *head, leaf = (int(part) if part.isdigit() else part for part in path.split("."))
        node = point
        for key in head:
            node = node[key]
        node[leaf] = value
    return point


def _closed_form_point(cfg: dict, paths: list[str], values) -> tuple[float, float, float]:
    """b_lin, b_seq and the success at one grid point; b_lin is b_seq under identity filters."""
    point = _assign(cfg, paths, values)
    return (xstate_b_seq({**point, "filters": {}})[0], *xstate_b_seq(point))


def _grid_points(cfg: dict) -> tuple[list[str], list[tuple[float, ...]]]:
    axes = scan_axes(cfg)
    return [axis.path for axis in axes], list(itertools.product(*[axis.values.tolist() for axis in axes]))


def _printed(text: str, expected: float) -> bool:
    return abs(float(text) - expected) <= ATOL + PRINTED_RTOL * abs(expected)


def test_scan_rows_of_a_grid_in_two_chunks_match_the_closed_form() -> None:
    # 11 x 10 x 10 points: more than one stacked pass of the grid.
    rng = np.random.default_rng(1100)
    sides = ("left", "right", "both")[rng.integers(3)]
    cfg = {
        "links": [
            {"family": "pure_theta", "theta": float(rng.uniform(0.3, math.pi / 4))},
            {"family": "grud", "v": float(rng.uniform(0.0, 0.2)), "x": float(rng.uniform(0.3, 0.78))},
            {"family": "pure_theta", "theta": float(rng.uniform(0.3, math.pi / 4))},
        ],
        "channels": [{"link": 2, "type": "bit_flip", "param": 0.0, "sides": sides}],
        "filters": {"first": 1.0, "last": 1.0, "middle": rng.uniform(0.05, 1.0, size=(2, 2)).tolist()},
    }
    cfg["scan"] = {"axes": [
        {"path": "channels.0.param", "min": 0.0, "max": 0.5, "steps": 11},
        {"path": "filters.middle.0.1", "min": 0.05, "max": 1.0, "steps": 10},
        {"path": "filters.last", "min": 0.05, "max": 1.0, "steps": 10},
    ]}
    paths, points = _grid_points(cfg)
    _, rows = cli._scan_rows(cfg)
    assert len(rows) == len(points) == 1100
    bounds = []
    for values, row in zip(points, rows):
        expected = _closed_form_point(cfg, paths, values)
        assert all(_printed(text, value) for text, value in zip(row[3:6], expected)), (values, row)
        if abs(expected[1] - 1.0) > ATOL:
            assert row[6] == ("1" if expected[1] > 1.0 else "0"), (values, row)
        bounds.append(expected[1])
    assert min(bounds) < 1.0 < max(bounds)


def _assert_scan_matches_the_closed_form(cfg: dict) -> None:
    """Each scan point's floats to ATOL, and each printed row, against the closed form at its values."""
    paths, points = _grid_points(cfg)
    _, rows = cli._scan_rows(cfg)
    built = list(cli._grid(cfg, scan_axes(cfg)))
    assert [values for values, _ in built] == points and len(rows) == len(points)
    for (values, spec), row in zip(built, rows):
        expected = _closed_form_point(cfg, paths, values)
        result = evaluate(spec)
        assert all(abs(a - b) <= ATOL for a, b in zip((result.b_lin, result.b_seq, result.success_prob), expected))
        assert all(_printed(text, value) for text, value in zip(row[len(paths) : len(paths) + 3], expected)), row


def _channel_grid_config(channels: list[dict], path: str) -> dict:
    """Three X-state links, ``channels`` on link 2, scanned over ``path`` (a channel parameter) and a strength."""
    return {
        "links": [
            {"family": "grud", "v": 0.05, "x": 0.6},
            {"family": "x", "x1": 0.45, "x2": 0.1, "x3": 0.45, "x4": 0.4},
            {"family": "pure_theta", "theta": 0.7},
        ],
        "channels": channels,
        "filters": {"first": 0.9, "last": 0.8, "middle": [[0.7, 0.6], [0.95, 0.5]]},
        "scan": {"axes": [
            {"path": path, "min": 0.0, "max": 0.9, "steps": 7},
            {"path": "filters.middle.0.1", "min": 0.1, "max": 1.0, "steps": 5},
        ]},
    }


@pytest.mark.parametrize("sides", ["left", "right", "both"])
@pytest.mark.parametrize("kind", ["bit_flip", "amplitude_damping"])
def test_scan_rows_along_a_channel_parameter_match_the_closed_form(kind, sides) -> None:
    # The channel pass applies the 7 parameters to link 2 as one stack.
    _assert_scan_matches_the_closed_form(
        _channel_grid_config([{"link": 2, "type": kind, "param": 0.0, "sides": sides}], "channels.0.param")
    )


def test_scan_rows_along_the_second_channel_on_a_link_match_the_closed_form() -> None:
    channels = [
        {"link": 2, "type": "bit_flip", "param": 0.2, "sides": "left"},
        {"link": 2, "type": "amplitude_damping", "param": 0.0, "sides": "both"},
    ]
    _assert_scan_matches_the_closed_form(_channel_grid_config(channels, "channels.1.param"))


def test_every_fuzzed_eval_and_scan_that_succeeds_matches_the_closed_form(tmp_path) -> None:
    # The configs of the fixed-seed fuzz slice of tests/test_fuzz_cli.py that exit 0 through eval or
    # scan with X-state links only, run again for their output.
    argvs = {name: argv for name, _, argv in CASES}
    path = tmp_path / "config.json"
    checked = collections.Counter()
    for name, cfg, code, _ in fuzz(seed=0, count=SLICE):
        command = argvs[name][0]
        if code != 0 or command not in ("eval", "scan") or any(link["family"] not in FAMILIES for link in cfg["links"]):
            continue
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([command, "--config", str(path)]) == 0
        if command == "eval":
            printed = json.loads(out.getvalue())
            expected = _closed_form_point(cfg, [], ())
            for key, value in zip(("b_lin", "b_seq", "success_prob"), expected):
                assert abs(printed[key] - value) <= ATOL, (key, cfg)
        else:
            paths, points = _grid_points(cfg)
            rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
            assert len(rows) == len(points)
            for values, row in zip(points, rows):
                expected = _closed_form_point(cfg, paths, values)
                assert all(_printed(text, value) for text, value in zip(row[len(paths) : len(paths) + 3], expected))
        checked[command] += 1
    assert checked == {"eval": 4, "scan": 9}  # the slice's such runs: most mutations make a config fail


def test_the_region_witness_matches_the_closed_form(capsys) -> None:
    fields = cli._REPRODUCTIONS["bilocal-grud-allfilter"][1]
    cfg, min_success = fields["config"], fields["min_success"]
    assert cli._run_region("r", cfg, min_success) is True
    printed = re.fullmatch(r"witness at r = \((.*)\): b_seq (\S+), success (\S+)\n", capsys.readouterr().out)
    paths, points = _grid_points(cfg)
    assert len(points) == 1100
    best = None
    for values in points:
        unfiltered, bound, success = _closed_form_point(cfg, paths, values)
        if unfiltered <= 1.0 < bound and success >= min_success and (best is None or bound > best[1]):
            best = values, bound, success
    values, bound, success = best
    assert printed.group(1) == ", ".join(f"{v:.12g}" for v in values)
    assert _printed(printed.group(2), bound) and _printed(printed.group(3), success)


def _recorded_builds(monkeypatch) -> list:
    """Each ``(values, spec)`` that the CLI's network factories build from then on, in call order."""
    built = []

    def factory(cfg: dict, paths: list[str]):
        build = network_factory(cfg, paths)

        def recorded(values):
            spec = build(values)
            built.append((list(values), spec))
            return spec

        return recorded

    monkeypatch.setattr(cli, "network_factory", factory)
    return built


def _assert_closed_form(cfg: dict, paths: list[str], built: list) -> None:
    """Each built spec's raw bound, ``b_seq`` and success against the closed form at its values."""
    for values, spec in built:
        unfiltered, bound, success = _closed_form_point(cfg, paths, values)
        assert abs(spec._unfiltered - unfiltered) <= ATOL, values
        assert abs(b_seq(spec)[0] - bound) <= ATOL, values
        assert abs(b_seq(spec)[1] - success) <= ATOL, values


CLI_GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
# The golden threshold cases' two noisy pure_theta links.
(THRESHOLD_GOLDEN_CONFIG,) = [config for name, config, _ in CASES if name == "threshold-b_lin"]
# Two grud links with amplitude damping on link 2's left qubit: both bounds cross 1 along
# links.0.v and along the bit flip that channels.0.param adds to link 1, up to 0.5.
_DAMPED_PAIR = {
    "links": [{"family": "grud", "v": 0.0, "x": 0.6}, {"family": "grud", "v": 0.1, "x": 0.7}],
    "channels": [
        {"link": 1, "type": "bit_flip", "param": 0.0, "sides": "right"},
        {"link": 2, "type": "amplitude_damping", "param": 0.1, "sides": "left"},
    ],
    "filters": {"first": 0.95, "last": 0.76, "middle": [[0.8, 0.97]]},
}


@pytest.mark.parametrize("target", ["b_lin", "b_seq"])
@pytest.mark.parametrize(
    "cfg, path, high",
    [
        (THRESHOLD_GOLDEN_CONFIG, "channels.0.param", 0.4),
        (_DAMPED_PAIR, "channels.0.param", 0.5),
        (_DAMPED_PAIR, "links.0.v", 1.0),
    ],
    ids=["golden-bit-flip", "damped-pair-bit-flip", "damped-pair-link"],
)
def test_every_threshold_objective_matches_the_closed_form(monkeypatch, cfg, path, high, target) -> None:
    cfg = dict(cfg, scan={"axes": [{"path": path, "min": 0.0, "max": high, "steps": 2}]})
    (axis,) = scan_axes(cfg)
    built = _recorded_builds(monkeypatch)
    root = cli._threshold(cfg, axis, target)
    assert 0.0 < root < high and len(built) >= 14  # the endpoints and each bisection step to 1e-4
    _assert_closed_form(cfg, [path], built)


def test_every_optimize_objective_of_the_golden_case_matches_the_closed_form(tmp_path, monkeypatch) -> None:
    (config, argv), = [(config, argv) for name, config, argv in CASES if name == "optimize"]
    built = _recorded_builds(monkeypatch)
    assert list(run_case(config, argv, tmp_path)) == CLI_GOLDENS["optimize"]
    free = argv[argv.index("--free") + 1].split(",")
    # The config as given, each Nelder-Mead evaluation of 17 starts, and the argmax.
    assert len(built) > 17 * 10
    _assert_closed_form(config, free, built)
