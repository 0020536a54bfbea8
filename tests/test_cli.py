"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qnetfilter import (
    FilterAnnihilatesState,
    NetworkFilterSpec,
    NetworkSpec,
    apply_channel,
    b_lin,
    b_seq,
    bit_flip,
    build_network,
    build_states,
    evaluate,
    grud_state,
    matrix_to_pairs,
    pure_theta_state,
    validate_density,
)
from qnetfilter import config as config_module
from qnetfilter import nlocal
from qnetfilter.cli import _REPRODUCTIONS, NoCrossing, _grid, _run_region, _scan_rows, _threshold, main
from qnetfilter.config import build_filter_spec, config_with_values, scan_axes


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _example_config():
    # Two-link chain with a partially entangled pair on each side and a
    # single intermediate filter pair.
    return {
        "links": [
            {"family": "grud", "v": 0.1, "x": 0.23},
            {"family": "grud", "v": 0.99, "x": 0.44},
        ],
        "filters": {"middle": [[0.8, 0.97]]},
    }


SETTINGS = {"m0": [0, 0, 1], "m1": [1, 0, 0], "n0": [0, 0, 1], "n1": [1, 0, 0]}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_matches_library(tmp_path, capsys):
    cfg = _example_config()
    code, out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    assert code == 0
    payload = json.loads(out)
    result = evaluate(build_network(cfg))
    assert payload == {
        "b_lin": result.b_lin,
        "b_seq": result.b_seq,
        "success_prob": result.success_prob,
        "violation": result.violation,
    }


def test_eval_with_settings_reports_lhs(tmp_path, capsys):
    cfg = dict(_example_config(), settings=SETTINGS)
    code, out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    assert code == 0
    payload = json.loads(out)
    assert "lhs_at_settings" in payload
    assert payload["lhs_at_settings"] <= payload["b_seq"] + 1e-9


def test_eval_identity_filters_equal_bounds(tmp_path, capsys):
    cfg = _example_config()
    del cfg["filters"]
    _, out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    payload = json.loads(out)
    assert payload["b_seq"] == payload["b_lin"]
    assert payload["success_prob"] == 1.0


def test_eval_product_link_never_violates(tmp_path, capsys):
    cfg = {
        "links": [
            {"family": "product", "m": [0.0, 0.0, 1.0], "n": [0.0, 0.0, -1.0]},
            {"family": "werner", "p": 1.0},
        ],
        "filters": {"middle": [[0.7, 0.9]]},
    }
    _, out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    payload = json.loads(out)
    assert payload["violation"] is False
    assert payload["b_seq"] <= 1.0 + 1e-9


def test_eval_unreadable_config_is_a_config_error(tmp_path, capsys):
    code, _, err = _run(capsys, "eval", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"links": "\xff"}', "can't decode byte 0xff"),
        (b'{"n": ' + b"9" * 4301 + b"}", "Exceeds the limit (4300 digits)"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf-8", "huge-integer", "deep-nesting"],
)
def test_config_file_that_json_cannot_load_is_a_config_error(tmp_path, capsys, content, reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, "eval", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: invalid JSON in {path}: ") and reason in err
    assert "Traceback" not in err


def _nan_link_config():
    pairs = matrix_to_pairs(np.eye(4) / 4.0)
    pairs[0][1][0] = float("nan")
    return {"links": [{"family": "explicit", "matrix": pairs}, {"family": "werner", "p": 0.5}]}


def _infinite_link_config(part):
    """An explicit link with Infinity on the real (``part`` 0) or imaginary (1) part of its first diagonal entry."""
    pairs = matrix_to_pairs(np.eye(4) / 4.0)
    pairs[0][0][part] = float("inf")
    return {"links": [{"family": "explicit", "matrix": pairs}, {"family": "werner", "p": 0.5}]}


def _axis_config(path="links.0.v", **bounds):
    cfg = dict(_example_config(), seed=0)
    cfg["scan"] = {"axes": [dict({"path": path, "min": 0.0, "max": 1.0, "steps": 3}, **bounds)]}
    return cfg


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("eval", _nan_link_config()),
        ("eval", dict(_example_config(), settings=dict(SETTINGS, m0=[float("nan"), 0, 1]))),
        ("oracle", dict(_example_config(), settings=dict(SETTINGS, m0=[float("nan"), 0, 1]))),
        ("eval", _infinite_link_config(0)),
        ("eval", _infinite_link_config(1)),
        ("scan", _axis_config(min=float("-inf"))),
        ("scan", _axis_config(max=float("nan"))),
        ("scan", _axis_config(path="seed", min=float("-inf"))),
        ("threshold --axis links.0.v --target b_seq", _axis_config(max=float("inf"))),
        ("threshold --axis channels.0.param --target b_lin", dict(
            _axis_config(path="channels.0.param", min=float("nan")),
            channels=[{"link": 1, "type": "bit_flip", "param": 0.0}],
        )),
    ],
    ids=[
        "eval-explicit-link", "eval-settings", "oracle-settings", "eval-explicit-link-real-infinity",
        "eval-explicit-link-imag-infinity", "scan-min", "scan-max", "scan-seed-axis", "threshold-max",
        "threshold-channel-min",
    ],
)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, command, cfg):
    # json.dumps writes NaN as the token NaN, which Python's json reads back.
    code, out, err = _run(capsys, *command.split(), "--config", _write(tmp_path, cfg))
    assert code == 2
    assert "config error" in err and "not finite" in err
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("eval", _infinite_link_config(1), "links.0: matrix entries are not finite"),
        ("scan", _axis_config(path="seed", min=float("-inf")), "scan.axes.0.min is not finite, got -inf"),
        ("threshold --axis links.0.v --target b_seq", _axis_config(max=float("nan")),
         "scan.axes.0.max is not finite, got nan"),
    ],
    ids=["explicit-link", "scan-min", "threshold-max"],
)
def test_non_finite_input_names_its_field(tmp_path, capsys, command, cfg, message):
    code, _, err = _run(capsys, *command.split(), "--config", _write(tmp_path, cfg))
    assert (code, err) == (2, f"config error: {message}\n")


def _overflowing_link_config(sign):
    """An explicit link with 1e308 at [0, 1] and ``sign`` * 1e308 at [1, 0]: finite entries that overflow when
    subtracted (``sign`` -1) or added (+1)."""
    link = np.eye(4, dtype=complex) / 4.0
    link[0, 1] = 1e308
    link[1, 0] = sign * 1e308
    return {"links": [{"family": "explicit", "matrix": matrix_to_pairs(link)}, {"family": "werner", "p": 0.5}]}


@pytest.mark.parametrize(
    "sign, message",
    [
        (-1.0, "links.0: hermiticity deviation inf exceeds 1e-09"),
        (1.0, "links.0: minimum eigenvalue -1.000e+308 below -1e-09"),
    ],
    ids=["non-hermitian", "hermitian"],
)
def test_overflowing_link_entries_are_one_config_error(tmp_path, capsys, sign, message):
    # Tier-1 turns warnings into errors, so an overflow warning would end this call with a RuntimeWarning.
    code, out, err = _run(capsys, "eval", "--config", _write(tmp_path, _overflowing_link_config(sign)))
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def _link_config(link):
    cfg = _example_config()
    cfg["links"] = [link, cfg["links"][1]]
    return cfg


def _filters_config(**filters):
    return dict(_example_config(), filters=dict({"middle": [[0.8, 0.97]]}, **filters))


def _one_axis_config(**axis):
    cfg = _example_config()
    cfg["scan"] = {"axes": [dict({"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 3}, **axis)]}
    return cfg


def _two_axis_config(first_path, second_path):
    cfg = _example_config()
    axes = [{"path": path, "min": 0.0, "max": 1.0, "steps": 2} for path in (first_path, second_path)]
    cfg["scan"] = {"axes": axes}
    return cfg


def _explicit_link_config(entry):
    # Diagonal [re, im] pairs with ``entry`` as the real part of the first one.
    matrix = [[[0, 0] for _ in range(4)] for _ in range(4)]
    matrix[0][0] = [entry, 0]
    for k in range(1, 4):
        matrix[k][k] = [0.25, 0]
    return _link_config({"family": "explicit", "matrix": matrix})


def _channel_config(**channel):
    return dict(_example_config(), channels=[dict({"link": 1, "type": "bit_flip", "param": 0.1}, **channel)])


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("scan", _one_axis_config(min="abc"), "scan.axes.0.min must be a number, got 'abc'"),
        ("threshold", _one_axis_config(min="abc"), "scan.axes.0.min must be a number, got 'abc'"),
        ("scan", _one_axis_config(max=None), "scan.axes.0.max must be a number, got None"),
        ("threshold", _one_axis_config(min=None), "scan.axes.0.min must be a number, got None"),
        ("scan", _one_axis_config(path=5), "scan.axes.0.path must be a string, got 5"),
        ("threshold", _one_axis_config(path=5), "scan.axes.0.path must be a string, got 5"),
        ("scan", _one_axis_config(steps=True), "scan.axes.0.steps must be a positive integer, got True"),
        ("scan", dict(_example_config(), scan=5), "scan must be an object"),
        (
            "eval",
            dict(_example_config(), settings=dict(SETTINGS, m0="abc")),
            "settings: could not convert string to float: 'abc'",
        ),
        (
            "oracle",
            dict(_example_config(), settings=dict(SETTINGS, m0=[[0, 0], [1]])),
            "settings: setting an array element with a sequence.",
        ),
        (
            "eval",
            dict(_example_config(), channels=[{"link": True, "type": "bit_flip", "param": 0.1}]),
            "channels.0.link must be a 1-based link index, got True",
        ),
        ("oracle", dict(_example_config(), seed=True), "seed must be an integer, got True"),
        ("eval", _link_config({"family": "grud", "v": True, "x": 0.23}), "links.0.v must be a number, got True"),
        ("eval", _link_config({"family": "grud", "v": 0.1, "x": None}), "links.0.x must be a number, got None"),
        ("eval", _link_config({"family": "werner", "p": True}), "links.0.p must be a number, got True"),
        (
            "eval",
            _link_config({"family": "product", "m": [0, 0, "0.5"], "n": [0, 0, 1]}),
            "links.0.m.2 must be a number, got '0.5'",
        ),
        (
            "eval",
            dict(_example_config(), channels=[{"link": 1, "type": "bit_flip", "param": True}]),
            "channels.0.param must be a number, got True",
        ),
        ("eval", _filters_config(first="0.5"), "filters.first must be a number, got '0.5'"),
        ("eval", _filters_config(middle=[[True, 0.97]]), "filters.middle.0.0 must be a number, got True"),
        ("eval", _filters_config(first=10**400), "filters.first is too large for a float"),
        (
            "oracle",
            dict(_example_config(), settings=dict(SETTINGS, m0=[0, 0, 10**400])),
            "settings.m0.2 is too large for a float",
        ),
        ("eval", dict(_example_config(), settings=dict(SETTINGS, m0=10**400)), "settings.m0 is too large for a float"),
        (
            "eval",
            _link_config({"family": "product", "m": 10**400, "n": [0, 0, 1]}),
            "links.0.m is too large for a float",
        ),
        ("scan", _one_axis_config(max=10**400), "scan.axes.0.max is too large for a float"),
        ("eval", _link_config({"family": ["grud"]}), "links.0.family: unknown family ['grud']"),
        ("oracle", _link_config({"family": {"name": "grud"}}), "links.0.family: unknown family {'name': 'grud'}"),
        ("eval", _channel_config(type={"name": "flip"}), "channels.0.type: unknown channel type {'name': 'flip'}"),
        ("eval", _channel_config(type=["bit_flip"]), "channels.0.type: unknown channel type ['bit_flip']"),
        ("eval", dict(_example_config(), n=2.0), "n must be an integer, got 2.0"),
        ("eval", _explicit_link_config(True), "links.0.matrix.0.0.0 must be a number, got True"),
        ("eval", _explicit_link_config("0.25"), "links.0.matrix.0.0.0 must be a number, got '0.25'"),
        (
            "scan",
            _two_axis_config("links.0.v", "links.0.v"),
            "scan.axes.1.path 'links.0.v' names the same value as scan.axes.0.path",
        ),
        (
            "scan",
            _two_axis_config("filters.middle.0.1", "filters.middle.00.1"),
            "no such config path: filters.middle.00.1 ('00' is not an index)",
        ),
        (
            "scan",
            _two_axis_config("filters.middle", "filters.middle.0.1"),
            "no such config path: filters.middle.0.1 (cannot descend into '0')\n",
        ),
        ("oracle", dict(_example_config(), seed=-3), "seed must be non-negative, got -3"),
        ("optimize --free filters.middle.0.0", dict(_example_config(), seed=-3), "seed must be non-negative, got -3"),
        ("oracle --seed -1", _example_config(), "--seed must be non-negative, got -1"),
        ("optimize --free= --seed -1", _example_config(), "--seed must be non-negative, got -1"),
        ("eval", _link_config(5), "links.0 must be an object"),
        ("eval", dict(_example_config(), channels={"link": 1}), "channels must be an array"),
        ("scan", _one_axis_config(path="links"), "links must be a non-empty array"),
    ],
    ids=[
        "scan-min-string", "threshold-min-string", "scan-max-null", "threshold-min-null",
        "scan-path-int", "threshold-path-int", "scan-steps-true", "scan-not-object",
        "eval-settings-string", "oracle-settings-ragged", "eval-link-true", "oracle-seed-true",
        "eval-v-true", "eval-x-null", "eval-p-true", "eval-product-string", "eval-param-true",
        "eval-first-string", "eval-middle-true", "eval-first-huge", "oracle-settings-huge",
        "eval-settings-bare-huge", "eval-product-bare-huge", "scan-max-huge",
        "eval-family-array", "oracle-family-object", "eval-type-object", "eval-type-array", "eval-n-float",
        "eval-explicit-true", "eval-explicit-string", "scan-repeated-path", "scan-repeated-index-spelling",
        "scan-axes-overlap-by-prefix",
        "oracle-seed-negative", "optimize-seed-negative", "oracle-flag-seed-negative",
        "optimize-no-free-flag-seed-negative", "eval-link-not-object", "eval-channels-object",
        "scan-axis-replaces-links",
    ],
)
def test_malformed_field_is_a_config_error(tmp_path, capsys, command, cfg, message):
    # ``command`` is the subcommand followed by any arguments besides --config.
    argv = [*command.split(), "--config", _write(tmp_path, cfg)]
    if command == "threshold":
        argv += ["--axis", "links.0.v", "--target", "b_lin"]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "eps, partner",
    [(0.01, {"family": "werner", "p": 0.5}), (1e-4, {"family": "werner", "p": 1.0})],
)
def test_strong_filter_on_a_barely_valid_link_is_a_config_error(tmp_path, capsys, eps, partner):
    # The link passes validation with an eigenvalue of -9e-10.  Renormalising after the
    # filter scales it by up to 1/success: to about -1.8e-5 at eps 0.01, and to about -0.22
    # at eps 1e-4, where the unchecked state would give |W_zz| > 1 and a false violation.
    link = np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10])
    cfg = {
        "links": [{"family": "explicit", "matrix": matrix_to_pairs(link)}, partner],
        "filters": {"first": eps, "middle": [[eps, 1.0]]},
    }
    code, out, err = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: link 1: filtered state has minimum eigenvalue")
    assert "Traceback" not in err


@pytest.mark.parametrize("position", [1, 2])
def test_filtered_link_that_fails_validation_is_named(tmp_path, capsys, position):
    # A valid link, 5e-11 off Hermitian, that the filter diag(1e-4, 1e-4, 1, 1) makes
    # 5e-7 off Hermitian after renormalising; its Werner partner is not filtered.
    link = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    link[1, 3] = 5e-11
    links = [{"family": "werner", "p": 1.0}] * 2
    links[position - 1] = {"family": "explicit", "matrix": matrix_to_pairs(link)}
    filters = {"first": 1e-4} if position == 1 else {"middle": [[1.0, 1e-4]]}
    code, out, err = _run(capsys, "eval", "--config", _write(tmp_path, {"links": links, "filters": filters}))
    assert code == 2
    assert out == ""
    assert err == f"config error: link {position}: filtered state has hermiticity deviation 5.000e-07 exceeds 1e-09\n"


def test_imaginary_decomposition_coefficient_is_a_config_error(tmp_path, capsys):
    # Within the 1e-9 Hermiticity tolerance of validation, but tr(rho I@sigma_x) has an
    # imaginary part of 1e-9, above the 1e-10 the decomposition accepts.
    link = np.eye(4, dtype=complex) / 4.0
    link[0, 1] = link[1, 0] = 5e-10j
    cfg = {"links": [{"family": "explicit", "matrix": matrix_to_pairs(link)}, {"family": "werner", "p": 0.5}]}
    code, out, err = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and "imaginary part 1.000e-09" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_single_point_grid_matches_eval(tmp_path, capsys):
    cfg = _example_config()
    _, eval_out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    payload = json.loads(eval_out)

    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.1, "max": 0.1, "steps": 1}]}
    _, scan_out, _ = _run(capsys, "scan", "--config", _write(tmp_path, cfg))
    header, row = _rows(scan_out)
    assert header == ["links.0.v", "b_lin", "b_seq", "success_prob", "violation"]
    assert row == [
        "0.1",
        f"{payload['b_lin']:.12g}",
        f"{payload['b_seq']:.12g}",
        f"{payload['success_prob']:.12g}",
        "1" if payload["violation"] else "0",
    ]


def test_scan_grid_point_reproduces_eval_exactly(tmp_path, capsys):
    # A grid whose first node coincides with the config value must produce
    # the same formatted numbers as a plain eval of that config.
    cfg = _example_config()
    _, eval_out, _ = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    payload = json.loads(eval_out)

    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.1, "max": 0.5, "steps": 3}]}
    _, scan_out, _ = _run(capsys, "scan", "--config", _write(tmp_path, cfg))
    first = _rows(scan_out)[1]
    assert first[0] == "0.1"
    assert first[1:] == [
        f"{payload['b_lin']:.12g}",
        f"{payload['b_seq']:.12g}",
        f"{payload['success_prob']:.12g}",
        "1" if payload["violation"] else "0",
    ]


def test_scan_rows_are_row_major(tmp_path, capsys):
    cfg = _example_config()
    cfg["scan"] = {
        "axes": [
            {"path": "links.0.v", "min": 0.1, "max": 0.2, "steps": 2},
            {"path": "links.1.v", "min": 0.3, "max": 0.4, "steps": 2},
        ]
    }
    _, out, _ = _run(capsys, "scan", "--config", _write(tmp_path, cfg))
    rows = _rows(out)[1:]
    assert [row[:2] for row in rows] == [
        ["0.1", "0.3"],
        ["0.1", "0.4"],
        ["0.2", "0.3"],
        ["0.2", "0.4"],
    ]


def _fresh_network(cfg, paths, values):
    """The network at ``values``, built from its own states with no reuse."""
    point = config_with_values(cfg, dict(zip(paths, values)))
    states = build_states(point)
    return NetworkSpec(states, build_filter_spec(point, len(states)))


def _row(values, result):
    numbers = (*values, result.b_lin, result.b_seq, result.success_prob)
    return [*(f"{v:.12g}" for v in numbers), "1" if result.violation else "0"]


def _pointwise_scan(cfg):
    """The exit code, stdout and stderr of ``scan`` when each point is built anew and evaluated before the next."""
    axes = scan_axes(cfg)
    paths = [axis.path for axis in axes]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*paths, "b_lin", "b_seq", "success_prob", "violation"])
    for point in itertools.product(*[axis.values.tolist() for axis in axes]):
        try:
            writer.writerow(_row(point, evaluate(_fresh_network(cfg, paths, point))))
        except FilterAnnihilatesState as exc:
            return 3, "", f"annihilated post-selection: {exc}\n"
        except ValueError as exc:
            return 2, "", f"config error: {exc}\n"
    return 0, out.getvalue(), ""


def _noisy_scan_config(*paths):
    cfg = _example_config()
    cfg["channels"] = [{"link": 2, "type": "bit_flip", "param": 0.0}]
    grids = {
        "channels.0.param": (0.0, 0.3),
        "filters.middle.0.0": (0.3, 1.0),
        "filters.middle.0.1": (0.4, 1.0),
        "links.0.v": (0.0, 0.4),
    }
    cfg["scan"] = {"axes": [{"path": p, "min": grids[p][0], "max": grids[p][1], "steps": 3} for p in paths]}
    return cfg


def _count_link_constructions(monkeypatch) -> list[int]:
    """The index of each link that ``config._build_link`` constructs from then on, in call order."""
    calls = []
    build_link = config_module._build_link

    def counted(index, entry):
        calls.append(index)
        return build_link(index, entry)

    monkeypatch.setattr(config_module, "_build_link", counted)
    return calls


@pytest.mark.parametrize(
    "paths, constructed",
    [
        (("filters.middle.0.0", "filters.middle.0.1"), (1, 1)),
        (("channels.0.param", "filters.middle.0.0"), (1, 1)),
        (("filters.middle.0.0", "channels.0.param"), (1, 1)),
        (("links.0.v", "filters.middle.0.1"), (3, 1)),
        (("channels.0.param", "links.0.v"), (9, 1)),
    ],
    ids=["filters-only", "noise-outer", "noise-inner", "link-axis", "link-axis-inner"],
)
def test_scan_rebuilds_link_states_only_when_an_axis_changes_them(
    tmp_path, capsys, monkeypatch, paths, constructed
):
    # Each link is constructed again only when a value on its own links.<i>.* path changes.
    cfg = _noisy_scan_config(*paths)
    expected = _pointwise_scan(cfg)
    calls = _count_link_constructions(monkeypatch)
    assert expected[0] == 0
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected
    assert tuple(calls.count(index) for index in range(2)) == constructed


def _workload_scan_config(paths, steps):
    """A trilocal grud chain with bit flip on link 2, scanned like the benchmark's scan: the noise and a strength."""
    rng = np.random.default_rng(11)
    cfg = {
        "links": [
            {"family": "grud", "v": float(rng.uniform(0.0, 0.3)), "x": float(rng.uniform(0.1, 0.78))} for _ in range(3)
        ],
        "channels": [{"link": 2, "type": "bit_flip", "param": 0.0, "sides": "both"}],
        "filters": {
            "first": float(rng.uniform(0.5, 1.0)),
            "last": float(rng.uniform(0.5, 1.0)),
            "middle": rng.uniform(0.3, 1.0, size=(2, 2)).tolist(),
        },
    }
    grids = {"channels.0.param": (0.0, float(rng.uniform(0.1, 0.5))), "filters.middle.1.0": (0.25, 1.0)}
    cfg["scan"] = {"axes": [{"path": p, "min": grids[p][0], "max": grids[p][1], "steps": steps} for p in paths]}
    return cfg


@pytest.mark.parametrize(
    "paths, steps",
    [
        (("channels.0.param", "filters.middle.1.0"), 7),
        (("filters.middle.1.0", "channels.0.param"), 7),
        (("channels.0.param", "filters.middle.1.0"), 33),
    ],
    ids=["noise-outer", "noise-inner", "two-chunks"],
)
def test_every_grid_point_evaluates_as_a_fresh_network_to_the_bit(paths, steps):
    cfg = _workload_scan_config(paths, steps)
    points = list(_grid(cfg, scan_axes(cfg)))
    _, rows = _scan_rows(cfg)
    assert len(points) == len(rows) == steps * steps
    for (values, spec), row in zip(points, rows):
        assert "_filtered_bound" in spec.__dict__  # bounded with its chunk
        fresh = evaluate(_fresh_network(cfg, paths, values))
        assert [float(v).hex() for v in dataclasses.astuple(evaluate(spec))] == [
            float(v).hex() for v in dataclasses.astuple(fresh)
        ], values
        assert row == _row(values, fresh)


def test_the_workload_grid_validates_each_state_set_and_the_filtered_stack_once(monkeypatch):
    validated = []

    def counted(rho):
        validated.append(np.shape(rho))
        return validate_density(rho)

    for module in ("core", "states", "config", "filtering", "nlocal"):
        monkeypatch.setattr(f"qnetfilter.{module}.validate_density", counted)
    _scan_rows(_workload_scan_config(("channels.0.param", "filters.middle.1.0"), 7))
    # The three grud links once; the 7 chains with their channel applied, one per noise value, as one
    # stack; then the 49 chains' filter outputs as one stack.
    assert validated == [(4, 4)] * 3 + [(7, 3, 4, 4)] + [(147, 4, 4)]


_TRILOCAL_GRUDS = [{"family": "grud", "v": 0.1, "x": x} for x in (0.35, 0.56, 0.78)]
_TRILOCAL_FILTERS = {"first": 0.9, "last": 0.8, "middle": [[0.6, 0.99], [0.7, 0.95]]}
# An axis on the |01><01| entry moves the trace by at most 9e-10, inside the 1e-9 that validation allows.
_EXPLICIT = [{"family": "explicit", "matrix": matrix_to_pairs(np.diag([0.4, 0.2, 0.25, 0.15]))}]


def _reuse_scan_config(links, channels, *axes):
    return {
        "links": copy.deepcopy(links),
        "channels": channels,
        "filters": copy.deepcopy(_TRILOCAL_FILTERS),
        "scan": {"axes": [{"path": p, "min": low, "max": high, "steps": steps} for p, low, high, steps in axes]},
    }


@pytest.mark.parametrize(
    "cfg, constructed",
    [
        # The middle link moves; the channel on link 3 is applied again to a reused link 3.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS, [{"link": 3, "type": "bit_flip", "param": 0.1, "sides": "right"}],
            ("links.1.v", 0.0, 0.4, 3), ("filters.middle.0.1", 0.3, 1.0, 3),
        ), (1, 3, 1)),
        # Two channels on link 2, in order, the second scanned: no link is constructed again.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS,
            [
                {"link": 2, "type": "bit_flip", "param": 0.1, "sides": "left"},
                {"link": 2, "type": "amplitude_damping", "param": 0.0, "sides": "both"},
            ],
            ("filters.first", 0.5, 1.0, 3), ("channels.1.param", 0.0, 0.6, 4),
        ), (1, 1, 1)),
        # Link 2 and the channel on it both scanned, the link outer.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS, [{"link": 2, "type": "bit_flip", "param": 0.0}],
            ("links.1.v", 0.0, 0.4, 3), ("channels.0.param", 0.0, 0.3, 3),
        ), (1, 3, 1)),
        # The same, the channel outer: link 2 is constructed at every point, as its value changes each time.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS, [{"link": 2, "type": "bit_flip", "param": 0.0}],
            ("channels.0.param", 0.0, 0.3, 3), ("links.1.v", 0.0, 0.4, 3),
        ), (1, 9, 1)),
        # An explicit link's matrix entry, within the trace tolerance, against a noisy grud link.
        (_reuse_scan_config(
            _EXPLICIT + _TRILOCAL_GRUDS[1:], [{"link": 3, "type": "bit_flip", "param": 0.0}],
            ("links.0.matrix.1.1.0", 0.2, 0.2 + 9e-10, 3), ("channels.0.param", 0.0, 0.3, 3),
        ), (3, 1, 1)),
    ],
    ids=["middle-link", "two-channels-on-one-link", "link-and-its-channel", "channel-and-its-link", "explicit-entry"],
)
def test_grids_that_reuse_some_links_evaluate_as_fresh_networks_to_the_bit(
    tmp_path, capsys, monkeypatch, cfg, constructed
):
    axes = scan_axes(cfg)
    paths = [axis.path for axis in axes]
    words = {
        values: [float(v).hex() for v in dataclasses.astuple(evaluate(_fresh_network(cfg, paths, values)))]
        for values in itertools.product(*[axis.values.tolist() for axis in axes])
    }
    expected = _pointwise_scan(cfg)
    calls = _count_link_constructions(monkeypatch)
    points = list(_grid(cfg, axes))
    assert tuple(calls.count(index) for index in range(3)) == constructed
    for values, spec in points:
        assert [float(v).hex() for v in dataclasses.astuple(evaluate(spec))] == words[values], values
    # Each axis moves the results at every value of the other, so a stale link would show.
    for other in range(2):
        assert len({(values[other], *words[values]) for values in words}) == len(words)
    assert expected[0] == 0
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


@pytest.mark.parametrize(
    "cfg, message",
    [
        # Link 2 is constructed again at each point and fails at v = 1.25, the fourth point; links 1
        # and 3 are reused.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS, [{"link": 3, "type": "bit_flip", "param": 0.1}],
            ("filters.first", 0.5, 1.0, 2), ("links.1.v", 0.5, 1.5, 5),
        ), "config error: links.1: v must lie in [0, 1], got 1.25\n"),
        # The channel on a reused link fails at p = 1.25, the fourth point.
        (_reuse_scan_config(
            _TRILOCAL_GRUDS, [{"link": 2, "type": "bit_flip", "param": 0.0}],
            ("links.0.v", 0.0, 0.2, 2), ("channels.0.param", 0.5, 1.5, 5),
        ), "config error: channels.0: p must lie in [0, 1], got 1.25\n"),
    ],
    ids=["constructor-error-on-a-rebuilt-link", "channel-error-on-a-reused-link"],
)
def test_a_grid_that_reuses_links_fails_where_a_pointwise_scan_fails(tmp_path, capsys, cfg, message):
    expected = _pointwise_scan(cfg)
    assert expected == (2, "", message)
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


def _failing_scan_config(links, filters, *axes):
    return {
        "links": links,
        "filters": filters,
        "scan": {"axes": [{"path": p, "min": low, "max": high, "steps": steps} for p, low, high, steps in axes]},
    }


_GRUDS = [{"family": "grud", "v": 0.0, "x": 0.23}, {"family": "grud", "v": 0.15, "x": 0.34}]
_CUT_FIRST = {"first": 0.0, "last": 1.0, "middle": [[1.0, 1.0]]}
_UNFILTERED = {"first": 1.0, "last": 1.0, "middle": [[1.0, 1.0]]}
# Link 1 is filtered by (first, middle 0.0) and link 2 by (middle 0.1, last).  Link 1 is valid to an
# eigenvalue of -9e-10, which its filtered state, renormalised, takes below -1e-9 for a first strength
# of 0.9 or less; the |00> link 2 annihilates at a last strength of 0.
_BARELY_VALID_AND_GROUND = [
    {"family": "explicit", "matrix": matrix_to_pairs(np.diag([0.5, 0.25, 0.25 + 9e-10, -9e-10]))},
    {"family": "product", "m": [0, 0, 1], "n": [0, 0, 1]},
]


@pytest.mark.parametrize(
    "cfg, code",
    [
        # At first 0, links.0.v = 1 (|00>) annihilates at point 4; last 1.5 fails to build at point 5.
        (_failing_scan_config(_GRUDS, _CUT_FIRST, ("filters.last", 1.0, 1.5, 2), ("links.0.v", 0.0, 1.0, 5)), 3),
        # last 1.5 fails to build at point 2, before v = 1 annihilates at point 12.
        (_failing_scan_config(_GRUDS, _CUT_FIRST, ("links.0.v", 0.0, 1.0, 5), ("filters.last", 0.5, 1.5, 3)), 2),
        # The first point fails to build.
        (_failing_scan_config(_GRUDS, _CUT_FIRST, ("filters.last", 1.5, 1.0, 2), ("links.0.v", 0.0, 1.0, 5)), 2),
        # Link 1's filtered state fails validation from point 1 on, each point with its own eigenvalue.
        (_failing_scan_config(_BARELY_VALID_AND_GROUND, _UNFILTERED, ("filters.first", 1.0, 0.5, 6)), 2),
        # last 0 annihilates link 2 at point 2, before link 1 fails validation at point 3.
        (_failing_scan_config(
            _BARELY_VALID_AND_GROUND, _UNFILTERED, ("filters.first", 1.0, 0.5, 6), ("filters.last", 1.0, 0.0, 3)
        ), 3),
        # In the second chunk of 33 x 33 points, a strength of 1.01 fails to build at point 1,056.
        (_workload_scan_config(("channels.0.param", "filters.middle.1.0"), 33) | {"scan": {"axes": [
            {"path": "filters.middle.1.0", "min": 0.2, "max": 1.01, "steps": 33},
            {"path": "channels.0.param", "min": 0.0, "max": 0.3, "steps": 33},
        ]}}, 2),
    ],
    ids=[
        "annihilation-before-build-error",
        "build-error-mid-chunk",
        "build-error-first",
        "filtered-state-mid-chunk",
        "annihilation-before-filtered-state",
        "build-error-in-second-chunk",
    ],
)
def test_scan_fails_at_the_first_failing_point_with_its_message(tmp_path, capsys, cfg, code):
    expected = _pointwise_scan(cfg)
    assert expected[0] == code
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


def _channel_scan_config(kind, filter_steps):
    """The workload chain with a ``kind`` channel on link 2, its parameter outer (0, 0.4, 0.8, 1.2), a strength inner."""
    cfg = _workload_scan_config(("channels.0.param", "filters.middle.1.0"), 2)
    cfg["channels"][0]["type"] = kind
    cfg["scan"]["axes"] = [
        {"path": "channels.0.param", "min": 0.0, "max": 1.2, "steps": 4},
        {"path": "filters.middle.1.0", "min": 0.25, "max": 1.0, "steps": filter_steps},
    ]
    return cfg


@pytest.mark.parametrize("kind, name", [("bit_flip", "p"), ("amplitude_damping", "gamma")])
@pytest.mark.parametrize("filter_steps", [7, 342], ids=["mid-chunk", "second-chunk"])
def test_a_channel_parameter_out_of_range_fails_at_its_first_point(tmp_path, capsys, kind, name, filter_steps):
    # The 4th distinct parameter, 1.2, first comes at point 3 * filter_steps: point 21 of the only chunk's
    # 28, or point 1,026, the third of the second chunk, which opens with the third parameter's links.
    cfg = _channel_scan_config(kind, filter_steps)
    expected = _pointwise_scan(cfg)
    assert expected == (2, "", f"config error: channels.0: {name} must lie in [0, 1], got 1.2\n")
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


def test_a_filter_out_of_range_where_the_state_key_changes_fails_there(tmp_path, capsys):
    # Point 7 opens the second row: its noise value goes back to 0, and its first strength of 1.25 fails.
    cfg = _workload_scan_config(("channels.0.param", "filters.middle.1.0"), 2)
    cfg["scan"]["axes"] = [
        {"path": "filters.first", "min": 0.5, "max": 1.25, "steps": 2},
        {"path": "channels.0.param", "min": 0.0, "max": 0.3, "steps": 7},
    ]
    expected = _pointwise_scan(cfg)
    assert expected == (2, "", "config error: filters: eps_first must lie in [0, 1], got 1.25\n")
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


@pytest.mark.parametrize(
    "path, message",
    [
        ("filters.middle.0", "filters.middle must be an array of [eps1, eps2] pairs"),
        ("channels.0.link", "channels.0.link must be a 1-based link index, got 0.5"),
        ("channels.0.sides", "channels.0.sides must be one of ('both', 'left', 'right'), got 0.5"),
    ],
)
def test_a_scan_path_on_a_filter_pair_or_a_channel_field_fails_at_the_first_point(tmp_path, capsys, path, message):
    cfg = _workload_scan_config(("channels.0.param", "filters.middle.1.0"), 3)
    cfg["scan"]["axes"].insert(0, {"path": path, "min": 0.5, "max": 1.0, "steps": 3})
    expected = _pointwise_scan(cfg)
    assert expected == (2, "", f"config error: {message}\n")
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected


# A valid explicit link with 2.4999e-10i on each diagonal entry: amplitude damping of gamma on both of
# its qubits gathers (1 + gamma)^2 of that on |00><00|, a Hermiticity deviation of 1.125e-9 at gamma 0.5.
_IMAGINARY_DIAGONAL = {"family": "explicit", "matrix": matrix_to_pairs(np.diag([0.5, 0.0, 0.5, 0.0]) + 2.4999e-10j * np.eye(4))}


def test_a_chain_that_its_channel_makes_invalid_fails_at_its_first_point(tmp_path, capsys):
    # The three points at gamma 0 evaluate; the fourth, at gamma 0.5, fails validation.
    cfg = {
        "links": [_IMAGINARY_DIAGONAL, {"family": "werner", "p": 0.9}],
        "channels": [{"link": 1, "type": "amplitude_damping", "param": 0.0}],
        "filters": {"first": 1.0, "last": 1.0, "middle": [[1.0, 0.8]]},
        "scan": {"axes": [
            {"path": "channels.0.param", "min": 0.0, "max": 0.5, "steps": 2},
            {"path": "filters.last", "min": 0.5, "max": 1.0, "steps": 3},
        ]},
    }
    expected = _pointwise_scan(cfg)
    assert expected == (2, "", "config error: hermiticity deviation 1.125e-09 exceeds 1e-09\n")
    assert _run(capsys, "scan", "--config", _write(tmp_path, cfg)) == expected
    evaluated = []
    with pytest.raises(ValueError, match="^hermiticity deviation"):
        for values, spec in _grid(cfg, scan_axes(cfg)):
            evaluated.append(evaluate(spec))
    assert len(evaluated) == 3


def test_scan_output_is_deterministic(tmp_path, capsys):
    cfg = _example_config()
    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 7}]}
    path = _write(tmp_path, cfg)

    _, first, _ = _run(capsys, "scan", "--config", path)
    _, again, _ = _run(capsys, "scan", "--config", path)
    assert first == again


def test_scan_out_file_matches_stdout(tmp_path, capsys):
    cfg = _example_config()
    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 3}]}
    path = _write(tmp_path, cfg)
    out_file = tmp_path / "rows.csv"

    _, stdout_text, _ = _run(capsys, "scan", "--config", path)
    code, silent, _ = _run(capsys, "scan", "--config", path, "--out", str(out_file))
    assert code == 0
    assert silent == ""
    assert out_file.read_text(encoding="utf-8") == stdout_text


def test_scan_out_replaces_a_longer_existing_file(tmp_path, capsys):
    cfg = _example_config()
    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 3}]}
    path = _write(tmp_path, cfg)
    out_file = tmp_path / "rows.csv"
    out_file.write_text("x" * 10_000, encoding="utf-8")

    _, stdout_text, _ = _run(capsys, "scan", "--config", path)
    code, _, _ = _run(capsys, "scan", "--config", path, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == stdout_text


def test_scan_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    cfg = _example_config()
    cfg["scan"] = {"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 3}]}
    path = _write(tmp_path, cfg)
    out_file = tmp_path / "missing" / "rows.csv"

    def no_grid(_cfg):
        raise AssertionError("the grid was computed before the output was opened")

    monkeypatch.setattr("qnetfilter.cli._scan_rows", no_grid)
    code, out, err = _run(capsys, "scan", "--config", path, "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write {out_file}: ")
    assert "Traceback" not in err


def test_failed_scan_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    cfg = {
        "links": [
            {"family": "product", "m": [0.0, 0.0, 1.0], "n": [0.0, 0.0, 1.0]},
            {"family": "werner", "p": 0.5},
        ],
        "filters": {"first": 0.0, "middle": [[1.0, 1.0]]},
        "scan": {"axes": [{"path": "links.1.p", "min": 0.0, "max": 1.0, "steps": 3}]},
    }
    path = _write(tmp_path, cfg)
    out_file = tmp_path / "rows.csv"
    earlier = b"links.1.p,b_lin,b_seq,success_prob,violation\n0,1,1,1,0\n"
    out_file.write_bytes(earlier)
    before = sorted(tmp_path.iterdir())

    code, out, err = _run(capsys, "scan", "--config", path, "--out", str(out_file))
    assert code == 3
    assert out == "" and "annihilated" in err
    assert out_file.read_bytes() == earlier
    assert sorted(tmp_path.iterdir()) == before


def test_scan_region_contains_reference_point(tmp_path, capsys):
    # A coarse scan over (x1, x2, v2) around a reported filtered-violation
    # region: the node (0.23, 0.44, 0.99) is claimed to violate with
    # post-selection success of at least 0.60.
    cfg = {
        "links": [
            {"family": "grud", "v": 0.1, "x": 0.13},
            {"family": "grud", "v": 0.79, "x": 0.34},
        ],
        "filters": {"middle": [[0.8, 0.97]]},
        "scan": {
            "axes": [
                {"path": "links.0.x", "min": 0.13, "max": 0.33, "steps": 3},
                {"path": "links.1.x", "min": 0.34, "max": 0.54, "steps": 3},
                {"path": "links.1.v", "min": 0.79, "max": 0.99, "steps": 3},
            ]
        },
    }
    code, out, _ = _run(capsys, "scan", "--config", _write(tmp_path, cfg))
    assert code == 0
    rows = _rows(out)[1:]
    target = [row for row in rows if row[:3] == ["0.23", "0.44", "0.99"]]
    assert len(target) == 1
    row = target[0]
    assert row[6] == "1" and float(row[5]) >= 0.60, (
        f"expected a violation with success >= 0.60 at (0.23, 0.44, 0.99); "
        f"got b_seq {row[4]}, success {row[5]}, violation {row[6]}"
    )


def test_scan_separable_partner_region_nonempty(tmp_path, capsys):
    # A chain pairing a tunable entangled link with a weakly mixed one
    # (p2 in [0.25, 0.30]) under a one-sided filter of strength 0.46 is
    # claimed to contain hidden violations somewhere on this grid.
    cfg = {
        "links": [
            {"family": "grud", "v": 0.0, "x": 0.1},
            {"family": "werner", "p": 0.25},
        ],
        "filters": {"middle": [[0.46, 1.0]]},
        "scan": {
            "axes": [
                {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 6},
                {"path": "links.0.x", "min": 0.1, "max": 0.7, "steps": 6},
                {"path": "links.1.p", "min": 0.25, "max": 0.30, "steps": 6},
            ]
        },
    }
    code, out, _ = _run(capsys, "scan", "--config", _write(tmp_path, cfg))
    assert code == 0
    rows = _rows(out)[1:]
    hidden = [row for row in rows if row[6] == "1" and float(row[3]) <= 1.0]
    max_b_seq = max(float(row[4]) for row in rows)
    assert hidden, f"no hidden violation on the grid; max b_seq {max_b_seq:.6g}"


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def _bitflip_threshold_config(steps=2):
    return {
        "links": [
            {"family": "pure_theta", "theta": 0.62},
            {"family": "pure_theta", "theta": 0.62},
        ],
        "channels": [
            {"link": 1, "type": "bit_flip", "param": 0.1},
            {"link": 2, "type": "bit_flip", "param": 0.15},
        ],
        "scan": {"axes": [{"path": "channels.0.param", "min": 0.0, "max": 0.4, "steps": steps}]},
    }


def test_threshold_agrees_with_dense_grid(tmp_path, capsys):
    # Bisection runs over min..max whatever the grid's steps, so a single step gives the same output.
    outputs = []
    for steps in (2, 1):
        code, out, _ = _run(
            capsys, "threshold", "--config", _write(tmp_path, _bitflip_threshold_config(steps)), "--axis",
            "channels.0.param", "--target", "b_lin",
        )
        assert code == 0, f"steps {steps}"
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["axis"] == "channels.0.param"
    assert payload["range"] == [0.0, 0.4]

    # Locate the sign change on a dense independent grid.
    partner = apply_channel(pure_theta_state(0.62), bit_flip(0.15))
    grid = np.linspace(0.0, 0.4, 10001)
    values = np.array(
        [b_lin([apply_channel(pure_theta_state(0.62), bit_flip(float(p))), partner]) - 1.0
         for p in grid]
    )
    signs = np.sign(values)
    (crossings,) = np.nonzero(signs[:-1] * signs[1:] <= 0)
    assert crossings.size >= 1
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    assert lo - 1e-4 <= payload["threshold"] <= hi + 1e-4


def test_threshold_without_crossing(tmp_path, capsys):
    cfg = {
        "links": [{"family": "werner", "p": 0.5}, {"family": "werner", "p": 0.5}],
        "scan": {"axes": [{"path": "links.0.p", "min": 0.0, "max": 0.6, "steps": 2}]},
    }
    code, _, err = _run(
        capsys, "threshold", "--config", _write(tmp_path, cfg), "--axis", "links.0.p",
        "--target", "b_lin",
    )
    assert code == 4
    assert "no crossing" in err


def test_threshold_axis_must_be_declared(tmp_path, capsys):
    cfg = _bitflip_threshold_config()
    code, _, err = _run(
        capsys, "threshold", "--config", _write(tmp_path, cfg), "--axis",
        "channels.1.param", "--target", "b_lin",
    )
    assert code == 2
    assert "exactly one axis" in err


@pytest.fixture
def no_linspace(monkeypatch):
    """Make any grid build fail, so a test with an enormous ``steps`` never allocates one."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linspace was called")

    monkeypatch.setattr(np, "linspace", refuse)


def test_scan_axes_builds_no_grid(no_linspace):
    (axis,) = scan_axes(_bitflip_threshold_config(10**11))
    assert (axis.path, axis.low, axis.high, axis.steps) == ("channels.0.param", 0.0, 0.4, 10**11)


def test_threshold_ignores_an_enormous_steps(tmp_path, capsys, no_linspace):
    # threshold reads only min and max, so a grid far too large to build changes nothing.
    outputs = []
    for steps in (2, 10**11):
        code, out, err = _run(
            capsys, "threshold", "--config", _write(tmp_path, _bitflip_threshold_config(steps)), "--axis",
            "channels.0.param", "--target", "b_lin",
        )
        assert (code, err) == (0, ""), f"steps {steps}"
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error", [MemoryError, ValueError, IndexError], ids=["memory", "size", "index"])
def test_scan_with_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, capsys, monkeypatch, error):
    # numpy refuses such a grid with MemoryError, with ValueError past the largest array it can index,
    # or with IndexError from 2**63 steps on; the refusal is simulated, so no test allocates a grid of
    # 10^11 steps.
    def refuse(*args, **kwargs):
        raise error("grid too large")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = _run(capsys, "scan", "--config", _write(tmp_path, _bitflip_threshold_config(10**11)))
    assert (code, out) == (2, "")
    assert err == (
        "config error: scan axis 'channels.0.param': a grid of 100000000000 steps is too large to allocate\n"
    )


def test_scan_with_2_to_the_63_steps_is_a_config_error(tmp_path, capsys):
    # numpy raises IndexError for this many steps before it allocates anything.
    code, out, err = _run(capsys, "scan", "--config", _write(tmp_path, _bitflip_threshold_config(2**63)))
    assert (code, out) == (2, "")
    assert err == (
        "config error: scan axis 'channels.0.param': a grid of 9223372036854775808 steps is too large to allocate\n"
    )


@pytest.mark.parametrize("endpoint", [0, 1], ids=["min", "max"])
def test_threshold_at_an_exact_root_endpoint_prints_that_endpoint(tmp_path, capsys, monkeypatch, endpoint):
    # A natural config gives no exact root, so b_seq is replaced by one that is exactly 1.0 at
    # the chosen endpoint and 2.0 elsewhere.
    cfg = _bitflip_threshold_config()
    bounds = (0.0, 0.4)
    root_links = build_network(config_with_values(cfg, {"channels.0.param": bounds[endpoint]})).links

    def fake_b_seq(spec):
        return (1.0 if np.array_equal(spec.links, root_links) else 2.0), None

    monkeypatch.setattr("qnetfilter.cli.b_seq", fake_b_seq)
    code, out, _ = _run(
        capsys, "threshold", "--config", _write(tmp_path, cfg), "--axis", "channels.0.param", "--target", "b_seq",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["range"] == list(bounds)
    assert payload["threshold"] == bounds[endpoint]


# The reproduce ids' thresholds as float.hex, recorded while the b_lin target still validated each
# network's links a second time through the public b_lin.
REPRODUCED_THRESHOLDS = {
    ("bitflip-threshold", "b_lin"): "0x1.1280000000001p-2",
    ("bitflip-threshold", "b_seq"): "0x1.2a1999999999ap-2",
    ("damping-threshold", "b_lin"): "0x1.9fe999999999bp-3",
    ("damping-threshold", "b_seq"): "0x1.2b0d99999999ap-1",
}


@pytest.mark.parametrize("rid, target", list(REPRODUCED_THRESHOLDS))
def test_reproduced_thresholds_are_bit_identical(rid, target):
    config = _REPRODUCTIONS[rid][1]["config"]
    (axis,) = scan_axes(config)
    assert _threshold(config, axis, target).hex() == REPRODUCED_THRESHOLDS[rid, target]


def test_a_b_lin_threshold_validates_each_network_once(monkeypatch):
    # The bound is read off the spec, whose links were validated when it was built.
    validated = []
    built = []

    def counted(rho):
        validated.append(np.shape(rho))
        return validate_density(rho)

    def recorded(cfg, values):
        built.append(values)
        return config_with_values(cfg, values)

    monkeypatch.setattr("qnetfilter.core.validate_density", counted)
    monkeypatch.setattr("qnetfilter.nlocal.validate_density", counted)
    monkeypatch.setattr("qnetfilter.config.config_with_values", recorded)
    config = _REPRODUCTIONS["bitflip-threshold"][1]["config"]
    (axis,) = scan_axes(config)
    _threshold(config, axis, "b_lin")
    assert len(built) == 14
    assert validated == [(1, 2, 4, 4)] * 14  # each point a chunk of one


def test_a_b_lin_threshold_along_a_filter_axis_bounds_the_chain_once(monkeypatch):
    # Every point shares the chain, and the derived specs carry its bound.
    bounded = []
    bound = nlocal._bound

    def counted(svs):
        bounded.append(np.shape(svs))
        return bound(svs)

    cfg = _bitflip_threshold_config()
    cfg["filters"] = {"middle": [[0.98, 0.79]]}
    cfg["scan"]["axes"][0] = {"path": "filters.middle.0.1", "min": 0.05, "max": 1.0, "steps": 2}
    (axis,) = scan_axes(cfg)
    monkeypatch.setattr(nlocal, "_bound", counted)
    with pytest.raises(NoCrossing):
        _threshold(cfg, axis, "b_lin")
    assert len(bounded) == 1


def test_annihilating_filter_exits_with_code_3(tmp_path, capsys):
    cfg = {
        "links": [
            {"family": "product", "m": [0.0, 0.0, 1.0], "n": [0.0, 0.0, 1.0]},
            {"family": "product", "m": [0.0, 0.0, 1.0], "n": [0.0, 0.0, 1.0]},
        ],
        "filters": {"first": 0.0, "middle": [[1.0, 1.0]]},
    }
    code, _, err = _run(capsys, "eval", "--config", _write(tmp_path, cfg))
    assert code == 3
    assert "annihilated" in err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_threshold_and_optimize_run_without_scipy(tmp_path, capsys):
    # scipy is only the tests' reference: with its import blocked, the package imports and both searches run.
    threshold = ["threshold", "--config", _write(tmp_path, _bitflip_threshold_config(), "threshold.json"),
                 "--axis", "channels.0.param", "--target", "b_lin"]
    optimize = ["optimize", "--config", _write(tmp_path, _example_config(), "optimize.json"),
                "--free", "filters.middle.0.0"]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qnetfilter\n"
        "from qnetfilter.cli import main\n"
        f"assert main({threshold!r}) == 0\n"
        f"assert main({optimize!r}) == 0\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = [_run(capsys, *argv) for argv in (threshold, optimize)]
    assert proc.stdout == "".join(out for _, out, _ in expected)


def test_optimize_without_free_paths_is_an_eval(tmp_path, capsys):
    cfg = _example_config()
    path = _write(tmp_path, cfg)
    _, eval_out, _ = _run(capsys, "eval", "--config", path)
    code, out, _ = _run(capsys, "optimize", "--config", path, "--free", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["free"] == [] and payload["argmax"] == {}
    assert payload["best"] == json.loads(eval_out)
    assert payload["seed"] == 0


def test_optimize_rejects_non_filter_paths(tmp_path, capsys):
    code, _, err = _run(
        capsys, "optimize", "--config", _write(tmp_path, _example_config()),
        "--free", "links.0.v",
    )
    assert code == 2
    assert "filter" in err


def test_optimize_rejects_a_free_path_that_is_not_a_number(tmp_path, capsys, monkeypatch):
    def no_search(*_args):
        raise AssertionError("the optimisation ran before the free paths were checked")

    monkeypatch.setattr("qnetfilter.cli.nelder_mead", no_search)
    code, out, err = _run(
        capsys, "optimize", "--config", _write(tmp_path, _example_config()),
        "--free", "filters.middle.0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: --free path 'filters.middle.0' must name a number")
    assert "Traceback" not in err


def test_optimize_rejects_a_repeated_free_path(tmp_path, capsys, monkeypatch):
    def no_search(*_args):
        raise AssertionError("the optimisation ran before the free paths were checked")

    monkeypatch.setattr("qnetfilter.cli.nelder_mead", no_search)
    code, out, err = _run(
        capsys, "optimize", "--config", _write(tmp_path, _example_config()),
        "--free", "filters.middle.0.1,filters.middle.0.0,filters.middle.0.0",
    )
    assert code == 2
    assert out == ""
    assert err == "config error: --free path 3 ('filters.middle.0.0') names the same value as --free path 2\n"


def test_optimize_rejects_an_out_of_range_start_as_eval_does(tmp_path, capsys, monkeypatch):
    def no_search(*_args):
        raise AssertionError("the optimisation ran on a config that eval rejects")

    monkeypatch.setattr("qnetfilter.cli.nelder_mead", no_search)
    cfg = dict(_example_config(), filters={"first": 1.5, "middle": [[0.8, 0.97]]})
    code, out, err = _run(capsys, "optimize", "--config", _write(tmp_path, cfg), "--free", "filters.first")
    assert code == 2
    assert out == ""
    assert err == "config error: filters: eps_first must lie in [0, 1], got 1.5\n"


def test_optimize_cannot_push_product_link_past_one(tmp_path, capsys):
    cfg = {
        "links": [
            {"family": "product", "m": [0.0, 0.0, 1.0], "n": [1.0, 0.0, 0.0]},
            {"family": "werner", "p": 1.0},
        ],
        "filters": {"middle": [[0.5, 0.5]]},
    }
    code, out, _ = _run(
        capsys, "optimize", "--config", _write(tmp_path, cfg),
        "--free", "filters.middle.0.0,filters.middle.0.1", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert payload["best"]["b_seq"] <= 1.0 + 1e-9


def test_optimize_scores_an_annihilating_assignment_below_every_bound(tmp_path, capsys, monkeypatch):
    # The start, eps_first = 0, annihilates link 1: it scores -1.0 and the search moves off it.
    raised = []

    def recorded_b_seq(spec):
        try:
            return b_seq(spec)
        except FilterAnnihilatesState as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr("qnetfilter.cli.b_seq", recorded_b_seq)
    cfg = {
        "links": [{"family": "grud", "v": 1.0, "x": 0.23}, {"family": "werner", "p": 1.0}],
        "filters": {"first": 0.0, "middle": [[1.0, 1.0]]},
    }
    code, out, err = _run(capsys, "optimize", "--config", _write(tmp_path, cfg), "--free", "filters.first")
    assert (code, err) == (0, "")
    assert json.loads(out)["argmax"]["filters.first"] > 0.0
    assert raised


# The whole stdout of optimize over the example's intermediate pair, recorded while every
# evaluation still rebuilt the link states.  The optimum sits at the eps -> 0 edge.
OPTIMIZE_EXAMPLE_STDOUT = """{
  "seed": 0,
  "free": [
    "filters.middle.0.0",
    "filters.middle.0.1"
  ],
  "argmax": {
    "filters.middle.0.0": 0.0,
    "filters.middle.0.1": 0.0
  },
  "best": {
    "b_lin": 0.8871750180185799,
    "b_seq": 0.9999999999999999,
    "success_prob": 0.00038289998837851035,
    "violation": false
  }
}
"""


def test_optimize_stdout_is_unchanged_by_state_reuse(tmp_path, capsys, monkeypatch):
    calls = _count_link_constructions(monkeypatch)
    code, out, err = _run(
        capsys, "optimize", "--config", _write(tmp_path, _example_config()),
        "--free", "filters.middle.0.0,filters.middle.0.1",
    )
    assert (code, err) == (0, "")
    assert out == OPTIMIZE_EXAMPLE_STDOUT
    assert calls == [0, 1]  # the free paths are all filters: each link is constructed once


def test_optimize_recovers_reference_violation(tmp_path, capsys):
    # Freeing the intermediate filter pair of the two-link example should
    # rediscover the reported peak b_seq of about 1.081.
    cfg = _example_config()
    code, out, _ = _run(
        capsys, "optimize", "--config", _write(tmp_path, cfg),
        "--free", "filters.middle.0.0,filters.middle.0.1",
    )
    assert code == 0
    payload = json.loads(out)
    best = payload["best"]["b_seq"]
    assert best >= 1.081 - 2e-3, (
        f"optimizer reached b_seq {best:.6g}, below the reported peak 1.081"
    )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_agrees_at_fixed_settings(tmp_path, capsys):
    cfg = dict(_example_config(), settings=SETTINGS)
    code, out, _ = _run(capsys, "oracle", "--config", _write(tmp_path, cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["agrees"] is True
    assert payload["abs_diff"] <= 1e-10
    assert payload["max_distribution_dev"] <= 1e-10
    assert "seed" not in payload


def test_oracle_with_random_settings_reports_seed(tmp_path, capsys):
    cfg = dict(_example_config(), seed=11)
    code, out, _ = _run(capsys, "oracle", "--config", _write(tmp_path, cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["agrees"] is True
    assert payload["seed"] == 11


@pytest.mark.parametrize("n", [4, 5, 6])
def test_oracle_checks_chains_of_up_to_six_links(tmp_path, capsys, n):
    cfg = {"links": [{"family": "werner", "p": 0.9}] * n, "seed": n}
    code, out, err = _run(capsys, "oracle", "--config", _write(tmp_path, cfg))
    assert (code, err) == (0, "")
    assert json.loads(out)["agrees"] is True


def test_oracle_refuses_long_chains(tmp_path, capsys):
    cfg = {
        "links": [{"family": "werner", "p": 0.9}] * 7,
        "settings": SETTINGS,
    }
    code, _, err = _run(capsys, "oracle", "--config", _write(tmp_path, cfg))
    assert code == 2
    assert "at most 6" in err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_unknown_id(capsys):
    code, out, err = _run(capsys, "reproduce", "nosuch")
    assert (code, out) == (2, "")
    assert err == (
        "config error: unknown reproduction id 'nosuch'; known ids: bilocal-grud, bilocal-grud-allfilter, "
        "bilocal-werner, bitflip-threshold, conjecture-search, damping-threshold, theorem1, trilocal-grud, "
        "trilocal-werner, xstate-pair\n"
    )


def test_reproduce_xstate_pair(capsys):
    code, out, _ = _run(capsys, "reproduce", "xstate-pair")
    assert code == 0
    assert "result: PASS" in out


def test_reproduce_identity_filter_reduction(capsys):
    code, out, _ = _run(capsys, "reproduce", "theorem1")
    assert code == 0
    assert "result: PASS" in out


def test_theorem1_draws_a_new_chain_for_an_annihilated_one(monkeypatch, capsys):
    calls = []

    def annihilate_the_first(spec):
        calls.append(spec)
        if len(calls) == 1:
            raise FilterAnnihilatesState("link 1: no success branch")
        return b_seq(spec)

    monkeypatch.setattr("qnetfilter.cli.b_seq", annihilate_the_first)
    run, _ = _REPRODUCTIONS["theorem1"]
    assert run(seed=0, specs=5)
    # The annihilated chain is not counted: five more are drawn and bounded after it.
    assert len(calls) == 6
    assert capsys.readouterr().out.startswith("seed 0, 5 random chains with a product link, max b_seq ")


def test_module_entry_point_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qnetfilter", "reproduce", "no-such-id"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exited:
        warnings.simplefilter("ignore", RuntimeWarning)  # runpy: qnetfilter.cli is imported already
        runpy.run_module("qnetfilter.cli", run_name="__main__")
    assert exited.value.code == 2
    assert "unknown reproduction id 'no-such-id'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario",
    [
        "bilocal-grud-allfilter",
        "trilocal-grud",
        "bilocal-werner",
        "trilocal-werner",
        "bitflip-threshold",
        "damping-threshold",
    ],
)
def test_reproduce_runs_to_a_verdict(capsys, scenario):
    # Checks the report's shape, not whether the quoted reference holds.
    code, out, err = _run(capsys, "reproduce", scenario)
    assert out.startswith(f"# reproduce {scenario}\n")
    assert out.endswith("result: PASS\n") or out.endswith("result: FAIL\n")
    assert code == (0 if out.endswith("result: PASS\n") else 1)
    assert err == ""


def test_reproduce_allfilter_witness_is_a_hidden_violation(capsys):
    code, out, _ = _run(capsys, "reproduce", "bilocal-grud-allfilter")
    match = re.search(
        r"witness at \(v1, eps2_1, eps2_2\) = \(([^,]+), ([^,]+), ([^)]+)\): "
        r"b_seq (\S+), success (\S+)\n",
        out,
    )
    assert match, out
    v1, eps_a, eps_b, printed_b_seq, printed_success = (float(g) for g in match.groups())
    result = evaluate(
        NetworkSpec(
            links=(grud_state(v1, 0.23), grud_state(0.15, 0.34)),
            filters=NetworkFilterSpec(eps_first=0.95, eps_last=0.76, middle=((eps_a, eps_b),)),
        )
    )
    assert result.b_lin <= 1.0 < result.b_seq
    assert result.success_prob >= 0.30
    assert result.b_seq == pytest.approx(printed_b_seq, rel=1e-10)
    assert result.success_prob == pytest.approx(printed_success, rel=1e-10)
    assert code == 0


def test_region_search_skips_annihilated_points(capsys):
    cfg = {
        "links": [{"family": "grud", "v": 0.0, "x": 0.23}, {"family": "grud", "v": 0.15, "x": 0.34}],
        "filters": {"first": 0.95, "last": 0.76, "middle": [[1.0, 1.0]]},
        "scan": {"axes": [
            {"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 11},
            {"path": "filters.first", "min": 0.0, "max": 1.0, "steps": 3},
            {"path": "filters.middle.0.0", "min": 0.1, "max": 1.0, "steps": 10},
        ]},
    }
    # The grid holds points the first filter annihilates, at v1 = 1 and eps_first = 0.
    with pytest.raises(FilterAnnihilatesState):
        evaluate(build_network(config_with_values(cfg, {"links.0.v": 1.0, "filters.first": 0.0})))
    assert _run_region("t", cfg, None) is True
    assert capsys.readouterr().out == "witness at t = (0, 0.5, 0.1): b_seq 1.1700827206\n"


def test_region_search_evaluates_each_point_as_a_fresh_network(capsys, monkeypatch):
    # At v1 = 1 (|00>), a first middle strength of 0 annihilates link 1: a stripe of 10 points.
    cfg = copy.deepcopy(_REPRODUCTIONS["bilocal-grud-allfilter"][1]["config"])
    cfg["scan"]["axes"][1]["min"] = 0.0
    axes = scan_axes(cfg)
    paths = [axis.path for axis in axes]
    outcomes = []

    def recorded(spec):
        try:
            outcomes.append(evaluate(spec))
        except FilterAnnihilatesState as exc:
            outcomes.append(exc)
            raise
        return outcomes[-1]

    monkeypatch.setattr("qnetfilter.cli.evaluate", recorded)
    assert _run_region("t", cfg, 0.3) is True
    best = None
    points = list(itertools.product(*[axis.values.tolist() for axis in axes]))
    assert len(outcomes) == len(points) == 1100
    for point, outcome in zip(points, outcomes):
        try:
            fresh = evaluate(_fresh_network(cfg, paths, point))
        except FilterAnnihilatesState as exc:
            assert isinstance(outcome, FilterAnnihilatesState) and str(outcome) == str(exc)
            continue
        assert [float(v).hex() for v in dataclasses.astuple(outcome)] == [
            float(v).hex() for v in dataclasses.astuple(fresh)
        ]
        hidden = fresh.b_lin <= 1.0 < fresh.b_seq and fresh.success_prob >= 0.3
        if hidden and (best is None or fresh.b_seq > best[1].b_seq):
            best = point, fresh
    assert sum(isinstance(outcome, FilterAnnihilatesState) for outcome in outcomes) == 10
    point, result = best
    coords = ", ".join(f"{v:.12g}" for v in point)
    witness = f"witness at t = ({coords}): b_seq {result.b_seq:.12g}, success {result.success_prob:.12g}\n"
    assert capsys.readouterr().out == witness


def test_reproduce_bilocal_grud(capsys):
    code, out, _ = _run(capsys, "reproduce", "bilocal-grud")
    assert code == 0, f"reference scenario reported FAIL:\n{out}"
