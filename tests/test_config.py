"""Tests for JSON config parsing, dotted paths and network assembly."""

from __future__ import annotations

import copy
import itertools
import json
import re

import numpy as np
import pytest

from qnetfilter import (
    ConfigError,
    NetworkSpec,
    amplitude_damping,
    apply_channel,
    bit_flip,
    build_network,
    build_settings,
    build_states,
    evaluate,
    get_path,
    grud_state,
    load_config,
    matrix_to_pairs,
    scan_axes,
    validate_density,
    werner_state,
)
from qnetfilter import channels, config
from qnetfilter.cli import _scan_rows
from qnetfilter.config import build_filter_spec, config_seed, config_with_values, network_factory


def base_config() -> dict:
    return {
        "links": [
            {"family": "grud", "v": 0.1, "x": 0.23},
            {"family": "grud", "v": 0.99, "x": 0.44},
        ],
        "filters": {"middle": [[0.8, 0.97]]},
    }


def write(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_roundtrip(self, tmp_path) -> None:
        cfg = load_config(write(tmp_path, base_config()))
        assert cfg == base_config()

    def test_missing_file(self) -> None:
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path) -> None:
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_non_object_top_level(self, tmp_path) -> None:
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_unknown_field(self, tmp_path) -> None:
        cfg = base_config()
        cfg["grid"] = {}
        with pytest.raises(ConfigError, match="unknown config field 'grid'"):
            load_config(write(tmp_path, cfg))

    def test_empty_links(self, tmp_path) -> None:
        with pytest.raises(ConfigError, match="non-empty"):
            load_config(write(tmp_path, {"links": []}))

    def test_n_mismatch(self, tmp_path) -> None:
        cfg = base_config()
        cfg["n"] = 3
        with pytest.raises(ConfigError, match="does not match"):
            load_config(write(tmp_path, cfg))

    def test_matching_n_is_accepted(self, tmp_path) -> None:
        cfg = base_config()
        cfg["n"] = 2
        load_config(write(tmp_path, cfg))


class TestDottedPaths:
    def test_get_nested_values(self) -> None:
        cfg = base_config()
        assert get_path(cfg, "links.0.v") == 0.1
        assert get_path(cfg, "filters.middle.0.1") == 0.97

    def test_missing_key(self) -> None:
        with pytest.raises(ConfigError, match="missing 'w'"):
            get_path(base_config(), "links.0.w")

    def test_non_integer_index(self) -> None:
        with pytest.raises(ConfigError, match="not an index"):
            get_path(base_config(), "links.first.v")

    @pytest.mark.parametrize("part", ["00", "01", "+1", "-1", " 1", "1 ", "1_0", "١", "²", "0x1", ""])
    def test_only_the_canonical_index_spelling_resolves(self, part) -> None:
        cfg = base_config()
        cfg["links"] = cfg["links"] * 6  # index 10 exists, so "1_0" cannot resolve by accident
        for walk in (
            lambda: get_path(cfg, f"links.{part}.v"),
            lambda: config_with_values(cfg, {f"links.{part}.v": 1.0}),
        ):
            with pytest.raises(ConfigError, match=re.escape(f"({part!r} is not an index)")):
                walk()

    def test_canonical_indices_resolve(self) -> None:
        cfg = base_config()
        cfg["links"] = cfg["links"] * 6
        cfg["links"][10] = {"family": "werner", "p": 0.5}
        assert get_path(cfg, "links.0.v") == 0.1
        assert get_path(cfg, "links.10.p") == 0.5

    def test_index_out_of_range(self) -> None:
        with pytest.raises(ConfigError, match="out of range"):
            get_path(base_config(), "links.5.v")

    def test_cannot_descend_into_scalar(self) -> None:
        with pytest.raises(ConfigError, match="cannot descend"):
            get_path(base_config(), "links.0.v.deeper")

    def test_config_with_values_copies(self) -> None:
        cfg = dict(base_config(), seed=3)
        frozen = copy.deepcopy(cfg)
        updated = config_with_values(
            cfg,
            {"links.0.v": 0.7, "filters.middle.0.0": 0.5, "filters.middle.0.1": 0.25, "seed": 9},
        )
        assert cfg == frozen
        assert get_path(updated, "links.0.v") == 0.7
        assert updated["filters"]["middle"] == [[0.5, 0.25]]
        assert updated["seed"] == 9
        # What is off the assigned paths is shared; what is on them belongs to the result.
        assert updated["links"][1] is cfg["links"][1]
        updated["links"][0]["x"] = 0.0
        updated["links"].append({"family": "werner", "p": 0.5})
        updated["filters"]["middle"][0].append(1.0)
        assert cfg == frozen
        # A bad path fails the same way whichever function walks it.
        for path, kind in [
            ("links.0.w", "missing 'w'"),
            ("links.first.v", "'first' is not an index"),
            ("links.5.v", "index 5 out of range"),
            ("links.0.v.deeper", "cannot descend into 'deeper'"),
        ]:
            for walk in (
                lambda: get_path(cfg, path),
                lambda: config_with_values(cfg, {path: 1.0}),
            ):
                with pytest.raises(ConfigError, match=re.escape(kind)):
                    walk()
        assert cfg == frozen


class TestBuildStates:
    def test_every_family(self) -> None:
        cfg = {
            "links": [
                {"family": "grud", "v": 0.2, "x": 0.3},
                {"family": "werner", "p": 0.5},
                {"family": "x", "x1": 0.2, "x2": 0.1, "x3": 0.7, "x4": 0.15},
                {"family": "pure_theta", "theta": 0.4},
                {"family": "product", "m": [0.0, 0.0, 1.0], "n": [1.0, 0.0, 0.0]},
                {"family": "explicit", "matrix": matrix_to_pairs(werner_state(0.3))},
            ]
        }
        states = build_states(cfg)
        assert len(states) == 6
        np.testing.assert_allclose(states[0], grud_state(0.2, 0.3), atol=1e-12)
        np.testing.assert_allclose(states[5], werner_state(0.3), atol=1e-12)

    def test_unknown_family(self) -> None:
        with pytest.raises(ConfigError, match="unknown family 'bell'"):
            build_states({"links": [{"family": "bell"}]})

    def test_missing_family(self) -> None:
        with pytest.raises(ConfigError, match="links.0.family is required"):
            build_states({"links": [{"v": 0.1}]})

    def test_missing_parameter(self) -> None:
        with pytest.raises(ConfigError, match="links.0.x is required"):
            build_states({"links": [{"family": "grud", "v": 0.1}]})

    def test_unknown_parameter(self) -> None:
        with pytest.raises(ConfigError, match="links.0.p: unknown parameter"):
            build_states({"links": [{"family": "grud", "v": 0.1, "x": 0.2, "p": 0.3}]})

    def test_constructor_errors_name_the_link(self) -> None:
        with pytest.raises(ConfigError, match="links.1: v must lie"):
            build_states(
                {"links": [{"family": "werner", "p": 0.5}, {"family": "grud", "v": 2.0, "x": 0.2}]}
            )


# Each channel type's Kraus operators at parameter q, written out from Nielsen and Chuang, section 8.3.
KRAUS_OPERATORS = {
    "bit_flip": lambda q: [np.sqrt(1.0 - q) * np.eye(2), np.sqrt(q) * np.array([[0.0, 1.0], [1.0, 0.0]])],
    "amplitude_damping": lambda q: [np.diag([1.0, np.sqrt(1.0 - q)]), np.sqrt(q) * np.array([[0.0, 1.0], [0.0, 0.0]])],
}


def kraus_sum(rho: np.ndarray, kind: str, param: float, sides: str) -> np.ndarray:
    """sum_ab (A_a (x) B_b) rho (A_a (x) B_b)+ for one state, each product built with np.kron.

    A runs over the channel's operators on the left qubit, or is the identity alone when only the right
    qubit is noisy, and B likewise on the right qubit.
    """
    ops = KRAUS_OPERATORS[kind](param)
    left = ops if sides != "right" else [np.eye(2)]
    right = ops if sides != "left" else [np.eye(2)]
    out = np.zeros((4, 4), dtype=complex)
    for a in left:
        for b in right:
            op = np.kron(a, b)
            out += op @ rho @ op.conj().T
    return out


# Links of four families, one with complex entries and one with local Bloch vectors.
REFERENCE_LINKS = [
    {"family": "pure_theta", "theta": 0.5},
    {"family": "grud", "v": 0.2, "x": 0.37},
    {"family": "x", "x1": 0.5, "x2": 0.2, "x3": 0.3, "x4": 0.35},
    {"family": "explicit", "matrix": matrix_to_pairs(
        np.array([[0.4, 0.1j, 0.0, 0.05], [-0.1j, 0.3, 0.02, 0.0], [0.0, 0.02, 0.2, 0.01j], [0.05, 0.0, -0.01j, 0.1]])
    )},
]


class TestChannelReference:
    """build_states' channel outputs against a plain per-state Kraus sum, independent of channels._apply_kraus."""

    @pytest.mark.parametrize("sides", ["left", "right", "both"])
    @pytest.mark.parametrize("kind", ["bit_flip", "amplitude_damping"])
    def test_one_channel_per_link(self, kind, sides) -> None:
        params = [0.0, 0.13, 0.58, 1.0]
        channels = [{"link": k + 1, "type": kind, "param": q, "sides": sides} for k, q in enumerate(params)]
        states = build_states({"links": REFERENCE_LINKS, "channels": channels})
        raw = build_states({"links": REFERENCE_LINKS})
        for state, rho, param in zip(states, raw, params):
            assert np.abs(state - kraus_sum(rho, kind, param, sides)).max() <= 1e-14

    def test_channels_on_one_link_in_order(self) -> None:
        channels = [
            {"link": 2, "type": "amplitude_damping", "param": 0.3, "sides": "left"},
            {"link": 2, "type": "bit_flip", "param": 0.2, "sides": "both"},
            {"link": 2, "type": "amplitude_damping", "param": 0.45, "sides": "right"},
        ]
        state = build_states({"links": REFERENCE_LINKS, "channels": channels})[1]
        expected = build_states({"links": REFERENCE_LINKS})[1]
        for channel in channels:
            expected = kraus_sum(expected, channel["type"], channel["param"], channel["sides"])
        assert np.abs(state - expected).max() <= 1e-14

    @pytest.mark.parametrize("sides", ["left", "right", "both"])
    @pytest.mark.parametrize("kind", ["bit_flip", "amplitude_damping"])
    def test_a_chunk_over_the_channel_parameter(self, kind, sides) -> None:
        cfg = {"links": REFERENCE_LINKS[:3], "channels": [{"link": 3, "type": kind, "param": 0.0, "sides": sides}]}
        points = [[q] for q in np.linspace(0.0, 1.0, 7).tolist()]
        specs, _, error = network_factory(cfg, ["channels.0.param"]).chunk(points)
        rho = build_states({"links": REFERENCE_LINKS[:3]})[2]
        assert error is None
        for spec, (param,) in zip(specs, points):
            assert np.abs(spec.links[2] - kraus_sum(rho, kind, param, sides)).max() <= 1e-14


class TestChannels:
    def test_applied_in_listed_order(self) -> None:
        cfg = {
            "links": [{"family": "pure_theta", "theta": 0.5}, {"family": "werner", "p": 0.1}],
            "channels": [
                {"link": 1, "type": "bit_flip", "param": 0.2},
                {"link": 1, "type": "amplitude_damping", "param": 0.3},
            ],
        }
        states = build_states(cfg)
        expected = apply_channel(
            apply_channel(build_states({"links": cfg["links"]})[0], bit_flip(0.2)),
            amplitude_damping(0.3),
        )
        np.testing.assert_allclose(states[0], expected, atol=1e-12)
        # Reversing the order changes the output, so order really is observed.
        swapped = dict(cfg, channels=list(reversed(cfg["channels"])))
        assert not np.allclose(build_states(swapped)[0], expected)

    def test_sides_are_honoured(self) -> None:
        cfg = {
            "links": [{"family": "pure_theta", "theta": 0.5}, {"family": "werner", "p": 0.1}],
            "channels": [{"link": 1, "type": "amplitude_damping", "param": 0.3, "sides": "left"}],
        }
        base = build_states({"links": cfg["links"]})[0]
        np.testing.assert_allclose(
            build_states(cfg)[0], apply_channel(base, amplitude_damping(0.3), sides="left")
        )

    def test_link_index_is_one_based(self) -> None:
        cfg = {
            "links": [{"family": "werner", "p": 0.1}, {"family": "werner", "p": 0.2}],
            "channels": [{"link": 0, "type": "bit_flip", "param": 0.1}],
        }
        with pytest.raises(ConfigError, match="1-based link index"):
            build_states(cfg)

    def test_unknown_type(self) -> None:
        cfg = {
            "links": [{"family": "werner", "p": 0.1}, {"family": "werner", "p": 0.2}],
            "channels": [{"link": 1, "type": "dephasing", "param": 0.1}],
        }
        with pytest.raises(ConfigError, match="unknown channel type"):
            build_states(cfg)

    def test_bad_sides(self) -> None:
        cfg = {
            "links": [{"family": "werner", "p": 0.1}, {"family": "werner", "p": 0.2}],
            "channels": [{"link": 1, "type": "bit_flip", "param": 0.1, "sides": "top"}],
        }
        with pytest.raises(ConfigError, match="channels.0.sides"):
            build_states(cfg)


class TestBuildFilterSpecAndNetwork:
    def test_defaults_to_identity(self) -> None:
        spec = build_filter_spec({"links": [1, 2]}, 2)
        assert spec.eps_first == spec.eps_last == 1.0
        assert spec.middle == ((1.0, 1.0),)

    def test_reads_all_fields(self) -> None:
        cfg = {"filters": {"first": 0.9, "last": 0.8, "middle": [[0.5, 0.6]]}}
        spec = build_filter_spec(cfg, 2)
        assert (spec.eps_first, spec.eps_last, spec.middle) == (0.9, 0.8, ((0.5, 0.6),))

    def test_wrong_middle_length(self) -> None:
        cfg = {"filters": {"middle": [[0.5, 0.6]]}}
        with pytest.raises(ConfigError, match="must have 2 pairs"):
            build_filter_spec(cfg, 3)

    def test_unknown_filter_field(self) -> None:
        with pytest.raises(ConfigError, match="filters.eps: unknown"):
            build_filter_spec({"filters": {"eps": 0.5}}, 2)

    def test_out_of_range_strength(self) -> None:
        with pytest.raises(ConfigError, match="filters:"):
            build_filter_spec({"filters": {"first": 1.4, "middle": [[1.0, 1.0]]}}, 2)

    def test_build_network_matches_manual_assembly(self) -> None:
        spec = build_network(base_config())
        assert spec.n == 2
        np.testing.assert_allclose(spec.links[0], grud_state(0.1, 0.23), atol=1e-12)
        assert spec.filters.middle == ((0.8, 0.97),)

    def test_build_network_needs_two_links(self) -> None:
        with pytest.raises(ConfigError, match="at least 2"):
            build_network({"links": [{"family": "werner", "p": 0.5}]})


def noisy_trilocal_config(outer: str, inner: str) -> dict:
    """A trilocal grud chain with bit flip on link 2, scanned 7x7 over the noise and one filter strength."""
    grids = {"channels.0.param": (0.0, 0.3), "filters.middle.0.1": (0.3, 1.0)}
    return {
        "links": [{"family": "grud", "v": 0.1, "x": x} for x in (0.35, 0.56, 0.78)],
        "channels": [{"link": 2, "type": "bit_flip", "param": 0.0}],
        "filters": {"first": 0.9, "last": 0.8, "middle": [[0.6, 0.99], [0.99, 0.99]]},
        "scan": {"axes": [{"path": p, "min": grids[p][0], "max": grids[p][1], "steps": 7} for p in (outer, inner)]},
    }


def hex_words(spec: NetworkSpec) -> list[str]:
    result = evaluate(spec)
    return [float(getattr(result, name)).hex() for name in ("b_lin", "b_seq", "success_prob", "violation")]


def fresh_network(cfg: dict, paths: list[str], values) -> NetworkSpec:
    """The network at ``values``, built from its own states with no reuse."""
    point = config_with_values(cfg, dict(zip(paths, values)))
    return NetworkSpec(tuple(build_states(point)), build_filter_spec(point, 3))


class TestNetworkFactory:
    """A repeated state key derives the network from the last one built; any other key builds it anew."""

    ORDERS = pytest.mark.parametrize(
        "outer, inner",
        [("channels.0.param", "filters.middle.0.1"), ("filters.middle.0.1", "channels.0.param")],
        ids=["states-outer", "states-inner"],
    )

    @pytest.fixture
    def validated(self, monkeypatch) -> list:
        calls = []

        def counted(rho):
            calls.append(np.shape(rho))
            return validate_density(rho)

        monkeypatch.setattr("qnetfilter.nlocal.validate_density", counted)
        return calls

    @ORDERS
    def test_a_scan_validates_the_links_once_per_state_key(self, validated, outer, inner) -> None:
        # The grid is one chunk: its 7 distinct state sets, in either order, are validated as one stack.
        _scan_rows(noisy_trilocal_config(outer, inner))
        assert validated == [(7, 3, 4, 4)]

    @ORDERS
    def test_every_point_evaluates_as_a_fresh_network(self, outer, inner) -> None:
        cfg = noisy_trilocal_config(outer, inner)
        axes = scan_axes(cfg)
        paths = [axis.path for axis in axes]
        build = network_factory(cfg, paths)
        for values in itertools.product(*[axis.values.tolist() for axis in axes]):
            assert hex_words(build(values)) == hex_words(fresh_network(cfg, paths, values)), values

    def test_a_signed_zero_on_a_state_path_rebuilds(self, validated) -> None:
        cfg = noisy_trilocal_config("channels.0.param", "filters.middle.0.1")
        build = network_factory(cfg, ["channels.0.param", "filters.middle.0.1"])
        first = build((0.0, 0.5))
        second = build((-0.0, 0.5))
        assert len(validated) == 2 and second.links is not first.links
        assert build((-0.0, 0.7)).links is second.links
        assert len(validated) == 2

    def test_a_build_that_raised_is_not_reused(self, validated) -> None:
        cfg = noisy_trilocal_config("channels.0.param", "filters.middle.0.1")
        paths = ["channels.0.param", "filters.middle.0.1"]
        build = network_factory(cfg, paths)
        first = build((0.1, 0.5))
        with pytest.raises(ConfigError, match=r"^filters: middle\[0\]\[1\]"):
            build((0.2, 1.5))  # the states build, then the filters fail
        assert len(validated) == 1
        spec = build((0.2, 0.5))
        assert len(validated) == 2 and spec.links is not first.links
        assert hex_words(spec) == hex_words(fresh_network(cfg, paths, (0.2, 0.5)))


    def test_a_value_on_the_whole_links_array_constructs_every_link(self, monkeypatch) -> None:
        cfg = noisy_trilocal_config("channels.0.param", "filters.middle.0.1")
        paths = ["links", "filters.middle.0.1"]
        moved = copy.deepcopy(cfg["links"])
        moved[2]["x"] = 0.4
        points = [(cfg["links"], 0.5), (cfg["links"], 0.7), (moved, 0.7), (moved, 0.5)]
        expected = [hex_words(fresh_network(cfg, paths, values)) for values in points]
        constructed = []
        build_link = config._build_link

        def counted(index, entry):
            constructed.append(index)
            return build_link(index, entry)

        monkeypatch.setattr(config, "_build_link", counted)
        build = network_factory(cfg, paths)
        assert [hex_words(build(values)) for values in points] == expected
        assert constructed == [0, 1, 2, 0, 1, 2]  # only link 3 moved, yet all three are constructed again


def pointwise(cfg: dict, paths: list[str], points: list) -> tuple[list[NetworkSpec], ValueError | None]:
    """The networks of ``points``, each built alone from its own states, up to the first that fails, and its error."""
    built = []
    for values in points:
        try:
            point = config_with_values(cfg, dict(zip(paths, values)))
            states = build_states(point)
            built.append(NetworkSpec(tuple(states), build_filter_spec(point, len(states))))
        except ValueError as exc:
            return built, exc
    return built, None


def assert_chunk_is_pointwise(cfg: dict, paths: list[str], points: list) -> tuple[list[NetworkSpec], ValueError | None]:
    """``chunk`` builds what ``pointwise`` builds, to the bit, and fails where and as it fails."""
    specs, strengths, error = network_factory(cfg, paths).chunk(points)
    expected, expected_error = pointwise(cfg, paths, points)
    assert [spec.links.tobytes() for spec in specs] == [spec.links.tobytes() for spec in expected]
    assert [spec.filters for spec in specs] == [spec.filters for spec in expected]
    assert (type(error), str(error)) == (type(expected_error), str(expected_error))
    assert [row.ravel().tolist() for row in strengths] == [list(spec.filters._flat_strengths) for spec in specs]
    return specs, error


# An explicit link with 2.4999e-10i on each diagonal entry, valid to a Hermiticity deviation of 5e-10:
# amplitude damping of gamma on both qubits takes that to 5e-10 (1 + gamma)^2, over 1e-9 from gamma 0.42.
IMAGINARY_DIAGONAL = {"family": "explicit", "matrix": matrix_to_pairs(np.diag([0.5, 0.0, 0.5, 0.0]) + 2.4999e-10j * np.eye(4))}
DAMPED = {
    "links": [IMAGINARY_DIAGONAL, {"family": "werner", "p": 0.9}],
    "channels": [{"link": 1, "type": "amplitude_damping", "param": 0.0}],
    "filters": {"first": 1.0, "last": 1.0, "middle": [[1.0, 0.8]]},
}
# Deviations that fail the completeness check from a parameter of 0.3 on, for both channel types.
PARAMETER_AS_DEVIATION = 0.3


@pytest.fixture
def incomplete_from_0_3(monkeypatch) -> None:
    """Make each channel's completeness deviation its parameter (the squared last Kraus operator's [0, 1] entry)."""
    monkeypatch.setattr(channels, "_deviations", lambda ops: np.abs(ops[..., -1, 0, 1]) ** 2)
    monkeypatch.setattr(channels, "COMPLETENESS_ATOL", PARAMETER_AS_DEVIATION)


class TestChunk:
    """``chunk`` builds many points in stacked passes, and each point as it builds alone."""

    PATHS = ["channels.0.param", "filters.last"]

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(0.0, 0.5), (0.0, 0.7), (0.0, 1.0)], None),
            # Point 1's links fail validation.
            ([(0.0, 0.5), (0.5, 0.7), (0.0, 1.0)], "^hermiticity deviation 1.125e-09"),
            # Point 1 opens a set whose links fail validation, but its filters fail first.
            ([(0.0, 0.5), (0.5, 1.5)], r"^filters: eps_last must lie in \[0, 1\], got 1.5$"),
            # Point 1's filters fail before point 2's links.
            ([(0.0, 0.5), (0.0, 1.5), (0.5, 0.7)], r"^filters: eps_last"),
            # Point 1's channel fails before its filters.
            ([(0.0, 0.5), (1.5, 1.5)], r"^channels.0: gamma must lie in \[0, 1\], got 1.5$"),
            # The set of point 0 comes back at point 2 and is not built again.
            ([(0.0, 0.5), (0.3, 0.5), (0.0, 0.7), (0.3, 0.9)], None),
        ],
    )
    def test_errors_come_at_the_point_and_stage_of_a_pointwise_build(self, points, message) -> None:
        specs, error = assert_chunk_is_pointwise(DAMPED, self.PATHS, points)
        if message is None:
            assert error is None
        else:
            assert re.match(message, str(error))
        assert len({id(spec.links) for spec in specs}) == len({values[0] for values in points[: len(specs)]})

    def test_the_last_set_of_a_chunk_carries_over_to_the_next(self) -> None:
        build = network_factory(DAMPED, self.PATHS)
        first, _, _ = build.chunk([(0.0, 0.5), (0.2, 0.5)])
        second, _, _ = build.chunk([(0.2, 0.7), (0.0, 0.7)])
        assert second[0].links is first[1].links and second[1].links is not first[0].links

    @pytest.mark.parametrize(
        "paths, points, message",
        [
            (["filters.middle.0.1", "filters.last", "filters.first"], [(0.5, 0.5, 0.5), (1.5, 1.5, 1.5)], "eps_first"),
            (["filters.middle.0.1", "filters.last", "filters.first"], [(0.5, 0.5, 0.5), (1.5, 1.5, 0.5)], "eps_last"),
            (["filters.middle.0.1", "filters.last", "filters.first"], [(0.5, 0.5, 0.5), (1.5, 0.5, 0.5)], "middle"),
            (["filters.middle.0.1", "filters.first"], [(0.5, 0.5), (-0.5, "x")], "filters.first must be a number"),
            (["filters.middle.0", "filters.middle.0.1"], [(0.5, 0.5)], "no such config path"),
            (["filters.middle.0."], [(0.5,)], "no such config path"),
            # The pair assigned last replaces the strength assigned first.
            (["filters.middle.0.1", "filters.middle.0"], [(0.5, [0.2, 0.3]), (1.5, [0.2, 0.4])], None),
        ],
        ids=["eps_first", "eps_last", "middle", "not-a-number", "descends-into-a-float", "empty-part", "pair-after-strength"],
    )
    def test_filter_errors_come_in_the_order_that_building_the_filters_gives(self, paths, points, message) -> None:
        _, error = assert_chunk_is_pointwise(DAMPED, paths, points)
        assert message in str(error) if message else error is None

    def test_only_the_first_point_builds_its_filters(self, monkeypatch) -> None:
        built = []
        build_filter_spec = config.build_filter_spec

        def counted(cfg, n_links):
            built.append(n_links)
            return build_filter_spec(cfg, n_links)

        monkeypatch.setattr(config, "build_filter_spec", counted)
        assert_chunk_is_pointwise(DAMPED, ["filters.middle.0.1", "channels.0.param"], [(0.5, 0.0), (0.6, 0.2)])
        assert built == [2]  # the template, into which the second point writes its strength
        built.clear()
        assert_chunk_is_pointwise(DAMPED, ["filters.middle.0", "channels.0.param"], [([0.5, 0.6], 0.0)] * 2)
        assert built == [2, 2]  # a path on a pair: each point builds its filters

    @pytest.mark.parametrize(
        "paths, points, message",
        [
            # Chain 2 fails at its first channel, chain 1 at its second: chain 1's failure comes first.
            (["channels.0.param", "channels.1.param"], [(0.1, 0.1), (0.2, 0.5), (0.5, 0.2)], "^channels.1: amplitude_damping"),
            (["channels.0.param", "channels.1.param"], [(0.1, 0.1), (0.5, 0.5)], r"^channels.0: bit_flip\(p=0.5\)"),
            # The second channel's link is not an index: the first channel fails completeness before it.
            (["channels.0.param", "channels.1.link"], [(0.1, 1.0)], "^channels.1.link must be"),
            (["channels.0.param", "channels.1.link"], [(0.5, 1.0)], "^channels.0: bit_flip"),
        ],
    )
    def test_a_channel_that_fails_completeness_fails_at_its_point(
        self, incomplete_from_0_3, paths, points, message
    ) -> None:
        cfg = copy.deepcopy(DAMPED)
        cfg["links"][0] = {"family": "grud", "v": 0.1, "x": 0.3}
        cfg["channels"] = [
            {"link": 1, "type": "bit_flip", "param": 0.0, "sides": "left"},
            {"link": 1, "type": "amplitude_damping", "param": 0.0},
        ]
        _, error = assert_chunk_is_pointwise(cfg, paths, points)
        assert re.match(message, str(error)), error

    def test_completeness_is_checked_before_the_chain_length(self, incomplete_from_0_3) -> None:
        cfg = {"links": [{"family": "werner", "p": 0.5}], "channels": [{"link": 1, "type": "bit_flip", "param": 0.0}]}
        build = network_factory(cfg, ["channels.0.param"])
        with pytest.raises(ConfigError, match="^links: a chain needs at least 2 links$"):
            build((0.1,))
        message = r"^channels.0: bit_flip\(p=0.5\): Kraus completeness deviation 5.000e-01 exceeds 3e-01$"
        with pytest.raises(ConfigError, match=message):
            build((0.5,))
        with pytest.raises(ConfigError, match=message):
            build_states(config_with_values(cfg, {"channels.0.param": 0.5}))
        with pytest.raises(ValueError, match=message[len("^channels.0: "):]):
            bit_flip(0.5)


class TestBuildSettings:
    def test_absent_block_is_none(self) -> None:
        assert build_settings(base_config()) is None

    def test_valid_block(self) -> None:
        cfg = dict(
            base_config(),
            settings={"m0": [0, 0, 1], "m1": [1, 0, 0], "n0": [0, 0, 1], "n1": [1, 0, 0]},
        )
        settings = build_settings(cfg)
        assert settings is not None
        np.testing.assert_allclose(settings.m1, [1.0, 0.0, 0.0])

    def test_missing_vector(self) -> None:
        cfg = dict(base_config(), settings={"m0": [0, 0, 1]})
        with pytest.raises(ConfigError, match="settings.m1 is required"):
            build_settings(cfg)

    def test_non_unit_vector(self) -> None:
        cfg = dict(
            base_config(),
            settings={"m0": [0, 0, 2], "m1": [1, 0, 0], "n0": [0, 0, 1], "n1": [1, 0, 0]},
        )
        with pytest.raises(ConfigError, match="settings:"):
            build_settings(cfg)


class TestScanAxes:
    def test_parses_inclusive_grids(self) -> None:
        cfg = dict(
            base_config(),
            scan={"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 5}]},
        )
        axes = scan_axes(cfg)
        assert len(axes) == 1
        assert axes[0].path == "links.0.v"
        np.testing.assert_allclose(axes[0].values, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_default_steps(self) -> None:
        cfg = dict(base_config(), scan={"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0}]})
        assert scan_axes(cfg)[0].values.shape == (101,)

    def test_single_point_grid(self) -> None:
        cfg = dict(
            base_config(),
            scan={"axes": [{"path": "links.0.v", "min": 0.1, "max": 0.1, "steps": 1}]},
        )
        np.testing.assert_allclose(scan_axes(cfg)[0].values, [0.1])

    def test_missing_block(self) -> None:
        with pytest.raises(ConfigError, match="scan block is missing"):
            scan_axes(base_config())

    def test_too_many_axes(self) -> None:
        axis = {"path": "links.0.v", "min": 0.0, "max": 1.0}
        cfg = dict(base_config(), scan={"axes": [axis] * 4})
        with pytest.raises(ConfigError, match="between 1 and 3"):
            scan_axes(cfg)

    def test_bad_steps(self) -> None:
        cfg = dict(
            base_config(),
            scan={"axes": [{"path": "links.0.v", "min": 0.0, "max": 1.0, "steps": 0}]},
        )
        with pytest.raises(ConfigError, match="positive integer"):
            scan_axes(cfg)

    def test_axis_path_must_resolve(self) -> None:
        cfg = dict(
            base_config(), scan={"axes": [{"path": "links.0.q", "min": 0.0, "max": 1.0}]}
        )
        with pytest.raises(ConfigError, match="no such config path"):
            scan_axes(cfg)


class TestConfigSeed:
    def test_default_zero(self) -> None:
        assert config_seed(base_config()) == 0

    def test_explicit(self) -> None:
        assert config_seed(dict(base_config(), seed=7)) == 7

    def test_rejects_non_integer(self) -> None:
        with pytest.raises(ConfigError, match="seed must be an integer"):
            config_seed(dict(base_config(), seed="7"))
