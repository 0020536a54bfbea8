"""JSON experiment configs: parsing, dotted-path access, network building.

A config describes one chain experiment::

    {
      "links":    [{"family": "grud", "v": 0.1, "x": 0.23}, ...],
      "channels": [{"link": 2, "type": "bit_flip", "param": 0.15, "sides": "both"}],
      "filters":  {"first": 1.0, "last": 0.76, "middle": [[0.8, 0.97]]},
      "settings": {"m0": [0,0,1], "m1": [1,0,0], "n0": [0,0,1], "n1": [1,0,0]},
      "scan":     {"axes": [{"path": "links.0.v", "min": 0, "max": 1, "steps": 101}]},
      "seed":     0
    }

Channels are applied to the link states before any filtering.  Scan axes (and
the optimizer's free parameters) address values with dotted paths such as
``links.0.v``, ``channels.0.param`` or ``filters.middle.0.0``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .channels import SIDES, amplitude_damping, apply_channel, bit_flip
from .core import matrix_from_pairs, validate_density
from .filtering import NetworkFilterSpec
from .nlocal import MeasurementSettings, NetworkSpec
from .states import grud_state, pure_theta_state, product_state, werner_state, x_state

__all__ = [
    "ConfigError",
    "ScanAxis",
    "load_config",
    "get_path",
    "set_path",
    "build_states",
    "build_filter_spec",
    "build_network",
    "build_settings",
    "scan_axes",
    "config_seed",
    "config_with_values",
]

_TOP_LEVEL_KEYS = {"n", "links", "channels", "filters", "settings", "scan", "seed"}

_FAMILY_PARAMS = {
    "grud": ("v", "x"),
    "werner": ("p",),
    "x": ("x1", "x2", "x3", "x4"),
    "pure_theta": ("theta",),
    "product": ("m", "n"),
    "explicit": ("matrix",),
}

_CHANNEL_TYPES = {"bit_flip": bit_flip, "amplitude_damping": amplitude_damping}


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def load_config(path: str) -> dict:
    """Read and structurally validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    for key in cfg:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    links = cfg.get("links")
    if not isinstance(links, list) or not links:
        raise ConfigError("links must be a non-empty array")
    if "n" in cfg and cfg["n"] != len(links):
        raise ConfigError(f"n = {cfg['n']} does not match the number of links ({len(links)})")
    return cfg


def get_path(cfg: dict, path: str) -> object:
    """Resolve a dotted path like ``links.0.v`` inside a config dict."""
    node: object = cfg
    for part in path.split("."):
        if isinstance(node, dict):
            if part not in node:
                raise ConfigError(f"no such config path: {path} (missing {part!r})")
            node = node[part]
        elif isinstance(node, list):
            try:
                index = int(part)
            except ValueError:
                raise ConfigError(f"no such config path: {path} ({part!r} is not an index)") from None
            if not 0 <= index < len(node):
                raise ConfigError(f"no such config path: {path} (index {index} out of range)")
            node = node[index]
        else:
            raise ConfigError(f"no such config path: {path} (cannot descend into {part!r})")
    return node


def set_path(cfg: dict, path: str, value: object) -> None:
    """Assign to a dotted path; the path must already exist."""
    parts = path.split(".")
    if len(parts) == 1:
        parent: object = cfg
    else:
        parent = get_path(cfg, ".".join(parts[:-1]))
    leaf = parts[-1]
    if isinstance(parent, dict):
        if leaf not in parent:
            raise ConfigError(f"no such config path: {path} (missing {leaf!r})")
        parent[leaf] = value
    elif isinstance(parent, list):
        try:
            index = int(leaf)
        except ValueError:
            raise ConfigError(f"no such config path: {path} ({leaf!r} is not an index)") from None
        if not 0 <= index < len(parent):
            raise ConfigError(f"no such config path: {path} (index {index} out of range)")
        parent[index] = value
    else:
        raise ConfigError(f"no such config path: {path} (cannot assign into {leaf!r})")


def _build_link(index: int, entry: object) -> np.ndarray:
    if not isinstance(entry, dict):
        raise ConfigError(f"links.{index} must be an object")
    family = entry.get("family")
    if family is None:
        raise ConfigError(f"links.{index}.family is required")
    if family not in _FAMILY_PARAMS:
        raise ConfigError(f"links.{index}.family: unknown family {family!r}")
    params = _FAMILY_PARAMS[family]
    for key in entry:
        if key != "family" and key not in params:
            raise ConfigError(f"links.{index}.{key}: unknown parameter for family {family!r}")
    missing = [key for key in params if key not in entry]
    if missing:
        raise ConfigError(f"links.{index}.{missing[0]} is required for family {family!r}")
    try:
        if family == "grud":
            return grud_state(entry["v"], entry["x"])
        if family == "werner":
            return werner_state(entry["p"])
        if family == "x":
            return x_state(entry["x1"], entry["x2"], entry["x3"], entry["x4"])
        if family == "pure_theta":
            return pure_theta_state(entry["theta"])
        if family == "product":
            return product_state(np.asarray(entry["m"], dtype=float), np.asarray(entry["n"], dtype=float))
        return validate_density(matrix_from_pairs(entry["matrix"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"links.{index}: {exc}") from None


def _apply_channels(cfg: dict, states: list[np.ndarray]) -> list[np.ndarray]:
    channels = cfg.get("channels", [])
    if not isinstance(channels, list):
        raise ConfigError("channels must be an array")
    for position, entry in enumerate(channels):
        if not isinstance(entry, dict):
            raise ConfigError(f"channels.{position} must be an object")
        for key in entry:
            if key not in ("link", "type", "param", "sides"):
                raise ConfigError(f"channels.{position}.{key}: unknown field")
        for required in ("link", "type", "param"):
            if required not in entry:
                raise ConfigError(f"channels.{position}.{required} is required")
        link = entry["link"]
        if not isinstance(link, int) or not 1 <= link <= len(states):
            raise ConfigError(f"channels.{position}.link must be a 1-based link index, got {link!r}")
        kind = entry["type"]
        if kind not in _CHANNEL_TYPES:
            raise ConfigError(f"channels.{position}.type: unknown channel type {kind!r}")
        sides = entry.get("sides", "both")
        if sides not in SIDES:
            raise ConfigError(f"channels.{position}.sides must be one of {SIDES}, got {sides!r}")
        try:
            channel = _CHANNEL_TYPES[kind](entry["param"])
            states[link - 1] = apply_channel(states[link - 1], channel, sides=sides)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"channels.{position}: {exc}") from None
    return states


def build_states(cfg: dict) -> list[np.ndarray]:
    """Build the link states with all channels applied (filters excluded)."""
    links = cfg.get("links")
    if not isinstance(links, list) or not links:
        raise ConfigError("links must be a non-empty array")
    states = [_build_link(index, entry) for index, entry in enumerate(links)]
    return _apply_channels(cfg, states)


def build_filter_spec(cfg: dict, n_links: int) -> NetworkFilterSpec:
    """Build the per-party filter assignment; missing entries default to 1."""
    block = cfg.get("filters", {})
    if not isinstance(block, dict):
        raise ConfigError("filters must be an object")
    for key in block:
        if key not in ("first", "last", "middle"):
            raise ConfigError(f"filters.{key}: unknown field")
    middle = block.get("middle", [[1.0, 1.0]] * (n_links - 1))
    if not isinstance(middle, list) or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in middle
    ):
        raise ConfigError("filters.middle must be an array of [eps1, eps2] pairs")
    if len(middle) != n_links - 1:
        raise ConfigError(
            f"filters.middle must have {n_links - 1} pairs for {n_links} links, got {len(middle)}"
        )
    try:
        return NetworkFilterSpec(
            eps_first=float(block.get("first", 1.0)),
            eps_last=float(block.get("last", 1.0)),
            middle=tuple((float(pair[0]), float(pair[1])) for pair in middle),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"filters: {exc}") from None


def build_network(cfg: dict) -> NetworkSpec:
    """Assemble the full chain: states, channels, then filter assignment."""
    states = build_states(cfg)
    if len(states) < 2:
        raise ConfigError("links: a chain needs at least 2 links")
    filters = build_filter_spec(cfg, len(states))
    return NetworkSpec(links=tuple(states), filters=filters)


def build_settings(cfg: dict) -> MeasurementSettings | None:
    """Build the optional fixed end-party settings block."""
    block = cfg.get("settings")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("settings must be an object")
    vectors = {}
    for name in ("m0", "m1", "n0", "n1"):
        if name not in block:
            raise ConfigError(f"settings.{name} is required")
        vectors[name] = np.asarray(block[name], dtype=float)
    for key in block:
        if key not in ("m0", "m1", "n0", "n1"):
            raise ConfigError(f"settings.{key}: unknown field")
    try:
        return MeasurementSettings(**vectors)
    except ValueError as exc:
        raise ConfigError(f"settings: {exc}") from None


@dataclass(frozen=True)
class ScanAxis:
    """One scan dimension: a dotted config path and its grid values."""

    path: str
    values: np.ndarray


def scan_axes(cfg: dict) -> list[ScanAxis]:
    """Parse the scan block (1 to 3 axes, inclusive linspace grids)."""
    block = cfg.get("scan")
    if block is None:
        raise ConfigError("scan block is missing")
    if not isinstance(block, dict) or "axes" not in block:
        raise ConfigError("scan.axes is required")
    for key in block:
        if key != "axes":
            raise ConfigError(f"scan.{key}: unknown field")
    axes = block["axes"]
    if not isinstance(axes, list) or not 1 <= len(axes) <= 3:
        raise ConfigError("scan.axes must hold between 1 and 3 axes")
    parsed = []
    for index, axis in enumerate(axes):
        if not isinstance(axis, dict):
            raise ConfigError(f"scan.axes.{index} must be an object")
        for key in axis:
            if key not in ("path", "min", "max", "steps"):
                raise ConfigError(f"scan.axes.{index}.{key}: unknown field")
        for required in ("path", "min", "max"):
            if required not in axis:
                raise ConfigError(f"scan.axes.{index}.{required} is required")
        steps = axis.get("steps", 101)
        if not isinstance(steps, int) or steps < 1:
            raise ConfigError(f"scan.axes.{index}.steps must be a positive integer, got {steps!r}")
        path = axis["path"]
        get_path(cfg, path)  # must resolve against the base config
        parsed.append(
            ScanAxis(path=path, values=np.linspace(float(axis["min"]), float(axis["max"]), steps))
        )
    return parsed


def config_seed(cfg: dict) -> int:
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return seed


def config_with_values(cfg: dict, assignments: dict[str, float]) -> dict:
    """Deep-copy the config and apply dotted-path assignments."""
    copied = copy.deepcopy(cfg)
    for path, value in assignments.items():
        set_path(copied, path, value)
    return copied
