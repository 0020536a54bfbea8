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
import math
from collections.abc import Callable, Sequence
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
    "build_states",
    "build_filter_spec",
    "build_network",
    "network_factory",
    "build_settings",
    "scan_axes",
    "config_seed",
    "config_with_values",
]

_TOP_LEVEL_KEYS = {"n", "links", "channels", "filters", "settings", "scan", "seed"}

# Each link family's constructor and its parameters, in the order the constructor takes them.
_FAMILIES = {
    "grud": (grud_state, ("v", "x")),
    "werner": (werner_state, ("p",)),
    "x": (x_state, ("x1", "x2", "x3", "x4")),
    "pure_theta": (pure_theta_state, ("theta",)),
    "product": (product_state, ("m", "n")),
    "explicit": (lambda matrix: validate_density(matrix_from_pairs(matrix)), ("matrix",)),
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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer over 4300 digits, deep nesting
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    for key in cfg:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config field {key!r}")
    links = cfg.get("links")
    if not isinstance(links, list) or not links:
        raise ConfigError("links must be a non-empty array")
    if "n" in cfg:
        if not _is_json_number(cfg["n"], int):
            raise ConfigError(f"n must be an integer, got {cfg['n']!r}")
        if cfg["n"] != len(links):
            raise ConfigError(f"n = {cfg['n']} does not match the number of links ({len(links)})")
    return cfg


def _key(node: object, part: str, path: str) -> str | int:
    """The dict key or list index that one dotted-path ``part`` names in ``node``."""
    if isinstance(node, dict):
        if part not in node:
            raise ConfigError(f"no such config path: {path} (missing {part!r})")
        return part
    if isinstance(node, list):
        # Only the canonical spelling: ASCII digits, no sign, space, underscore or leading zero.
        if not (part.isascii() and part.isdigit() and (part == "0" or part[0] != "0")):
            raise ConfigError(f"no such config path: {path} ({part!r} is not an index)")
        index = int(part)
        if not 0 <= index < len(node):
            raise ConfigError(f"no such config path: {path} (index {index} out of range)")
        return index
    raise ConfigError(f"no such config path: {path} (cannot descend into {part!r})")


def _keys(cfg: dict, path: str) -> tuple[str | int, ...]:
    """The dict keys and list indices that a dotted ``path`` names inside ``cfg``."""
    node: object = cfg
    keys = []
    for part in path.split("."):
        keys.append(_key(node, part, path))
        node = node[keys[-1]]
    return tuple(keys)


def get_path(cfg: dict, path: str) -> object:
    """Resolve a dotted path like ``links.0.v`` inside a config dict."""
    node: object = cfg
    for key in _keys(cfg, path):
        node = node[key]
    return node


def _fields(entry: object, where: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """Check that ``entry`` is an object with only ``allowed`` fields and all ``required`` ones."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown field")
    for key in required:
        if key not in entry:
            raise ConfigError(f"{where}.{key} is required")
    return entry


def _is_json_number(value: object, kinds: type | tuple[type, ...]) -> bool:
    """``isinstance`` for JSON numbers: ``true`` and ``false`` are neither integers nor numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _number(value: object, where: str) -> float | int:
    """Return ``value`` if it is a JSON number that ``float()`` converts; else a config error naming ``where``."""
    if not _is_json_number(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None
    return value


def _check_numbers(vector: object, where: str) -> None:
    """Check a JSON number, or each entry of a nested JSON array, with ``_number``; the rest is checked downstream."""
    if _is_json_number(vector, (int, float)):
        _number(vector, where)
    for k, item in enumerate(vector if isinstance(vector, list) else ()):
        if isinstance(item, list):
            _check_numbers(item, f"{where}.{k}")
        else:
            _number(item, f"{where}.{k}")


def _build_link(index: int, entry: object) -> np.ndarray:
    if not isinstance(entry, dict):
        raise ConfigError(f"links.{index} must be an object")
    family = entry.get("family")
    if family is None:
        raise ConfigError(f"links.{index}.family is required")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"links.{index}.family: unknown family {family!r}")
    constructor, params = _FAMILIES[family]
    for key in entry:
        if key != "family" and key not in params:
            raise ConfigError(f"links.{index}.{key}: unknown parameter for family {family!r}")
    missing = [key for key in params if key not in entry]
    if missing:
        raise ConfigError(f"links.{index}.{missing[0]} is required for family {family!r}")
    check = _check_numbers if family in ("product", "explicit") else _number
    for key in params:
        check(entry[key], f"links.{index}.{key}")
    try:
        return constructor(*(entry[key] for key in params))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"links.{index}: {exc}") from None


def _apply_channels(cfg: dict, states: list[np.ndarray]) -> list[np.ndarray]:
    channels = cfg.get("channels", [])
    if not isinstance(channels, list):
        raise ConfigError("channels must be an array")
    for position, entry in enumerate(channels):
        _fields(entry, f"channels.{position}", ("link", "type", "param", "sides"), ("link", "type", "param"))
        link = entry["link"]
        if not _is_json_number(link, int) or not 1 <= link <= len(states):
            raise ConfigError(f"channels.{position}.link must be a 1-based link index, got {link!r}")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in _CHANNEL_TYPES:
            raise ConfigError(f"channels.{position}.type: unknown channel type {kind!r}")
        sides = entry.get("sides", "both")
        if sides not in SIDES:
            raise ConfigError(f"channels.{position}.sides must be one of {SIDES}, got {sides!r}")
        param = _number(entry["param"], f"channels.{position}.param")
        try:
            channel = _CHANNEL_TYPES[kind](param)
            states[link - 1] = apply_channel(states[link - 1], channel, sides=sides)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"channels.{position}: {exc}") from None
    return states


def _states(cfg: dict, link: Callable[[int, object], np.ndarray]) -> list[np.ndarray]:
    """The link states, each one ``link(index, entry)``, with all channels applied in channel order."""
    links = cfg.get("links")
    if not isinstance(links, list) or not links:
        raise ConfigError("links must be a non-empty array")
    return _apply_channels(cfg, [link(index, entry) for index, entry in enumerate(links)])


def build_states(cfg: dict) -> list[np.ndarray]:
    """Build the link states with all channels applied (filters excluded)."""
    return _states(cfg, _build_link)


def build_filter_spec(cfg: dict, n_links: int) -> NetworkFilterSpec:
    """Build the per-party filter assignment; missing entries default to 1."""
    block = _fields(cfg.get("filters", {}), "filters", ("first", "last", "middle"))
    middle = block.get("middle", [[1.0, 1.0]] * (n_links - 1))
    if not isinstance(middle, list) or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in middle
    ):
        raise ConfigError("filters.middle must be an array of [eps1, eps2] pairs")
    if len(middle) != n_links - 1:
        raise ConfigError(
            f"filters.middle must have {n_links - 1} pairs for {n_links} links, got {len(middle)}"
        )
    first = _number(block.get("first", 1.0), "filters.first")
    last = _number(block.get("last", 1.0), "filters.last")
    pairs = tuple(
        (_number(pair[0], f"filters.middle.{i}.0"), _number(pair[1], f"filters.middle.{i}.1"))
        for i, pair in enumerate(middle)
    )
    try:
        return NetworkFilterSpec(eps_first=first, eps_last=last, middle=pairs)
    except ValueError as exc:
        raise ConfigError(f"filters: {exc}") from None


def build_network(cfg: dict) -> NetworkSpec:
    """Assemble the full chain: states, channels, then filter assignment."""
    return network_factory(cfg, ())(())


# The top-level fields that build_states reads; a value anywhere else leaves the link states as they are.
_STATE_FIELDS = ("links", "channels")


def _link_of(path: str) -> int | None:
    """The index of the one link whose entry a ``links.*`` path sets; None when it may set any link."""
    index = path.split(".")[1:2]
    return int(index[0]) if index and index[0].isascii() and index[0].isdigit() else None


def network_factory(cfg: dict, paths: Sequence[str]) -> Callable[[Sequence[float]], NetworkSpec]:
    """A function from values of the dotted ``paths`` to the network ``cfg`` describes with them.

    Each call assigns the values with ``config_with_values``.  It rebuilds the link
    states only when a value on a ``links.*`` or ``channels.*`` path differs from the
    previous call that built without error; otherwise it derives the network from that
    call's, for the new filters: the derived spec shares the validated links and their
    unfiltered bound.  A rebuild constructs a link again only when a value on one of its
    own ``links.<i>.*`` paths (or on the whole ``links`` array) differs from the call that
    last constructed it; the channels are then applied to every link, in channel order.
    """
    state_paths = [k for k, path in enumerate(paths) if path.split(".", 1)[0] in _STATE_FIELDS]
    # Each links.* value's position in a state key, and the link it sets (None: any link).
    link_values = [(j, _link_of(paths[k])) for j, k in enumerate(state_paths) if paths[k].startswith("links")]
    # The state-path values and the network of the last call that built without error.
    last_key: list[str] | None = None
    last_spec: NetworkSpec | None = None
    # Per link index, the values on its own paths and the state constructed from them, before any channel.
    constructed: dict[int, tuple[list[str], np.ndarray]] = {}

    def build(values: Sequence[float]) -> NetworkSpec:
        nonlocal last_key, last_spec
        point = config_with_values(cfg, dict(zip(paths, values)))
        key = [repr(values[k]) for k in state_paths]  # repr tells 0.0 from -0.0, which == does not
        if key == last_key:
            spec = last_spec._with_filters(build_filter_spec(point, last_spec.n))
        else:

            def link(index: int, entry: object) -> np.ndarray:
                link_key = [key[j] for j, target in link_values if target in (index, None)]
                if index not in constructed or constructed[index][0] != link_key:
                    constructed[index] = (link_key, _build_link(index, entry))
                return constructed[index][1]

            states = _states(point, link)
            if len(states) < 2:
                raise ConfigError("links: a chain needs at least 2 links")
            spec = NetworkSpec(links=tuple(states), filters=build_filter_spec(point, len(states)))
        last_key, last_spec = key, spec
        return spec

    return build


def build_settings(cfg: dict) -> MeasurementSettings | None:
    """Build the optional fixed end-party settings block."""
    block = cfg.get("settings")
    if block is None:
        return None
    names = ("m0", "m1", "n0", "n1")
    _fields(block, "settings", names, names)
    for name in names:
        _check_numbers(block[name], f"settings.{name}")
    try:
        return MeasurementSettings(**{name: np.asarray(block[name], dtype=float) for name in names})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"settings: {exc}") from None


@dataclass(frozen=True)
class ScanAxis:
    """One scan dimension: a dotted config path and its inclusive grid from ``low`` to ``high``."""

    path: str
    low: float
    high: float
    steps: int

    @property
    def values(self) -> np.ndarray:
        """The grid, built only when read: ``threshold`` needs just ``low`` and ``high``."""
        try:
            return np.linspace(self.low, self.high, self.steps)
        except (MemoryError, ValueError):  # ValueError: more steps than an array can index
            message = f"scan axis {self.path!r}: a grid of {self.steps} steps is too large to allocate"
            raise ConfigError(message) from None


def scan_axes(cfg: dict) -> list[ScanAxis]:
    """Parse the scan block (1 to 3 axes, inclusive linspace grids)."""
    block = cfg.get("scan")
    if block is None:
        raise ConfigError("scan block is missing")
    axes = _fields(block, "scan", ("axes",), ("axes",))["axes"]
    if not isinstance(axes, list) or not 1 <= len(axes) <= 3:
        raise ConfigError("scan.axes must hold between 1 and 3 axes")
    parsed = []
    seen: dict[str, int] = {}
    for index, axis in enumerate(axes):
        where = f"scan.axes.{index}"
        _fields(axis, where, ("path", "min", "max", "steps"), ("path", "min", "max"))
        steps = axis.get("steps", 101)
        if not _is_json_number(steps, int) or steps < 1:
            raise ConfigError(f"{where}.steps must be a positive integer, got {steps!r}")
        path = axis["path"]
        if not isinstance(path, str):
            raise ConfigError(f"{where}.path must be a string, got {path!r}")
        _keys(cfg, path)  # must resolve against the base config
        # _key reads only canonical indices, so two different paths never name the same value.
        if path in seen:
            raise ConfigError(f"{where}.path {path!r} names the same value as scan.axes.{seen[path]}.path")
        seen[path] = index
        low, high = (float(_number(axis[bound], f"{where}.{bound}")) for bound in ("min", "max"))
        for bound, value in (("min", low), ("max", high)):
            if not math.isfinite(value):
                raise ConfigError(f"{where}.{bound} is not finite, got {value}")
        parsed.append(ScanAxis(path=path, low=low, high=high, steps=steps))
    return parsed


def config_seed(cfg: dict) -> int:
    seed = cfg.get("seed", 0)
    if not _is_json_number(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return seed


def config_with_values(cfg: dict, assignments: dict[str, float]) -> dict:
    """Apply dotted-path assignments to a copy of the config, leaving ``cfg`` unchanged.

    Only the containers on each assigned path are copied; all else is shared with ``cfg``.
    """
    copied = dict(cfg)
    for path, value in assignments.items():
        *head, leaf = _keys(copied, path)
        parent: object = copied
        for key in head:
            parent[key] = copy.copy(parent[key])
            parent = parent[key]
        parent[leaf] = value
    return copied
