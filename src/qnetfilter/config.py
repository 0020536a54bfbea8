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

import functools
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .channels import _TYPES as _CHANNEL_TYPES
from .channels import SIDES, _apply_kraus, _check_param, _kraus_ops
from .core import matrix_from_pairs, validate_density
from .filtering import NetworkFilterSpec, _check_eps
from .nlocal import MeasurementSettings, NetworkSpec, _validate_chains
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


def _links(cfg: dict, link: Callable[[int, object], np.ndarray]) -> list[np.ndarray]:
    """The link states before any channel, each one ``link(index, entry)``."""
    links = cfg.get("links")
    if not isinstance(links, list) or not links:
        raise ConfigError("links must be a non-empty array")
    return [link(index, entry) for index, entry in enumerate(links)]


# One channel entry as read from a config: its 1-based link, its type, its sides and its parameter.
_Channel = tuple[int, str, str, float]


def _channel_entries(cfg: dict, n_links: int) -> tuple[list[_Channel], ConfigError | None]:
    """Each channel entry, in channel order, up to the first invalid one, and that one's error (None if none is)."""
    entries: list[_Channel] = []
    try:
        channels = cfg.get("channels", [])
        if not isinstance(channels, list):
            raise ConfigError("channels must be an array")
        for position, entry in enumerate(channels):
            _fields(entry, f"channels.{position}", ("link", "type", "param", "sides"), ("link", "type", "param"))
            link = entry["link"]
            if not _is_json_number(link, int) or not 1 <= link <= n_links:
                raise ConfigError(f"channels.{position}.link must be a 1-based link index, got {link!r}")
            kind = entry["type"]
            if not isinstance(kind, str) or kind not in _CHANNEL_TYPES:
                raise ConfigError(f"channels.{position}.type: unknown channel type {kind!r}")
            sides = entry.get("sides", "both")
            if sides not in SIDES:
                raise ConfigError(f"channels.{position}.sides must be one of {SIDES}, got {sides!r}")
            param = _number(entry["param"], f"channels.{position}.param")
            try:
                _check_param(kind, param)
            except ValueError as exc:
                raise ConfigError(f"channels.{position}: {exc}") from None
            entries.append((link, kind, sides, param))
    except ConfigError as exc:
        return entries, exc
    return entries, None


def _apply_channels(chains: np.ndarray, entries: list[list[_Channel]]) -> tuple[int, ConfigError] | None:
    """Apply to each of the ``(k, n, 4, 4)`` ``chains``, in place, its list of channel ``entries``, in channel order.

    At each channel position, the chains whose entry has the same link, type and sides take one stack of
    Kraus operators, checked for completeness at once, and one application.  Returns the first chain whose
    operators fail that check, with the error of its first failing entry, or None.
    """
    failure = None
    for position in range(max(map(len, entries), default=0)):
        groups: dict[tuple[int, str, str], list[int]] = {}
        for row, channels in enumerate(entries):
            if position < len(channels):
                groups.setdefault(channels[position][:3], []).append(row)
        for (link, kind, sides), rows in groups.items():
            ops, incomplete = _kraus_ops(kind, [entries[row][position][3] for row in rows])
            chains[rows, link - 1] = _apply_kraus(chains[rows, link - 1], ops, sides)
            # An earlier chain's failure, or one at an earlier position of the same chain, comes first.
            if incomplete is not None and (failure is None or rows[incomplete[0]] < failure[0]):
                failure = rows[incomplete[0]], ConfigError(f"channels.{position}: {incomplete[1]}")
    return failure


def build_states(cfg: dict) -> list[np.ndarray]:
    """Build the link states with all channels applied (filters excluded)."""
    states = _links(cfg, _build_link)
    channels, error = _channel_entries(cfg, len(states))
    chains = np.array([states], dtype=complex)
    failure = _apply_channels(chains, [channels])
    if failure is not None:
        raise failure[1]
    if error is not None:
        raise error
    return list(chains[0])


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


# A filters.* path that sets one strength: the path, its keys in a config, its index in
# NetworkFilterSpec._flat_strengths and its name in NetworkFilterSpec's errors.
_Slot = tuple[str, tuple[str | int, ...], int, str]


def _filter_slots(paths: Sequence[str]) -> list[_Slot] | None:
    """The slot of each ``filters.*`` path, in the order NetworkFilterSpec checks them.

    None when a path sets anything but one strength, or sets the whole ``links`` array (and so the
    number of strengths).
    """
    slots = []  # each with its place in the check order: eps_first, eps_last, then the middle pairs
    for path in paths:
        parts = path.split(".")
        if parts == ["links"]:
            return None
        if parts[0] != "filters":
            continue
        if parts[1:] in (["first"], ["last"]):
            order, slot = (0, 0) if parts[1] == "first" else (1, -1)
            slots.append((order, (path, tuple(parts), slot, f"eps_{parts[1]}")))
        elif parts[1:2] == ["middle"] and parts[3:] in (["0"], ["1"]) and parts[2].isascii() and parts[2].isdigit():
            i, j = int(parts[2]), int(parts[3])
            slots.append((2 + 2 * i + j, (path, ("filters", "middle", i, j), 1 + 2 * i + j, f"middle[{i}][{j}]")))
        else:
            return None
    return [slot for _, slot in sorted(slots, key=lambda item: item[0])]


class _NetworkFactory:
    """The callable that ``network_factory`` returns; ``chunk`` builds many points in stacked passes."""

    def __init__(self, cfg: dict, paths: Sequence[str]) -> None:
        self._cfg = cfg
        self._paths = list(paths)
        self._state_paths = [k for k, path in enumerate(paths) if path.split(".", 1)[0] in _STATE_FIELDS]
        # Each links.* value's position in a state key, and the link it sets (None: any link).
        self._link_values = [
            (j, _link_of(paths[k])) for j, k in enumerate(self._state_paths) if paths[k].startswith("links")
        ]
        # Per link index, the values on its own paths and the state constructed from them, before any channel.
        self._constructed: dict[int, tuple[list[str], np.ndarray]] = {}
        # The state key and the network of the last point built without error.
        self._last: tuple[tuple[str, ...], NetworkSpec] | None = None
        self._slots = _filter_slots(self._paths)
        # The first point's filters and their _flat_strengths, into which a later point writes its own strengths.
        self._template: tuple[NetworkFilterSpec, list[float]] | None = None

    def __call__(self, values: Sequence[float]) -> NetworkSpec:
        specs, _, error = self.chunk([values])
        if error is not None:
            raise error
        return specs[0]

    def _link(self, key: tuple[str, ...], index: int, entry: object) -> np.ndarray:
        link_key = [key[j] for j, target in self._link_values if target in (index, None)]
        if index not in self._constructed or self._constructed[index][0] != link_key:
            self._constructed[index] = (link_key, _build_link(index, entry))
        return self._constructed[index][1]

    def _filters(self, point: dict, n_links: int) -> tuple[NetworkFilterSpec, list[float]]:
        if self._template is None or self._slots is None:
            filters = build_filter_spec(point, n_links)
            flat = list(filters._flat_strengths)
            if self._slots is not None:
                self._template = filters, flat
            return filters, flat
        filters, flat = self._template
        if not self._slots:
            return filters, flat
        values = []
        for path, keys, _, _ in self._slots:
            value = point
            for key in keys:
                value = value[key]
            values.append(_number(value, path))
        flat = flat.copy()
        try:
            for (_, _, slot, name), value in zip(self._slots, values):
                flat[slot] = _check_eps(name, value)
        except ValueError as exc:
            raise ConfigError(f"filters: {exc}") from None
        return NetworkFilterSpec._checked(flat), flat

    def chunk(self, points: Sequence[Sequence[float]]) -> tuple[list[NetworkSpec], np.ndarray, ValueError | None]:
        """The networks of the points before the first one that fails, their ``(m, n, 2)`` strengths, and its error.

        A point fails as it would alone: at the first of its path, link construction, channel,
        filter and link validation checks that fails.  The error is None when every point builds.
        """
        last_key = None if self._last is None else self._last[0]
        configs: list[dict] = []
        keys: list[tuple[str, ...]] = []
        rows: list[int] = []  # per point, its state set's row in ``sets``, or -1: the links of ``self._last``
        # Each new state set: its first point, its links before any channel and its channel entries.
        sets: list[tuple[int, list[np.ndarray], list[_Channel]]] = []
        found: dict[tuple[str, ...], int] = {}
        error = None
        for values in points:
            try:
                point = config_with_values(self._cfg, dict(zip(self._paths, values)))
                key = tuple([repr(values[k]) for k in self._state_paths])  # repr tells 0.0 from -0.0, which == does not
                row = -1 if key == last_key else found.get(key)
                if row is None:
                    states = _links(point, functools.partial(self._link, key))
                    channels, error = _channel_entries(point, len(states))
                    if error is None and len(states) < 2:
                        error = ConfigError("links: a chain needs at least 2 links")
                    # A set whose point failed after some channel entries stays, for their completeness check.
                    sets.append((len(configs), states, channels))
                    if error is not None:
                        break
                    row = found[key] = len(sets) - 1
            except ValueError as exc:
                error = exc
                break
            configs.append(point)
            keys.append(key)
            rows.append(row)
        built = len(configs)
        if sets:
            chains = np.array([states for _, states, _ in sets], dtype=complex)
            failure = _apply_channels(chains, [channels for _, _, channels in sets])
            if failure is not None:
                built, error = sets[failure[0]][0], failure[1]

        flats: list[list[float]] = []
        filters: list[NetworkFilterSpec] = []
        for point, row in zip(configs[:built], rows):
            try:
                spec, flat = self._filters(point, len(sets[row][1]) if row >= 0 else self._last[1].n)
            except ValueError as exc:
                built, error = len(flats), exc
                break
            filters.append(spec)
            flats.append(flat)

        links: list[np.ndarray] = []
        new = sum(first < built for first, _, _ in sets)
        if new:
            valid, invalid = _validate_chains(chains[:new])
            if invalid is not None:
                built, error = sets[valid][0], invalid
            chains.flags.writeable = False
            links = list(chains[:new])
        specs = [
            NetworkSpec._trusted(links[row], spec) if row >= 0 else self._last[1]._with_filters(spec)
            for row, spec in zip(rows[:built], filters)
        ]
        if specs:
            self._last = keys[built - 1], specs[-1]
        strengths = np.array(flats[:built]).reshape(built, -1, 2) if built else np.empty((0, 0, 2))
        return specs, strengths, error


def network_factory(cfg: dict, paths: Sequence[str]) -> _NetworkFactory:
    """A function from values of the dotted ``paths`` to the network ``cfg`` describes with them.

    Its ``chunk`` method builds the networks of many points in stacked passes, and a call builds
    one point as a chunk of one.  Each point's config is assigned by ``config_with_values``.  The
    points of a chunk share their link states wherever the values on their ``links.*`` and
    ``channels.*`` paths agree, and with the last point built before, if it has them too: the
    derived specs share the validated links and, once computed, their unfiltered bound.  Each
    distinct state set constructs a link again only when a value on one of its own
    ``links.<i>.*`` paths (or on the whole ``links`` array) differs from the set that last
    constructed it.  Each channel entry is then applied to all of the chunk's new state sets at
    once, and the sets are validated as one stack.  The first point's filters are a template:
    a later point writes the values of its ``filters.*`` strengths into it and checks only
    those, unless a path sets anything else under ``filters`` (or the whole ``links`` array),
    when each point builds its filters anew.  Errors come at the point, and with the message,
    that building the points one by one gives.
    """
    return _NetworkFactory(cfg, paths)


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
        except (MemoryError, ValueError, IndexError):  # more steps than an array can index or numpy can count
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
            parent[key] = parent[key].copy()  # _keys descended into it, so it is a dict or a list
            parent = parent[key]
        parent[leaf] = value
    return copied
