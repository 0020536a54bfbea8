"""Every exported name resolves, and no module exports a name twice."""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import qnetfilter

MODULES = [qnetfilter] + [
    importlib.import_module(f"qnetfilter.{info.name}")
    for info in pkgutil.iter_modules(qnetfilter.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve_once(module) -> None:
    names = module.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(module, name)] == []


def test_package_exports_only_what_its_submodules_export() -> None:
    # The package derives __all__ from what it imports, so a helper imported there must not leak into it.
    exported = {name: getattr(qnetfilter, name) for name in qnetfilter.__all__}
    assert [name for name, value in exported.items() if isinstance(value, types.ModuleType)] == []
    leaked = [
        name
        for name, value in exported.items()
        if not any(name in module.__all__ and getattr(module, name) is value for module in MODULES[1:])
    ]
    assert leaked == []
