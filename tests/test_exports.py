"""Every exported name resolves, and no module exports a name twice."""

from __future__ import annotations

import importlib
import pkgutil

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
