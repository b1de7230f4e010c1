"""Public surface: every exported name exists and no export is half-removed."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import lorenzel as lz

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(lz.__path__))


def test_package_names_resolve():
    assert len(set(lz.__all__)) == len(lz.__all__)
    for name in lz.__all__:
        assert hasattr(lz, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_reach_the_package(module):
    mod = importlib.import_module(f"lorenzel.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"lorenzel.{module}.{name}"
        assert name in lz.__all__, name
        assert getattr(lz, name) is getattr(mod, name), name
