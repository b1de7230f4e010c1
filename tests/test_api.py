"""Public surface: every exported name exists and no export is half-removed."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

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


def _own_functions(mod):
    """Functions and methods (properties included) defined in ``mod``."""
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and member.__module__ == mod.__name__:
                    yield member


@pytest.mark.parametrize("module", SUBMODULES)
def test_type_hints_resolve(module):
    mod = importlib.import_module(f"lorenzel.{module}")
    for fn in _own_functions(mod):
        typing.get_type_hints(fn)
