"""Public surface: every exported name exists and no export is half-removed."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing
from decimal import Decimal

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


# Each scalar argument the API reads as a float, as (its name in the
# message, a call that passes x for it)
_SCALARS = {
    "invert t": ("t", lambda x: lz.invert("el", lz.Sample([1.0, 2.0, 3.0, 4.0]), x, 0.05)),
    "invert alpha": ("alpha", lambda x: lz.invert("el", lz.Sample([1.0, 2.0, 3.0, 4.0]), 0.5, x)),
    "point_estimate": ("t", lambda x: lz.point_estimate(lz.Sample([1.0, 2.0, 3.0]), x)),
    "true_ordinate": ("t", lambda x: lz.true_ordinate(lz.Weibull(1.0, 2.0), x)),
    "chi2_crit": ("alpha", lz.chi2_crit),
    "ExperimentConfig t_grid": ("each t in t_grid",
                                lambda x: lz.ExperimentConfig(lz.Weibull(1.0, 2.0), t_grid=(x,))),
    "ExperimentConfig alpha": ("alpha", lambda x: lz.ExperimentConfig(lz.Weibull(1.0, 2.0), alpha=x)),
}


@pytest.mark.parametrize("x", ["0.5", b"0.5", Decimal("0.5"), 0.5 + 0j, 10**400],
                         ids=["str", "bytes", "Decimal", "complex", "10**400"])
@pytest.mark.parametrize("call", list(_SCALARS))
def test_scalar_arguments_are_real_numbers(call, x):
    # any numbers.Real is read as a float, as theta is; anything else is a
    # TypeError naming the argument, and a real too large for a float a
    # DomainError, never a parsed string or a bare OverflowError
    name, f = _SCALARS[call]
    if isinstance(x, int):
        with pytest.raises(lz.DomainError, match=f"^{name} is too large for a float"):
            f(x)
    else:
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            f(x)
