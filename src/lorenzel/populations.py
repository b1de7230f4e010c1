"""Study populations, reproducible sampling, and exact ordinates.

Three families cover right-skewed income-like shapes (Weibull, chi-square)
and a mildly skewed distribution with negative support (skew-normal).
``true_ordinate`` evaluates the partial mean theta(t) = E[X 1(X <= psi_t)]
in closed form, so simulated coverage is judged against the exact target
rather than a large-sample stand-in.  With P the regularized lower
incomplete gamma function and Phi, phi the standard normal cdf and pdf:

* Weibull(a, b): b Gamma(1 + 1/a) P(1 + 1/a, -log(1 - t));
* chi-square(k): k P(k/2 + 1, psi/2), since x f_k(x) = k f_{k+2}(x);
* skew-normal(xi, omega, alpha): xi t + omega [2 delta phi(0)
  Phi(z / sqrt(1 - delta^2)) - 2 phi(z) Phi(alpha z)], with
  z = (psi - xi) / omega and delta = alpha / sqrt(1 + alpha^2).

P, Phi and Owen's T come from ``scipy.special``, which each method that
needs one imports on first use.  So importing the package, and the ``ci``
and ``curve`` commands, load no SciPy; the first population call does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .core import Sample, _check_t, _integer, _number
from .errors import DomainError, NonFinite

__all__ = [
    "Weibull",
    "ChiSquare",
    "SkewNormal",
    "Population",
    "SeedSpec",
    "sample",
    "true_ordinate",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _times_square(scale: float, factor: float) -> float:
    """scale ** 2 * factor; where scale ** 2 overflows, scale * (scale *
    factor), which is finite when the product is, and inf beyond the float
    range."""
    try:
        return scale ** 2 * factor
    except OverflowError:
        return scale * (scale * factor)


def _read_parameters(pop) -> None:
    """Store each parameter of pop as a float (``core._number``); DomainError if not finite."""
    for field in fields(pop):
        name = f"{type(pop).__name__} {field.name}"
        value = _number(getattr(pop, field.name), name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        object.__setattr__(pop, field.name, value)


@dataclass(frozen=True)
class Weibull:
    """Weibull(shape a, scale b) on x >= 0."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        _read_parameters(self)
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise DomainError("Weibull shape and scale must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0.0, -np.expm1(-((x / self.scale) ** self.shape)), 0.0)
        return out if out.ndim else float(out)

    def quantile(self, t: float) -> float:
        t = _check_t(t)
        return self.scale * (-math.log1p(-t)) ** (1.0 / self.shape)

    # SciPy's values are taken as Python floats, whose arithmetic rounds as
    # numpy's does but gives inf and nan without a RuntimeWarning

    @property
    def mean(self) -> float:
        from scipy.special import gamma as gamma_fn
        return self.scale * float(gamma_fn(1.0 + 1.0 / self.shape))

    def _ordinate(self, t: float) -> float:
        from scipy.special import gamma as gamma_fn, gammainc
        s = 1.0 + 1.0 / self.shape
        # nan, not a warning, when Gamma(s) = inf meets gammainc = 0
        return self.scale * float(gamma_fn(s)) * float(gammainc(s, -math.log1p(-t)))

    @property
    def variance(self) -> float:
        """b^2 (Gamma(1 + 2/a) - Gamma(1 + 1/a)^2), or inf when Gamma(1 + 2/a)
        overflows, as the mean is inf when Gamma(1 + 1/a) does."""
        from scipy.special import gamma as gamma_fn
        g2 = float(gamma_fn(1.0 + 2.0 / self.shape))
        if g2 == math.inf:  # Gamma(1 + 2/a) >= Gamma(1 + 1/a)^2, as E[Z^2] >= E[Z]^2
            return math.inf
        return _times_square(self.scale, g2 - float(gamma_fn(1.0 + 1.0 / self.shape)) ** 2)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # inverse CDF: b * (-log U)^(1/a) with U uniform on (0, 1]
        u = rng.random(n)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def __str__(self) -> str:
        return f"weibull({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class ChiSquare:
    """Chi-square with df degrees of freedom."""

    df: float

    def __post_init__(self) -> None:
        _read_parameters(self)
        if not self.df > 0.0:
            raise DomainError("degrees of freedom must be positive")

    def cdf(self, x):
        from scipy.special import gammainc
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0.0, gammainc(0.5 * self.df, 0.5 * x), 0.0)
        return out if out.ndim else float(out)

    def quantile(self, t: float) -> float:
        from scipy.special import gammaincinv
        t = _check_t(t)
        return 2.0 * float(gammaincinv(0.5 * self.df, t))

    @property
    def mean(self) -> float:
        return self.df

    def _ordinate(self, t: float) -> float:
        from scipy.special import gammainc
        return self.df * gammainc(0.5 * self.df + 1.0, 0.5 * self.quantile(t))

    @property
    def variance(self) -> float:
        return 2.0 * self.df

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.chisquare(self.df, n)

    def __str__(self) -> str:
        return f"chisquare({self.df:g})"


@dataclass(frozen=True)
class SkewNormal:
    """Skew-normal(location, scale, shape); negative values have positive mass."""

    location: float
    scale: float
    shape: float

    def __post_init__(self) -> None:
        _read_parameters(self)
        if not self.scale > 0.0:
            raise DomainError("skew-normal scale must be positive")

    @property
    def _delta(self) -> float:
        try:  # math.pow rounds as ** does, not always as shape * shape
            return self.shape / math.sqrt(1.0 + math.pow(self.shape, 2.0))
        except OverflowError:  # |shape| above about 1.34e154, where delta is +-1
            return math.copysign(1.0, self.shape)

    def cdf(self, x):
        from scipy.special import ndtr, owens_t
        x = np.asarray(x, dtype=float)
        z = (x - self.location) / self.scale
        out = ndtr(z) - 2.0 * owens_t(z, self.shape)
        return out if out.ndim else float(out)

    def quantile(self, t: float) -> float:
        t = _check_t(t)
        return _cdf_inverse(self, t)

    @property
    def mean(self) -> float:
        return self.location + self.scale * self._delta * math.sqrt(2.0 / math.pi)

    def _ordinate(self, t: float) -> float:
        # E[Z 1(Z <= z)] for the standard skew-normal, by parts on z phi(z)
        from scipy.special import ndtr
        d = self._delta
        z = (self.quantile(t) - self.location) / self.scale
        phi_z = math.exp(-0.5 * z * z) / _SQRT_2PI
        # 1 - delta^2 is 0 from |shape| about 1e8: the half-normal limit, Phi(+-inf)
        z_rest = z / math.sqrt(1.0 - d * d) if d * d < 1.0 else math.copysign(math.inf, z)
        partial = 2.0 * d / _SQRT_2PI * ndtr(z_rest) - 2.0 * phi_z * ndtr(self.shape * z)
        return self.location * t + self.scale * partial

    @property
    def variance(self) -> float:
        return _times_square(self.scale, 1.0 - 2.0 * self._delta ** 2 / math.pi)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # |Z0| carries the skew direction, the orthogonal Z1 fills in the rest
        d = self._delta
        z0 = rng.standard_normal(n)
        z1 = rng.standard_normal(n)
        return self.location + self.scale * (d * np.abs(z0) + math.sqrt(1.0 - d * d) * z1)

    def __str__(self) -> str:
        return f"skewnormal({self.location:g},{self.scale:g},{self.shape:g})"


Population = Union[Weibull, ChiSquare, SkewNormal]


def _cdf_inverse(pop: SkewNormal, t: float) -> float:
    """Smallest x with cdf(x) >= t, by bracketed bisection on the CDF."""
    lo = -1.0
    while pop.cdf(lo) >= t:
        lo *= 2.0
    hi = max(1.0, 2.0 * abs(lo))
    while pop.cdf(hi) < t:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError(f"quantile bracket for t={t} did not close")
    while (hi - lo) > 1e-12 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if pop.cdf(mid) >= t:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seeding: (master_seed, stream_id) plus a replication
    index fan out into independent PCG64 streams via SeedSequence spawn
    keys.  Streams depend only on these integers, never on the method or
    grid cell, so all methods see identical draws."""

    master_seed: int = 0
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = _integer(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)

    def generator(self, replication: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, replication)
        )
        return np.random.Generator(np.random.PCG64(ss))


def sample(pop: Population, n: int, seed: SeedSpec, replication: int = 0) -> Sample:
    """Draw a reproducible Sample of n >= 2 values from the population; replication >= 0."""
    n, replication = _integer(n, "n"), _integer(replication, "replication")
    if n < 2:
        raise DomainError(f"sample size must be at least 2, got {n}")
    if replication < 0:
        raise ValueError(f"replication must be non-negative, got {replication}")
    return Sample(pop.draw(seed.generator(replication), n))


def true_ordinate(pop: Population, t: float) -> float:
    """Exact generalized Lorenz ordinate: the partial mean of X below the
    t-th population quantile, in the closed form of the population's family.

    Raises NonFinite when the value overflows, which happens only for
    Weibull shapes below about 0.006, where Gamma(1 + 1/a) and the mean are
    already infinite.
    """
    t = _check_t(t)
    val = float(pop._ordinate(t))
    if not math.isfinite(val):
        raise NonFinite(f"ordinate of {pop} at t={t} is {val}")
    return val
