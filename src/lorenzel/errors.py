"""Exception hierarchy for empirical-likelihood Lorenz inference."""
from __future__ import annotations

__all__ = [
    "LorenzELError",
    "ConvexHullViolation",
    "NonFinite",
    "DegenerateVariance",
    "BracketFailure",
    "DomainError",
    "FileError",
    "SchemaError",
]


class LorenzELError(Exception):
    """Base class for all errors raised by this package."""


class ConvexHullViolation(LorenzELError):
    """Zero is not an interior point of the convex hull of the
    estimating values, so the constrained likelihood has no solution."""


class NonFinite(LorenzELError):
    """A computation produced (or received) a non-finite value."""


class DegenerateVariance(LorenzELError):
    """The plug-in variance of the centered truncated values is zero;
    the scale factor and hence the confidence interval are undefined."""


class BracketFailure(LorenzELError):
    """The scaled AEL (TAEL) statistic is bounded at or below the critical
    value, so the confidence set is the whole line, (-inf, inf).  The
    message gives the bound and the critical value."""


class DomainError(LorenzELError, ValueError):
    """A scalar argument lies outside its mathematical domain."""


class FileError(LorenzELError):
    """An input file could not be read, or an output could not be written."""


class SchemaError(LorenzELError):
    """An input table is missing a required column."""
