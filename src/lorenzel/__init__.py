"""Empirical-likelihood inference for generalized Lorenz ordinates.

Point estimation, four calibrations of the profile log-likelihood ratio
(plain, adjusted, transformed, transformed-adjusted), chi-square-scaled
confidence intervals, exact population ordinates, a Monte-Carlo harness,
and income-CSV utilities.
"""
from . import calibration, core, errors, income, intervals, populations, simulation, variants
from .calibration import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .income import *  # noqa: F401,F403
from .intervals import *  # noqa: F401,F403
from .populations import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .variants import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, variants, calibration, intervals, populations, simulation,
                   income, errors)
    for name in module.__all__
] + ["__version__"]
