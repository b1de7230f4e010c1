"""Empirical-likelihood inference for generalized Lorenz ordinates.

Point estimation, four calibrations of the profile log-likelihood ratio
(plain, adjusted, transformed, transformed-adjusted), chi-square-scaled
confidence intervals, exact population ordinates, a Monte-Carlo harness,
and income-CSV utilities.
"""
from .calibration import (
    ScaleFactor,
    SignificanceLevel,
    chi2_crit,
    scale_factor,
    scaled_statistic,
)
from .core import (
    LagrangeSolution,
    Sample,
    VariantKind,
    adjustment_factor,
    point_estimate,
    sample_quantile,
    solve_lambda,
    truncated_values,
)
from .errors import (
    BracketFailure,
    ConvexHullViolation,
    DegenerateVariance,
    DomainError,
    FileError,
    LorenzELError,
    NonFinite,
    SchemaError,
)
from .income import CurvePoints, IncomeTable, curve, load_csv, write_curve_csv
from .intervals import ConfidenceInterval, invert
from .populations import (
    ChiSquare,
    Population,
    SeedSpec,
    SkewNormal,
    Weibull,
    sample,
    true_ordinate,
)
from .simulation import (
    CellResult,
    ExperimentConfig,
    run_cell,
    run_experiment,
    write_results_csv,
)
from .variants import log_ratio, tel_transform

__version__ = "0.1.0"

__all__ = [
    "Sample",
    "VariantKind",
    "LagrangeSolution",
    "sample_quantile",
    "point_estimate",
    "truncated_values",
    "solve_lambda",
    "adjustment_factor",
    "tel_transform",
    "log_ratio",
    "ScaleFactor",
    "SignificanceLevel",
    "scale_factor",
    "chi2_crit",
    "scaled_statistic",
    "ConfidenceInterval",
    "invert",
    "Weibull",
    "ChiSquare",
    "SkewNormal",
    "Population",
    "SeedSpec",
    "sample",
    "true_ordinate",
    "ExperimentConfig",
    "CellResult",
    "run_cell",
    "run_experiment",
    "write_results_csv",
    "IncomeTable",
    "CurvePoints",
    "load_csv",
    "curve",
    "write_curve_csv",
    "LorenzELError",
    "ConvexHullViolation",
    "NonFinite",
    "DegenerateVariance",
    "BracketFailure",
    "DomainError",
    "FileError",
    "SchemaError",
    "__version__",
]
