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
    EstimatingValues,
    LagrangeSolution,
    LogRatioValue,
    Sample,
    VariantKind,
    estimating_values,
    log_el_ratio,
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
from .variants import (
    adjustment_factor,
    ael_augment,
    log_ael_ratio,
    log_ratio,
    log_tael_ratio,
    tel_transform,
)

__version__ = "0.1.0"

__all__ = [
    "Sample",
    "VariantKind",
    "EstimatingValues",
    "LagrangeSolution",
    "LogRatioValue",
    "sample_quantile",
    "point_estimate",
    "truncated_values",
    "estimating_values",
    "solve_lambda",
    "log_el_ratio",
    "adjustment_factor",
    "ael_augment",
    "log_ael_ratio",
    "tel_transform",
    "log_tael_ratio",
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
