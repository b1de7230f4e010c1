"""Income-table ingestion and empirical Lorenz curves.

Loads a CSV of incomes (optionally tagged with a grouping column such as
state), drops unusable rows with a counted warning, and turns a sample
into generalized and relative Lorenz curve points on a grid of abscissae.
"""
from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Sample, sample_quantile
from .errors import DomainError, FileError, NonFinite, SchemaError

__all__ = [
    "IncomeTable",
    "CurvePoints",
    "load_csv",
    "curve",
    "write_curve_csv",
]


@dataclass(frozen=True)
class IncomeTable:
    """Parsed income values, optional group labels, and the dropped-row count."""

    values: np.ndarray
    groups: Optional[tuple]  # one label per value, or None
    dropped: int

    @property
    def n(self) -> int:
        return self.values.size

    def group_labels(self) -> tuple:
        """Distinct group labels in first-appearance order."""
        if self.groups is None:
            return ()
        seen = dict.fromkeys(self.groups)
        return tuple(seen)

    def filter(self, group) -> "IncomeTable":
        """Rows whose group label equals ``group`` (case-sensitive)."""
        if self.groups is None:
            raise SchemaError("table was loaded without a group column")
        # one elementwise == over the labels; a 0-d key is compared whole,
        # whatever its type
        labels = np.fromiter(self.groups, dtype=object, count=len(self.groups))
        key = np.empty((), dtype=object)
        key[()] = group
        mask = labels == key
        return IncomeTable(values=self.values[mask], groups=tuple(labels[mask].tolist()),
                           dropped=self.dropped)

    def sample(self) -> Sample:
        return Sample(self.values)


def load_csv(path, value_column: str, group_column: Optional[str] = None) -> IncomeTable:
    """Read incomes out of a CSV file.

    Rows whose value cell is missing, non-numeric, or non-finite are
    dropped; the count is recorded on the table and reported once via
    ``warnings.warn``.  Raises FileError when the file cannot be read or
    parsed as CSV and SchemaError when a requested column is absent.
    """
    values: list[float] = []
    groups: list = []
    dropped = 0
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = next(reader, [])
            # a repeated name means its last column, as in a csv.DictReader row
            index = {name: i for i, name in enumerate(names)}
            if value_column not in index:
                raise SchemaError(f"column {value_column!r} not found in {path} "
                                  f"(have: {', '.join(names)})")
            if group_column is not None and group_column not in index:
                raise SchemaError(f"column {group_column!r} not found in {path} "
                                  f"(have: {', '.join(names)})")
            col = index[value_column]
            group_col = index[group_column] if group_column is not None else None
            for row in reader:
                if not row:  # a blank line is no row
                    continue
                try:
                    val = float(row[col])
                except (IndexError, ValueError):  # a short row has no value cell
                    dropped += 1
                    continue
                if not math.isfinite(val):
                    dropped += 1
                    continue
                values.append(val)
                if group_col is not None:
                    groups.append(row[group_col] if group_col < len(row) else None)
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"cannot read {path}: {exc}")
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise FileError(f"cannot parse {path}, line {reader.line_num}: {exc}")
    if dropped:
        warnings.warn(f"dropped {dropped} unusable row(s) from {path}")
    return IncomeTable(values=np.asarray(values, dtype=float),
                       groups=tuple(groups) if group_column is not None else None,
                       dropped=dropped)


@dataclass(frozen=True)
class CurvePoints:
    """Generalized and relative Lorenz ordinates on a grid.

    ``lorenz`` is ``generalized / mu_hat``; at any t whose quantile index
    reaches n, both curves close exactly (lorenz hits 1.0 bit-for-bit,
    because the same summation produces numerator and denominator).
    """

    grid: np.ndarray
    generalized: np.ndarray
    lorenz: np.ndarray
    mu_hat: float


def curve(s: Sample, grid: Sequence[float]) -> CurvePoints:
    """Evaluate the empirical curves at each abscissa in ``grid``.

    Raises DomainError when the sample mean is not positive, since the
    relative Lorenz curve divides by it, and NonFinite when the sum of the
    values overflows.
    """
    grid = np.asarray([float(t) for t in grid])
    # one running sum of the sorted values gives every ordinate and the mean;
    # it overflows only if its total does, which the mean then shows
    with np.errstate(over="ignore"):
        totals = np.cumsum(s.values)
    mu_hat = float(totals[-1] / s.n)
    if not math.isfinite(mu_hat):
        raise NonFinite(f"the running sum of the values overflows, so the mean is {mu_hat:g}")
    if not mu_hat > 0.0:
        raise DomainError(f"the Lorenz curve needs a positive mean, got {mu_hat:g}")
    # m values lie at or below each quantile, ties at it included
    m = np.searchsorted(s.values, [sample_quantile(s, t) for t in grid], side="right")
    gen = totals[m - 1] / s.n
    return CurvePoints(grid=grid, generalized=gen, lorenz=gen / mu_hat, mu_hat=mu_hat)


def write_curve_csv(points: CurvePoints, dest, precision: Optional[int] = None) -> None:
    """Write columns t,lorenz,generalized,diagonal (diagonal = t, the line
    of perfect equality, for plotting convenience)."""
    _write_table(dest, ["t", "lorenz", "generalized", "diagonal"],
                 ([f"{t:.10g}", _fmt(lz, precision), _fmt(gl, precision), f"{t:.10g}"]
                  for t, lz, gl in zip(points.grid, points.lorenz, points.generalized)))


def _fmt(x, precision: Optional[int]) -> str:
    """A table cell: "" for None, full-precision repr when ``precision`` is
    None, otherwise fixed-point (either way a nan of any sign is "nan")."""
    if x is None:
        return ""
    x = float(x)
    return repr(x) if precision is None else f"{x:.{precision}f}"


def _write_table(dest, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table to ``dest``: '-' (stdout), a text file object, or a
    path, which is opened before the first row is drawn from ``rows``.

    Rows are written as they come, so a table whose rows fail partway
    keeps the header and the rows before the failure.  Raises FileError
    when the path cannot be opened for writing.
    """
    if dest == "-":
        fh = sys.stdout
    elif hasattr(dest, "write"):
        fh = dest
    else:
        try:
            fh = open(dest, "w", newline="")
        except OSError as exc:
            raise FileError(f"cannot write {dest}: {exc}")
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not dest and fh is not sys.stdout:
            fh.close()
