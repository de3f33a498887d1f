"""Shared fitting helpers: power laws, threshold crossings, standard errors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FitResult",
    "ThresholdScaling",
    "line_fit",
    "power_law_fit",
    "fit_through_origin",
    "crossing_loglinear",
    "curves_by_n",
    "threshold_scaling",
    "standard_error",
]


@dataclass(frozen=True)
class FitResult:
    """Generic fit output: estimates, errors, residuals and provenance.

    mask records exactly which input points entered the regression so a
    fit can be reproduced from the table it came from.
    """

    model: str
    params: dict
    stderr: dict
    residual_norm: float
    mask: tuple = ()
    window: tuple | None = None


@dataclass(frozen=True)
class ThresholdScaling:
    """Per-N crossing points plus the power-law fit of their N dependence."""

    thresholds: dict          # N -> crossing value of the scanned parameter
    fit: FitResult
    skipped: tuple = field(default_factory=tuple)  # (N, reason) pairs


def standard_error(samples) -> np.ndarray:
    """Sample std (ddof 1) / sqrt(n) over the first axis; zero for one sample."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n == 1:
        return np.zeros(samples.shape[1:])
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def line_fit(x, y):
    """Least-squares line y = a x + b; returns a, b, stderr(a), r2, rss."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise ValueError("x values are all identical")
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - slope * x - intercept
    rss = float(np.sum(resid ** 2))
    tss = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if tss == 0 else 1.0 - rss / tss
    slope_err = np.sqrt(rss / (n - 2) / sxx) if n > 2 else np.nan
    return slope, intercept, slope_err, r2, rss


def power_law_fit(x, y, model: str = "power-law", mask: tuple = ()) -> FitResult:
    """Fit y = c x^p by least squares on (log x, log y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    p, logc, p_err, r2, rss = line_fit(np.log(x), np.log(y))
    return FitResult(
        model=model,
        params={"exponent": float(p), "prefactor": float(np.exp(logc))},
        stderr={"exponent": float(p_err)},
        residual_norm=float(np.sqrt(rss)),
        mask=tuple(mask) if len(mask) else tuple(range(x.shape[0])),
    )


def fit_through_origin(x, y):
    """Least squares for y = k x without intercept; returns k, stderr, rss."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sxx = float(np.sum(x * x))
    if sxx == 0:
        raise ValueError("x values are all zero")
    k = float(np.sum(x * y) / sxx)
    resid = y - k * x
    rss = float(np.sum(resid ** 2))
    n = x.shape[0]
    k_err = float(np.sqrt(rss / (n - 1) / sxx)) if n > 1 else np.nan
    return k, k_err, rss


def crossing_loglinear(x, values, target):
    """x at which `values` first crosses `target`, interpolating in log x.

    Scans consecutive pairs for a sign change of (value - target) and
    interpolates linearly in (log x, value).  Grid points that hit the
    target exactly are returned as-is.  Returns None when the curve
    never crosses.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.any(x <= 0):
        raise ValueError("crossing grid must be strictly positive")
    d = v - float(target)
    for i in range(d.shape[0]):
        if d[i] == 0.0:
            return float(x[i])
        if i and d[i - 1] * d[i] < 0.0:
            lx = np.log(x[i - 1]) + (0.0 - d[i - 1]) / (d[i] - d[i - 1]) \
                * (np.log(x[i]) - np.log(x[i - 1]))
            return float(np.exp(lx))
    return None


def curves_by_n(triples) -> dict:
    """N -> (x grid, values) of (N, x, value) triples, each curve sorted
    by x: the input threshold_scaling expects."""
    pairs = {}
    for n, x, value in triples:
        pairs.setdefault(n, []).append((x, value))
    curves = {}
    for n, curve in pairs.items():
        curve.sort()
        curves[n] = (np.array([x for x, _ in curve]), np.array([v for _, v in curve]))
    return curves


def threshold_scaling(curves: dict, target, model: str) -> ThresholdScaling:
    """Crossing point per N plus the power-law exponent of its N dependence.

    curves maps N -> (x_grid, values); non-finite values (refused
    estimates) are dropped before locating the crossing.  Entries whose
    curve never crosses the target are reported in `skipped` and left out
    of the fit.
    """
    thresholds, skipped = {}, []
    for n, (grid, vals) in curves.items():
        vals = np.asarray(vals, dtype=float)
        ok = np.isfinite(vals)
        xc = crossing_loglinear(np.asarray(grid, dtype=float)[ok], vals[ok], target)
        if xc is None:
            skipped.append((n, "target not crossed within the grid"))
        else:
            thresholds[n] = xc
    if len(thresholds) < 2:
        raise ValueError(
            f"target {target} crossed for {len(thresholds)} chain lengths only; "
            f"skipped: {skipped}")
    ns = np.array(sorted(thresholds), dtype=float)
    xc = np.array([thresholds[int(n)] for n in ns])
    fit = power_law_fit(ns, xc, model=model)
    return ThresholdScaling(thresholds=thresholds, fit=fit, skipped=tuple(skipped))
