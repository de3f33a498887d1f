"""Modified box counting for fidelity time series.

Each window of length L contributes its largest excursion Delta_i
(max - min of the curve inside the window); M(L) = sum_i Delta_i / L
then scales as L^(-D) over a window of box lengths, and D is the fractal
dimension of the signal: 1 for a straight line, 2 for a long periodic
curve, in between for fractal signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import TridiagonalHamiltonian, _readonly, grid_cells, hamiltonian_block
from .evolve import FidelitySeries, fidelity_series, series_length
from .fitting import FitResult, line_fit, standard_error

__all__ = [
    "DegenerateSeriesError",
    "WindowSelectionError",
    "TrimResult",
    "BoxCountCurve",
    "transient_trim",
    "default_box_counts",
    "box_count",
    "fit_dimension",
    "dimension_of_series",
    "dimension_scan",
    "DIMENSION_HEADER",
]

TRIM_THRESHOLD = 0.55

# The admissible automatic fit window: at least MIN_POINTS grid points
# spanning at least a factor MIN_RATIO in L, fitting a line with
# R^2 >= R2_MIN.
R2_MIN = 0.995
MIN_POINTS = 6
MIN_RATIO = 10.0

# The columns of dimension_scan's rows.
DIMENSION_HEADER = ("n_sites", "eps_j", "dimension", "stderr", "refused")


class DegenerateSeriesError(ValueError):
    """The series is constant: every excursion vanishes, no dimension."""


class WindowSelectionError(RuntimeError):
    """No box-length window met the linearity requirements."""


class TrimResult(NamedTuple):
    start: int
    reached: bool


@dataclass(frozen=True)
class BoxCountCurve:
    """Box lengths L = n dt (time units) and M(L), in increasing L."""

    lengths: np.ndarray
    m_values: np.ndarray

    def __post_init__(self):
        for name in ("lengths", "m_values"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def transient_trim(f) -> TrimResult:
    """Where the transient of the fidelity samples f ends: the first index
    with F <= TRIM_THRESHOLD, or 0 with reached=False if there is none.
    """
    hit = np.asarray(f) <= TRIM_THRESHOLD
    start = int(np.argmax(hit))
    return TrimResult(start, bool(hit[start]))


def default_box_counts(n_samples: int) -> np.ndarray:
    """Geometric grid of box sizes in samples, ratio 2^(1/4), from 4 to
    (n_samples - 1) // 8: box lengths 4 dt to T/8.

    The bounds keep the grid away from the coarse-grain regime at the
    sample scale and the finite-length regime near the full duration.
    """
    max_count = (n_samples - 1) // 8
    if max_count < 4:
        raise ValueError(f"series too short for box counting ({n_samples} samples)")
    counts, c = [], 4.0
    while round(c) <= max_count:
        counts.append(round(c))
        c *= 2.0 ** 0.25
    return np.unique(counts)


def box_count(f, dt: float, counts=None) -> BoxCountCurve:
    """Sum of per-window excursions over L for each box of n samples,
    L = n dt, of the signal f sampled every dt.

    Windows span [i L, (i+1) L] including both boundary samples; an
    incomplete window at the end of the series is dropped.  Each count n
    must be an integer in [1, len(f) - 1], default_box_counts(len(f))
    when none are given; every count is checked before any is counted.

    A box of n samples takes one of two exact passes over its k windows
    (see `_excursions`): short boxes fold the n - 1 interior columns
    f[j::n] into the max and min of neighbouring boundary samples, long
    boxes reduce the rows of f[:k n] reshaped to (k, n) and fold in the
    right boundary.  Max and min are exact and the excursions are summed
    as one length-k array, so M(L) is the same to the last bit as the
    window-by-window count.
    """
    f = np.asarray(f, dtype=float)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt!r} must be finite and > 0")
    counts = np.atleast_1d(default_box_counts(f.shape[0]) if counts is None else counts)
    for n in counts:
        if not (float(n).is_integer() and 1 <= n <= f.shape[0] - 1):
            raise ValueError(f"box count {n} is not an integer in [1, {f.shape[0] - 1}]")
    counts = np.sort(counts.astype(int))
    lengths = counts * dt
    m_values = [_excursions(f, n).sum() / length for n, length in zip(counts, lengths)]
    return BoxCountCurve(lengths=lengths, m_values=m_values)


# Boxes of up to _SHORT_BOX grid steps fold columns; longer ones reduce
# rows.  Each column pass carries a few microseconds of call overhead
# and each row reduction a fixed cost per row, so neither pass wins at
# every n.  Whole default-grid box_count, best of 25 on one core of a
# 2-core host, dt = 0.05, in ms by cut-off:
#                                     16    32    45    54    64   rows only
#   N = 500, eps_j = 0.26, T = 1e3:   2.0   1.8   1.7   1.7   1.7     5.0
#   N = 100, eps_j = 1.2,  T = 1e3:   2.1   1.7   1.7   1.7   1.7     5.0
#   N = 500, eps_j = 0.26, T = 1e4:  18.7  15.6  15.3  14.6  14.6    46.9
#   N = 100, eps_j = 0.6,  T = 1e4:  17.8  14.7  13.6  13.3  13.4    45.9
# The cut-off takes the default grid's 54 and leaves its 64 (a power of
# two, whose column stride is the slowest) to the rows.
_SHORT_BOX = 54


def _excursions(f, n):
    """max - min of each complete window f[i n : (i + 1) n + 1]."""
    end = (f.shape[0] - 1) // n * n
    if n <= _SHORT_BOX:
        left, right = f[0:end:n], f[n:end + 1:n]
        hi, lo = np.maximum(left, right), np.minimum(left, right)
        for j in range(1, n):
            column = f[j:j + end:n]
            np.maximum(hi, column, out=hi)
            np.minimum(lo, column, out=lo)
    else:
        rows = f[:end].reshape(-1, n)
        hi, lo = rows.max(axis=1), rows.min(axis=1)
        right = f[n:end + 1:n]
        np.maximum(hi, right, out=hi)
        np.minimum(lo, right, out=lo)
    return hi - lo


def _auto_window(lengths, logl, logm):
    """Most linear interior sub-grid: >= MIN_POINTS points spanning
    >= MIN_RATIO in L, with R^2 >= R2_MIN.

    The first and last grid points never qualify (coarse-grain and
    finite-length regimes).  Among qualifying windows the one with the
    highest R^2 wins: box-count curves are smooth enough that a window
    straddling two scaling regimes still shows R^2 ~ 0.999, so taking
    the longest window instead would absorb regime crossovers and bias
    the slope (a strictly periodic signal then reads D ~ 1.9 rather
    than 2).  Near-exact ties go to the longer window, then to the one
    farthest from the grid ends.  Every candidate's R^2 comes from one
    pass over prefix sums; candidates run in (i, j) order, and the first
    of equal keys wins.

    Returns (best, closest): best is (i, j, R^2) of the chosen window, or
    None when no window qualifies; closest is ((L_i, L_j), R^2) of the
    highest-R^2 window of any R^2 (the first one on exact ties), or
    (None, -inf) when no window spans MIN_RATIO.
    """
    n = lengths.shape[0]
    z = np.zeros(1)
    sx, sy, sxx, sxy, syy = (np.concatenate([z, np.cumsum(v)])
                             for v in (logl, logm, logl * logl, logl * logm, logm * logm))
    i, j = np.triu_indices(n - 1, MIN_POINTS - 1)
    keep = (i >= 1) & (lengths[j] / lengths[i] >= MIN_RATIO)
    i, j = i[keep], j[keep]
    if i.size == 0:
        return None, (None, -np.inf)
    count = j - i + 1
    px = sx[j + 1] - sx[i]
    py = sy[j + 1] - sy[i]
    cxx = (sxx[j + 1] - sxx[i]) - px * px / count
    cxy = (sxy[j + 1] - sxy[i]) - px * py / count
    cyy = (syy[j + 1] - syy[i]) - py * py / count
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = cyy - cxy * cxy / cxx
        r2 = np.where(cxx <= 0, -np.inf,
                      np.where(cyy <= 0, np.where(np.abs(rss) < 1e-30, 1.0, -np.inf),
                               1.0 - rss / cyy))
    k = int(np.argmax(r2))
    closest = ((None, -np.inf) if r2[k] == -np.inf
               else ((float(lengths[i[k]]), float(lengths[j[k]])), r2[k]))
    best = np.flatnonzero(r2 >= R2_MIN)
    if best.size == 0:
        return None, closest
    # the key, compared in turn: R^2 to 9 decimals (np.round, which is
    # what round() does on numpy scalars), length, distance from the grid
    # ends, centring; the first remaining candidate wins
    for key in (np.round(r2, 9), j - i, np.minimum(i, (n - 1) - j),
                -np.abs(i - ((n - 1) - j))):
        best = best[key[best] == key[best].max()]
    c = best[0]
    return (int(i[c]), int(j[c]), r2[c]), closest


def fit_dimension(curve: BoxCountCurve, window=None) -> FitResult:
    """Fractal dimension D = -slope of log M vs log L.

    With an explicit window (L_min, L_max) the fit uses every grid point
    inside it (at least MIN_POINTS required).  Otherwise the window is
    selected automatically among the interior sub-grids (both grid ends
    excluded) that hold at least MIN_POINTS, span at least a factor
    MIN_RATIO in L and fit a line with R^2 >= R2_MIN: the one with the
    highest R^2 wins, near-exact ties going to the longer window.  When
    no sub-grid qualifies the fit is refused, which is the expected
    outcome for weakly disordered chains whose scaling region collapses.
    """
    lengths, m = curve.lengths, curve.m_values
    if np.all(m <= 0):
        raise DegenerateSeriesError(
            "all excursions vanish (constant series), dimension undefined")
    keep = m > 0
    lengths, m = lengths[keep], m[keep]
    logl, logm = np.log(lengths), np.log(m)
    grid_index = np.flatnonzero(keep)

    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        sel = (lengths >= lo * (1 - 1e-12)) & (lengths <= hi * (1 + 1e-12))
        if int(sel.sum()) < MIN_POINTS:
            raise ValueError(
                f"window [{lo}, {hi}] holds {int(sel.sum())} grid points, "
                f"need >= {MIN_POINTS}")
        i, j = int(np.argmax(sel)), int(len(sel) - 1 - np.argmax(sel[::-1]))
    else:
        found, (closest, closest_r2) = _auto_window(lengths, logl, logm)
        if found is None:
            raise WindowSelectionError(
                "no contiguous box-length window spanning "
                f">= {MIN_RATIO}x reached R^2 >= {R2_MIN}; best candidate "
                f"window={closest} with R^2={closest_r2:.6f}")
        i, j, _ = found

    slope, intercept, slope_err, r2, rss = line_fit(logl[i:j + 1], logm[i:j + 1])
    return FitResult(
        model="box-dimension",
        params={"dimension": float(-slope), "log_prefactor": float(intercept),
                "r_squared": float(r2)},
        stderr={"dimension": float(slope_err)},
        residual_norm=float(np.sqrt(rss)),
        mask=tuple(int(g) for g in grid_index[i:j + 1]),
        window=(float(lengths[i]), float(lengths[j])),
    )


def dimension_of_series(series: FidelitySeries, window=None):
    """Trim the transient, box count the rest on the series' own dt, and
    fit on fit_dimension's window: (FitResult, BoxCountCurve, TrimResult).
    """
    trim = transient_trim(series.fidelity)
    curve = box_count(series.fidelity[trim.start:], series.dt)
    return fit_dimension(curve, window=window), curve, trim


def dimension_scan(n_values, eps_j_grid, n_real: int, master_seed: int,
                   t_max: float = 1e4, dt: float = 0.05):
    """Mean fractal dimension over the (N, eps_j) grid: (rows, refusals).

    The dimension is fitted per realization and the fits averaged
    (averaging the fidelity first would restore periodicity and destroy
    the fractal signal).  Rows are in DIMENSION_HEADER order (N, eps_j,
    mean D, its standard error, refused realizations), NaN D where all
    are refused or degenerate; each refusal is {n_sites, eps_j,
    realization, note}.  Cells are ordered and keyed by chain.grid_cells.
    n_real, then t_max and dt (a series long enough to box count), are
    checked before anything is drawn.
    """
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    default_box_counts(series_length(t_max, dt))
    rows, refusals = [], []
    for spec, key in grid_cells(n_values, eps_j_grid):
        diag, offdiag = hamiltonian_block(spec, master_seed, key, range(n_real))
        dims = []
        for r in range(n_real):
            h = TridiagonalHamiltonian(diag=diag[r], offdiag=offdiag[r])
            try:
                fit, _, _ = dimension_of_series(fidelity_series(h, t_max, dt))
            except (WindowSelectionError, DegenerateSeriesError) as err:
                refusals.append({"n_sites": spec.n_sites, "eps_j": spec.eps_j,
                                 "realization": r, "note": f"{type(err).__name__}: {err}"})
                continue
            dims.append(fit.params["dimension"])
        stats = (float(np.mean(dims)), float(standard_error(dims))) if dims else (np.nan,) * 2
        rows.append((spec.n_sites, spec.eps_j, *stats, n_real - len(dims)))
    return rows, refusals
