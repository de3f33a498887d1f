"""Batch fidelity scans over disorder grids, scaling fits, thresholds.

These reproduce the figure pipelines: averaged fidelity at the first
transfer time t1 = pi/4 as a function of disorder strength and chain
length, the exponential scaling collapse with constants kappa_j and
kappa_b, threshold disorder strengths versus N, and the perturbative
cross-check.  The sign-correlation probability corr_p is a grid axis
like eps_b; cells that differ only in corr_p share their draws.
Every cell of a scan draws from its own random stream, keyed as
chain.grid_cells lays the grid out, so tables are bit-reproducible and
cells could be evaluated in any order.  A scan makes one
ensemble_averages call for its whole grid, and a perturbation
comparison one call for all of its sectors.

The scan table's columns are the fields of FidelityPoint; points_from_rows
reads them back and refuses any other header.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, grid_cells
from .evolve import ensemble_averages, transfer_time
from .fitting import FitResult, curves_by_n, fit_through_origin, power_law_fit
from .perturbation import (compute_coefficients, infidelity_sums,
                           perturbative_fidelity, require_transfer_time)

__all__ = [
    "FidelityPoint",
    "points_from_rows",
    "scan_fidelity",
    "fit_scaling",
    "threshold_curves",
    "perturbation_comparison",
    "PerturbationRow",
    "SCALING_MASK_FLOOR",
]

# Rows with 2 F - 1 at or below this floor sit on the saturated F ~ 1/2
# plateau where the scaling model's log is meaningless; they are masked
# out of the kappa regressions.
SCALING_MASK_FLOOR = 0.05


class FidelityPoint(NamedTuple):
    """One row of a scan table; the fields are its columns, in order."""

    n_sites: int
    eps_j: float
    eps_b: float
    corr_p: float
    fbar: float
    stderr: float
    n_real: int


def points_from_rows(header, rows) -> list:
    """FidelityPoints of a scan table's rows; any other header raises
    ValueError naming the expected and the found header."""
    if tuple(header) != FidelityPoint._fields:
        raise ValueError(f"expected a scan table with header "
                         f"{','.join(FidelityPoint._fields)}, found {','.join(header)}")
    return [FidelityPoint(int(r[0]), *r[1:6], int(r[6])) for r in rows]


def scan_fidelity(n_values, eps_j_grid, n_real: int, master_seed: int,
                  eps_b_grid=(0.0,), corr_p_grid=(0.5,), t_eval: float | None = None) -> list:
    """Averaged fidelity at t_eval (default t1 = pi / 4) over the
    (corr_p, N, eps_j, eps_b) grid.

    Rows come out in the order and with the stream keys of
    chain.grid_cells (corr_p outer, then N, eps_j and eps_b); the keys do
    not depend on corr_p.  The whole grid goes through one ensemble_averages call,
    which refuses n_real < 1 before drawing; an empty grid gives no rows.
    """
    cells = grid_cells(n_values, eps_j_grid, eps_b_grid, corr_p_grid)
    t_list = [transfer_time() if t_eval is None else t_eval]
    results = ensemble_averages(cells, n_real, master_seed, t_list)
    return [FidelityPoint(spec.n_sites, spec.eps_j, spec.eps_b, spec.corr_p,
                          float(mean[0]), float(err[0]), n_real)
            for (spec, _), (mean, err) in zip(cells, results)]


def _one_corr_p(points):
    """Refuse points that pool several sign-correlation probabilities.

    Each corr_p is its own fidelity curve, so a fit or a threshold over
    rows of several would match none of them.
    """
    values = sorted({p.corr_p for p in points})
    if len(values) > 1:
        raise ValueError("the points mix corr_p values "
                         + ", ".join(format(v, "g") for v in values)
                         + "; select the rows of one corr_p")


def fit_scaling(points) -> FitResult:
    """Scaling constants of F = (1 + exp(-k_j N e_j^2 - k_b e_b^2 / N)) / 2.

    The transform y = ln(2F - 1) makes both constants linear-regression
    slopes through the origin: y = -kappa_j (N eps_j^2) on pure coupling
    rows and y = -kappa_b (eps_b^2 / N) on pure field rows.  Rows with
    2F - 1 <= SCALING_MASK_FLOOR are masked out.  Each constant needs at least
    four usable rows; a constant whose rows are absent entirely is
    simply not reported.  Points of more than one corr_p are refused.
    """
    _one_corr_p(points)
    sectors = (("kappa_j", "coupling", "eps_j", "eps_b",
                lambda p: -p.n_sites * p.eps_j ** 2),
               ("kappa_b", "field", "eps_b", "eps_j",
                lambda p: -p.eps_b ** 2 / p.n_sites))
    params, stderr, rss_total, used = {}, {}, 0.0, []
    for name, label, param, other, x_of_point in sectors:
        pure = [i for i, p in enumerate(points)
                if getattr(p, param) > 0 and getattr(p, other) == 0]
        if not pure:
            continue
        rows = [i for i in pure if 2 * points[i].fbar - 1 > SCALING_MASK_FLOOR]
        if len(rows) < 4:
            raise ValueError(f"only {len(rows)} usable pure-{label} rows, need >= 4")
        x = np.array([x_of_point(points[i]) for i in rows])
        y = np.array([np.log(2.0 * points[i].fbar - 1.0) for i in rows])
        params[name], stderr[name], rss = fit_through_origin(x, y)
        rss_total += rss
        used += rows
    if not params:
        raise ValueError("no pure-disorder rows to fit")
    return FitResult(model="fidelity-scaling", params=params, stderr=stderr,
                     residual_norm=float(np.sqrt(rss_total)), mask=tuple(used))


def threshold_curves(points, param: str) -> dict:
    """Per-N curves of F(t1) against param, from the pure rows of param.

    The other disorder amplitude must be zero, and param positive: the
    input of threshold_scaling.  An unknown param, points of more than
    one corr_p and a table with no pure rows raise ValueError.
    """
    if param not in ("eps_j", "eps_b"):
        raise ValueError(f"param must be eps_j or eps_b, got {param!r}")
    _one_corr_p(points)
    other = "eps_b" if param == "eps_j" else "eps_j"
    curves = curves_by_n((p.n_sites, getattr(p, param), p.fbar) for p in points
                         if getattr(p, other) == 0.0 and getattr(p, param) > 0.0)
    if not curves:
        raise ValueError(f"no pure {param} rows in the table")
    return curves


class PerturbationRow(NamedTuple):
    """One row of a perturbation table; the fields are its columns, in order."""

    sector: str
    eps: float
    fbar_mc: float
    stderr: float
    f_pert: float
    infid_mc: float
    infid_pert: float
    ratio: float
    mc_over_sector_sum: float


def perturbation_comparison(n_sites: int, eps_values, sectors, n_real: int,
                            master_seed: int, t: float | None = None) -> tuple[list, dict]:
    """Monte-Carlo infidelity against the perturbative formula per eps.

    sectors holds "j" (coupling disorder) and/or "b" (field disorder).
    Returns (rows, sectors): the PerturbationRows, sector by sector in
    the order given and eps ascending, and per sector its sidecar entry
    {"sector_sum", "slope_fit", "t"}, slope_fit being the log-log slope
    of the MC infidelity vs eps on the rows where both are positive
    (None below two distinct eps there).
    mc_over_sector_sum is the fitted prefactor ratio between the Monte
    Carlo and the plain sector sum (the formula's own is eps^2/9).

    The clean chain's coefficients are computed once for every sector,
    and the cells of every sector go through one ensemble_averages call;
    the cell of the ei-th smallest eps draws with key (ei,) in either
    sector, so a one-sector call gives that sector's rows bit for bit.

    Raises ValueError, before anything is drawn, for an unknown sector and
    when t (default pi / 4) is no perfect-transfer time of the clean
    chain, where the perturbative formula does not apply.
    """
    for sector in sectors:
        if sector not in ("j", "b"):
            raise ValueError(f"sector must be 'j' or 'b', got {sector!r}")
    coefficients = compute_coefficients(n_sites, t)
    require_transfer_time(coefficients)
    field_sum, coupling_sum = infidelity_sums(coefficients)
    sector_sums = {"j": coupling_sum, "b": field_sum}

    eps_sorted = sorted(float(x) for x in eps_values)
    cells = [(sector, eps, {"eps_j": eps} if sector == "j" else {"eps_b": eps}, ei)
             for sector in sectors for ei, eps in enumerate(eps_sorted)]
    averages = ensemble_averages(
        [(ChainSpec(n_sites=n_sites, **kw), (ei,))
         for _, _, kw, ei in cells], n_real, master_seed, [coefficients.time])
    rows = []
    for (sector, eps, kw, _), (mean, err) in zip(cells, averages):
        f_pert = perturbative_fidelity(coefficients, **kw)
        infid_mc = 1.0 - float(mean[0])
        infid_pert = 1.0 - f_pert
        rows.append(PerturbationRow(
            sector, eps, float(mean[0]), float(err[0]), f_pert, infid_mc, infid_pert,
            infid_mc / infid_pert if infid_pert else np.nan,
            infid_mc / (sector_sums[sector] * eps ** 2)
            if sector_sums[sector] and eps else np.nan))

    summaries = {}
    for sector in sectors:
        eps_arr = np.array([r.eps for r in rows if r.sector == sector])
        infid = np.array([r.infid_mc for r in rows if r.sector == sector])
        ok = (infid > 0) & (eps_arr > 0)
        summaries[sector] = {
            "sector_sum": sector_sums[sector],
            "slope_fit": (power_law_fit(eps_arr[ok], infid[ok], model="mc-infidelity",
                                        mask=tuple(np.flatnonzero(ok)))
                          if np.unique(eps_arr[ok]).size >= 2 else None),
            "t": coefficients.time,
        }
    return rows, summaries
