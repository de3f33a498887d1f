"""Batch fidelity scans over disorder grids, scaling fits, thresholds.

These reproduce the figure pipelines: averaged fidelity at the first
transfer time t1 = pi/(4J) as a function of disorder strength and chain
length, the exponential scaling collapse with constants kappa_j and
kappa_b, threshold disorder strengths versus N, and the perturbative
cross-check.  The correlated-sign variant is one scan per corr_p.
Every cell of a scan draws from a random stream keyed by (seed, N
index, grid index, realization index), so tables are bit-reproducible
and cells could be evaluated in any order.  A scan makes one
ensemble_averages call per N, and a perturbation comparison one call
for all of its sectors.

The scan table's columns are FidelityPoint.HEADER; points_from_rows
reads them back and refuses any other header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .evolve import ensemble_averages, transfer_time
from .fitting import (FitResult, ThresholdScaling, curves_by_n, fit_through_origin,
                      power_law_fit, threshold_scaling)
from .perturbation import (compute_coefficients, infidelity_sums,
                           perturbative_fidelity, require_transfer_time)

__all__ = [
    "ScanConfig",
    "FidelityPoint",
    "points_from_rows",
    "scan_fidelity",
    "fit_scaling",
    "threshold_curves",
    "threshold_extract",
    "perturbation_comparison",
    "SCALING_MASK_FLOOR",
]

# Rows with 2 F - 1 at or below this floor sit on the saturated F ~ 1/2
# plateau where the scaling model's log is meaningless; they are masked
# out of the kappa regressions.
SCALING_MASK_FLOOR = 0.05


@dataclass(frozen=True)
class ScanConfig:
    """Parameter grid for one fidelity scan.

    The evaluation time defaults to the first transfer time t1 of the
    clean chain.  The seed must be given explicitly; there is no
    entropy default anywhere in the pipeline.
    """

    n_values: tuple
    seed: int
    eps_j_values: tuple = (0.0,)
    eps_b_values: tuple = (0.0,)
    corr_p: float = 0.5
    n_real: int = 1000
    base_coupling: float = 1.0
    t_eval: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "eps_j_values", tuple(float(x) for x in self.eps_j_values))
        object.__setattr__(self, "eps_b_values", tuple(float(x) for x in self.eps_b_values))
        if not self.n_values or not self.eps_j_values or not self.eps_b_values:
            raise ValueError("parameter grids must be nonempty")
        if self.n_real < 1:
            raise ValueError("n_real must be >= 1")
        if self.seed is None:
            raise ValueError("an explicit seed is required")

    def evaluation_time(self) -> float:
        if self.t_eval is not None:
            return float(self.t_eval)
        return transfer_time(self.base_coupling)

    def metadata(self) -> dict:
        return {
            "n_values": " ".join(str(n) for n in self.n_values),
            "eps_j_values": " ".join(format(x, ".17g") for x in self.eps_j_values),
            "eps_b_values": " ".join(format(x, ".17g") for x in self.eps_b_values),
            "corr_p": self.corr_p,
            "n_real": self.n_real,
            "seed": self.seed,
            "base_coupling": self.base_coupling,
            "t_eval": self.evaluation_time(),
        }


@dataclass(frozen=True)
class FidelityPoint:
    n_sites: int
    eps_j: float
    eps_b: float
    corr_p: float
    fbar: float
    stderr: float
    n_real: int

    HEADER = ("n_sites", "eps_j", "eps_b", "corr_p", "fbar", "stderr", "n_real")

    def row(self) -> tuple:
        return (self.n_sites, self.eps_j, self.eps_b, self.corr_p,
                self.fbar, self.stderr, self.n_real)


def points_from_rows(header, rows) -> list:
    """FidelityPoints of a scan table's rows; any other header raises
    ValueError naming the expected and the found header."""
    if tuple(header) != FidelityPoint.HEADER:
        raise ValueError(f"expected a scan table with header "
                         f"{','.join(FidelityPoint.HEADER)}, found {','.join(header)}")
    return [FidelityPoint(n_sites=int(r[0]), eps_j=r[1], eps_b=r[2], corr_p=r[3],
                          fbar=r[4], stderr=r[5], n_real=int(r[6])) for r in rows]


def scan_fidelity(config: ScanConfig) -> list:
    """Averaged fidelity at the evaluation time over the (N, eps) grid.

    Rows come out in grid order (N outer, eps_j, then eps_b).  The
    stream key of a cell is (N index, flattened eps index, realization),
    independent of corr_p: the sampler consumes the same draws for any
    corr_p, so field-free scans of one grid at several corr_p share
    magnitudes and differ in signs only.  All cells of one N go through
    one ensemble_averages call.
    """
    points = []
    n_b = len(config.eps_b_values)
    t_list = [config.evaluation_time()]
    for ni, n_sites in enumerate(config.n_values):
        cells = [(ChainSpec(n_sites=n_sites, base_coupling=config.base_coupling,
                            eps_j=eps_j, eps_b=eps_b, corr_p=config.corr_p),
                  (ni, ji * n_b + bi))
                 for ji, eps_j in enumerate(config.eps_j_values)
                 for bi, eps_b in enumerate(config.eps_b_values)]
        results = ensemble_averages(cells, config.n_real, config.seed, t_list)
        for (spec, _), (mean, err) in zip(cells, results):
            points.append(FidelityPoint(
                n_sites=n_sites, eps_j=spec.eps_j, eps_b=spec.eps_b, corr_p=config.corr_p,
                fbar=float(mean[0]), stderr=float(err[0]), n_real=config.n_real))
    return points


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


def fit_scaling(points, mask_floor: float = SCALING_MASK_FLOOR) -> FitResult:
    """Scaling constants of F = (1 + exp(-k_j N e_j^2 - k_b e_b^2 / N)) / 2.

    The transform y = ln(2F - 1) makes both constants linear-regression
    slopes through the origin: y = -kappa_j (N eps_j^2) on pure coupling
    rows and y = -kappa_b (eps_b^2 / N) on pure field rows.  Rows with
    2F - 1 <= mask_floor are masked out.  Each constant needs at least
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
        rows = [i for i in pure if 2 * points[i].fbar - 1 > mask_floor]
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


def threshold_curves(points, param: str = "eps_j") -> dict:
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


def threshold_extract(points, f_target: float, param: str = "eps_j") -> ThresholdScaling:
    """Disorder strength where F(t1) crosses f_target, per N, plus exponent.

    Uses the pure rows of the requested parameter (threshold_curves).
    Crossings interpolate linearly in log eps; chains whose curve never
    reaches the target are reported in `skipped` and excluded from the
    power-law fit of eps_c vs N.  Points of more than one corr_p are
    refused.
    """
    return threshold_scaling(threshold_curves(points, param), f_target,
                             model=f"{param}-threshold")


def perturbation_comparison(n_sites: int, eps_values, sectors, n_real: int,
                            seed: int, base_coupling: float = 1.0,
                            t: float | None = None) -> dict:
    """Monte-Carlo infidelity against the perturbative formula per eps.

    sectors holds "j" (coupling disorder) and/or "b" (field disorder).
    Returns {sector: result}, each result holding the comparison rows,
    the log-log slope of the MC infidelity vs eps, and the fitted
    prefactor ratio between the Monte Carlo and the plain sector sum (the
    formula's own prefactor is eps^2/9).

    The clean chain's coefficients are computed once for every sector,
    and the cells of every sector go through one ensemble_averages call;
    the cell of the ei-th smallest eps draws with key (ei,) in either
    sector, so a one-sector call gives that sector's rows bit for bit.

    Raises ValueError, before anything is drawn, for an unknown sector and
    when t (default pi / (4J)) is no perfect-transfer time of the clean
    chain, where the perturbative formula does not apply.
    """
    for sector in sectors:
        if sector not in ("j", "b"):
            raise ValueError(f"sector must be 'j' or 'b', got {sector!r}")
    coefficients = compute_coefficients(n_sites, base_coupling, t)
    require_transfer_time(coefficients, base_coupling)
    t = coefficients.time
    field_sum, coupling_sum = infidelity_sums(coefficients)

    eps_sorted = sorted(float(x) for x in eps_values)
    cells = [(sector, eps, {"eps_j": eps} if sector == "j" else {"eps_b": eps}, ei)
             for sector in sectors for ei, eps in enumerate(eps_sorted)]
    averages = ensemble_averages(
        [(ChainSpec(n_sites=n_sites, base_coupling=base_coupling, **kw), (ei,))
         for _, _, kw, ei in cells], n_real, seed, [t])
    results = {sector: {"rows": [], "sector": sector, "t": t,
                        "sector_sum": coupling_sum if sector == "j" else field_sum}
               for sector in sectors}
    for (sector, eps, kw, _), (mean, err) in zip(cells, averages):
        sector_sum = results[sector]["sector_sum"]
        f_pert = perturbative_fidelity(coefficients, **kw)
        infid_mc = 1.0 - float(mean[0])
        infid_pert = 1.0 - f_pert
        results[sector]["rows"].append({
            "eps": eps, "fbar_mc": float(mean[0]), "stderr": float(err[0]),
            "f_pert": f_pert, "infid_mc": infid_mc, "infid_pert": infid_pert,
            "ratio": infid_mc / infid_pert if infid_pert else np.nan,
            "mc_over_sector_sum": infid_mc / (sector_sum * eps ** 2)
            if sector_sum and eps else np.nan,
        })

    for result in results.values():
        eps_arr = np.array([r["eps"] for r in result["rows"]])
        infid = np.array([r["infid_mc"] for r in result["rows"]])
        ok = infid > 0
        result["slope_fit"] = (power_law_fit(eps_arr[ok], infid[ok], model="mc-infidelity",
                                             mask=tuple(np.flatnonzero(ok)))
                               if int(ok.sum()) >= 2 else None)
    return results
