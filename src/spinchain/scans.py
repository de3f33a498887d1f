"""Batch fidelity scans over disorder grids, scaling fits, thresholds.

These reproduce the figure pipelines: averaged fidelity at the first
transfer time t1 = pi/(4J) as a function of disorder strength and chain
length, the exponential scaling collapse with constants kappa_j and
kappa_b, threshold disorder strengths versus N, and the correlated-sign
variant.  Every cell of a scan draws from a random stream keyed by
(seed, N index, grid index, realization index), so tables are
bit-reproducible and cells could be evaluated in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec
from .evolve import ensemble_averages, transfer_time
from .fitting import (FitResult, ThresholdScaling, fit_through_origin,
                      power_law_fit, threshold_scaling)
from .perturbation import (PerturbationCoefficients, clean_propagator_table,
                           compute_coefficients, infidelity_sums,
                           perturbative_fidelity, require_transfer_time)

__all__ = [
    "ScanConfig",
    "FidelityPoint",
    "scan_fidelity",
    "run_correlated_scan",
    "fit_scaling",
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
    corr_p_values: tuple = ()
    n_real: int = 1000
    base_coupling: float = 1.0
    t_eval: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "eps_j_values", tuple(float(x) for x in self.eps_j_values))
        object.__setattr__(self, "eps_b_values", tuple(float(x) for x in self.eps_b_values))
        object.__setattr__(self, "corr_p_values", tuple(float(x) for x in self.corr_p_values))
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
            "corr_p_values": " ".join(format(x, ".17g") for x in self.corr_p_values),
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


def points_from_rows(rows) -> list:
    return [FidelityPoint(n_sites=int(r[0]), eps_j=r[1], eps_b=r[2], corr_p=r[3],
                          fbar=r[4], stderr=r[5], n_real=int(r[6])) for r in rows]


def scan_fidelity(config: ScanConfig) -> list:
    """Averaged fidelity at the evaluation time over the (N, eps) grid.

    Rows come out in grid order (N outer, eps_j, then eps_b).  The
    stream key of a cell is (N index, flattened eps index, realization),
    which a correlated scan with matching grids reproduces exactly.  All
    cells of one N go through one ensemble_averages call.
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


def run_correlated_scan(config: ScanConfig) -> list:
    """Fidelity vs eps_j for each sign-correlation probability.

    Rows are ordered by (corr_p, N, eps_j).  Each corr_p is a field-free
    scan_fidelity run, whose cell keys (N index, eps_j index) are those of
    an uncorrelated scan of the same grid; the sampler consumes the same
    draws for any corr_p, so the corr_p = 0.5 rows coincide bit for bit
    with that scan and the curves for different corr_p are coupled (same
    magnitudes, different signs).
    """
    corr_values = config.corr_p_values or (config.corr_p,)
    return [point for corr_p in corr_values
            for point in scan_fidelity(replace(config, corr_p=corr_p,
                                               eps_b_values=(0.0,)))]


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


def threshold_extract(points, f_target: float, param: str = "eps_j") -> ThresholdScaling:
    """Disorder strength where F(t1) crosses f_target, per N, plus exponent.

    Uses the pure rows of the requested parameter (the other disorder
    amplitude must be zero).  Crossings interpolate linearly in log eps;
    chains whose curve never reaches the target are reported in
    `skipped` and excluded from the power-law fit of eps_c vs N.  Points
    of more than one corr_p are refused.
    """
    if param not in ("eps_j", "eps_b"):
        raise ValueError(f"param must be eps_j or eps_b, got {param!r}")
    _one_corr_p(points)
    other = "eps_b" if param == "eps_j" else "eps_j"
    curves = {}
    for p in points:
        if getattr(p, other) != 0.0 or getattr(p, param) <= 0.0:
            continue
        curves.setdefault(p.n_sites, []).append((getattr(p, param), p.fbar))
    if not curves:
        raise ValueError(f"no pure {param} rows in the table")
    prepared = {}
    for n, pairs in curves.items():
        pairs.sort()
        grid = np.array([g for g, _ in pairs])
        vals = np.array([v for _, v in pairs])
        prepared[n] = (grid, vals)
    return threshold_scaling(prepared, f_target, model=f"{param}-threshold")


def perturbation_comparison(n_sites: int, eps_values, sector: str,
                            n_real: int, seed: int, base_coupling: float = 1.0,
                            t: float | None = None,
                            coefficients: PerturbationCoefficients | None = None) -> dict:
    """Monte-Carlo infidelity against the perturbative formula per eps.

    sector is "j" (coupling disorder) or "b" (field disorder).  Returns
    the comparison rows, the log-log slope of the MC infidelity vs eps,
    and the fitted prefactor ratio between the Monte Carlo and the
    plain sector sum (the formula's own prefactor is eps^2/9).

    coefficients are the clean chain's second-order coefficients at t,
    from compute_coefficients(clean_propagator_table(n_sites,
    base_coupling, t=t)); they do not depend on the sector, so a caller
    comparing both sectors computes them once and passes them to each
    call.  They are computed here when not given.

    Raises ValueError when t is no perfect-transfer time of the clean
    chain, where the perturbative formula does not apply.
    """
    if sector not in ("j", "b"):
        raise ValueError("sector must be 'j' or 'b'")
    t = transfer_time(base_coupling) if t is None else float(t)
    if coefficients is None:
        coefficients = compute_coefficients(clean_propagator_table(n_sites, base_coupling, t=t))
    elif coefficients.c.shape[0] != n_sites or not np.isclose(coefficients.time, t,
                                                             rtol=1e-12, atol=0.0):
        raise ValueError(f"coefficients are for N={coefficients.c.shape[0]} at "
                         f"t={coefficients.time!r}, not N={n_sites} at t={t!r}")
    require_transfer_time(coefficients, base_coupling)
    field_sum, coupling_sum = infidelity_sums(coefficients)
    sector_sum = coupling_sum if sector == "j" else field_sum

    eps_sorted = sorted(float(x) for x in eps_values)
    kwargs = [{"eps_j": eps} if sector == "j" else {"eps_b": eps} for eps in eps_sorted]
    cells = [(ChainSpec(n_sites=n_sites, base_coupling=base_coupling, **kw), (ei,))
             for ei, kw in enumerate(kwargs)]
    rows = []
    for eps, kw, (mean, err) in zip(eps_sorted, kwargs,
                                    ensemble_averages(cells, n_real, seed, [t])):
        f_pert = perturbative_fidelity(coefficients, **kw)
        infid_mc = 1.0 - float(mean[0])
        infid_pert = 1.0 - f_pert
        rows.append({
            "eps": eps, "fbar_mc": float(mean[0]), "stderr": float(err[0]),
            "f_pert": f_pert, "infid_mc": infid_mc, "infid_pert": infid_pert,
            "ratio": infid_mc / infid_pert if infid_pert else np.nan,
            "mc_over_sector_sum": infid_mc / (sector_sum * eps ** 2)
            if sector_sum and eps else np.nan,
        })

    eps_arr = np.array([r["eps"] for r in rows])
    infid = np.array([r["infid_mc"] for r in rows])
    slope_fit = None
    ok = infid > 0
    if int(ok.sum()) >= 2:
        slope_fit = power_law_fit(eps_arr[ok], infid[ok], model="mc-infidelity",
                                  mask=tuple(np.flatnonzero(ok)))
    return {
        "rows": rows,
        "sector": sector,
        "t": t,
        "sector_sum": sector_sum,
        "slope_fit": slope_fit,
    }
