"""End-to-end acceptance criteria.

Every test here pins one acceptance criterion at its contractual
tolerance and prints one PASS/FAIL line with the measured values (run
pytest with -s or -rA to see the lines for passing tests as well).
Criteria 3+4 share one pair of fidelity scans and criterion 5 shares
its eta curves, so this module is expensive; run it with

    pytest tests/test_acceptance.py -v
"""

import numpy as np
import pytest

import spinchain as sc
from spinchain import evolve
from spinchain.chain import spectral_half_width
from spinchain.fitting import curves_by_n, threshold_scaling
from spinchain.scans import threshold_curves

from oracles import (amplitudes, eigendecompose, oracle_amplitudes,
                     oracle_transfer_series, sector_matrix, transfer_amplitude)

pytestmark = pytest.mark.acceptance

SEED = 20240816


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def clean_hamiltonian(n):
    return sc.build_hamiltonian(sc.ChainSpec(n_sites=n),
                                sc.DisorderRealization(np.zeros(n - 1), np.zeros(n)))


def command_amplitudes(h, spec, t):
    """f_N(t) of h on the two propagators the commands run: the series
    spectrum of transfer, fractal and dimension-scan, and the Chebyshev
    sweep of scan and perturbation on spec's half-width."""
    series = sc.fidelity_series(h, t, t).amplitude[-1]
    chebyshev = evolve._chebyshev_transfer_amplitude(
        h.diag[None], h.offdiag[None], spectral_half_width(spec), np.array([t]))[0, 0]
    return series, chebyshev


# ---------------------------------------------------------------------------
# 1. Perfect transfer on clean chains
# ---------------------------------------------------------------------------

def test_criterion_1_perfect_transfer():
    times = [sc.transfer_time(n=k) for k in range(3)]
    worst = worst_series = worst_chebyshev = 1.0
    for n in (10, 100, 500):
        h = clean_hamiltonian(n)
        sd = eigendecompose(h)
        for t in times:
            f = sc.fidelity_of_amplitude(transfer_amplitude(sd, [t])[0])
            worst = min(worst, f)
        # samples 1, 3 and 5 of the grid i pi/4 are t_0, t_1 and t_2
        series = sc.fidelity_series(h, sc.transfer_time(2), np.pi / 4)
        worst_series = min(worst_series, float(series.fidelity[[1, 3, 5]].min()))
        # what scan --eps-j 0 runs
        [(mean, _)] = sc.ensemble_averages([(sc.ChainSpec(n_sites=n), ())], 1, SEED, times)
        worst_chebyshev = min(worst_chebyshev, float(mean.min()))
    ok = min(worst, worst_series, worst_chebyshev) >= 1.0 - 1e-9
    detail = (f"min F(t_n) over N in (10,100,500), n in (0,1,2): {worst:.12f}; "
              f"1 - min F on the series path {1.0 - worst_series:.1e}, "
              f"on the Chebyshev path {1.0 - worst_chebyshev:.1e} (<=1e-9)")
    assert ok, report(1, ok, detail)
    report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. Spectral propagator vs matrix-exponential oracle
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = worst_series = worst_chebyshev = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        t = float(rng.uniform(0.0, 20.0))
        delta = rng.uniform(-0.5, 0.5, n - 1)
        fields = rng.uniform(-0.3, 0.3, n)
        spec = sc.ChainSpec(n_sites=n, eps_j=0.5, eps_b=0.3)
        real = sc.DisorderRealization(delta=delta, field_err=fields)
        h = sc.build_hamiltonian(spec, real)
        f = amplitudes(eigendecompose(h), t)
        f_oracle = oracle_amplitudes(sector_matrix(n, delta=delta, fields=fields), t)
        worst = max(worst, float(np.max(np.abs(f - f_oracle))))
        f_series, f_chebyshev = command_amplitudes(h, spec, t)
        worst_series = max(worst_series, abs(f_series - f_oracle[-1]))
        worst_chebyshev = max(worst_chebyshev, abs(f_chebyshev - f_oracle[-1]))
    ok = max(worst, worst_series, worst_chebyshev) <= 1e-8
    detail = (f"max amplitude error over 50 random cases: {worst:.3e}; site N on the "
              f"series path {worst_series:.3e}, on the Chebyshev path "
              f"{worst_chebyshev:.3e} (<=1e-8)")
    assert ok, report(2, ok, detail)
    report(2, ok, detail)


# ---------------------------------------------------------------------------
# 3+4. Fidelity scaling constants and threshold exponents
# ---------------------------------------------------------------------------

N_VALUES = (10, 20, 50, 100, 200)
N_REAL_SCANS = 1000


@pytest.fixture(scope="module")
def coupling_scan():
    return sc.scan_fidelity(N_VALUES, tuple(np.geomspace(0.02, 1.0, 12)),
                            N_REAL_SCANS, SEED + 1)


@pytest.fixture(scope="module")
def field_scan():
    # balanced grids: eps_b ~ sqrt(N) keeps every chain in the same range
    # of the collapse variable eps_b^2/N
    points = []
    for n in N_VALUES:
        points += sc.scan_fidelity((n,), (0.0,), N_REAL_SCANS, SEED + 2,
                                   eps_b_grid=tuple(np.geomspace(0.26, 1.26, 12)
                                                    * np.sqrt(n)))
    return points


def test_criterion_3_scaling_constants(coupling_scan, field_scan):
    # the N=100 curve spans the full decay from ~1 to the F ~ 1/2 floor
    n100 = [p.fbar for p in coupling_scan if p.n_sites == 100]
    assert n100[0] > 0.95 and n100[-1] < 0.55
    fit = sc.fit_scaling(coupling_scan + field_scan)
    kj, kb = fit.params["kappa_j"], fit.params["kappa_b"]
    ok = 0.13 <= kj <= 0.30 and 0.45 <= kb <= 1.0
    assert ok, report(3, ok, f"kappa_j={kj:.3f}, kappa_b={kb:.3f}")
    report(3, ok, f"kappa_j={kj:.3f} in [0.13,0.30], kappa_b={kb:.3f} in [0.45,1.0]")


def test_criterion_4_threshold_exponents(coupling_scan, field_scan):
    results = {}
    for target in (0.9, 0.7):
        results[f"eps_j@{target}"] = threshold_scaling(
            threshold_curves(coupling_scan, "eps_j"), target,
            model="eps_j-threshold").fit.params["exponent"]
    for target in (0.9, 0.95):
        results[f"eps_b@{target}"] = threshold_scaling(
            threshold_curves(field_scan, "eps_b"), target,
            model="eps_b-threshold").fit.params["exponent"]
    ok_j = all(abs(results[k] + 0.5) <= 0.1 for k in ("eps_j@0.9", "eps_j@0.7"))
    ok_b = all(0.35 <= results[k] <= 0.55 for k in ("eps_b@0.9", "eps_b@0.95"))
    detail = ", ".join(f"{k}: {v:+.3f}" for k, v in results.items())
    ok = ok_j and ok_b
    assert ok, report(4, ok, detail)
    report(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. Level-spacing crossover
# ---------------------------------------------------------------------------

def test_criterion_5_spectral_crossover():
    lo = sc.eta(sc.collect_spacings(sc.ChainSpec(n_sites=100, eps_j=1e-3),
                                    1000, SEED + 3))
    hi = sc.eta(sc.collect_spacings(sc.ChainSpec(n_sites=100, eps_j=1.0),
                                    1000, SEED + 4))
    grid = np.geomspace(3e-3, 1.0, 10)
    curves = curves_by_n(sc.eta_scan((50, 100, 200, 500), grid, 500, SEED + 5))
    exps = {t: threshold_scaling(curves, t, model="eta-threshold").fit.params["exponent"]
            for t in (0.5, 0.8)}
    ok = (lo >= 0.9 and hi <= 0.1
          and all(abs(e + 0.5) <= 0.15 for e in exps.values()))
    detail = (f"eta(1e-3)={lo:.3f} (>=0.9), eta(1)={hi:.3f} (<=0.1), "
              f"exponents eta=0.5: {exps[0.5]:+.3f}, eta=0.8: {exps[0.8]:+.3f}")
    assert ok, report(5, ok, detail)
    report(5, ok, detail)


# ---------------------------------------------------------------------------
# 6. Fractal dimension: calibration, reference point, threshold scaling
# ---------------------------------------------------------------------------

def test_criterion_6a_calibration_suite():
    n = 2 ** 16 + 1
    t = np.arange(n) * 0.05
    line_fit = sc.fit_dimension(sc.box_count(
        0.4 + 3e-5 * t, 0.05, np.array([2 ** k for k in range(2, 14)])))
    d_line = line_fit.params["dimension"]

    period = 2 * np.pi
    dt = period / 100
    ts = np.arange(200_000) * dt
    d_sine = sc.fit_dimension(sc.box_count(np.sin(ts), dt)).params["dimension"]

    tw = np.arange(100_000) * 2e-5
    w = np.zeros_like(tw)
    for k in range(21):
        w += 2.0 ** -k * np.cos(3 ** k * np.pi * tw)
    d_weier = sc.fit_dimension(sc.box_count(w, 2e-5)).params["dimension"]
    d_weier_expected = 2.0 - np.log(2.0) / np.log(3.0)

    ok = (abs(d_line - 1.0) <= 0.02 and abs(d_sine - 2.0) <= 0.05
          and abs(d_weier - d_weier_expected) <= 0.05)
    detail = (f"line D={d_line:.4f} (1.00+-0.02), sine D={d_sine:.4f} (2.00+-0.05), "
              f"Weierstrass D={d_weier:.4f} ({d_weier_expected:.4f}+-0.05)")
    assert ok, report("6a", ok, detail)
    report("6a", ok, detail)


def _plain_box_count(fidelity, dt):
    """Oracle box count: grid 4 dt .. T/8 in steps of 2^(1/4), one window
    at a time; each window [i L, (i+1) L] holds both boundary samples."""
    max_count = (fidelity.shape[0] - 1) // 8
    counts, c = [], 4.0
    while round(c) <= max_count:
        if round(c) not in counts:
            counts.append(round(c))
        c *= 2.0 ** 0.25
    m_values = []
    for n in counts:
        total = 0.0
        for start in range(0, fidelity.shape[0] - n, n):
            window = fidelity[start:start + n + 1]
            total += window.max() - window.min()
        m_values.append(total / (n * dt))
    return np.array(counts) * dt, np.array(m_values)


def _admissible_windows(lengths, m_values, r2_min=0.995, min_points=6,
                        min_ratio=10.0):
    """Every interior window fit_dimension may choose, by brute force.

    Returns ((L_lo, L_hi), R^2, D) for each window that leaves out both
    grid ends, holds >= min_points, spans >= min_ratio in L and fits a
    line with R^2 >= r2_min.
    """
    x, y = np.log(lengths), np.log(m_values)
    out = []
    for i in range(1, len(x) - 1):
        for j in range(i + min_points - 1, len(x) - 1):
            if lengths[j] / lengths[i] < min_ratio:
                continue
            xs, ys = x[i:j + 1], y[i:j + 1]
            slope, intercept = np.polyfit(xs, ys, 1)
            resid = ys - (slope * xs + intercept)
            r2 = 1.0 - resid @ resid / np.sum((ys - ys.mean()) ** 2)
            if r2 >= r2_min:
                out.append(((lengths[i], lengths[j]), r2, -slope))
    return out


def test_criterion_6b_reference_point():
    # Single-realization reference point at paper scale, checked against
    # an oracle that shares no code with the package: dense eigh plus a
    # direct phase sum, a plain-loop box count and a brute-force search
    # of the admissible fit windows.  The paper's single-realization
    # value D = 1.52 +- 0.15 is printed, not asserted: no admissible
    # window of this signal fits a slope that low (the printed slope
    # range), because the dominant mode pair at E ~ +-0.24 makes |f_N|
    # nearly periodic above L ~ 13 and the curve saturates towards 2
    # there, as for 6a's sine.
    n, t_max, dt = 500, 1e4, 0.05
    spec = sc.ChainSpec(n_sites=n, eps_j=0.26)
    real = sc.sample_disorder(spec, sc.substream(SEED + 6, 0))
    series = sc.fidelity_series(sc.build_hamiltonian(spec, real), t_max, dt)
    fit, curve, _ = sc.dimension_of_series(series)
    d_pkg = fit.params["dimension"]

    _, f_n = oracle_transfer_series(n, t_max, dt, delta=real.delta,
                                    fields=real.field_err)
    h = sector_matrix(n, delta=real.delta, fields=real.field_err)
    expm_err = 0.0
    for t in (0.35, 617.25, 1e4):
        f_expm = oracle_amplitudes(h, t)[-1]
        expm_err = max(expm_err, abs(f_expm - f_n[int(round(t / dt))]))

    mod = np.abs(f_n)
    fid = mod / 3.0 + mod * mod / 6.0 + 0.5
    fid = fid[int(np.argmax(fid <= 0.55)):]
    lengths, m_values = _plain_box_count(fid, dt)
    windows = _admissible_windows(lengths, m_values)
    best_window, best_r2, d_oracle = max(windows, key=lambda w: w[1])
    pkg_admissible = any(np.allclose(w[0], fit.window) for w in windows)
    slopes = [w[2] for w in windows]

    ok = (expm_err <= 1e-8
          and np.allclose(curve.lengths, lengths, rtol=1e-12, atol=0.0)
          and pkg_admissible
          and abs(fit.params["r_squared"] - best_r2) <= 1e-9
          and abs(d_pkg - d_oracle) <= 1e-6)
    detail = (f"N=500, eps_j=0.26, T=1e4, single realization: D={d_pkg:.3f} on "
              f"{fit.window[0]:.4g}..{fit.window[1]:.4g} (R^2={fit.params['r_squared']:.6f}); "
              f"oracle D={d_oracle:.3f} on {best_window[0]:.4g}..{best_window[1]:.4g} "
              f"(R^2={best_r2:.6f}), |dD|={abs(d_pkg - d_oracle):.1e} (<=1e-6); "
              f"oracle vs expm {expm_err:.1e} (<=1e-8); {len(windows)} admissible "
              f"windows fit D in {min(slopes):.3f}..{max(slopes):.3f}; "
              f"paper 1.52+-0.15 (context, not asserted)")
    assert ok, report("6b", ok, detail)
    report("6b", ok, detail)


def test_criterion_6c_dimension_threshold_exponents():
    grid = np.geomspace(0.05, 1.2, 14)
    rows, _ = sc.dimension_scan((100, 200, 500), grid, n_real=6, master_seed=SEED + 7)
    curves = curves_by_n(row[:3] for row in rows)
    exps = {}
    for target in (1.76, 1.6, 1.4):
        exps[target] = threshold_scaling(
            curves, target, model="dimension-threshold").fit.params["exponent"]
    ok = all(abs(e + 0.5) <= 0.15 for e in exps.values())
    detail = ", ".join(f"D={t}: {e:+.3f}" for t, e in exps.items())
    assert ok, report("6c", ok, f"exponents {detail} (target -0.5+-0.15)")
    report("6c", ok, f"exponents {detail} (target -0.5+-0.15)")


# ---------------------------------------------------------------------------
# 7. Perturbation-theory agreement
# ---------------------------------------------------------------------------

def test_criterion_7_perturbation_agreement():
    slope_grid = (1e-3, 2e-3, 3e-3, 5e-3, 1e-2)
    ratio_grid = (1e-3, 3e-3, 1e-2)
    n_real = 10_000
    results, ratio_spread, slopes = {}, {}, {}
    for sector in ("j", "b"):
        res = sc.perturbation_comparison(20, slope_grid, (sector,), n_real,
                                         SEED + 8 if sector == "j" else SEED + 9)
        rows, sectors = res
        slopes[sector] = sectors[sector]["slope_fit"].params["exponent"]
        ratios = [r.ratio for r in rows if r.eps in ratio_grid]
        ratio_spread[sector] = max(ratios) / min(ratios)
        results[sector] = res

    # mixed-disorder additivity at eps = 5e-3 within Monte-Carlo 3 sigma
    t1 = sc.transfer_time()
    eps = 5e-3
    mixed_spec = sc.ChainSpec(n_sites=20, eps_j=eps, eps_b=eps)
    [(mean_m, err_m)] = sc.ensemble_averages([(mixed_spec, ())], n_real, SEED + 10, [t1])
    pure = {}
    for sector, seed in (("j", SEED + 11), ("b", SEED + 12)):
        kwargs = {"eps_j": eps} if sector == "j" else {"eps_b": eps}
        [(mean, err)] = sc.ensemble_averages([(sc.ChainSpec(n_sites=20, **kwargs), ())],
                                             n_real, seed, [t1])
        pure[sector] = (1.0 - mean[0], err[0])
    infid_mixed = 1.0 - mean_m[0]
    infid_sum = pure["j"][0] + pure["b"][0]
    sigma = float(np.sqrt(err_m[0] ** 2 + pure["j"][1] ** 2 + pure["b"][1] ** 2))
    additive = abs(infid_mixed - infid_sum) <= 3.0 * sigma

    ok = (all(abs(s - 2.0) <= 0.1 for s in slopes.values())
          and all(r <= 1.10 for r in ratio_spread.values())
          and additive)
    detail = (f"slopes j={slopes['j']:.3f}, b={slopes['b']:.3f} (2.0+-0.1); "
              f"ratio spread j={ratio_spread['j']:.3f}, b={ratio_spread['b']:.3f} (<=1.10); "
              f"additivity |{infid_mixed:.3e}-{infid_sum:.3e}| <= 3x{sigma:.1e}: {additive}")
    assert ok, report(7, ok, detail)
    report(7, ok, detail)


# ---------------------------------------------------------------------------
# 8. Invariant suite
# ---------------------------------------------------------------------------

def test_criterion_8_invariants(tmp_path):
    rng = np.random.default_rng(SEED + 13)
    # unitarity and reciprocity across sizes and times
    worst_unit, worst_rec = 0.0, 0.0
    for n in (2, 17, 100, 500):
        spec = sc.ChainSpec(n_sites=n, eps_j=0.3, eps_b=0.1)
        w, v = eigendecompose(sc.build_hamiltonian(
            spec, sc.sample_disorder(spec, sc.substream(SEED + 14, n))))
        for t in rng.uniform(0.0, 1e4, 5):
            f = amplitudes((w, v), t)
            worst_unit = max(worst_unit, abs(float(np.sum(np.abs(f) ** 2)) - 1.0))
            back = v @ (np.exp(-1j * w * t) * v[-1])
            worst_rec = max(worst_rec, abs(f[-1] - back[0]))

    # fidelity range on a disordered series
    spec = sc.ChainSpec(n_sites=60, eps_j=0.2)
    series = sc.fidelity_series(
        sc.build_hamiltonian(spec, sc.sample_disorder(spec, sc.substream(1, 0))), 200.0, 0.05)
    range_ok = bool(np.all(series.fidelity >= 0.5) and np.all(series.fidelity <= 1.0))

    # clean closed form |f_N| = |sin 2t|^(N-1) for N <= 12, on the eigen
    # path and on the two the commands run
    worst_closed = worst_closed_series = worst_closed_chebyshev = 0.0
    for n in range(2, 13):
        h = clean_hamiltonian(n)
        sd = eigendecompose(h)
        for t in rng.uniform(0.0, 5.0, 10):
            closed = abs(np.sin(2 * t)) ** (n - 1)
            f_n = abs(amplitudes(sd, t)[-1])
            worst_closed = max(worst_closed, abs(f_n - closed))
            f_series, f_chebyshev = command_amplitudes(h, sc.ChainSpec(n_sites=n), t)
            worst_closed_series = max(worst_closed_series, abs(abs(f_series) - closed))
            worst_closed_chebyshev = max(worst_closed_chebyshev,
                                         abs(abs(f_chebyshev) - closed))

    # byte-identical CLI outputs for one seed
    from spinchain.cli import main
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    args = ["scan", "--n", "10", "20", "--eps-j", "0.05", "0.2",
            "--n-real", "25", "--seed", str(SEED)]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    ok = (worst_unit <= 1e-10 and worst_rec <= 1e-10 and range_ok
          and max(worst_closed, worst_closed_series, worst_closed_chebyshev) <= 1e-8
          and identical)
    detail = (f"unitarity {worst_unit:.1e} (<=1e-10), reciprocity {worst_rec:.1e} "
              f"(<=1e-10), range {range_ok}, closed form {worst_closed:.1e} "
              f"(<=1e-8; series path {worst_closed_series:.1e}, Chebyshev path "
              f"{worst_closed_chebyshev:.1e}), determinism {identical}")
    assert ok, report(8, ok, detail)
    report(8, ok, detail)
