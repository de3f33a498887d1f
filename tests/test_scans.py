import numpy as np
import pytest

from spinchain import (ChainSpec, FidelityPoint, ensemble_averages, fit_scaling,
                       scan_fidelity)
from spinchain.fitting import crossing_loglinear, power_law_fit, threshold_scaling
from spinchain.scans import threshold_curves


def synthetic_scaling_points(kappa_j=0.2, kappa_b=0.7, n_values=(10, 50, 200),
                             eps_j=(), eps_b=()):
    points = []
    for n in n_values:
        for e in eps_j:
            fbar = 0.5 * (1 + np.exp(-kappa_j * n * e * e))
            points.append(FidelityPoint(n, e, 0.0, 0.5, fbar, 0.0, 1))
        for e in eps_b:
            fbar = 0.5 * (1 + np.exp(-kappa_b * e * e / n))
            points.append(FidelityPoint(n, 0.0, e, 0.5, fbar, 0.0, 1))
    return points


def test_scan_refuses_no_realizations_before_drawing(forbid_draws):
    with pytest.raises(ValueError, match="n_real"):
        scan_fidelity((10, 30), (0.0, 0.1), 0, 1)
    assert scan_fidelity((), (0.1,), 5, 1) == []


def test_zero_disorder_grid_gives_unit_fidelity():
    points = scan_fidelity((10, 30), (0.0,), 3, 3)
    assert len(points) == 2
    for p in points:
        assert p.fbar >= 1.0 - 1e-9
        assert p.stderr <= 1e-12


def test_scan_rows_in_grid_order_and_deterministic():
    a = scan_fidelity((6, 9), (0.01, 0.1), 20, 5, eps_b_grid=(0.0, 0.2))
    b = scan_fidelity((6, 9), (0.01, 0.1), 20, 5, eps_b_grid=(0.0, 0.2))
    assert [(p.n_sites, p.eps_j, p.eps_b) for p in a] == \
        [(n, ej, eb) for n in (6, 9) for ej in (0.01, 0.1) for eb in (0.0, 0.2)]
    assert all(pa == pb for pa, pb in zip(a, b))


@pytest.mark.parametrize("n_real", [50, 1])
def test_scan_rows_equal_one_ensemble_average_per_cell(n_real):
    # 3 cells x 50 realizations: the first 128-row block spans all three
    # cells and the second holds the tail of the third
    points = scan_fidelity((9, 14), (0.1, 0.5, 1.0), n_real, 8, eps_b_grid=(0.2,),
                           corr_p_grid=(0.7,), t_eval=2.5)
    expected = []
    for ni, n in enumerate((9, 14)):
        for ji, eps_j in enumerate((0.1, 0.5, 1.0)):
            spec = ChainSpec(n_sites=n, eps_j=eps_j, eps_b=0.2, corr_p=0.7)
            [(mean, err)] = ensemble_averages([(spec, (ni, ji))], n_real, 8, [2.5])
            expected.append((n, eps_j, float(mean[0]), float(err[0])))
    assert [(p.n_sites, p.eps_j, p.fbar, p.stderr) for p in points] == expected


def test_fit_scaling_recovers_synthetic_constants():
    points = synthetic_scaling_points(
        eps_j=np.geomspace(0.01, 0.5, 8), eps_b=np.geomspace(0.5, 10.0, 8))
    fit = fit_scaling(points)
    assert fit.params["kappa_j"] == pytest.approx(0.2, abs=1e-12)
    assert fit.params["kappa_b"] == pytest.approx(0.7, abs=1e-12)
    assert len(fit.mask) > 0


def test_fit_scaling_masks_saturated_rows():
    eps_j = np.geomspace(0.01, 3.0, 12)
    points = synthetic_scaling_points(eps_j=eps_j)
    fit = fit_scaling(points)
    # rows on the F ~ 1/2 floor are excluded but kappa_j is still exact
    assert fit.params["kappa_j"] == pytest.approx(0.2, abs=1e-12)
    floor_rows = [i for i, p in enumerate(points) if 2 * p.fbar - 1 <= 0.05]
    assert floor_rows and not set(floor_rows) & set(fit.mask)


def test_fit_scaling_needs_enough_rows():
    points = synthetic_scaling_points(n_values=(10,), eps_j=(0.05, 0.1, 0.2))
    with pytest.raises(ValueError):
        fit_scaling(points)
    with pytest.raises(ValueError):
        fit_scaling([])


@pytest.mark.parametrize("field, value, reason", [
    ("fbar", np.inf, "fbar inf lies outside [1/2, 1]"),
    ("fbar", np.nan, "fbar nan lies outside [1/2, 1]"),
    ("fbar", 7.0, "fbar 7.0 lies outside [1/2, 1]"),
    ("fbar", 0.3, "fbar 0.3 lies outside [1/2, 1]"),
    ("eps_b", -0.1, "disorder amplitudes must be finite and >= 0"),
    ("corr_p", 1.5, "corr_p must lie in [0, 1], got 1.5"),
    ("n_sites", 10.7, "n_sites must be an integer >= 2, got 10.7"),
], ids=["fbar-inf", "fbar-nan", "fbar-7", "fbar-0.3", "eps_b-negative", "corr_p-1.5",
        "n_sites-10.7"])
@pytest.mark.parametrize("use", [fit_scaling, lambda points: threshold_curves(points, "eps_j")],
                         ids=["fit_scaling", "threshold_curves"])
def test_fit_and_threshold_refuse_an_impossible_point(use, field, value, reason):
    points = synthetic_scaling_points(kappa_j=0.25, n_values=(10, 20),
                                      eps_j=(0.05, 0.1, 0.2, 0.4))
    use(points)
    points[1] = bad = points[1]._replace(**{field: value})
    with pytest.raises(ValueError) as err:
        use(points)
    assert str(err.value) == (f"the point N={bad.n_sites}, eps_j=0.1, "
                              f"eps_b={bad.eps_b}: {reason}")


def test_threshold_extract_synthetic_exponents():
    # from the model, eps_j^c = sqrt(-ln(2 F - 1) / (kappa_j N)) ~ N^(-1/2)
    # and eps_b^c ~ N^(+1/2); shared relative grids cancel interpolation bias
    n_values = (10, 40, 160)
    points = []
    for n in n_values:
        ej_c = np.sqrt(-np.log(2 * 0.9 - 1) / (0.2 * n))
        eb_c = np.sqrt(-np.log(2 * 0.9 - 1) * n / 0.7)
        points += synthetic_scaling_points(
            n_values=(n,), eps_j=ej_c * np.geomspace(0.3, 3.0, 9),
            eps_b=eb_c * np.geomspace(0.3, 3.0, 9))
    th_j = threshold_scaling(threshold_curves(points, "eps_j"), 0.9, model="eps_j-threshold")
    th_b = threshold_scaling(threshold_curves(points, "eps_b"), 0.9, model="eps_b-threshold")
    assert abs(th_j.fit.params["exponent"] + 0.5) < 1e-9
    assert abs(th_b.fit.params["exponent"] - 0.5) < 1e-9


def test_threshold_extract_skips_out_of_range_chains():
    points = synthetic_scaling_points(n_values=(10, 1000),
                                      eps_j=np.geomspace(0.2, 0.8, 6))
    # N=1000 already saturated on the whole grid: never crosses 0.9
    with pytest.raises(ValueError):
        threshold_scaling(threshold_curves(points, "eps_j"), 0.9, model="eps_j-threshold")
    points += synthetic_scaling_points(n_values=(40, 160),
                                       eps_j=np.geomspace(0.01, 0.8, 10))
    th = threshold_scaling(threshold_curves(points, "eps_j"), 0.9, model="eps_j-threshold")
    assert any(n == 1000 for n, _ in th.skipped)
    assert 1000 not in th.thresholds


def test_correlated_scan_reproduces_uncorrelated_rows_bitwise():
    # corr_p is the outer axis and does not enter the keys, so each
    # corr_p's rows are those of a one-value call, and corr_p = 0.5 those
    # of a plain scan
    grid = ((8, 12), (0.05, 0.2), 30, 9)
    points = scan_fidelity(*grid, eps_b_grid=(0.0, 0.3), corr_p_grid=(0.1, 0.5, 0.9))
    one_each = [p for corr_p in (0.1, 0.5, 0.9)
                for p in scan_fidelity(*grid, eps_b_grid=(0.0, 0.3), corr_p_grid=(corr_p,))]
    assert points == one_each
    assert [p.corr_p for p in points] == [0.1] * 8 + [0.5] * 8 + [0.9] * 8
    assert points[8:16] == scan_fidelity(*grid, eps_b_grid=(0.0, 0.3))


def test_correlated_scan_monotone_in_sign_correlation():
    # anticorrelated signs degrade transfer more than correlated ones
    points = scan_fidelity((100,), (0.1,), 150, 14,
                           corr_p_grid=(0.1, 0.25, 0.5, 0.75, 0.9))
    fbar = [p.fbar for p in points]
    err = [p.stderr for p in points]
    for i in range(4):
        assert fbar[i + 1] - fbar[i] > -3.0 * float(np.hypot(err[i], err[i + 1]))
    assert fbar[-1] > fbar[0]


def test_crossing_loglinear_cases():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert crossing_loglinear(x, np.array([0.9, 0.7, 0.5, 0.3]), 0.7) == 2.0
    xc = crossing_loglinear(x, np.array([0.9, 0.8, 0.4, 0.3]), 0.6)
    assert 2.0 < xc < 4.0
    assert crossing_loglinear(x, np.array([0.9, 0.8, 0.7, 0.65]), 0.5) is None
    with pytest.raises(ValueError):
        crossing_loglinear(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5)


def test_power_law_fit_exact():
    x = np.geomspace(1, 100, 7)
    fit = power_law_fit(x, 3.0 * x ** -0.43)
    assert fit.params["exponent"] == pytest.approx(-0.43, abs=1e-12)
    assert fit.params["prefactor"] == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        power_law_fit(x, -np.ones_like(x))
