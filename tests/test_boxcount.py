import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (BoxCountCurve, ChainSpec, DegenerateSeriesError,
                       WindowSelectionError, box_count, build_hamiltonian,
                       dimension_of_series,
                       default_box_counts, fit_dimension, fidelity_series,
                       sample_disorder, substream, transient_trim)
from spinchain import boxcount
from spinchain.boxcount import MIN_POINTS, MIN_RATIO, R2_MIN, _auto_window
from spinchain.evolve import FidelitySeries
from spinchain.fitting import threshold_scaling


def square_box_dimension_oracle(times, values, counts):
    """Plain square box counting on the graph, column by column.

    Boxes are squares of side L in the (t, y) plane; each column of
    width L contributes the number of L-sized cells its values touch.
    Completely independent of the excursion-based estimator.
    """
    dt = times[1] - times[0]
    log_l, log_n = [], []
    for n in counts:
        length = n * dt
        windows = np.lib.stride_tricks.sliding_window_view(values, n + 1)[::n]
        lo = np.floor(windows.min(axis=1) / length)
        hi = np.floor(windows.max(axis=1) / length)
        boxes = np.sum(hi - lo + 1.0)
        log_l.append(np.log(length))
        log_n.append(np.log(boxes))
    slope = np.polyfit(log_l, log_n, 1)[0]
    return -slope


# ---------------------------------------------------------------------------
# transient trim
# ---------------------------------------------------------------------------

def test_trim_noop_when_series_starts_at_half():
    assert transient_trim(np.full(100, 0.5)) == (0, True)


def test_trim_first_crossing_rule():
    start, reached = transient_trim(np.array([0.9, 0.8, 0.54, 0.9, 0.5, 0.7]))
    assert (start, reached) == (2, True)
    assert type(start) is int and type(reached) is bool


def test_trim_flags_series_that_never_relax():
    assert transient_trim(np.full(50, 0.95)) == (0, False)


def test_trim_on_engine_series_is_small():
    spec = ChainSpec(n_sites=60, eps_j=0.26)
    series = fidelity_series(build_hamiltonian(spec, sample_disorder(spec, substream(8, 0))),
                             200.0, 0.05)
    start, reached = transient_trim(series.fidelity)
    assert reached
    assert start < 0.1 * len(series)


def test_dimension_of_series_counts_the_trimmed_samples_on_the_series_dt():
    # 0.05 * 38 - 0.05 * 37 is 0.050000000000000044: box lengths taken from
    # the trimmed time axis would drift in their last bits
    m, dt = 2000, 0.05
    rng = np.random.default_rng(28)
    fidelity = np.concatenate([np.full(37, 0.9), 0.5 + 0.05 * rng.random(m - 37)])
    series = FidelitySeries(dt=dt, amplitude=np.zeros(m, dtype=complex), fidelity=fidelity)
    fit, curve, trim = dimension_of_series(series, window=(0.2, 2.0))
    assert trim.start == 37 and trim.reached
    assert np.array_equal(curve.lengths, default_box_counts(m - 37) * 0.05)
    assert np.array_equal(curve.m_values, box_count(fidelity[37:], dt).m_values)
    assert fit == fit_dimension(curve, window=(0.2, 2.0))


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_constant_series_counts_are_zero_and_fit_degenerate():
    curve = box_count(np.full(4097, 0.5), 0.01)
    assert np.all(curve.m_values == 0.0)
    with pytest.raises(DegenerateSeriesError):
        fit_dimension(curve)


def test_straight_line_dimension_one():
    n = 2 ** 16 + 1
    t = np.arange(n) * 0.05
    counts = np.array([2 ** k for k in range(2, 14)])
    fit = fit_dimension(box_count(0.4 + 3e-5 * t, 0.05, counts))
    assert abs(fit.params["dimension"] - 1.0) <= 0.02


def test_long_sine_dimension_two():
    period = 2 * np.pi
    dt = period / 100
    t = np.arange(200_000) * dt  # 2000 periods
    fit = fit_dimension(box_count(np.sin(t), dt))
    assert abs(fit.params["dimension"] - 2.0) <= 0.05
    # the selected window sits in the regime of many periods per box
    assert fit.window[0] > period


def test_exact_power_law_recovered_to_machine_precision():
    lengths = np.geomspace(0.1, 100.0, 30)
    curve = BoxCountCurve(lengths=lengths, m_values=3.7 * lengths ** -1.5)
    fit = fit_dimension(curve)
    assert abs(fit.params["dimension"] - 1.5) < 1e-12


def test_weierstrass_dimension_with_square_box_oracle():
    t = np.arange(100_000) * 2e-5
    w = np.zeros_like(t)
    for k in range(21):
        w += 2.0 ** -k * np.cos(3 ** k * np.pi * t)
    expected = 2.0 - np.log(2.0) / np.log(3.0)

    fit = fit_dimension(box_count(w, 2e-5))
    assert abs(fit.params["dimension"] - expected) <= 0.05

    counts = np.unique(np.geomspace(50, 5000, 12).astype(int))
    oracle = square_box_dimension_oracle(t, w, counts)
    assert abs(oracle - expected) <= 0.05
    assert abs(fit.params["dimension"] - oracle) <= 0.1


def test_box_length_validation(monkeypatch):
    f = np.sin(np.arange(1000) * 0.1)
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^dt = .* must be finite and > 0$"):
            box_count(f, dt, [4])

    # every count is checked before any box is counted, and the error names it
    def count_nothing(f, n):
        raise AssertionError("counted a box before every count was checked")

    monkeypatch.setattr(boxcount, "_excursions", count_nothing)
    for bad in (0, -1, 2.5, len(f), np.inf, np.nan):
        for counts in ([bad], [4, 10, bad]):
            with pytest.raises(ValueError, match=f"^box count {re.escape(str(bad))} is not "
                                                 r"an integer in \[1, 999\]$"):
                box_count(f, 0.1, counts)


def _sliding_box_count(f, dt, counts):
    """Box count with each box's windows as the rows of a sliding view
    of n + 1 samples, reduced along the rows: the reference that
    box_count's column and row passes must match bit for bit."""
    counts = np.sort(counts)
    m_values = []
    for n in counts:
        windows = np.lib.stride_tricks.sliding_window_view(f, n + 1)[::n]
        m_values.append((windows.max(axis=1) - windows.min(axis=1)).sum() / (n * dt))
    return counts * dt, np.array(m_values)


def _assert_matches_sliding(f, dt, counts=None):
    curve = box_count(f, dt, counts)
    if counts is None:
        counts = default_box_counts(len(f))
    ref_lengths, ref_m = _sliding_box_count(f, dt, counts)
    assert np.array_equal(curve.lengths, ref_lengths)
    assert np.array_equal(curve.m_values, ref_m)


@pytest.mark.parametrize("seed", range(3))
def test_box_count_matches_sliding_windows_on_random_series(seed):
    rng = np.random.default_rng(seed)
    dt, cut = 0.05, boxcount._SHORT_BOX
    # 8640 = 2^6 3^3 5 and 4 cut (cut + 1) have many exact divisors; the
    # third size leaves a partial window at most lengths
    for m in (8641, 4 * cut * (cut + 1) + 1, 8642 + 7 * seed):
        counts = [1, 2, 3, 5, 8, cut - 1, cut, cut + 1, 2 * cut, 2 * cut + 1,
                  96, 160, (m - 1) // 8, (m - 1) // 3, m - 1]
        for values in (rng.random(m),                          # rough
                       0.5 + 1e-3 * np.cumsum(rng.normal(size=m)),   # walk
                       rng.integers(0, 3, m) * 0.25):          # many ties
            _assert_matches_sliding(values, dt)                # default grid
            _assert_matches_sliding(values, dt, rng.permutation(counts))


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 3000),
       counts=st.lists(st.integers(1, 3000), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_box_count_matches_sliding_windows_property(seed, m, counts):
    rng = np.random.default_rng(seed)
    counts = [1 + (c - 1) % (m - 1) for c in counts]
    _assert_matches_sliding(rng.normal(size=m), 0.1, np.array(counts))


@pytest.mark.parametrize("n_sites, eps_j, t_max", [
    (100, 0.26, 1e3), (100, 1.2, 1e4), (500, 0.6, 1e3), (500, 0.26, 1e4)])
def test_box_count_matches_sliding_windows_on_engine_series(n_sites, eps_j, t_max):
    spec = ChainSpec(n_sites=n_sites, eps_j=eps_j)
    series = fidelity_series(build_hamiltonian(spec, sample_disorder(spec, substream(26, 0))),
                             t_max, 0.05)
    _assert_matches_sliding(series.fidelity, series.dt)


def test_scale_invariance_of_dimension():
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=20_000)) * 1e-3 + 0.5
    base = fit_dimension(box_count(values, 0.05))

    fit_scaled = fit_dimension(box_count(values * 37.0, 0.05))
    assert abs(fit_scaled.params["dimension"] - base.params["dimension"]) < 1e-9

    fit_stretched = fit_dimension(box_count(values, 0.05 * 4.0))
    assert abs(fit_stretched.params["dimension"] - base.params["dimension"]) < 1e-9


@given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10)
def test_scale_invariance_property(scale, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=5_000))
    m1 = box_count(values, 0.1).m_values
    m2 = box_count(values * scale, 0.1).m_values
    assert np.allclose(m2, m1 * scale, rtol=1e-9)


def test_auto_window_excludes_grid_ends():
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(size=50_000)) * 1e-4 + 0.5
    curve = box_count(values, 0.05)
    fit = fit_dimension(curve)
    assert fit.window[0] > curve.lengths[0]
    assert fit.window[1] < curve.lengths[-1]
    assert fit.window[1] / fit.window[0] >= 10.0
    assert len(fit.mask) >= 6


def test_manual_window_override():
    lengths = np.geomspace(0.1, 100.0, 30)
    m = 2.0 * lengths ** -1.2
    m[lengths > 10] = 2.0 * 10.0 ** 0.8 * lengths[lengths > 10] ** -2.0
    curve = BoxCountCurve(lengths=lengths, m_values=m)
    fit = fit_dimension(curve, window=(0.1, 9.0))
    assert abs(fit.params["dimension"] - 1.2) < 1e-9


def test_window_refusal_with_diagnostic():
    # log-convex curve: no decade-wide sub-grid is linear to R^2 >= 0.995
    lengths = np.geomspace(0.1, 100.0, 25)
    curve = BoxCountCurve(lengths=lengths,
                          m_values=np.exp(-np.log(lengths) ** 2))
    with pytest.raises(WindowSelectionError) as err:
        fit_dimension(curve)
    assert "R^2" in str(err.value)


def test_default_box_counts_bounds():
    counts = default_box_counts(200_001)
    assert counts.dtype.kind == "i"
    assert counts[0] == 4
    assert counts[-1] <= 200_000 // 8
    ratios = counts[1:] / counts[:-1]
    assert np.all(ratios <= 2 ** 0.25 * 1.2)


def test_dimension_approaches_one_at_strong_disorder():
    # localization leaves a slowly growing near-linear signal
    spec = ChainSpec(n_sites=200, eps_j=1.2)
    series = fidelity_series(build_hamiltonian(spec, sample_disorder(spec, substream(44, 0))),
                             1e4, 0.05)
    fit = fit_dimension(box_count(series.fidelity, series.dt))
    assert fit.params["dimension"] <= 1.25


def test_dimension_threshold_synthetic_exponent():
    # D(eps) = 2 - eps sqrt(N) crosses 1.6 at eps = 0.4 / sqrt(N); shared
    # relative grids make the interpolation offset cancel exactly in the fit
    curves = {}
    for n in (4, 16, 64):
        eps_c = 0.4 / np.sqrt(n)
        grid = eps_c * np.geomspace(0.5, 2.0, 7)
        curves[n] = (grid, 2.0 - grid * np.sqrt(n))
    scaling = threshold_scaling(curves, 1.6, model="dimension-threshold")
    assert abs(scaling.fit.params["exponent"] + 0.5) < 1e-9
    # refused (NaN) points are dropped before locating the crossing
    curves[4] = (curves[4][0], np.where(curves[4][0] > 0.3, np.nan, curves[4][1]))
    scaling2 = threshold_scaling(curves, 1.6, model="dimension-threshold")
    assert set(scaling2.thresholds) == {4, 16, 64}


def test_dimension_scan_checks_n_real_first():
    from spinchain import dimension_scan

    with pytest.raises(ValueError, match="n_real"):
        dimension_scan((12,), (0.1, 0.6), 0, 17, t_max=200.0, dt=0.05)


@pytest.mark.parametrize("t_max, dt, match", [
    (1.0, 0.05, "series too short"),     # 21 samples, where box counting needs 33
    (np.nan, 0.05, "t_max = nan"),
    (200.0, 0.0, "dt must be > 0")])
def test_dimension_scan_checks_the_series_before_drawing(forbid_draws, t_max, dt, match):
    from spinchain import dimension_scan

    with pytest.raises(ValueError, match=match):
        dimension_scan((12,), (0.1, 0.6), 2, 17, t_max=t_max, dt=dt)


def test_refusal_names_the_brute_force_best_window():
    rng = np.random.default_rng(8)
    lengths = np.geomspace(0.1, 100.0, 25)
    m_values = np.exp(-np.log(lengths) ** 2 + 0.05 * rng.normal(size=lengths.size))
    curve = BoxCountCurve(lengths=lengths, m_values=m_values)
    best_r2, best_window = -np.inf, None
    for i in range(1, lengths.size - 1):
        for j in range(i + 5, lengths.size - 1):
            if lengths[j] / lengths[i] < 10.0:
                continue
            r2 = np.corrcoef(np.log(lengths[i:j + 1]), np.log(m_values[i:j + 1]))[0, 1] ** 2
            if r2 > best_r2:
                best_r2, best_window = r2, (float(lengths[i]), float(lengths[j]))
    assert best_r2 < 0.995
    with pytest.raises(WindowSelectionError) as err:
        fit_dimension(curve)
    assert str(err.value).endswith(
        f"best candidate window={best_window} with R^2={best_r2:.6f}")


def loop_auto_window(lengths, logl, logm, r2_min, min_points, min_ratio):
    """The window rule as a plain double loop over (i, j), R^2 from prefix
    sums: the reference the vectorized search must match bit for bit."""
    z = np.zeros(1)
    sx, sy, sxx, sxy, syy = (np.concatenate([z, np.cumsum(logl)]),
                             np.concatenate([z, np.cumsum(logm)]),
                             np.concatenate([z, np.cumsum(logl * logl)]),
                             np.concatenate([z, np.cumsum(logl * logm)]),
                             np.concatenate([z, np.cumsum(logm * logm)]))

    def r_squared(i, j):
        n = j - i + 1
        px = sx[j + 1] - sx[i]
        py = sy[j + 1] - sy[i]
        cxx = (sxx[j + 1] - sxx[i]) - px * px / n
        cxy = (sxy[j + 1] - sxy[i]) - px * py / n
        cyy = (syy[j + 1] - syy[i]) - py * py / n
        if cxx <= 0:
            return -np.inf
        rss = cyy - cxy * cxy / cxx
        if cyy <= 0:
            return 1.0 if abs(rss) < 1e-30 else -np.inf
        return 1.0 - rss / cyy

    n = lengths.shape[0]
    best, best_key, closest = None, None, (None, -np.inf)
    for i in range(1, n - 1):
        for j in range(i + min_points - 1, n - 1):
            if lengths[j] / lengths[i] < min_ratio:
                continue
            r2 = r_squared(i, j)
            if r2 > closest[1]:
                closest = ((float(lengths[i]), float(lengths[j])), r2)
            if r2 < r2_min:
                continue
            edge = min(i, (n - 1) - j)
            key = (round(r2, 9), j - i, edge, -abs(i - ((n - 1) - j)))
            if best_key is None or key > best_key:
                best, best_key = (i, j, r2), key
    return best, closest


def _two_segments(first, second):
    """30-point grid, log-noise except on two exact power-law segments
    (grid index ranges, both inclusive) of different slopes."""
    lengths = np.geomspace(0.1, 100.0, 30)
    logm = np.random.default_rng(5).normal(size=30)
    for (lo, hi), slope in ((first, -1.3), (second, -1.8)):
        logm[lo:hi + 1] = slope * np.log(lengths[lo:hi + 1])
    return BoxCountCurve(lengths=lengths, m_values=np.exp(logm))


def _synthetic_window_curve(case):
    lengths = np.geomspace(0.1, 100.0, 30)
    if case == "power-law":
        # every window ties at R^2 ~ 1: the longest one wins
        return BoxCountCurve(lengths=lengths, m_values=3.7 * lengths ** -1.5)
    if case == "mirror-segments":
        # equal length, edge and centring: the first in (i, j) order wins
        return _two_segments((2, 12), (17, 27))
    if case == "edge-decides":
        # equal length: the segment farther from the grid ends wins
        return _two_segments((2, 12), (15, 25))
    if case == "constant-stretch":
        # M = 1 on L in [0.5, 20]: log M = 0 there, cyy = 0 exactly
        flat = (lengths >= 0.5) & (lengths <= 20.0)
        m = np.where(lengths < 0.5, (lengths / 0.5) ** -1.2,
                     np.where(flat, 1.0, (lengths / 20.0) ** -1.7))
        return BoxCountCurve(lengths=lengths, m_values=m)
    if case == "no-admissible-window":
        return BoxCountCurve(lengths=lengths, m_values=np.exp(-np.log(lengths) ** 2))
    n_sites, eps_j, seed = case
    spec = ChainSpec(n_sites=n_sites, eps_j=eps_j)
    series = fidelity_series(build_hamiltonian(spec, sample_disorder(spec, substream(seed, 0))),
                             200.0, 0.05)
    return dimension_of_series(series)[1]


@pytest.mark.parametrize("case", [
    "power-law", "mirror-segments", "edge-decides", "constant-stretch",
    "no-admissible-window", (12, 0.1, 3), (30, 0.26, 4), (60, 0.6, 5), (60, 1.2, 6)])
def test_auto_window_matches_the_plain_loop(case):
    curve = _synthetic_window_curve(case)
    assert np.all(curve.m_values > 0)
    lengths, logl, logm = curve.lengths, np.log(curve.lengths), np.log(curve.m_values)
    best, closest = loop_auto_window(lengths, logl, logm, R2_MIN, MIN_POINTS, MIN_RATIO)
    got_best, got_closest = _auto_window(lengths, logl, logm)
    assert got_closest[0] == closest[0]
    assert float(got_closest[1]).hex() == float(closest[1]).hex()
    if best is None:
        assert got_best is None
        with pytest.raises(WindowSelectionError) as err:
            fit_dimension(curve)
        assert str(err.value).endswith(
            f"best candidate window={closest[0]} with R^2={closest[1]:.6f}")
        return
    i, j, r2 = best
    assert got_best[:2] == (i, j)
    assert float(got_best[2]).hex() == float(r2).hex()
    fit = fit_dimension(curve)
    assert fit.window == (float(lengths[i]), float(lengths[j]))
    assert fit.mask == tuple(range(i, j + 1))
