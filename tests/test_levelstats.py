import decimal

import numpy as np
import pytest
from oracles import oracle_sturm_level
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (ChainSpec, SpacingSample, collect_spacings, eta, eta_scan,
                       hamiltonian_block, levelstats, spacing_histogram)
from spinchain.fitting import threshold_scaling


def test_clean_chain_spacings_are_one():
    sample = collect_spacings(ChainSpec(n_sites=100), n_real=5, master_seed=1)
    assert sample.spacings.shape == (5 * 99,)
    assert np.allclose(sample.spacings, 1.0, atol=1e-9)


def test_two_site_single_spacing_exactly_one():
    sample = collect_spacings(ChainSpec(n_sites=2, eps_j=0.9, eps_b=0.4),
                              n_real=50, master_seed=2)
    assert np.all(sample.spacings == 1.0)


@given(eps_j=st.floats(0, 1), seed=st.integers(0, 2 ** 32))
@settings(max_examples=15)
def test_per_realization_normalization(eps_j, seed):
    spec = ChainSpec(n_sites=40, eps_j=eps_j)
    sample = collect_spacings(spec, n_real=3, master_seed=seed)
    per_real = sample.spacings.reshape(3, 39)
    assert np.all(np.abs(per_real.mean(axis=1) - 1.0) <= 1e-12)
    assert np.all(sample.spacings >= 0.0)


def test_histogram_mass_is_one():
    rng = np.random.default_rng(0)
    for values in (rng.exponential(1.0, 5000), rng.uniform(0.0, 9.0, 2000),
                   np.full(100, 1.0)):
        hist = spacing_histogram(values)
        assert abs(hist.mass - 1.0) <= 1e-12


def test_histogram_centers_sit_on_multiples_of_w():
    hist = spacing_histogram(np.array([0.2, 1.0, 2.5]), bin_width=0.05)
    # the bin containing s=1 is centered on it
    k = np.searchsorted(hist.edges, 1.0, side="right") - 1
    assert abs(hist.centers[k] - 1.0) < 1e-12


def test_eta_clean_is_exactly_one():
    sample = collect_spacings(ChainSpec(n_sites=100), n_real=10, master_seed=3)
    assert eta(sample) == 1.0


def test_eta_synthetic_poisson_near_zero():
    rng = np.random.default_rng(1)
    sample = SpacingSample(spacings=rng.exponential(1.0, 100_000), n_realizations=1)
    assert eta(sample) <= 0.05


def test_eta_empty_sample_rejected():
    with pytest.raises(ValueError):
        eta(SpacingSample(spacings=np.array([]), n_realizations=0))


def test_eta_refuses_a_bin_width_with_no_center_in_unit_interval():
    # the first bin [0, w/2) is centered at w/4: inside [0, 1] up to w = 4
    spacings = np.linspace(0.1, 3.0, 50)
    assert 0.0 <= spacing_histogram(spacings, 4.0).eta < np.inf
    with pytest.raises(ValueError, match="bin width 5.0 leaves no bin center"):
        spacing_histogram(spacings, 5.0).eta


def test_eta_weak_disorder_stays_high():
    spec = ChainSpec(n_sites=100, eps_j=1e-3)
    sample = collect_spacings(spec, n_real=100, master_seed=4)
    assert eta(sample) >= 0.9


def test_eta_monotone_trend_in_disorder():
    values = []
    for i, eps in enumerate([1e-3, 1e-2, 5e-2, 2e-1, 1.0]):
        spec = ChainSpec(n_sites=80, eps_j=eps)
        sample = collect_spacings(spec, n_real=150, master_seed=5, key_prefix=(i,))
        values.append(eta(sample))
    assert all(a >= b - 0.02 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 + 0.05 for v in values)


def test_strong_disorder_spacing_cdf_near_exponential():
    from scipy import stats
    spec = ChainSpec(n_sites=100, eps_j=1.0)
    sample = collect_spacings(spec, n_real=1000, master_seed=6)
    ks = stats.kstest(sample.spacings, lambda x: 1.0 - np.exp(-x)).statistic
    assert ks <= 0.02
    # sanity: a synthetic exponential sample of the same size scores lower
    rng = np.random.default_rng(7)
    ks_ref = stats.kstest(rng.exponential(1.0, sample.spacings.size),
                          lambda x: 1.0 - np.exp(-x)).statistic
    assert ks_ref <= 0.02


def test_eta_threshold_recovers_synthetic_exponent():
    # eta(eps) = exp(-a N eps^2) crosses target at eps_c = sqrt(-ln(target)/(aN)).
    # In u = ln eps the curve shape is N-independent once grids share their
    # relative structure, so the interpolation offset cancels and the fitted
    # exponent is exactly -1/2.
    a, target = 7.0, 0.5
    curves = {}
    for n in (4, 16, 64, 256):
        eps_c = np.sqrt(-np.log(target) / (a * n))
        grid = eps_c * np.geomspace(0.25, 4.0, 9)
        curves[n] = (grid, np.exp(-a * n * grid ** 2))
    scaling = threshold_scaling(curves, target, model="eta-threshold")
    assert abs(scaling.fit.params["exponent"] + 0.5) < 1e-9
    # crossing points scale exactly by 2 when N grows by 4
    ratios = [scaling.thresholds[4] / scaling.thresholds[16],
              scaling.thresholds[16] / scaling.thresholds[64],
              scaling.thresholds[64] / scaling.thresholds[256]]
    assert np.allclose(ratios, 2.0, rtol=1e-9)


def test_eta_threshold_reports_out_of_range():
    curves = {
        10: (np.array([0.1, 0.2, 0.4]), np.array([0.9, 0.7, 0.3])),
        20: (np.array([0.1, 0.2, 0.4]), np.array([0.95, 0.9, 0.85])),  # never crosses
        40: (np.array([0.1, 0.2, 0.4]), np.array([0.8, 0.55, 0.2])),
    }
    scaling = threshold_scaling(curves, 0.5, model="eta-threshold")
    assert 20 not in scaling.thresholds
    assert any(n == 20 for n, _ in scaling.skipped)


def test_collect_spacings_matches_hand_loop_over_keys():
    from scipy.linalg import eigvalsh_tridiagonal

    from spinchain import build_hamiltonian, sample_disorder, substream

    spec = ChainSpec(n_sites=18, eps_j=0.4, eps_b=0.2)
    sample = collect_spacings(spec, 5, 31, key_prefix=(1,))
    pooled = []
    for r in range(5):
        h = build_hamiltonian(spec, sample_disorder(spec, substream(31, 1, r)))
        gaps = np.diff(np.sort(eigvalsh_tridiagonal(h.diag, h.offdiag,
                                                    lapack_driver="sterf")))
        pooled.append(gaps / gaps.mean())
    assert np.array_equal(sample.spacings, np.concatenate(pooled))
    assert sample.n_realizations == 5


def test_collect_spacings_refuses_no_realizations_before_drawing(forbid_draws):
    with pytest.raises(ValueError, match="n_real"):
        collect_spacings(ChainSpec(n_sites=9, eps_j=0.3), 0, 12)


@pytest.mark.parametrize("bin_width", [5.0, 0.0, -0.05, np.nan])
def test_eta_scan_refuses_a_bin_width_before_drawing(forbid_draws, bin_width):
    # eta needs a width of at most 4; a scan checks that before its first cell
    with pytest.raises(ValueError, match=r"bin_width must lie in \(0, 4\]"):
        eta_scan((200,), (0.1,), 300, 1, bin_width=bin_width)


# ---------------------------------------------------------------------------
# eigvalsh_tridiagonal: dqds on the chiral half of a zero-field chain, sterf
# on any other
# ---------------------------------------------------------------------------

def _sterf(d, e):
    from scipy.linalg import eigvalsh_tridiagonal as scipy_eigvalsh
    return scipy_eigvalsh(d, e, lapack_driver="sterf")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 51, 200, 501])
@pytest.mark.parametrize("eps_j", [0.0, 0.3, 1.0, 3.0])
def test_zero_field_levels_agree_with_sterf(n, eps_j):
    # measured: at most 2.0e-14 max|e| at N = 501, 7e-15 max|e| up to N = 200
    diag, offdiag = hamiltonian_block(ChainSpec(n_sites=n, eps_j=eps_j), 41, (n,), range(3))
    for d, e in zip(diag, offdiag):
        assert not d.any()
        levels = levelstats.eigvalsh_tridiagonal(d, e)
        assert levels.shape == (n,) and np.all(np.diff(levels) >= 0)
        assert np.max(np.abs(levels - _sterf(d, e))) <= 1e-13 * np.max(np.abs(e))
        if n % 2:
            assert levels[n // 2] == 0.0  # the chiral zero level, exactly


@pytest.mark.parametrize("site", [0, 24, 49])
def test_a_chain_with_a_field_takes_sterfs_bytes(site):
    spec = ChainSpec(n_sites=50, eps_j=1.0)
    d, e = (a[0] for a in hamiltonian_block(spec, 3, (), range(1)))
    d = d.copy()
    d[site] = 5e-324  # the smallest nonzero double is a field
    assert levelstats.eigvalsh_tridiagonal(d, e).tobytes() == _sterf(d, e).tobytes()


def test_sterf_bytes_on_random_chains_with_fields():
    # the capsule-bound sterf against scipy's wrapper of the same routine:
    # N from 1 to 300, couplings of either sign down to 1e-20 in size
    rng = np.random.default_rng(2025)
    sizes = np.concatenate(([1, 2, 3, 300], rng.integers(1, 301, size=296)))
    for k, n in enumerate(sizes):
        d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
        d[rng.integers(n)] += 1e-3  # a field on at least one site
        e = rng.choice([-1.0, 1.0], size=n - 1) * 10.0 ** rng.uniform(-20, 1, size=n - 1)
        if k % 3 == 0 and n > 1:
            e[rng.integers(n - 1, size=min(n - 1, 3))] = 1e-20 * rng.choice([-1.0, 1.0])
        assert np.array_equal(levelstats.eigvalsh_tridiagonal(d, e), _sterf(d, e)), (k, n)


@pytest.mark.parametrize("field", [0.0, 0.7])
def test_the_callers_arrays_are_not_written_to(field):
    d, e = (a[0].copy() for a in hamiltonian_block(
        ChainSpec(n_sites=40, eps_j=1.0, eps_b=field), 9, (), range(1)))
    d_before, e_before = d.copy(), e.copy()
    levelstats.eigvalsh_tridiagonal(d, e)
    assert d.tobytes() == d_before.tobytes() and e.tobytes() == e_before.tobytes()


def test_a_negative_zero_diagonal_takes_the_chiral_route(monkeypatch):
    e = hamiltonian_block(ChainSpec(n_sites=31, eps_j=0.5), 5, (), range(1))[1][0]
    expected = levelstats.eigvalsh_tridiagonal(np.zeros(31), e)

    def no_sterf(*args, **kwargs):
        raise AssertionError("sterf ran on a zero-field chain")

    monkeypatch.setitem(levelstats._BOUND, "dsterf", no_sterf)
    d = np.full(31, -0.0)
    d[::2] = 0.0
    assert levelstats.eigvalsh_tridiagonal(d, e).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 9, 10, 41])
def test_sturm_oracle_and_dqds_read_the_clean_chains_levels(n):
    # the clean couplings 2 sqrt(k (N - k)) have the levels 2 (2m - N + 1)
    exact = [2 * (2 * m - n + 1) for m in range(n)]
    with decimal.localcontext() as ctx:
        ctx.prec = 70
        couplings = [(4 * decimal.Decimal(k * (n - k))).sqrt() for k in range(1, n)]
    for m in range(n):
        assert abs(oracle_sturm_level(couplings, m) - exact[m]) <= decimal.Decimal("1e-50")
    k = np.arange(1, n)
    levels = levelstats.eigvalsh_tridiagonal(np.zeros(n), 2 * np.sqrt(k * (n - k)))
    assert np.max(np.abs(levels - exact)) <= 1e-14 * n
    if n % 2:
        assert levels[n // 2] == 0.0


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("eps_j", [1.0, 1.2, 3.0])
def test_central_level_of_strong_disorder_matches_the_sturm_oracle(n, eps_j):
    # the central level lies between 4e-17 and 2e-2 on these 18 chains;
    # dqds reads it to at most 2.4e-15 relative, where sterf misses it by
    # up to 101 times its size (at E = 4.3e-17, N = 200, eps_j = 1.2)
    diag, offdiag = hamiltonian_block(ChainSpec(n_sites=n, eps_j=eps_j), 2005, (n,), range(3))
    for d, e in zip(diag, offdiag):
        level = levelstats.eigvalsh_tridiagonal(d, e)[n // 2]
        reference = oracle_sturm_level(e, n // 2)
        assert abs(decimal.Decimal(level) - reference) <= decimal.Decimal("1e-14") * reference


def test_a_nonzero_info_from_dqds_raises_naming_n(monkeypatch):
    levelstats.eigvalsh_tridiagonal(np.zeros(2), np.ones(1))  # binds dlasq1

    def failing_dlasq1(n, diag, superdiag, work, info):
        info._obj.value = 2

    monkeypatch.setitem(levelstats._BOUND, "dlasq1", failing_dlasq1)
    with pytest.raises(np.linalg.LinAlgError, match=r"N = 7: INFO = 2"):
        levelstats.eigvalsh_tridiagonal(np.zeros(7), np.ones(6))


def test_a_nonzero_info_from_sterf_raises_naming_n(monkeypatch):
    def failing_sterf(n, d, e, info):
        info._obj.value = 3

    monkeypatch.setitem(levelstats._BOUND, "dsterf", failing_sterf)
    with pytest.raises(np.linalg.LinAlgError, match=r"sterf failed .* N = 7: INFO = 3"):
        levelstats.eigvalsh_tridiagonal(np.full(7, 0.5), np.ones(6))


def test_a_missing_or_mismatched_dlasq1_capsule_raises_import_error(monkeypatch):
    import scipy
    from scipy.linalg import cython_lapack

    monkeypatch.setattr(levelstats, "_BOUND", {})
    capsules = cython_lapack.__pyx_capi__
    monkeypatch.setitem(capsules, "dlasq1", capsules["dsterf"])
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__}: .*signature"):
        levelstats.eigvalsh_tridiagonal(np.zeros(4), np.ones(3))
    monkeypatch.delitem(capsules, "dlasq1")
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__}: .*no dlasq1"):
        levelstats.eigvalsh_tridiagonal(np.zeros(4), np.ones(3))
    assert "dlasq1" not in levelstats._BOUND


def test_a_missing_or_mismatched_dsterf_capsule_raises_import_error(monkeypatch):
    import scipy
    from scipy.linalg import cython_lapack

    monkeypatch.setattr(levelstats, "_BOUND", {})
    capsules = cython_lapack.__pyx_capi__
    monkeypatch.setitem(capsules, "dsterf", capsules["dlasq1"])
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__}: .*signature"):
        levelstats.eigvalsh_tridiagonal(np.ones(4), np.ones(3))
    monkeypatch.delitem(capsules, "dsterf")
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__}: .*no dsterf"):
        levelstats.eigvalsh_tridiagonal(np.ones(4), np.ones(3))
    assert "dsterf" not in levelstats._BOUND


@pytest.mark.parametrize("e", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, 2.0]])
def test_zero_field_couplings_must_be_n_minus_1_and_finite(e):
    # neither LAPACK routine checks them; eigvalsh_tridiagonal does, on both
    # routes: a zero-field d (dqds) and one with fields (sterf)
    for d in (np.zeros(4), np.array([0.0, 0.3, 0.0, -0.1])):
        with pytest.raises(ValueError, match="N = 4 sites needs N - 1 finite couplings"):
            levelstats.eigvalsh_tridiagonal(d, np.array(e))


@pytest.mark.parametrize("field", [np.nan, np.inf, -np.inf])
def test_fields_must_be_finite(field):
    d = np.array([0.0, field, 0.0, 0.2])
    with pytest.raises(ValueError, match="N = 4 sites needs N - 1 finite couplings "
                                         "and N finite fields"):
        levelstats.eigvalsh_tridiagonal(d, np.ones(3))
