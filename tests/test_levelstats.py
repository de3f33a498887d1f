import collections
import ctypes
import decimal
import sys
import threading
import time

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
# collect_spacings on threads: worker j of w takes rows j, j + w, ...
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [ChainSpec(n_sites=18, eps_j=0.4),
                                  ChainSpec(n_sites=17, eps_j=0.4, eps_b=0.2)],
                         ids=["zero-field", "fields"])
@pytest.mark.parametrize("n_real", [1, 2, 5, 9])
def test_the_worker_count_does_not_change_the_spacings(monkeypatch, spec, n_real):
    monkeypatch.setattr(levelstats, "_cpus", lambda: 1)
    reference = collect_spacings(spec, n_real, 31, (2,)).spacings.tobytes()
    for cpus in (2, 3, 7):
        monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
        assert collect_spacings(spec, n_real, 31, (2,)).spacings.tobytes() == reference


def test_the_worker_count_does_not_change_eta_scan(monkeypatch):
    args = ((10, 31), (0.003, 0.3, 1.0), 6, 4)
    monkeypatch.setattr(levelstats, "_cpus", lambda: 1)
    reference = eta_scan(*args)
    for cpus in (2, 3, 7):
        monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
        assert eta_scan(*args) == reference


def _doubles(address, count):
    """A copy of the count doubles at address."""
    return np.array((ctypes.c_double * count).from_address(address))


def _rows_on_threads(monkeypatch, spec, n_real, seed, fail=None):
    """Wrap the bound LAPACK routines (the ones in levelstats._BOUND) to
    record chain -> thread of each call in the returned dict, telling
    the rows of hamiltonian_block(spec, seed, (), range(n_real)) apart by
    the D each call is handed.  fail(row, D), when given, runs after the
    real call and returns the INFO written back (0 leaves it)."""
    diag, offdiag = hamiltonian_block(spec, seed, (), range(n_real))
    handed = {"dsterf": diag, "dlasq1": np.abs(offdiag[:, 0::2])}
    ran = {}

    def wrap(name):
        real, rows = levelstats._lapack(name), handed[name]

        def routine(*args):
            start = _doubles(args[1], rows.shape[1])
            r = next(k for k, row in enumerate(rows) if np.array_equal(row, start))
            ran[r] = threading.current_thread()
            real(*args)
            if fail is not None and (info := fail(r, args[1])):
                ctypes.c_int.from_address(args[-1]).value = info

        monkeypatch.setitem(levelstats._BOUND, name, routine)

    for name in handed:
        wrap(name)
    return ran


@pytest.mark.parametrize("cpus, n_real", [(1, 4), (3, 8), (7, 2)])
def test_worker_j_takes_every_wth_row_from_row_j(monkeypatch, cpus, n_real):
    ran = _rows_on_threads(monkeypatch, ChainSpec(n_sites=12, eps_j=0.5), n_real, 8)
    monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
    collect_spacings(ChainSpec(n_sites=12, eps_j=0.5), n_real, 8)
    workers = min(cpus, n_real)
    assert sorted(ran) == list(range(n_real))
    assert all(ran[r] == ran[r % workers] for r in ran)
    assert ran[0] is threading.current_thread()     # the caller is worker 0
    assert len(set(ran.values())) == workers


def test_more_workers_than_cores_switching_every_microsecond_lose_no_row(monkeypatch):
    spec = ChainSpec(n_sites=21, eps_j=0.7)
    monkeypatch.setattr(levelstats, "_cpus", lambda: 1)
    references = [collect_spacings(spec, 48, seed).spacings.tobytes() for seed in range(4)]
    real = levelstats._lapack("dlasq1")
    rows = []       # list.append is atomic: every solved row lands once

    def recording(*args):
        rows.append(_doubles(args[1], 11).tobytes())
        real(*args)

    monkeypatch.setitem(levelstats._BOUND, "dlasq1", recording)
    monkeypatch.setattr(levelstats, "_cpus", lambda: 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in reversed(range(4)):
            rows.clear()
            assert collect_spacings(spec, 48, seed).spacings.tobytes() == references[seed]
            assert len(rows) == len(set(rows)) == 48
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_the_lowest_failing_row_raises_once_every_thread_joins(monkeypatch, cpus):
    def fail(r, d):
        if r == 3:
            time.sleep(0.02)    # row 5's INFO comes first in time
            return 3
        return 5 if r == 5 else 0

    ran = _rows_on_threads(monkeypatch, ChainSpec(n_sites=12, eps_j=0.5), 8, 8, fail)
    monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match=r"row 3: dqds .* N = 12: INFO = 3$"):
        collect_spacings(ChainSpec(n_sites=12, eps_j=0.5), 8, 8)
    assert threading.active_count() == threads
    assert sorted(ran) == list(range(8))


def test_the_callers_errstate_holds_in_every_worker(monkeypatch):
    # row 1, on worker 1, comes back with every level 0: a zero mean gap, 0 / 0
    def zero_levels(r, d):
        if r == 1:
            ctypes.memset(d, 0, 6 * 8)
        return 0

    spec = ChainSpec(n_sites=12, eps_j=0.5)
    ran = _rows_on_threads(monkeypatch, spec, 4, 8, zero_levels)
    monkeypatch.setattr(levelstats, "_cpus", lambda: 2)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        collect_spacings(spec, 4, 8)
    assert ran[1] is not threading.current_thread()


def test_a_threaded_call_binds_each_routine_once(monkeypatch):
    bound = collections.Counter()

    class Counting(dict):
        def __setitem__(self, name, routine):
            bound[name] += 1
            super().__setitem__(name, routine)

    load = levelstats._cython_lapack

    def slow_load():
        time.sleep(0.01)        # lets every thread that binds for itself in
        return load()

    monkeypatch.setattr(levelstats, "_BOUND", Counting())
    monkeypatch.setattr(levelstats, "_cython_lapack", slow_load)
    monkeypatch.setattr(levelstats, "_cpus", lambda: 4)
    collect_spacings(ChainSpec(n_sites=12, eps_j=0.5), 8, 3)
    collect_spacings(ChainSpec(n_sites=12, eps_j=0.5, eps_b=0.3), 8, 3)
    assert bound == {"dlasq1": 1, "dsterf": 1}


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
        ctypes.c_int.from_address(info).value = 2

    monkeypatch.setitem(levelstats._BOUND, "dlasq1", failing_dlasq1)
    with pytest.raises(np.linalg.LinAlgError, match=r"N = 7: INFO = 2"):
        levelstats.eigvalsh_tridiagonal(np.zeros(7), np.ones(6))


def test_a_nonzero_info_from_sterf_raises_naming_n(monkeypatch):
    def failing_sterf(n, d, e, info):
        ctypes.c_int.from_address(info).value = 3

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


# ---------------------------------------------------------------------------
# eigvalsh_tridiagonal on a stack of chains: one row of levels per chain
# ---------------------------------------------------------------------------

def _stack(n, chains, kind):
    """chains rows of N = n: zero-field, with fields, or mixed (the odd
    rows zero-field, row 0's one field 5e-324, the others with fields)."""
    eps_b = 0.0 if kind == "zero-field" else 0.3
    diag, offdiag = hamiltonian_block(ChainSpec(n_sites=n, eps_j=0.8, eps_b=eps_b),
                                      17, (n,), range(chains))
    if kind == "mixed":
        diag[1::2] = diag[0] = 0.0
        diag[0, n // 2] = 5e-324
    return diag, offdiag


@pytest.mark.parametrize("kind", ["zero-field", "fields", "mixed"])
@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("chains", [1, 2, 7])
def test_a_stack_takes_the_bytes_of_its_chains_one_by_one(kind, n, chains):
    diag, offdiag = _stack(n, chains, kind)
    levels = levelstats.eigvalsh_tridiagonal(diag, offdiag)
    assert levels.shape == (chains, n)
    one_by_one = [levelstats.eigvalsh_tridiagonal(d, e) for d, e in zip(diag, offdiag)]
    assert all(row.shape == (n,) for row in one_by_one)
    assert levels.tobytes() == np.concatenate(one_by_one).tobytes()


def test_the_worker_count_does_not_change_a_stacks_levels(monkeypatch):
    diag, offdiag = _stack(31, 23, "mixed")
    monkeypatch.setattr(levelstats, "_cpus", lambda: 1)
    reference = levelstats.eigvalsh_tridiagonal(diag, offdiag).tobytes()
    for cpus in (2, 3, 7):
        monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
        assert levelstats.eigvalsh_tridiagonal(diag, offdiag).tobytes() == reference


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_a_nonzero_info_on_rows_3_and_5_raises_row_3_once_every_thread_joins(monkeypatch, cpus):
    diag, offdiag = _stack(12, 8, "zero-field")
    real = levelstats._lapack("dlasq1")
    firsts = np.abs(offdiag[:, 0]).tolist()
    solved = []

    def failing_dlasq1(n, d, e, work, info):
        r = firsts.index(ctypes.c_double.from_address(d).value)
        real(n, d, e, work, info)
        if r == 3:
            time.sleep(0.02)    # row 5's INFO comes first in time
        if r in (3, 5):
            ctypes.c_int.from_address(info).value = r
        if r == 6:
            time.sleep(0.05)    # the last row to finish
        solved.append(r)

    monkeypatch.setitem(levelstats._BOUND, "dlasq1", failing_dlasq1)
    monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^row 3: dqds \(dlasq1\) failed on the zero-field chain "
                             r"of N = 12: INFO = 3$"):
        levelstats.eigvalsh_tridiagonal(diag, offdiag)
    assert sorted(solved) == list(range(8))
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_a_workers_exception_raises_for_the_lowest_row_once_every_thread_joins(
        monkeypatch, cpus):
    diag, offdiag = _stack(12, 8, "fields")
    firsts = diag[:, 0].tolist()

    def raising_sterf(n, d, e, info):
        r = firsts.index(ctypes.c_double.from_address(d).value)
        if r == 3:
            time.sleep(0.02)
            raise KeyError("row 3")
        if r == 5:
            raise ValueError("row 5")

    monkeypatch.setitem(levelstats._BOUND, "dsterf", raising_sterf)
    monkeypatch.setattr(levelstats, "_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(KeyError, match="row 3"):
        levelstats.eigvalsh_tridiagonal(diag, offdiag)
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["field", "coupling"])
def test_a_non_finite_row_raises_before_any_lapack_call(monkeypatch, where):
    diag, offdiag = _stack(12, 6, "mixed")
    (diag if where == "field" else offdiag)[4, 3] = np.inf

    def no_lapack(*args):
        raise AssertionError("LAPACK ran on a block with a non-finite row")

    for name in levelstats._SIGNATURES:
        monkeypatch.setitem(levelstats._BOUND, name, no_lapack)
    with pytest.raises(ValueError, match="N = 12 sites needs N - 1 finite couplings"):
        levelstats.eigvalsh_tridiagonal(diag, offdiag)
