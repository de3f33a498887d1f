import decimal
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from spinchain import (ChainSpec, DisorderRealization, FidelitySeries, build_hamiltonian,
                       ensemble_averages, fidelity_of_amplitude,
                       fidelity_series, sample_disorder, substream,
                       transfer_time)
from spinchain import evolve, levelstats
from spinchain.chain import TridiagonalHamiltonian, hamiltonian_block, spectral_half_width
from spinchain.evolve import (_chebyshev_coefficients, _chebyshev_transfer_amplitude,
                              _end_to_end_weights, _newton_step,
                              _transfer_amplitude_uniform, _transfer_spectrum)

from oracles import (amplitudes, chebyshev_transfer_amplitude, eigendecompose,
                     oracle_amplitudes, oracle_sturm_level, oracle_transfer_series,
                     sector_matrix, transfer_amplitude)


def clean_hamiltonian(n):
    return build_hamiltonian(ChainSpec(n_sites=n),
                             DisorderRealization(np.zeros(n - 1), np.zeros(n)))


def _chebyshev(hams, half_width, times):
    """_chebyshev_transfer_amplitude of a list of Hamiltonians."""
    return _chebyshev_transfer_amplitude(np.array([h.diag for h in hams]),
                                         np.array([h.offdiag for h in hams]),
                                         half_width, times)


def _random_disordered_h(n, eps_j, eps_b, seed):
    spec = ChainSpec(n_sites=n, eps_j=eps_j, eps_b=eps_b)
    return build_hamiltonian(spec, sample_disorder(spec, substream(seed, 0)))


def test_clean_three_site_spectrum():
    eigenvalues, _ = eigendecompose(clean_hamiltonian(3))
    assert np.allclose(eigenvalues, [-4.0, 0.0, 4.0], atol=1e-12)


def test_clean_hundred_site_gaps_are_4j():
    eigenvalues, _ = eigendecompose(clean_hamiltonian(100))
    gaps = np.diff(eigenvalues)
    assert gaps.shape == (99,)
    assert np.all(np.abs(gaps - 4.0) <= 1e-8 * 4.0)


@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32))
@settings(max_examples=25)
def test_reconstruction_and_orthonormality(n, seed):
    h = _random_disordered_h(n, 0.5, 0.3, seed)
    w, v = eigendecompose(h)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
    dense = h.dense()
    residual = np.max(np.abs(v @ np.diag(w) @ v.T - dense))
    assert residual <= 1e-10 * max(np.max(np.abs(dense)), 1.0)


def test_eigenvector_sign_convention():
    _, v = eigendecompose(clean_hamiltonian(12))
    for m in range(12):
        col = v[:, m]
        assert col[np.argmax(col != 0.0)] > 0


def test_amplitude_at_zero_time_is_initial_state():
    sd = eigendecompose(_random_disordered_h(17, 0.2, 0.1, seed=5))
    f = amplitudes(sd, 0.0)
    expected = np.zeros(17, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(f, expected, atol=1e-12)


def test_perfect_transfer_n100():
    sd = eigendecompose(clean_hamiltonian(100))
    f = amplitudes(sd, transfer_time())
    assert abs(abs(f[-1]) - 1.0) <= 1e-9


def test_five_site_amplitude_closed_form_and_oracle():
    sd = eigendecompose(clean_hamiltonian(5))
    f5 = amplitudes(sd, 0.3)[-1]
    assert abs(abs(f5) - np.sin(0.6) ** 4) < 1e-10
    oracle = oracle_amplitudes(sector_matrix(5), 0.3)
    assert np.max(np.abs(amplitudes(sd, 0.3) - oracle)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_clean_closed_form_against_expm_oracle(n):
    sd = eigendecompose(clean_hamiltonian(n))
    for t in (0.05, 0.3, 1.1, 2.7):
        f = amplitudes(sd, t)
        oracle = oracle_amplitudes(sector_matrix(n), t)
        assert np.max(np.abs(f - oracle)) < 1e-8
        assert abs(abs(f[-1]) - np.abs(np.sin(2 * t)) ** (n - 1)) < 1e-8


@given(n=st.integers(2, 40), eps_j=st.floats(0, 0.8), eps_b=st.floats(0, 0.5),
       t=st.floats(0, 100), seed=st.integers(0, 2 ** 32))
@settings(max_examples=30)
def test_unitarity_and_reciprocity(n, eps_j, eps_b, t, seed):
    sd = eigendecompose(_random_disordered_h(n, eps_j, eps_b, seed))
    f = amplitudes(sd, t)
    assert abs(np.sum(np.abs(f) ** 2) - 1.0) <= 1e-10
    # <N|U|1> = <1|U|N> for a real symmetric Hamiltonian
    w, v = sd
    phase = np.exp(-1j * w * t)
    from_last = v @ (phase * v[-1])
    assert abs(f[-1] - from_last[0]) <= 1e-10


def test_unitarity_long_time_large_chain():
    sd = eigendecompose(_random_disordered_h(500, 0.3, 0.1, seed=9))
    f = amplitudes(sd, 1e4)
    assert abs(np.sum(np.abs(f) ** 2) - 1.0) <= 1e-10


def test_fidelity_of_amplitude_endpoints():
    assert fidelity_of_amplitude(1.0) == 1.0
    assert fidelity_of_amplitude(0.0) == 0.5
    assert abs(fidelity_of_amplitude(0.5) - (0.5 / 3 + 0.25 / 6 + 0.5)) < 1e-15
    # phase independence
    assert fidelity_of_amplitude(0.3 + 0.4j) == fidelity_of_amplitude(0.5)


def test_fidelity_clamps_tolerated_overshoot_and_rejects_more():
    assert fidelity_of_amplitude(1.0 + 5e-10) == 1.0
    with pytest.raises(ValueError):
        fidelity_of_amplitude(1.0 + 1e-6)


@given(st.complex_numbers(max_magnitude=1.0))
@settings(max_examples=60)
def test_fidelity_range(z):
    f = fidelity_of_amplitude(z)
    assert 0.5 <= f <= 1.0


def test_series_grid_and_formula_consistency():
    spec = ChainSpec(n_sites=30, eps_j=0.05)
    real = sample_disorder(spec, substream(3, 0))
    series = fidelity_series(build_hamiltonian(spec, real), 12.0, 0.05)
    assert series.times[0] == 0.0
    assert np.allclose(np.diff(series.times), 0.05)
    assert series.times[-1] <= 12.0 + 1e-12
    mod = np.minimum(np.abs(series.amplitude), 1.0)
    assert np.array_equal(series.fidelity, mod / 3.0 + mod * mod / 6.0 + 0.5)
    assert np.all(series.fidelity >= 0.5) and np.all(series.fidelity <= 1.0)


def test_series_fast_path_matches_direct_evaluation():
    spec = ChainSpec(n_sites=80, eps_j=0.1, eps_b=0.05)
    real = sample_disorder(spec, substream(21, 0))
    series = fidelity_series(build_hamiltonian(spec, real), 300.0, 0.05)
    sd = eigendecompose(build_hamiltonian(spec, real))
    direct = transfer_amplitude(sd, series.times)
    assert np.max(np.abs(series.amplitude - direct)) < 1e-11


def test_series_matches_dense_oracle_at_long_times():
    # Two float64 eigensolvers place each E_m within a few eps |H| of the
    # exact one, so their amplitudes part by up to about eps |H| t: 9e-10
    # at t = 1e4 here, for either series path.  The bound allows 4x that
    # and 1e-11 more.  The series path itself is checked against a direct
    # sum on one decomposition, where this part cancels, by the tests
    # next to this one (1e-11 and 1e-12).
    spec = ChainSpec(n_sites=200, eps_j=0.05)
    real = sample_disorder(spec, substream(11, 0))
    series = fidelity_series(build_hamiltonian(spec, real), 1e4, 0.05)
    times, oracle = oracle_transfer_series(200, 1e4, 0.05, delta=real.delta,
                                           fields=real.field_err)
    assert np.array_equal(series.times, times)
    budget = 1e-11 + 4 * np.finfo(float).eps * spectral_half_width(spec) * times
    assert np.all(np.abs(series.amplitude - oracle) <= budget)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 400, 401, 20001])
def test_series_of_every_grid_length_matches_direct_evaluation(m):
    # perfect squares, squares + 1 and primes: every split into anchor
    # rows of ceil(sqrt(m)) samples, with and without a partial last row;
    # the direct sum runs on the series' own spectrum, so only the phase
    # tables are under test
    dt = 2.0 ** -7
    spec = ChainSpec(n_sites=20, eps_j=0.1, eps_b=0.05)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(5, 0)))
    series = fidelity_series(h, (m - 1) * dt, dt)
    assert len(series) == series.amplitude.shape[0] == m
    eigenvalues, weights = _transfer_spectrum(h)
    direct = np.exp(np.outer(series.times, -1j * eigenvalues)) @ weights
    assert np.max(np.abs(series.amplitude - direct)) <= 1e-12


def test_clean_series_peaks_and_period():
    # peaks at t_n = (2n+1) pi/4J all equal 1; period pi/2J on the grid
    n_per_quarter = 200
    dt = (np.pi / 4) / n_per_quarter
    spec = ChainSpec(n_sites=20)
    series = fidelity_series(clean_hamiltonian(20), 8 * (np.pi / 4), dt)
    for peak in range(3):
        idx = (2 * peak + 1) * n_per_quarter
        assert series.fidelity[idx] >= 1.0 - 1e-9
    half_period = 2 * n_per_quarter  # pi/(2J) in grid steps
    f = series.fidelity
    assert np.max(np.abs(f[half_period:] - f[:-half_period])) < 1e-9


def test_disordered_series_loses_perfect_peak():
    spec = ChainSpec(n_sites=100, eps_j=1e-2)
    real = sample_disorder(spec, substream(17, 0))
    series = fidelity_series(build_hamiltonian(spec, real), np.pi / 2, 0.002)
    assert np.max(series.fidelity) < 1.0 - 1e-6


def test_series_input_validation():
    h = clean_hamiltonian(5)
    with pytest.raises(ValueError):
        fidelity_series(h, 1.0, 0.0)
    with pytest.raises(ValueError):
        fidelity_series(h, 0.01, 0.05)
    # a NaN or infinite grid is refused by name before numpy sees it
    for t_max, dt, named in [(np.nan, 0.05, "t_max = nan"), (np.inf, 0.05, "t_max = inf"),
                             (1.0, np.nan, "dt = nan"), (1.0, -np.inf, "dt = -inf")]:
        with pytest.raises(ValueError, match=f"^{named} is not finite$"):
            fidelity_series(h, t_max, dt)
    # so is a grid whose t_max / dt overflows to an infinite sample count
    with pytest.raises(ValueError, match=r"^t_max = 1e\+308 over dt = 1e-300 is not a "
                                         "finite sample count$"):
        fidelity_series(h, 1e308, 1e-300)


def test_series_holds_a_positive_finite_dt_and_its_times_are_float():
    zeros, half = np.zeros(3, complex), np.full(3, 0.5)
    for dt in (0.0, -0.05, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^dt = .* must be finite and > 0$"):
            FidelitySeries(dt=dt, amplitude=zeros, fidelity=half)
    series = FidelitySeries(dt=1, amplitude=zeros, fidelity=half)
    assert series.times.dtype == float and np.array_equal(series.times, [0.0, 1.0, 2.0])


def test_ensemble_single_realization_matches_direct():
    spec = ChainSpec(n_sites=40, eps_j=0.05)
    t_list = [0.3, transfer_time(), 2.0]
    [(mean, err)] = ensemble_averages([(spec, ())], 1, 99, t_list)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(99, 0)))
    direct = fidelity_of_amplitude(_chebyshev(
        [h], spectral_half_width(spec), np.array(t_list))[0])
    assert np.array_equal(mean, direct)
    assert np.all(err == 0.0)
    eigen = fidelity_of_amplitude(transfer_amplitude(eigendecompose(h), t_list))
    assert np.max(np.abs(mean - eigen)) <= 1e-12


def test_ensemble_clean_disorder_free():
    spec = ChainSpec(n_sites=25, eps_j=0.0, eps_b=0.0)
    [(mean, err)] = ensemble_averages([(spec, ())], 7, 4, [transfer_time()])
    assert abs(mean[0] - 1.0) <= 1e-9
    assert np.all(err <= 1e-12)


def test_ensemble_peak_suppression_grows_with_time():
    # averaged maxima at t_n decrease with n
    spec = ChainSpec(n_sites=100, eps_j=1e-2)
    t_list = [transfer_time(n=k) for k in range(3)]
    [(mean, err)] = ensemble_averages([(spec, ())], 100, 7, t_list)
    assert mean[0] > mean[1] > mean[2]


def test_ensemble_reduction_is_deterministic():
    spec = ChainSpec(n_sites=30, eps_j=0.08, eps_b=0.02)
    [a] = ensemble_averages([(spec, ())], 25, 11, [transfer_time()])
    [b] = ensemble_averages([(spec, ())], 25, 11, [transfer_time()])
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_small_perturbation_continuity():
    # averaged fidelity at t1 climbs toward 1 as disorder shrinks
    grid = [0.1, 0.03, 0.01, 0.003, 0.001]
    means, errs = [], []
    for eps in grid:
        spec = ChainSpec(n_sites=50, eps_j=eps)
        [(mean, err)] = ensemble_averages([(spec, ())], 150, 13, [transfer_time()])
        means.append(mean[0])
        errs.append(err[0])
    for i in range(len(grid) - 1):
        assert means[i + 1] - means[i] > -3.0 * np.hypot(errs[i], errs[i + 1])
    assert means[-1] > 1.0 - 1e-4


def test_ensemble_average_matches_hand_loop_over_keys():
    spec = ChainSpec(n_sites=15, eps_j=0.2, eps_b=0.1, corr_p=0.3)
    t_list = [0.4, transfer_time()]
    [(mean, err)] = ensemble_averages([(spec, (2, 5))], 6, 21, t_list)
    hams = [build_hamiltonian(spec, sample_disorder(spec, substream(21, 2, 5, r)))
            for r in range(6)]
    fid = np.array([
        fidelity_of_amplitude(_chebyshev(
            [h], spectral_half_width(spec), np.array(t_list))[0])
        for h in hams])
    assert np.array_equal(mean, fid.mean(axis=0))
    assert np.array_equal(err, fid.std(axis=0, ddof=1) / np.sqrt(6))
    eigen = np.array([fidelity_of_amplitude(transfer_amplitude(eigendecompose(h), t_list))
                      for h in hams])
    assert np.max(np.abs(fid - eigen)) <= 1e-12


def test_ensemble_average_across_realization_blocks(monkeypatch):
    # more realizations than one propagation block holds: 128 rows at N = 8
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 8 * 128)
    spec = ChainSpec(n_sites=8, eps_j=0.3, eps_b=0.2)
    n_real = 2 * 128 + 3
    t_list = [transfer_time(), 2.0]
    [(mean, err)] = ensemble_averages([(spec, ())], n_real, 4, t_list)
    fid = np.array([
        fidelity_of_amplitude(_chebyshev(
            [build_hamiltonian(spec, sample_disorder(spec, substream(4, r)))],
            spectral_half_width(spec), np.array(t_list))[0])
        for r in range(n_real)])
    assert np.array_equal(mean, fid.mean(axis=0))
    assert np.array_equal(err, fid.std(axis=0, ddof=1) / np.sqrt(n_real))


@pytest.mark.parametrize("n", [2, 20])
def test_ensemble_averages_do_not_depend_on_the_block_size(monkeypatch, n):
    # unsorted half-widths, so every block sorts its rows and drops some
    cells = [(ChainSpec(n_sites=n, eps_j=eps_j, eps_b=eps_b), (i,))
             for i, (eps_j, eps_b) in enumerate([(1.0, 0.0), (0.02, 0.0), (0.3, 0.0),
                                                 (0.1, 2.0)])]
    n_real, t_list = 7, [0.0, transfer_time(), 5 * transfer_time()]
    results = []
    # one row per block, blocks of 5 rows that split cells, every row in one block
    for rows in (1, 5, len(cells) * n_real):
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", rows * n)
        results.append([(mean.tobytes(), err.tobytes())
                        for mean, err in ensemble_averages(cells, n_real, 3, t_list)])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n", [20, 21])
def test_ensemble_averages_of_interleaved_sectors_do_not_depend_on_the_block_size(
        monkeypatch, n):
    # perturbation's layout: cells of the coupling sector (no fields) and of
    # the field sector in turn; blocks of 5 rows split cells and hold both
    cells = [(ChainSpec(n_sites=n, eps_j=0.02 * (i + 1)), (0, i)) if i % 2 == 0
             else (ChainSpec(n_sites=n, eps_b=0.02 * (i + 1)), (1, i)) for i in range(4)]
    n_real, t_list = 7, [transfer_time(), 5 * transfer_time()]
    stacks = []
    chebyshev = evolve._chebyshev_transfer_amplitude

    def recording(diag, *args):
        stacks.append(diag.any(axis=1))
        return chebyshev(diag, *args)

    monkeypatch.setattr(evolve, "_chebyshev_transfer_amplitude", recording)
    results = []
    for rows in (5, len(cells) * n_real):
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", rows * n)
        results.append([(mean.tobytes(), err.tobytes())
                        for mean, err in ensemble_averages(cells, n_real, 3, t_list)])
    assert results[0] == results[1]
    # each block runs its zero-field rows and its rows with fields apart
    assert all(fields.all() or not fields.any() for fields in stacks)
    assert sum(not fields.any() for fields in stacks) > 2
    assert sum(fields.all() for fields in stacks) > 2


def test_ensemble_at_a_subnormal_time_is_the_initial_state_without_a_warning():
    # a t below 1e-306 makes the term count's k / (a t) overflow
    spec = ChainSpec(n_sites=4, eps_j=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [(mean, err)] = ensemble_averages([(spec, ())], 3, 1, [1e-310, 5e-324])
    assert np.array_equal(mean, [0.5, 0.5]) and np.array_equal(err, [0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_refuses_a_non_finite_time_before_drawing(forbid_draws, bad):
    spec = ChainSpec(n_sites=10, eps_j=0.1)
    with pytest.raises(ValueError, match=f"evaluation time {float(bad)!r} is not finite"):
        ensemble_averages([(spec, ())], 5, 1, [1.0, bad])
    with pytest.raises(ValueError, match=f"evaluation time {float(bad)!r}"):
        ensemble_averages([(spec, (0,)), (spec, (1,))], 5, 1, [bad])


@pytest.mark.parametrize("rows", [1, 5, 1000])
def test_ensemble_averages_of_mixed_chain_lengths_match_calls_per_length(monkeypatch,
                                                                         rows):
    # N = 10 twice in a row (a repeated N), then 11, then 10 again; blocks of
    # 5 rows split cells, and the repeated N's cells may share a block
    n_values = (10, 10, 11, 10)
    cells = [(ChainSpec(n_sites=n, eps_j=0.05 * (i + 1), eps_b=0.1 * (i % 2)), (i,))
             for i, n in enumerate(n_values)]
    n_real, t_list = 7, [transfer_time(), 3 * transfer_time()]
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", rows * 10)
    mixed = ensemble_averages(cells, n_real, 3, t_list)
    per_length = [result for n in sorted(set(n_values))
                  for result in ensemble_averages([c for c in cells if c[0].n_sites == n],
                                                  n_real, 3, t_list)]
    order = sorted(range(len(cells)), key=lambda i: n_values[i])  # stable
    assert [(m.tobytes(), e.tobytes()) for m, e in (mixed[i] for i in order)] == [
        (m.tobytes(), e.tobytes()) for m, e in per_length]


@pytest.mark.parametrize("n", [2, 3, 20, 100, 200, 500])
def test_chebyshev_matches_expm_and_eigen_paths(n):
    t1 = transfer_time()
    times = np.array([0.0, t1, 5 * t1])
    for ji, eps_j in enumerate((0.0, 0.02, 0.3, 1.0)):
        for eps_b in (0.0, 1.0):
            spec = ChainSpec(n_sites=n, eps_j=eps_j, eps_b=eps_b)
            h = build_hamiltonian(spec, sample_disorder(spec, substream(11, n, ji, int(eps_b))))
            f = _chebyshev([h], spectral_half_width(spec), times)[0]
            assert f[0] == 0.0
            expm = [oracle_amplitudes(h.dense(), t)[-1] for t in times]
            assert np.max(np.abs(f - expm)) <= 1e-12
            assert np.max(np.abs(f - transfer_amplitude(eigendecompose(h), times))) <= 2e-12


def test_chebyshev_on_a_near_severed_chain():
    spec = ChainSpec(n_sites=60, eps_j=1.0)
    delta = np.zeros(59)
    delta[29] = -1.0 + 1e-15
    h = build_hamiltonian(spec, DisorderRealization(delta=delta, field_err=np.zeros(60)))
    times = np.array([0.0, transfer_time(), 5 * transfer_time()])
    f = _chebyshev([h], spectral_half_width(spec), times)[0]
    assert np.max(np.abs(f)) < 1e-13    # about 1e-14: the bond is 6e-14
    expm = [oracle_amplitudes(h.dense(), t)[-1] for t in times]
    assert np.max(np.abs(f - expm)) <= 1e-12
    assert np.max(np.abs(f - transfer_amplitude(eigendecompose(h), times))) <= 2e-12


def test_chebyshev_rows_do_not_depend_on_the_stack():
    spec = ChainSpec(n_sites=37, eps_j=0.3, eps_b=0.2)
    hams = [build_hamiltonian(spec, sample_disorder(spec, substream(5, r))) for r in range(10)]
    times = np.array([0.2, transfer_time(), 5 * transfer_time()])
    a = spectral_half_width(spec)
    stacked = _chebyshev(hams, a, times)
    for r, h in enumerate(hams):
        assert np.array_equal(stacked[r], _chebyshev([h], a, times)[0])
    # several specs' half-widths in one stack, one spec in two runs apart:
    # every row keeps the bits of its solo run
    specs = [spec, ChainSpec(n_sites=37, eps_j=1.0), ChainSpec(n_sites=37),
             ChainSpec(n_sites=37, eps_b=3.0)]
    hams, widths = [], []
    for i, (s, count) in enumerate([(0, 3), (1, 4), (2, 1), (3, 2), (0, 2)]):
        hams += [build_hamiltonian(specs[s], sample_disorder(specs[s], substream(6, i, r)))
                 for r in range(count)]
        widths += [spectral_half_width(specs[s])] * count
    stacked = _chebyshev(hams, np.array(widths), times)
    for row, h, w in zip(stacked, hams, widths):
        assert row.tobytes() == _chebyshev([h], w, times)[0].tobytes()
    # a row whose own series ends before site N, next to one that reaches it
    short, reaching = ChainSpec(n_sites=30), ChainSpec(n_sites=30, eps_b=400.0)
    hams = [build_hamiltonian(s, sample_disorder(s, substream(8, r)))
            for r, s in enumerate((short, reaching))]
    widths = [spectral_half_width(short), spectral_half_width(reaching)]
    stacked = _chebyshev(hams, np.array(widths), np.array([0.01]))
    solo = [_chebyshev([h], w, np.array([0.01]))[0] for h, w in zip(hams, widths)]
    assert not np.any(solo[0]) and np.all(solo[1] != 0.0)
    for row, ref in zip(stacked, solo):
        assert row.tobytes() == ref.tobytes()
    # interleaved rows that reach their term counts at four different
    # steps (14, 17, 35 and 55 terms), two of them before site N
    specs = [ChainSpec(n_sites=30, eps_b=400.0), ChainSpec(n_sites=30),
             ChainSpec(n_sites=30, eps_b=1000.0), ChainSpec(n_sites=30, eps_j=1.0)]
    picks = [1, 2, 0, 3, 1, 0, 2, 3]
    hams = [build_hamiltonian(specs[s], sample_disorder(specs[s], substream(9, r)))
            for r, s in enumerate(picks)]
    widths = [spectral_half_width(specs[s]) for s in picks]
    times = np.array([0.01, 0.005])
    stacked = _chebyshev(hams, np.array(widths), times)
    for row, h, w in zip(stacked, hams, widths):
        assert row.tobytes() == _chebyshev([h], w, times)[0].tobytes()
    # rows of perturbation's coupling sector (no fields) and field sector
    # interleaved: the stack steps every site, a zero-field row run alone
    # only its live sublattice, and the bytes agree
    times = np.array([transfer_time(), 5 * transfer_time()])
    for n in (20, 21):
        specs = [ChainSpec(n_sites=n, eps_j=0.3), ChainSpec(n_sites=n, eps_b=0.3)]
        picks = [0, 1, 1, 0, 1, 0, 0]
        hams = [build_hamiltonian(specs[s], sample_disorder(specs[s], substream(10, n, r)))
                for r, s in enumerate(picks)]
        widths = [spectral_half_width(specs[s]) for s in picks]
        stacked = _chebyshev(hams, np.array(widths), times)
        for row, h, w in zip(stacked, hams, widths):
            assert row.tobytes() == _chebyshev([h], w, times)[0].tobytes()


def _plain_recurrence(diag, offdiag, widths, times):
    """tests/oracles.py's full-lattice recurrence on each row's own table."""
    tables = [_chebyshev_coefficients(float(a) * times) for a in widths]
    return chebyshev_transfer_amplitude(diag, offdiag, widths, tables)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 20, 21, 100])
def test_chebyshev_matches_the_plain_recurrence_bit_for_bit(n):
    # site N - 1 on either sublattice; each eps_j has its own half-width and
    # term count, and eps_j = 3 draws negative couplings
    eps_values = (0.0, 0.02, 0.3, 1.0, 3.0)
    zero_field = [ChainSpec(n_sites=n, eps_j=eps_j) for eps_j in eps_values]
    fields = [ChainSpec(n_sites=n, eps_j=eps_j, eps_b=0.5) for eps_j in eps_values]
    severed = ChainSpec(n_sites=n, eps_j=1.0)
    delta = np.zeros(n - 1)
    delta[(n - 1) // 2] = -1.0 + 1e-15
    severed_h = build_hamiltonian(severed, DisorderRealization(delta=delta, field_err=np.zeros(n)))
    stacks = {"zero-field": zero_field + [severed], "fields": fields,
              "mixed": [s for pair in zip(zero_field, fields) for s in pair] + [severed]}
    t1 = transfer_time()
    for name, specs in stacks.items():
        hams = [severed_h if s is severed
                else build_hamiltonian(s, sample_disorder(s, substream(12, n, i)))
                for i, s in enumerate(specs)]
        diag = np.array([h.diag for h in hams])
        offdiag = np.array([h.offdiag for h in hams])
        widths = np.array([spectral_half_width(s) for s in specs])
        assert diag.any() == (name != "zero-field")
        for times in ([0.0], [t1], [5 * t1], [0.0, t1, 5 * t1]):
            times = np.array(times)
            f = _chebyshev_transfer_amplitude(diag, offdiag, widths, times)
            assert f.tobytes() == _plain_recurrence(diag, offdiag, widths, times).tobytes(), (
                name, times)


@given(n=st.integers(2, 30), eps_j=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5),
       times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_field_chebyshev_matches_the_plain_recurrence(n, eps_j, times, seed):
    specs = [ChainSpec(n_sites=n, eps_j=e) for e in eps_j]
    hams = [build_hamiltonian(s, sample_disorder(s, substream(seed, i)))
            for i, s in enumerate(specs)]
    diag = np.array([h.diag for h in hams])
    offdiag = np.array([h.offdiag for h in hams])
    widths = np.array([spectral_half_width(s) for s in specs])
    times = np.array(times)
    f = _chebyshev_transfer_amplitude(diag, offdiag, widths, times)
    assert f.tobytes() == _plain_recurrence(diag, offdiag, widths, times).tobytes()


def test_chebyshev_refuses_a_hamiltonian_outside_the_interval():
    spec = ChainSpec(n_sites=30, eps_j=0.1, eps_b=0.1)
    # the worst case the spec can draw sits exactly on the bound and passes
    worst = build_hamiltonian(spec, DisorderRealization(
        delta=np.full(29, 0.1), field_err=np.full(30, 0.1)))
    _chebyshev([worst], spectral_half_width(spec), np.array([1.0]))
    beyond = build_hamiltonian(spec, DisorderRealization(
        delta=np.full(29, 0.2), field_err=np.zeros(30)))
    with pytest.raises(ValueError, match="Gershgorin radius"):
        _chebyshev([worst, beyond], spectral_half_width(spec),
                                      np.array([transfer_time()]))


def test_eigensolver_fallback_takes_stev():
    # stemr refuses this chain; the reference then returns stev's
    # decomposition, each column signed so its first nonzero entry is > 0
    spec = ChainSpec(n_sites=200, eps_j=1.0)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(7, 0, 7)))
    with pytest.raises(np.linalg.LinAlgError):
        eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stemr")
    w, v = eigendecompose(h)
    w_stev, v_stev = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stev")
    assert w.tobytes() == w_stev.tobytes()
    signs = np.sign(v_stev[np.argmax(v_stev != 0.0, axis=0), np.arange(200)])
    assert (v_stev * signs).tobytes() == v.tobytes()


def _solve(fn, h, **driver):
    """fn's arrays on h as bytes, or the type of the error it raised."""
    try:
        out = fn(h.diag, h.offdiag, **driver)
    except np.linalg.LinAlgError as err:
        return type(err)
    return [a.tobytes() for a in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("key", [(7, 0), (7, 0, 7)])  # stemr accepts / refuses
def test_traced_eigensolver_names_forward_to_scipy_bit_for_bit(key):
    # benchmark/tracer.py wraps these two module-level names; each must hand
    # back scipy's arrays unchanged (test_levelstats checks sterf's bytes on
    # 300 more chains with fields)
    import scipy.linalg
    from spinchain import evolve, levelstats

    spec = ChainSpec(n_sites=200, eps_j=1.0)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(*key)))
    for driver in ("stemr", "stev"):
        assert (_solve(evolve.eigh_tridiagonal, h, lapack_driver=driver)
                == _solve(scipy.linalg.eigh_tridiagonal, h, lapack_driver=driver)), driver
    # levelstats' name runs sterf on a chain with fields, bit for bit
    fields = ChainSpec(n_sites=200, eps_j=1.0, eps_b=0.3)
    h_fields = build_hamiltonian(fields, sample_disorder(fields, substream(*key)))
    assert (_solve(levelstats.eigvalsh_tridiagonal, h_fields)
            == _solve(scipy.linalg.eigvalsh_tridiagonal, h_fields, lapack_driver="sterf"))
    # and dqds on the zero-field chain, within test_levelstats' bound of sterf
    levels = levelstats.eigvalsh_tridiagonal(h.diag, h.offdiag)
    sterf = scipy.linalg.eigvalsh_tridiagonal(h.diag, h.offdiag, lapack_driver="sterf")
    assert np.max(np.abs(levels - sterf)) <= 1e-13 * np.max(np.abs(h.offdiag))


def _rayleigh_quotients(h, v):
    """v_k^T H v_k / v_k^T v_k of every column in long double."""
    d, e, v = (np.asarray(x, dtype=np.longdouble) for x in (h.diag, h.offdiag, v))
    hv = d[:, None] * v
    hv[:-1] += e[:, None] * v[1:]
    hv[1:] += e[:, None] * v[:-1]
    return np.sum(v * hv, axis=0) / np.sum(v * v, axis=0)


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("eps_j", [0.05, 0.26, 1.2])
def test_transfer_spectrum_eigenvalues_match_long_double_rayleigh_quotients(n, eps_j):
    # Rayleigh quotients of dense eigh vectors err by |residual|^2 / gap.
    # Over 30 such chains the refined eigenvalues read at most 0.87 eps a
    # for half-width a, sterf's own 18-45 eps a and stemr's 5-22 eps a.
    spec = ChainSpec(n_sites=n, eps_j=eps_j)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(7, n, int(100 * eps_j))))
    with np.errstate(all="raise"):
        eigenvalues, _ = _transfer_spectrum(h)
    reference = _rayleigh_quotients(h, np.linalg.eigh(h.dense())[1])
    error = np.max(np.abs(eigenvalues - reference))
    assert error <= 2 * np.finfo(float).eps * spectral_half_width(spec)


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("ji, eps_j", enumerate([0.05, 0.26, 1.0, 1.2, 2.0]))
def test_transfer_spectrum_weights_match_eigenvectors(n, ji, eps_j):
    # eps_j = 2 draws negative hoppings.  Where eigenvalues lie closer than
    # 1e-6 (the near-zero pair of a chain with no fields at strong
    # disorder) a single weight depends on the basis chosen inside the
    # pair, and stemr and dense eigh disagree there by up to 4e-9; such
    # clusters are compared by their sums, the part that reaches f_N.
    spec = ChainSpec(n_sites=n, eps_j=eps_j)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(7, n, ji)))
    with np.errstate(all="raise"):
        eigenvalues, weights = _transfer_spectrum(h)
    cluster = np.concatenate([[0], np.cumsum(np.diff(eigenvalues) > 1e-6)])
    for v in (eigendecompose(h)[1], np.linalg.eigh(h.dense())[1]):
        with np.errstate(under="ignore"):
            reference = v[0] * v[-1]
        assert np.max(np.abs(np.bincount(cluster, weights)
                             - np.bincount(cluster, reference))) <= 1e-14


@pytest.mark.parametrize("eps_j, eps_b, bond", [(0.3, 0.2, 13), (0.0, 0.0, 19)])
def test_a_zero_hopping_gives_zero_weights_and_amplitude(eps_j, eps_b, bond):
    # the clean chain cut at its middle bond has two identical halves:
    # sterf returns an exactly tied pair, and 0 / 0 must not appear
    spec = ChainSpec(n_sites=40, eps_j=eps_j, eps_b=eps_b)
    real = sample_disorder(spec, substream(3, 0))
    delta = real.delta.copy()
    delta[bond] = -1.0
    h = build_hamiltonian(spec, DisorderRealization(delta=delta, field_err=real.field_err))
    assert h.offdiag[bond] == 0.0
    with np.errstate(all="raise"):
        _, weights = _transfer_spectrum(h)
        series = fidelity_series(h, 50.0, 0.05)
    assert np.all(weights == 0.0)
    assert np.all(series.amplitude == 0.0) and np.all(series.fidelity == 0.5)


@pytest.mark.parametrize("n", [3, 21, 501])
def test_clean_odd_chain_zero_pivot_stays_finite(n):
    # E = 2J(2m - N + 1) is exact in floating point; at E = 0 the first
    # pivot a_0 - E is exactly zero.  The weights are
    # (-1)^(N-1-m) C(N-1, m) / 2^(N-1).
    h = clean_hamiltonian(n)
    exact = 2.0 * (2 * np.arange(n) - n + 1)
    weights = np.array([(-1) ** (n - 1 - m) * math.comb(n - 1, m) for m in range(n)],
                       dtype=float) / 2.0 ** (n - 1)
    with np.errstate(all="raise"):
        from_exact = _newton_step(h.diag, h.offdiag, exact)
        eigenvalues, w = _transfer_spectrum(h)
        series = fidelity_series(h, 2 * transfer_time(), transfer_time() / 50)
    assert np.max(np.abs(from_exact - exact)) <= 2 * np.finfo(float).eps * 2 * n
    assert np.max(np.abs(eigenvalues - exact)) <= 2 * np.finfo(float).eps * 2 * n
    assert np.max(np.abs(w - weights)) <= 1e-15
    assert np.all(np.isfinite(series.amplitude))
    assert series.fidelity[50] >= 1.0 - 1e-9


def _mirror_chain(field):
    """An N = 60 chain whose 6e-14 middle bond splits every eigenvalue of
    its two mirror-image halves into a pair a few ulp apart (or none)."""
    spec = ChainSpec(n_sites=60, eps_j=1.0, eps_b=field)
    delta = np.zeros(59)
    delta[29] = -1.0 + 1e-15
    return build_hamiltonian(spec, DisorderRealization(delta=delta,
                                                       field_err=np.full(60, field)))


def _assert_guard_keeps_the_start(h, start, caplog):
    with caplog.at_level(logging.WARNING, logger="spinchain.evolve"), \
            np.errstate(all="raise"):
        eigenvalues, _ = _transfer_spectrum(h)
        series = fidelity_series(h, 1e3, 0.05)
    rejected = [rec.getMessage() for rec in caplog.records
                if rec.levelno == logging.WARNING and "N = 60" in rec.getMessage()]
    assert len(rejected) == 2
    kept = eigenvalues == start
    assert np.any(kept[0::2] & kept[1::2])          # a whole pair kept
    gaps = np.diff(start)
    half_gap = 0.5 * np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    assert np.all(kept | (np.abs(eigenvalues - start) < half_gap))
    assert np.all(np.diff(eigenvalues) >= 0.0)
    # nothing crosses the 6e-14 bond faster than 6e-14 per unit time
    assert np.max(np.abs(series.amplitude)) <= 6e-14 * 1e3
    return rejected


def test_newton_guard_keeps_sterf_values_on_a_near_degenerate_pair(caplog):
    # a uniform field keeps the mirror symmetry and takes the chain to sterf
    h = _mirror_chain(0.1)
    sterf = eigvalsh_tridiagonal(h.diag, h.offdiag, lapack_driver="sterf")
    rejected = _assert_guard_keeps_the_start(h, sterf, caplog)
    assert all(message.endswith("keeping their sterf values") for message in rejected)


def test_newton_guard_keeps_dqds_values_on_a_near_degenerate_pair(caplog):
    # with no field the start is dqds, which returns each pair coincident
    h = _mirror_chain(0.0)
    dqds = levelstats.eigvalsh_tridiagonal(h.diag, h.offdiag)
    rejected = _assert_guard_keeps_the_start(h, dqds, caplog)
    assert all(message.endswith("keeping their dqds values") for message in rejected)


def test_newton_guard_rejects_a_step_beyond_half_the_gap(caplog):
    h = clean_hamiltonian(5)
    estimates = np.array([-8.0, -4.0, 1.9, 4.0, 8.0])    # E = 0 misplaced
    with caplog.at_level(logging.WARNING, logger="spinchain.evolve"):
        refined = _newton_step(h.diag, h.offdiag, estimates)
    assert refined[2] == 1.9
    assert np.max(np.abs(np.delete(refined, 2) - [-8.0, -4.0, 4.0, 8.0])) <= 1e-14
    assert any("1 of 5 eigenvalues of an N = 5 Hamiltonian" in rec.getMessage()
               for rec in caplog.records)


@pytest.mark.parametrize("seed", [16, 75, 172])
def test_an_exact_level_takes_a_zero_step_without_overflow(caplog, seed):
    # the chains of transfer --n 2 --eps-j 1 --eps-b 1 --seed <seed>: sterf's
    # levels are exact to the last bit, so the last Sturm pivot is 0 and is
    # set to -pivmin; the ratios overflow, the sum is infinite and the step
    # 0, with no RuntimeWarning
    spec = ChainSpec(n_sites=2, eps_j=1.0, eps_b=1.0)
    h = build_hamiltonian(spec, sample_disorder(spec, substream(seed, 0)))
    start = levelstats.eigvalsh_tridiagonal(h.diag, h.offdiag)
    with warnings.catch_warnings(), \
            caplog.at_level(logging.WARNING, logger="spinchain.evolve"):
        warnings.simplefilter("error", RuntimeWarning)
        assert _newton_step(h.diag, h.offdiag, start).tobytes() == start.tobytes()
        fidelity_series(h, 1.0, 0.01)  # what transfer --t-max 1 runs
    assert caplog.records == []


def test_a_zero_pivot_in_front_rejects_its_step_without_a_runtime_warning(caplog):
    # x = 1 is a level of the leading 2 x 2 block, so d_1 = 0 is set to
    # -pivmin, and the ratios after it overflow and cancel
    d, e = np.array([0.0, 0.0, 0.5]), np.ones(2)
    with warnings.catch_warnings(), \
            caplog.at_level(logging.WARNING, logger="spinchain.evolve"):
        warnings.simplefilter("error", RuntimeWarning)
        refined = _newton_step(d, e, np.array([-1.3, 1.0, 1.8]))
    assert refined[1] == 1.0
    assert any("1 of 3 eigenvalues of an N = 3 Hamiltonian" in rec.getMessage()
               for rec in caplog.records)


def _zero_field_chain(n, chain, seed=0):
    """Row 0 of a zero-field block at eps_j = chain, or the clean chain
    with its middle bond cut to 1e-12 of itself (chain "near-severed")."""
    if chain == "near-severed":
        delta = np.zeros(n - 1)
        delta[(n - 1) // 2] = -1.0 + 1e-12
        return build_hamiltonian(ChainSpec(n_sites=n),
                                 DisorderRealization(delta=delta, field_err=np.zeros(n)))
    diag, offdiag = hamiltonian_block(ChainSpec(n_sites=n, eps_j=chain), seed, (n,), range(1))
    return TridiagonalHamiltonian(diag=diag[0], offdiag=offdiag[0])


@pytest.mark.parametrize("n", [2, 3, 20, 101, 200, 500])
@pytest.mark.parametrize("chain", [0.3, 1.0, "near-severed"])
def test_zero_field_series_is_chiral_and_matches_the_general_path(n, chain):
    h = _zero_field_chain(n, chain)
    with np.errstate(all="raise", under="ignore"):
        eigenvalues, weights = _transfer_spectrum(h)
        series = fidelity_series(h, 1e3, 0.05)
    # levels -sigma and sigma, an exact 0.0 in the middle of an odd chain,
    # and w(-sigma) = (-1)^(N-1) w(sigma)
    assert np.array_equal(eigenvalues, -eigenvalues[::-1])
    assert np.all(np.diff(eigenvalues) >= 0.0)
    if n % 2:
        assert eigenvalues[n // 2] == 0.0
    assert np.array_equal(weights[::-1], (-1) ** (n - 1) * weights)
    # the folded sum is exactly imaginary (even N) or exactly real (odd N)
    assert np.all((series.amplitude.imag if n % 2 else series.amplitude.real) == 0.0)
    total = np.sum(np.abs(weights))
    # the fold against the unfolded sum on the same spectrum: 8.5e-16 S
    unfolded = _transfer_amplitude_uniform(eigenvalues, weights, len(series), series.dt)
    assert np.max(np.abs(series.amplitude - unfolded)) <= 1e-14 * total
    # against the general path (sterf start), each series within its own
    # eigenvalue error times t of the exact one: up to 1.4e-12 S at T = 1e3.
    # sterf misplaces the pair nearest zero of a strongly disordered chain
    # by up to 1e3 times its size (test below); that pair's phase gap
    # t |w| |E - e| is allowed on top.
    start = eigvalsh_tridiagonal(h.diag, h.offdiag, lapack_driver="sterf")
    general_levels = _newton_step(h.diag, h.offdiag, start)
    general_weights = _end_to_end_weights(h.offdiag, general_levels)
    general = _transfer_amplitude_uniform(general_levels, general_weights, len(series),
                                          series.dt)
    pair = np.argsort(np.abs(eigenvalues))[:2]
    sterf_pair_gap = series.times[-1] * np.sum(
        np.abs(general_weights[pair]) * np.abs(eigenvalues[pair] - general_levels[pair]))
    assert np.max(np.abs(series.amplitude - general)) <= 3e-12 * total + sterf_pair_gap


@pytest.mark.parametrize("eps_j", [1.0, 1.2])
def test_zero_field_near_zero_pair_is_resolved_without_a_warning(caplog, eps_j):
    # sterf's pair nearest zero lies closer than its error on 3 of these
    # 40 chains, where the Newton guard warned and kept it; dqds resolves
    # the pair to high relative accuracy, and the step keeps it there
    spec = ChainSpec(n_sites=500, eps_j=eps_j)
    with caplog.at_level(logging.WARNING, logger="spinchain.evolve"):
        for seed in range(1000, 1020):
            diag, offdiag = hamiltonian_block(spec, seed, (500,), range(1))
            eigenvalues, _ = _transfer_spectrum(TridiagonalHamiltonian(diag=diag[0],
                                                                       offdiag=offdiag[0]))
            reference = oracle_sturm_level(offdiag[0], 250)
            for level in (eigenvalues[250], -eigenvalues[249]):
                assert abs(decimal.Decimal(level) - reference) <= \
                    decimal.Decimal("1e-14") * reference, seed
    assert [rec.getMessage() for rec in caplog.records if rec.levelno >= logging.WARNING] == []


def test_a_zero_field_series_without_the_dlasq1_capsule_raises_import_error(monkeypatch):
    # as for level statistics: no silent fallback to sterf
    from scipy.linalg import cython_lapack

    monkeypatch.setattr(levelstats, "_BOUND", {})
    monkeypatch.delitem(cython_lapack.__pyx_capi__, "dlasq1")
    with pytest.raises(ImportError, match="exports no dlasq1"):
        fidelity_series(clean_hamiltonian(6), 1.0, 0.05)
