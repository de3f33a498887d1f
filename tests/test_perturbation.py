import numpy as np
import pytest

from oracles import eigendecompose, oracle_clean_basis
from spinchain import perturbation
from spinchain import (ChainSpec, DisorderRealization, build_hamiltonian,
                       compute_coefficients, ensemble_averages,
                       infidelity_sums, perturbation_comparison,
                       perturbative_fidelity, transfer_time)


def clean_spectrum(n):
    return eigendecompose(build_hamiltonian(ChainSpec(n_sites=n), DisorderRealization(
        np.zeros(n - 1), np.zeros(n))))


def propagator_matrix(sd, t):
    w, v = sd
    return (v * np.exp(-1j * w * t)) @ v.T


def gauss_triangle_oracle(n, t, order=80):
    """D_ll and F_ll by Gauss-Legendre quadrature over 0<=t2<=t1<=t.

    Independent of the package's Simpson machinery: the integrands are
    evaluated from dense propagator matrices at arbitrary nodes.
    """
    sd = clean_spectrum(n)
    x, w = np.polynomial.legendre.leggauss(order)

    def d_integrand(l, t1, t2):
        u1, u2 = propagator_matrix(sd, t1), propagator_matrix(sd, t2)
        ksum = np.sum(u1[l, :] * u2[l, :].conj())
        return (1.0 - 2.0 * abs(u1[l, 0]) ** 2 - 2.0 * abs(u2[l, 0]) ** 2
                + 4.0 * u1[l, 0].conj() * u2[l, 0] * ksum)

    def f_integrand(l, t1, t2):
        u1, u2 = propagator_matrix(sd, t1), propagator_matrix(sd, t2)
        a = u1[l, 0].conj() * u1[:, l + 1] + u1[l + 1, 0].conj() * u1[:, l]
        b = u2[l, 0].conj() * u2[:, l + 1].conj() + u2[l + 1, 0].conj() * u2[:, l].conj()
        return 4.0 * np.sum(a * b)

    def triangle(fn, l):
        total = 0.0 + 0.0j
        t1_nodes = 0.5 * t * (x + 1.0)
        for t1, w1 in zip(t1_nodes, w):
            t2_nodes = 0.5 * t1 * (x + 1.0)
            inner = sum(w2 * fn(l, t1, t2) for t2, w2 in zip(t2_nodes, w))
            total += w1 * inner * (0.5 * t1) * (0.5 * t)
        return total

    d = np.array([triangle(d_integrand, l) for l in range(n)])
    f = np.array([triangle(f_integrand, l) for l in range(n - 1)])
    return d, f


def gauss_line_oracle(n, t, order=120):
    """C_l and E_l by plain Gauss-Legendre on [0, t]."""
    sd = clean_spectrum(n)
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * t * (x + 1.0)
    c = np.zeros(n)
    e = np.zeros(n - 1)
    for s, ws in zip(nodes, w):
        u = propagator_matrix(sd, s)
        c += ws * (1.0 - 2.0 * np.abs(u[:, 0]) ** 2)
        e += ws * 4.0 * (u[:-1, 0] * u[1:, 0].conj()).real
    return c * 0.5 * t, e * 0.5 * t


def test_zero_time_coefficients_vanish():
    coeffs = compute_coefficients(8, t=0.0)
    assert np.all(coeffs.c == 0) and np.all(coeffs.e == 0)
    assert np.all(coeffs.d_diag == 0) and np.all(coeffs.f_diag == 0)


def test_c_and_e_are_real_arrays():
    coeffs = compute_coefficients(10)
    assert coeffs.c.dtype.kind == "f" and coeffs.e.dtype.kind == "f"
    assert coeffs.d_diag.dtype.kind == "c" and coeffs.f_diag.dtype.kind == "c"
    assert coeffs.c.shape == (10,) and coeffs.e.shape == (9,)


def test_single_integrals_match_gauss_oracle():
    t = transfer_time()
    coeffs = compute_coefficients(7, t=t)
    c_ref, e_ref = gauss_line_oracle(7, t)
    assert np.max(np.abs(coeffs.c - c_ref)) < 1e-8
    # E vanishes identically for the clean chain (bipartite gauge), and
    # both routes must agree on that
    assert np.max(np.abs(e_ref)) < 1e-10
    assert np.max(np.abs(coeffs.e)) < 1e-10


def test_double_integrals_match_gauss_triangle_oracle():
    t = transfer_time()
    coeffs = compute_coefficients(4, t=t)
    d_ref, f_ref = gauss_triangle_oracle(4, t)
    scale_d = np.max(np.abs(d_ref))
    scale_f = np.max(np.abs(f_ref))
    assert np.max(np.abs(coeffs.d_diag - d_ref)) < 1e-5 * scale_d
    assert np.max(np.abs(coeffs.f_diag - f_ref)) < 1e-5 * scale_f


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("periods", [1, 3])
def test_coefficients_exact_against_gauss_oracles(n, periods):
    # the closed form is exact, so it meets both oracles to rounding; the
    # default time is t1, so periods = 3 also covers an explicit t
    t = periods * transfer_time()
    coeffs = compute_coefficients(n, t=None if periods == 1 else t)
    c_ref, e_ref = gauss_line_oracle(n, t)
    d_ref, f_ref = gauss_triangle_oracle(n, t)
    # C vanishes at N = 2 and E always, so single integrals are measured
    # against t, the size of their integrands times the interval
    for got, ref, floor in ((coeffs.c, c_ref, t), (coeffs.e, e_ref, t),
                            (coeffs.d_diag, d_ref, 0.0), (coeffs.f_diag, f_ref, 0.0)):
        scale = max(np.max(np.abs(ref)), floor)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("t, refused", [(1.0, True), (3 * transfer_time(), False)])
def test_comparison_refuses_non_transfer_times(t, refused):
    # 1 - ... expands around perfect transfer; at t = 1.0, N = 6 has |f_N| = 0.62
    if refused:
        with pytest.raises(ValueError, match=r"no perfect-transfer time .* "
                                             r"nearest t = 0\.785398"):
            perturbation_comparison(6, [0.01], ("b",), 20, 1, t=t)
    else:
        [row], _ = perturbation_comparison(6, [0.01], ("b",), 20, 1, t=t)
        assert 0.99 < row.f_pert < 1.0


def test_comparison_refuses_before_drawing(forbid_draws):
    with pytest.raises(ValueError, match="no perfect-transfer time"):
        perturbation_comparison(6, [0.01], ("j", "b"), 20, 1, t=1.0)
    with pytest.raises(ValueError, match="sector"):
        perturbation_comparison(6, [0.01], ("j", "x"), 20, 1)


def test_unperturbed_fidelity_is_one():
    coeffs = compute_coefficients(12)
    assert perturbative_fidelity(coeffs) == 1.0


def test_infidelity_quadratic_in_disorder():
    coeffs = compute_coefficients(12)
    base_j = 1.0 - perturbative_fidelity(coeffs, eps_j=1e-3)
    base_b = 1.0 - perturbative_fidelity(coeffs, eps_b=1e-3)
    assert 1.0 - perturbative_fidelity(coeffs, eps_j=2e-3) == pytest.approx(4 * base_j, rel=1e-12)
    assert 1.0 - perturbative_fidelity(coeffs, eps_b=2e-3) == pytest.approx(4 * base_b, rel=1e-12)
    # the two sectors add independently
    mixed = 1.0 - perturbative_fidelity(coeffs, eps_j=1e-3, eps_b=1e-3)
    assert mixed == pytest.approx(base_j + base_b, rel=1e-12)


def test_table_unitarity_on_grid():
    sd = clean_spectrum(15)
    for t in np.linspace(0.0, transfer_time(), 8):
        u = propagator_matrix(sd, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(15))) < 1e-10


def test_field_sector_formula_matches_monte_carlo():
    # the printed formula with time-ordered D reproduces the engine's
    # field-disorder infidelity with unit prefactor
    n, eps_b = 8, 5e-3
    t = transfer_time()
    coeffs = compute_coefficients(n, t=t)
    pert = 1.0 - perturbative_fidelity(coeffs, eps_b=eps_b)
    spec = ChainSpec(n_sites=n, eps_b=eps_b)
    [(mean, err)] = ensemble_averages([(spec, ())], 3000, 21, [t])
    mc = 1.0 - mean[0]
    assert abs(mc - pert) < max(4.0 * err[0], 0.03 * pert)


def test_coupling_sector_proportional_to_monte_carlo():
    # the printed bond coefficients omit the modulation weights, so the MC
    # infidelity is a constant multiple of the formula across eps
    n = 8
    t = transfer_time()
    coeffs = compute_coefficients(n, t=t)
    _, coupling_sum = infidelity_sums(coeffs)
    ratios = []
    for i, eps_j in enumerate((3e-3, 1e-2)):
        spec = ChainSpec(n_sites=n, eps_j=eps_j)
        [(mean, _)] = ensemble_averages([(spec, (i,))], 3000, 22, [t])
        ratios.append((1.0 - mean[0]) / (coupling_sum * eps_j ** 2))
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 21])
def test_clean_basis_oracle_matches_eigendecompose(n):
    # the integer oracle is checked against LAPACK, so it is no restatement
    # of the recurrence it tests
    sd = clean_spectrum(n)
    assert np.max(np.abs(oracle_clean_basis(n) - sd[1])) <= 1e-13


def test_clean_basis_matches_the_exact_basis():
    worst = 0.0
    for n in range(2, 121):
        energies, v = perturbation._clean_basis(n)
        assert np.array_equal(energies, 2.0 * (2 * np.arange(n) - n + 1)), n
        assert np.all(v[0] > 0.0), n
        if n % 2:
            # odd-parity columns vanish on the middle site, exactly
            odd = (n - 1 - np.arange(n)) % 2 == 1
            assert np.all(v[n // 2, odd] == 0.0), n
        worst = max(worst, float(np.max(np.abs(v - oracle_clean_basis(n)))))
    assert worst <= 4e-15   # 7.6e-16 measured


@pytest.mark.parametrize("n", [200, 500])
def test_clean_basis_is_orthonormal_at_large_n(n):
    _, v = perturbation._clean_basis(n)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-14


@pytest.mark.parametrize("n", [4, 8, 12, 20, 50])
def test_infidelity_sums_match_the_exact_basis(n, monkeypatch):
    sums = infidelity_sums(compute_coefficients(n))
    energies = 2.0 * (2 * np.arange(n) - n + 1)
    monkeypatch.setattr(perturbation, "_clean_basis",
                        lambda size: (energies, oracle_clean_basis(size)))
    exact = infidelity_sums(compute_coefficients(n))
    np.testing.assert_allclose(sums, exact, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_refused_naming_it(t, forbid_draws):
    with pytest.raises(ValueError, match=f"t = {t!r} is not finite"):
        compute_coefficients(6, t)
    with pytest.raises(ValueError, match=f"t = {t!r} is not finite"):
        perturbation_comparison(6, [0.01], ("b",), 5, 1, t=t)
