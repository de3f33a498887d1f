"""Second-order perturbative fidelity for weak static disorder.

Expanding the time-ordered evolution to second order in the disorder
around the clean chain gives the averaged fidelity at time t as

    F(t) ~ 1 - (eps_b^2/3) sum_k (2 Re D_kk - C_k^2) / 3
             - (eps_j^2/3) sum_k (2 Re F_kk - E_k^2) / 3

with per-site coefficients built from the clean propagator
U_l^k(t) = <l| exp(-iHt) |k>:

    C_l = int_0^t (1 - 2 |U_l^1(s)|^2) ds
    E_l = 4 int_0^t Re[U_l^1(s) U_{l+1}^1(s)*] ds

and D_kk, F_kk second-order double integrals over the ordered time
simplex 0 <= t2 <= t1 <= t (ordering is what makes the result invariant
under the constant part of the field term).  The leading 1 holds only
where the clean chain transfers perfectly, t = (2n+1) pi / 4 (J = 1).

The coefficients are exact sums over the clean eigenbasis, with no time
grid.  Every integrand is a sum of exponentials exp(-i w s), so with
f(z) = exp(z t) and nodes z_m = -i E_m the single integrals are first
divided differences f[z_m, z_n] and the ordered double integrals second
divided differences f[z_m, z_p, z_n] (Van Loan, IEEE TAC 23, 395
(1978)).  The clean spectrum is the lattice E_m = 2(2m - N + 1), so two
nodes coincide exactly when their labels do, and the confluent cases
(derivatives of f) are chosen by label, never by comparing floats.  The
lattice is symmetric, -E_n = E_{N-1-n}, so the F integrals use the same
divided-difference tensor as D with the last label reflected.  The cost
is one N x N by N x N^2 product, O(N^4) flops, and O(N^3) memory.
Second differences cancel like eps / t^2: against Gauss-Legendre
quadrature D and F agree to about 1e-13 relative at t = 0.01 and
1e-10 at t = 1e-4.  t = 0 gives exact zeros, and every caller in the
package works at a transfer time, t >= pi / 4.

The clean couplings 2 sqrt(k(N-k)) make H = 4 J_x for spin (N-1)/2
(Christandl et al., PRL 92, 187902 (2004)), so the eigenbasis is known
in closed form and is constructed here, not decomposed: _clean_basis
runs the three-term recurrence of H v = E v from site 1 to the middle
of the chain and fills the other half from persymmetry.  Nothing here
calls LAPACK, so the perturbation layer runs on numpy alone.

This module serves as an independent check on the Monte-Carlo engine;
it never touches the disorder sampler.  scans.perturbation_comparison
calls compute_coefficients once for every sector it compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .evolve import transfer_time

__all__ = [
    "PerturbationCoefficients",
    "compute_coefficients",
    "require_transfer_time",
    "perturbative_fidelity",
    "infidelity_sums",
]

# A clean transfer amplitude |f_N(t)| below 1 - TRANSFER_TOL is no
# perfect transfer; at t = (2n+1) pi / 4 it is 1 to rounding.
TRANSFER_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationCoefficients:
    """All coefficients at one evaluation time.

    c and e are real; d_diag and f_diag are the (complex) time-ordered
    double integrals.  e and f_diag carry one entry per bond (length
    N-1), c and d_diag one per site.  clean_transfer is the clean
    chain's |f_N(time)|, 1 at the perfect-transfer times.
    """

    time: float
    c: np.ndarray
    d_diag: np.ndarray
    e: np.ndarray
    f_diag: np.ndarray
    clean_transfer: float

    @property
    def step(self) -> float:
        # read by benchmark/tracer.py; the phases are taken at s = 0 and t only
        return self.time


def _divided_differences(nodes: np.ndarray, t: float):
    """First and second divided differences of exp(z t) on distinct nodes.

    Returns (f1, f2) with f1[m, n] = f[z_m, z_n] and
    f2[m, p, n] = f[z_m, z_p, z_n]; a repeated label gives the confluent
    (derivative) value.
    """
    n = nodes.shape[0]
    k = np.arange(n)
    h = np.exp(nodes * t)
    gap = nodes[None, :] - nodes[:, None]          # z_n - z_m
    gap[k, k] = 1.0
    f1 = (h[None, :] - h[:, None]) / gap
    f1[k, k] = t * h
    f2 = (f1[None, :, :] - f1[:, :, None]) / gap[:, None, :]
    f2[k, :, k] = (f1 - f1[k, k][:, None]) / gap
    f2[k, k, k] = 0.5 * t * t * h
    return f1, f2


def _clean_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of the clean
    N-site chain, column m <-> E_m = 2(2m - N + 1), each with v[0] > 0.

    With hoppings b_j = 2 sqrt((j+1)(N-j-1)), every column starts from
    v_0 = 1, v_1 = E / b_0 and steps v_(j+1) = (E v_j - b_(j-1) v_(j-1)) / b_j
    up to the middle site, where the wanted solution grows or oscillates,
    so the forward recurrence is stable.  Persymmetry fills the rest,
    v[N-1-k, m] = (-1)^(N-1-m) v[k, m]; for odd N the middle entry of an
    odd-parity column is exactly 0.  The unnormalized entries grow like 2^(N/2)
    and would overflow only beyond N of about 2000, far past the O(N^3)
    memory of compute_coefficients.
    """
    m = np.arange(n)
    energies = 2.0 * (2 * m - n + 1)
    k = np.arange(1, n)
    hop = 2.0 * np.sqrt(k * (n - k))
    half = (n + 1) // 2
    v = np.empty((n, n))
    v[0] = 1.0
    v[1] = energies / hop[0]
    for j in range(1, half - 1):
        v[j + 1] = (energies * v[j] - hop[j - 1] * v[j - 1]) / hop[j]
    odd = (n - 1 - m) % 2 == 1
    v[n - half:] = v[half - 1::-1] * np.where(odd, -1.0, 1.0)
    if n % 2:
        v[half - 1, odd] = 0.0
    v /= np.sqrt(np.sum(v * v, axis=0))
    return energies, v


def compute_coefficients(n_sites: int, t: float | None = None) -> PerturbationCoefficients:
    """Every coefficient of the clean N-site chain at time t.

    t defaults to the first transfer time pi / 4.  The clean eigenbasis
    is constructed (_clean_basis), once per call.  Raises ValueError,
    before any work, for a NaN, infinite or negative t and for an
    n_sites that is no integer >= 2.
    """
    t = transfer_time() if t is None else float(t)
    if not np.isfinite(t):
        raise ValueError(f"time t = {t!r} is not finite")
    if t < 0:
        raise ValueError("t must be >= 0")
    energies, v = _clean_basis(ChainSpec(n_sites=n_sites).n_sites)
    x = v * v[0]                                   # x[l, m] = V_lm V_1m
    f1, f2 = _divided_differences(-1j * energies, t)
    back = np.exp(1j * energies * t)               # undoes the node shift by E_m
    xb = x * back

    # C and E: int_0^t exp(-i (E_m - E_n) s) ds = f1[m, n] exp(i E_n t)
    p = x @ f1
    c = t - 2.0 * np.sum(p * xb, axis=1).real
    e = 4.0 * np.sum(p[:-1] * xb[1:], axis=1).real

    # y[l, p, n] = sum_m x_lm exp(i E_m t) f[z_m, z_p, z_n]
    n = v.shape[0]
    y = (xb @ f2.reshape(n, n * n)).reshape(n, n, n)
    # D's occupation terms integrate to t C_l - t^2 / 2; the rest pairs
    # (l, p) and (l, n) through the intermediate site's weight V_lp^2
    d_diag = t * c - 0.5 * t * t + 4.0 * np.einsum("lpn,lp,ln->l", y, v * v, x)
    # F pairs the bond's weights x_lm V_{l+1,p} + x_{l+1,m} V_lp on both
    # sides, the second one with n reflected since -E_n = E_{N-1-n}
    xr = x[:, ::-1]
    left, right = v[:-1], v[1:]
    f_diag = 4.0 * (np.einsum("lpn,lp,ln->l", y[:-1], right * right, xr[:-1])
                    + np.einsum("lpn,lp,ln->l", y[:-1], right * left, xr[1:])
                    + np.einsum("lpn,lp,ln->l", y[1:], left * right, xr[:-1])
                    + np.einsum("lpn,lp,ln->l", y[1:], left * left, xr[1:]))
    clean_transfer = abs(np.sum(x[-1] * np.conj(back)))
    return PerturbationCoefficients(time=t, c=c, d_diag=d_diag, e=e,
                                    f_diag=f_diag, clean_transfer=float(clean_transfer))


def require_transfer_time(coefficients: PerturbationCoefficients) -> None:
    """Refuse coefficients taken where the clean chain does not transfer.

    perturbative_fidelity expands around a clean fidelity of 1, which
    holds only at t = (2n+1) pi / 4; elsewhere its 1 - ... is wrong
    at zeroth order.  The message names the nearest transfer time.
    """
    if coefficients.clean_transfer >= 1.0 - TRANSFER_TOL:
        return
    t = coefficients.time
    n = max(0, round(2.0 * t / np.pi - 0.5))
    nearest = transfer_time(n)
    raise ValueError(
        f"t = {t!r} is no perfect-transfer time of the clean chain "
        f"(|f_N| = {coefficients.clean_transfer:.6g}); the perturbative "
        f"fidelity holds only at (2n+1) pi / 4, nearest t = {nearest!r}")


def infidelity_sums(coeffs: PerturbationCoefficients) -> tuple[float, float]:
    """The two disorder-sector sums: (field sector, coupling sector)."""
    field_sum = float(np.sum(2.0 * coeffs.d_diag.real - coeffs.c ** 2))
    coupling_sum = float(np.sum(2.0 * coeffs.f_diag.real - coeffs.e ** 2))
    return field_sum, coupling_sum


def perturbative_fidelity(coeffs: PerturbationCoefficients,
                          eps_j: float = 0.0, eps_b: float = 0.0) -> float:
    """Second-order fidelity prediction; exact 1 at zero disorder.

    Valid for eps_j * t and eps_b * t well below 1 (reported, not
    enforced).  The two sectors are additive because couplings and
    fields fluctuate independently.
    """
    field_sum, coupling_sum = infidelity_sums(coeffs)
    return 1.0 - (eps_b ** 2 / 3.0) * field_sum / 3.0 \
               - (eps_j ** 2 / 3.0) * coupling_sum / 3.0
