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
under the constant part of the field term).  Every double integral
separates, per intermediate site, into an outer integrand times a
cumulative inner integral, so the cost stays linear in the number of
grid points.  Quadrature is composite Simpson; results are accepted
only when halving the step leaves every coefficient family unchanged
to a relative tolerance.

This module serves as an independent check on the Monte-Carlo engine;
it never touches the disorder sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import clean_hamiltonian
from .evolve import SpectralDecomposition, eigendecompose

__all__ = [
    "QuadratureError",
    "CleanPropagatorTable",
    "PerturbationCoefficients",
    "clean_propagator_table",
    "compute_coefficients",
    "perturbative_fidelity",
    "infidelity_sums",
]

SAMPLES_PER_PERIOD = 20


class QuadratureError(RuntimeError):
    """The quadrature step is too coarse for a trustworthy result."""


@dataclass(frozen=True)
class CleanPropagatorTable:
    """Clean-chain spectrum plus the reference quadrature grid."""

    decomposition: SpectralDecomposition
    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class PerturbationCoefficients:
    """All coefficients at one evaluation time.

    c and e are real; d_diag and f_diag are the (complex) time-ordered
    double integrals.  e and f_diag carry one entry per bond (length
    N-1), c and d_diag one per site.
    """

    time: float
    c: np.ndarray
    d_diag: np.ndarray
    e: np.ndarray
    f_diag: np.ndarray
    step: float
    richardson_rel: float


def _even_subdivisions(t: float, step_target: float) -> int:
    return 2 * max(1, int(np.ceil(t / (2.0 * step_target))))


def clean_propagator_table(n_sites: int, base_coupling: float = 1.0,
                           t: float | None = None, step: float | None = None,
                           samples_per_period: int = SAMPLES_PER_PERIOD) -> CleanPropagatorTable:
    """Decompose the clean chain and fix the quadrature grid up to time t.

    The default step resolves the shortest spectral period
    2 pi / (E_max - E_min) with samples_per_period points; t defaults to
    the first transfer time pi / (4J).
    """
    sd = eigendecompose(clean_hamiltonian(n_sites, base_coupling))
    if t is None:
        t = np.pi / (4.0 * base_coupling)
    if t <= 0:
        raise ValueError("table horizon t must be > 0")
    span = float(sd.eigenvalues[-1] - sd.eigenvalues[0])
    period = 2.0 * np.pi / span
    if step is None:
        step = period / samples_per_period
    elif step > period / SAMPLES_PER_PERIOD * (1.0 + 1e-9):
        raise QuadratureError(
            f"step {step} leaves fewer than {SAMPLES_PER_PERIOD} samples on the "
            f"shortest spectral period {period}")
    m = _even_subdivisions(t, step)
    times = np.arange(m + 1) * (t / m)
    return CleanPropagatorTable(decomposition=sd, times=times)


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson along axis 0; needs an even number of intervals."""
    m = y.shape[0] - 1
    if m < 2 or m % 2:
        raise ValueError(f"Simpson needs an even interval count, got {m}")
    return (h / 3.0) * (y[0] + y[-1]
                        + 4.0 * y[1:-1:2].sum(axis=0)
                        + 2.0 * y[2:-1:2].sum(axis=0))


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral along axis 0, fourth order, Q[0] = 0.

    Even grid points use plain Simpson pairs; odd points add the
    quadratic-interpolation correction for the trailing interval.
    """
    m = y.shape[0] - 1
    q = np.zeros_like(y)
    if m == 0:
        return q
    if m >= 2:
        pair = (h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
        q[2::2] = np.cumsum(pair, axis=0)
        q[1] = (h / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
        if m >= 3:
            q[3::2] = q[2:-1:2] + (h / 12.0) * (-y[1:-2:2] + 8.0 * y[2:-1:2]
                                                + 5.0 * y[3::2])
    else:  # single interval, trapezoid fallback (never hit with even grids)
        q[1] = 0.5 * h * (y[0] + y[1])
    return q


def _column_history(sd: SpectralDecomposition, phase: np.ndarray, j: int) -> np.ndarray:
    """U[s, k] = <k| exp(-iH t_s) |j> for every grid time s."""
    v = sd.eigenvectors
    return (phase * v[j]) @ v.T


def _coefficients_on_grid(sd: SpectralDecomposition, times: np.ndarray):
    n = sd.n_sites
    h = float(times[1] - times[0])
    phase = np.exp(np.outer(times, -1j * sd.eigenvalues))
    u1 = _column_history(sd, phase, 0)           # U_l^1(t_s), column l

    c = _simpson(1.0 - 2.0 * np.abs(u1) ** 2, h).real
    e = _simpson(4.0 * (u1[:, :-1] * u1[:, 1:].conj()).real, h)

    t_end = float(times[-1])
    d_diag = np.empty(n, dtype=complex)
    f_diag = np.empty(n - 1, dtype=complex)
    col_l = u1
    for l in range(n):
        col_next = _column_history(sd, phase, l + 1) if l + 1 < n else None
        u1l = u1[:, l]
        occ = np.abs(u1l) ** 2
        p = u1l.conj()[:, None] * col_l
        inner = _cumulative_simpson(p, h).conj()
        d_diag[l] = (0.5 * t_end ** 2
                     - 2.0 * _simpson(occ * times, h)
                     - 2.0 * _simpson(_cumulative_simpson(occ, h), h)
                     + 4.0 * _simpson(np.sum(p * inner, axis=1), h))
        if col_next is not None:
            u1r = u1[:, l + 1]
            outer = u1l.conj()[:, None] * col_next + u1r.conj()[:, None] * col_l
            b = u1l.conj()[:, None] * col_next.conj() + u1r.conj()[:, None] * col_l.conj()
            f_diag[l] = 4.0 * _simpson(np.sum(outer * _cumulative_simpson(b, h), axis=1), h)
        col_l = col_next
    return c, d_diag, e, f_diag


def _richardson_rel(coarse, fine) -> float:
    """Worst relative change across the four coefficient families.

    Each family is measured against its own sup norm, floored at 1e-3 of
    the largest family so that families that vanish identically (E does,
    by the chiral symmetry of the zero-diagonal clean chain) do not stall
    the check on pure roundoff.
    """
    sups = [float(np.max(np.abs(f))) for f in fine]
    floor = 1e-3 * max(max(sups), 1e-300)
    return max(float(np.max(np.abs(c - f))) / max(s, floor)
               for c, f, s in zip(coarse, fine, sups))


def compute_coefficients(table: CleanPropagatorTable, t: float | None = None,
                         rel_tol: float = 1e-6,
                         max_refinements: int = 8) -> PerturbationCoefficients:
    """Evaluate every coefficient at time t with a step-halving check.

    The integrals run on an even Simpson grid with the table's step and
    again with the step halved; the result is accepted only once no
    coefficient family moves by more than rel_tol (sup norm, relative to
    the family scale) under the halving.  The grid refines automatically
    up to max_refinements times; pass max_refinements=0 to demand the
    table's own step, in which case a too-coarse step refuses outright.
    """
    sd = table.decomposition
    if t is None:
        t = table.horizon
    if t < 0:
        raise ValueError("t must be >= 0")
    n = sd.n_sites
    if t == 0.0:
        zc = np.zeros(n)
        return PerturbationCoefficients(
            time=0.0, c=zc, d_diag=np.zeros(n, complex),
            e=np.zeros(n - 1), f_diag=np.zeros(n - 1, complex),
            step=table.step, richardson_rel=0.0)

    m = _even_subdivisions(t, table.step)
    coarse = _coefficients_on_grid(sd, np.arange(m + 1) * (t / m))
    rel = np.inf
    for _ in range(max_refinements + 1):
        fine = _coefficients_on_grid(sd, np.arange(2 * m + 1) * (t / (2 * m)))
        rel = _richardson_rel(coarse, fine)
        if rel <= rel_tol:
            c, d_diag, e, f_diag = fine
            return PerturbationCoefficients(time=float(t), c=c, d_diag=d_diag,
                                            e=e, f_diag=f_diag, step=t / (2 * m),
                                            richardson_rel=rel)
        m, coarse = 2 * m, fine
    raise QuadratureError(
        f"halving the step still moves coefficients by {rel:.3e} relative "
        f"(> {rel_tol:.0e}) after {max_refinements} refinements")


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
