"""Exact time evolution in the single-excitation sector.

Two propagators, each where it is cheaper:

* Ensembles at a few given times (ensemble_averages; scan, perturbation)
  expand exp(-iHt) e_1 in Chebyshev polynomials (Tal-Ezer & Kosloff
  1984) with no eigensolve.  The realizations of every cell of one
  chain length and row kind (zero-field, or with fields) are drawn
  straight into arrays and stream through shared blocks, each one
  stack; each row runs on its own cell's spectral interval for its own
  number of terms, so its bits do not depend on the block.  A
  zero-field chain is bipartite, so its k-th Chebyshev vector lives on
  the sites of parity k alone, and its stack steps only those sites,
  half the chain, to the same bits.  The cost grows with half-width x t.
* Single Hamiltonians over long time series (fidelity_series; transfer,
  fractal, dimension-scan) use the spectrum, and read only the
  eigenvalues E_k and the end-to-end weights w_k = v_1k v_Nk, so they
  compute no eigenvectors: levelstats.eigvalsh_tridiagonal's levels
  (dqds on the chiral half of a zero-field chain, sterf with fields),
  refined by one Newton step on the Sturm pivots, and the weights from
  the Jacobi-matrix identity.  A zero-field chain's levels come in pairs
  +-sigma, so it steps and weighs only sigma >= 0 and its series sums
  over sigma > 0 alone.  A series of m samples builds its phases from
  two tables of about sqrt(m) exact exponentials per mode, so after the
  setup it costs O(N m) flops in BLAS plus O(N sqrt(m)) exponentials,
  half of each for a zero-field chain.

No command computes eigenvectors: the perturbation layer builds the
clean chain's basis in closed form, and the tests keep LAPACK's
eigenvector path as their reference (tests/oracles.py).  The series
path takes sterf and dqds from levelstats.eigvalsh_tridiagonal, which
binds them from scipy's cython_lapack on first use without importing
scipy.linalg.  The Chebyshev path and everything that imports this
module run on numpy alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import levelstats
from .chain import (TridiagonalHamiltonian, _readonly, gershgorin_radii,
                    hamiltonian_block, spectral_half_width)
from .fitting import standard_error

__all__ = [
    "FidelitySeries",
    "transfer_time",
    "fidelity_of_amplitude",
    "fidelity_series",
    "series_length",
    "ensemble_averages",
]


def eigh_tridiagonal(d, e, *, lapack_driver):
    """scipy.linalg.eigh_tridiagonal, importing scipy.linalg on first use.

    No package code calls it.  It stays only because benchmark/tracer.py
    looks it up by name (Tracer.install raises AttributeError without
    it); ROADMAP item 1 removes that lookup, and this function with it.
    """
    import scipy.linalg
    return scipy.linalg.eigh_tridiagonal(d, e, lapack_driver=lapack_driver)


# Tolerated overshoot of |f| beyond 1 before declaring unitarity broken.
UNITARITY_SLACK = 1e-9

# Elements of one float64 Chebyshev work array (256 KiB): ensemble_averages
# stacks max(1, _BLOCK_ELEMENTS // sites) rows, where a row's work arrays
# hold N sites with fields and N // 2 + 2 zero-field (README, Propagators).
_BLOCK_ELEMENTS = 1 << 15

# The Chebyshev series stops where the Kapteyn bound on the sum of every
# remaining term 2 |J_k(x)| falls below this.
_CHEBYSHEV_TAIL = 1e-16

# Work-array rows (sublattice rows zero-field, sites with fields) that the
# Chebyshev sweep rounds each step's light cone out to, so that consecutive
# steps reuse one set of slice views (README, Propagators).
_SWEEP_CHUNK = 8

# Ratios multiplied per step in _end_to_end_weights before the binary
# exponent is split off; each ratio is at most 1 / eps, so 16 of them
# stay below 1e251.
_WEIGHT_CHUNK = 16

_TINY = np.finfo(float).tiny

_log = logging.getLogger(__name__)


def transfer_time(n: int = 0) -> float:
    """n-th clean perfect-transfer time, (2n+1) pi / 4 in units of 1/J."""
    return (2 * n + 1) * np.pi / 4.0


@dataclass(frozen=True)
class FidelitySeries:
    """Transfer amplitude f_N and fidelity F on the grid t_i = i dt."""

    dt: float
    amplitude: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt = {self.dt!r} must be finite and > 0")
        for name, dtype in (("amplitude", complex), ("fidelity", float)):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))
        if self.amplitude.shape != self.fidelity.shape:
            raise ValueError("amplitude and fidelity must share a shape")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    def __len__(self) -> int:
        return self.fidelity.shape[0]


def _newton_step(diag: np.ndarray, offdiag: np.ndarray, eigenvalues: np.ndarray,
                 first: int = 0, start: str = "given") -> np.ndarray:
    """Ascending eigenvalue estimates after one Newton step on det(H - x)
    for eigenvalues[first:]; the ones below first are returned as given.

    det(H - x) is the product of the LDL^T pivots (the Sturm sequence)
    d_0 = a_0 - x, d_i = a_i - x - b_(i-1)^2 / d_(i-1), so the step is
    -1 / sum_i r_i with r_i = d_i' / d_i.  The ratios follow
    r_0 = -1 / d_0 and r_i = g_i r_(i-1) - 1 / d_i with
    g_i = b_(i-1)^2 / (d_(i-1) d_i), which stays finite where d_i'
    itself would overflow.  One Python loop over the sites updates every
    eigenvalue at once: O(N^2) flops.

    A pivot below pivmin = tiny * max(1, max b^2) in magnitude is set to
    -pivmin, as in LAPACK's bisection (dstebz), so an exactly zero pivot
    stays finite.  The ratios from it on may overflow or cancel, and
    numpy's warnings on that are silenced: a zero last pivot (an N = 2
    chain whose sterf levels are exact to the last bit) makes the sum
    infinite and the step 0, and one further in front can make the sum
    0 or NaN, and the step is then rejected.

    A step is kept only if it is finite and moves the rounded estimate by
    less than half the gap to the nearest other estimate (those below
    first included; a step just under a 1-ulp half gap can round onto
    it).  That also keeps the order _end_to_end_weights relies on.  Any
    other step leaves its estimate as it was, and a WARNING names N, the
    count and the start whose values stay.  Inside a cluster closer than
    the estimates' error (a nearly severed mirror-symmetric chain, whose
    pairs dqds returns coincident) the step cannot help, and this is
    where rejections happen.
    """
    n = diag.shape[0]
    x = eigenvalues[first:]
    b2 = offdiag * offdiag
    pivmin = _TINY * max(1.0, float(b2.max(initial=0.0)))
    pivot = diag[0] - x
    np.putmask(pivot, np.abs(pivot) < pivmin, -pivmin)
    ratio = -1.0 / pivot
    total = ratio.copy()
    coupling = np.empty(x.shape[0])
    inverse = np.empty(x.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(1, n):
            np.divide(b2[i - 1], pivot, out=coupling)      # b^2 / d_(i-1)
            np.subtract(diag[i], x, out=pivot)
            pivot -= coupling
            np.putmask(pivot, np.abs(pivot) < pivmin, -pivmin)
            coupling /= pivot                               # g_i
            ratio *= coupling
            np.divide(1.0, pivot, out=inverse)
            ratio -= inverse
            total += ratio
        refined = x - 1.0 / total
    gaps = np.diff(eigenvalues)
    half_gap = 0.5 * np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    ok = np.abs(refined - x) < half_gap[first:]
    if not ok.all():
        _log.warning("Newton step rejected for %d of %d eigenvalues of an N = %d "
                     "Hamiltonian; keeping their %s values",
                     x.shape[0] - np.count_nonzero(ok), x.shape[0], n, start)
    out = eigenvalues.copy()
    out[first:] = np.where(ok, refined, x)
    return out


def _end_to_end_weights(offdiag: np.ndarray, eigenvalues: np.ndarray,
                        first: int = 0) -> np.ndarray:
    """w_k = v_1k v_Nk for k >= first from ascending eigenvalues, without
    eigenvectors.

    For a Jacobi matrix with hoppings b_j the (1, N) entry of the
    resolvent is prod_j b_j / det(z - H), and its residues give
    w_k = prod_j b_j / prod_(i != k) (E_k - E_i) (de Boor & Golub,
    Linear Algebra Appl. 21, 1978).  Row k is multiplied out as the
    ratios b_j / (E_k - E_j), _WEIGHT_CHUNK at a time, with the binary
    exponent carried apart (np.frexp), so the running product stays in
    range and rounds to about sqrt(N) eps relative.  (A sum of
    logarithms cancels two sums of order N log N: it read up to 2.6e-14
    off at N = 500.)  Signs come with the factors: an exactly zero
    hopping gives w = 0 exactly, and negative hoppings need no special
    case.  A weight below the smallest normal number is returned as 0.

    A gap below eps max|E| is read as eps max|E| with the sign of the
    order: eigenvalues that close are not resolved, and their weights
    then shrink instead of growing without bound.
    """
    n = eigenvalues.shape[0]
    floor = max(np.finfo(float).eps * max(-eigenvalues[0], eigenvalues[-1]), _TINY)
    k = np.arange(first, n)
    gaps = eigenvalues[first:] - eigenvalues[:, None]   # gaps[j, k - first] = E_k - E_j
    gaps[k, k - first] = 1.0
    if np.min(np.diff(eigenvalues), initial=np.inf) < floor:
        below = np.abs(gaps) < floor
        gaps[below] = np.where(np.arange(n)[:, None] > k, -floor, floor)[below]
    # column k pairs b_j with E_k - E_j, and b_k with the 1 on the diagonal
    ratios = np.divide(np.append(offdiag, 1.0)[:, None], gaps, out=gaps)
    mantissa = np.ones(n - first)
    exponent = np.zeros(n - first, dtype=int)
    for start in range(0, n, _WEIGHT_CHUNK):
        mantissa *= np.prod(ratios[start:start + _WEIGHT_CHUNK], axis=0)
        mantissa, e = np.frexp(mantissa)
        exponent += e
    weights = np.zeros(n - first)
    np.ldexp(mantissa, exponent, out=weights, where=exponent > np.finfo(float).minexp)
    return weights


def _transfer_spectrum(h: TridiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and end-to-end weights w_k = v_1k v_Nk of h.

    The start is levelstats.eigvalsh_tridiagonal: sterf for a chain with
    fields, and dqds (dlasq1) on the chain's bidiagonal half for a
    zero-field chain (every diagonal entry 0, -0.0 included).  One
    guarded Newton step (_newton_step) refines it and the Jacobi-matrix
    identity (_end_to_end_weights) gives the weights: O(N^2), with no
    eigenvectors.  A zero-field chain is chiral, with levels -sigma_k
    and sigma_k and, for odd N, an exact 0.0 in the middle; it steps
    only sigma > 0, weighs only sigma >= 0 and mirrors the rest, so its
    levels are exactly antisymmetric and w(-sigma) = (-1)^(N-1) w(sigma).
    Against long-double Rayleigh quotients at N = 200 and 500 the step
    brings the eigenvalues from 18-45 eps a (sterf) or 1.4-11 eps a
    (dqds) to below eps a for half-width a; stemr with vectors reads
    5-22 eps a.  dqds also reads the near-zero pair of a strongly
    disordered zero-field chain to high relative accuracy, where sterf
    and its step can miss it by a thousand times its size.
    """
    eigenvalues = levelstats.eigvalsh_tridiagonal(h.diag, h.offdiag)
    if h.diag.any():
        eigenvalues = _newton_step(h.diag, h.offdiag, eigenvalues, start="sterf")
        return eigenvalues, _end_to_end_weights(h.offdiag, eigenvalues)
    n = h.n_sites
    positive = (n + 1) // 2   # index of the smallest sigma > 0
    eigenvalues = _newton_step(h.diag, h.offdiag, eigenvalues, first=positive, start="dqds")
    eigenvalues[:n // 2] = -eigenvalues[positive:][::-1]
    weights = _end_to_end_weights(h.offdiag, eigenvalues, first=n // 2)
    mirrored = (-1) ** (n - 1) * weights[positive - n // 2:][::-1]
    return eigenvalues, np.concatenate((mirrored, weights))


def _transfer_amplitude_uniform(eigenvalues: np.ndarray, weights: np.ndarray,
                                m: int, dt: float) -> np.ndarray:
    """f_N = sum_k w_k exp(-i E_k t) on the m samples t_k = k dt from two
    tables of exact phases.

    With B = ceil(sqrt(m)) and k = aB + b, exp(-iE t_k) =
    exp(-iE t_aB) exp(-iE t_b): row a of `outer` holds the weighted
    anchor phases and row b of `inner` the in-block ones, so every sample
    is a product of two exactly computed exponentials, with no recurrence
    to drift.  Each time is the product k dt, as in FidelitySeries.times.
    The reduction is one zgemv per anchor row; a single zgemm would be
    faster, but its bits change with the BLAS thread count.
    """
    block = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    outer = np.exp(np.outer(np.arange(0, m, block) * dt, -1j * eigenvalues)) * weights
    inner = np.exp(np.outer(np.arange(block) * dt, -1j * eigenvalues))
    return np.concatenate([inner @ row for row in outer])[:m]


def fidelity_of_amplitude(f):
    """Bloch-sphere averaged fidelity |f|/3 + |f|^2/6 + 1/2.

    The phase of f never matters.  Moduli within UNITARITY_SLACK above 1
    are clamped to 1; anything larger signals broken unitarity upstream
    and raises.  Accepts scalars or arrays.
    """
    mod = np.abs(np.asarray(f, dtype=complex))
    if np.any(mod > 1.0 + UNITARITY_SLACK):
        raise ValueError(
            f"|f| = {float(np.max(mod))!r} exceeds 1 beyond tolerance; "
            "the propagator upstream is not unitary")
    mod = np.minimum(mod, 1.0)
    out = mod / 3.0 + mod * mod / 6.0 + 0.5
    return float(out) if out.ndim == 0 else out


def series_length(t_max: float, dt: float) -> int:
    """Number of samples t_i = i dt, 0 <= t_i <= t_max, of fidelity_series.

    A NaN or infinite t_max or dt, or a t_max / dt that overflows,
    raises ValueError naming them.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {float(value)!r} is not finite")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_max < dt:
        raise ValueError("t_max must be >= dt")
    steps = float(t_max) / float(dt)
    if not math.isfinite(steps):
        raise ValueError(f"t_max = {float(t_max)!r} over dt = {float(dt)!r} "
                         "is not a finite sample count")
    return int(np.floor(steps + 1e-9)) + 1


def fidelity_series(h: TridiagonalHamiltonian, t_max: float, dt: float) -> FidelitySeries:
    """Fidelity of the last spin under h on the grid t_i = i dt, 0 <= t_i <= t_max.

    A zero-field chain sums over its levels sigma > 0 alone, folding in
    their mirrors -sigma with w(-sigma) = (-1)^(N-1) w(sigma): for even N
    f_N = 2i Im sum w exp(-i sigma t), exactly imaginary, and for odd N
    f_N = w_0 + 2 Re sum w exp(-i sigma t), exactly real.  Both phase
    tables then hold half the exponentials.  A chain with fields sums
    over every level.
    """
    m = series_length(t_max, dt)
    eigenvalues, weights = _transfer_spectrum(h)
    if h.diag.any():
        amp = _transfer_amplitude_uniform(eigenvalues, weights, m, dt)
    else:
        n = h.n_sites
        positive = (n + 1) // 2
        half = _transfer_amplitude_uniform(eigenvalues[positive:], weights[positive:], m, dt)
        amp = np.zeros(m, dtype=complex)
        if n % 2:
            amp.real = weights[n // 2] + 2.0 * half.real
        else:
            amp.imag = 2.0 * half.imag
    return FidelitySeries(dt=dt, amplitude=amp, fidelity=fidelity_of_amplitude(amp))


def _chebyshev_terms(x: float) -> int:
    """Number of terms K with sum_(k >= K) 2 |J_k(x)| < _CHEBYSHEV_TAIL.

    Every term beyond k = x is bounded by Kapteyn's inequality
    |J_k(k sech a)| <= exp(k (tanh a - a)), and the bounds are summed.
    For a subnormal x, k / x overflows to inf and its bound is 0, as it
    should be; numpy's overflow warning on that is silenced.
    """
    if x == 0.0:
        return 1
    k = np.arange(np.floor(x) + 1.0, np.ceil(x + 40.0 * np.cbrt(x) + 60.0))
    with np.errstate(over="ignore"):
        bound = 2.0 * np.exp(k * (np.sqrt(1.0 - (x / k) ** 2) - np.arccosh(k / x)))
    tail = np.cumsum(bound[::-1])[::-1]
    return int(k[np.argmax(tail < _CHEBYSHEV_TAIL)])


def _chebyshev_coefficients(x: np.ndarray) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x_t) for k < K, one row per x_t.

    By Jacobi-Anger, exp(-i x cos th) = sum_k (-i)^k J_k(x) exp(i k th),
    so one FFT of the sampled left side gives every coefficient.  With
    M >= 2K samples the aliased terms are in the truncated tail.
    """
    n_terms = max((_chebyshev_terms(abs(float(v))) for v in x), default=1)
    m = 1 << int(np.ceil(np.log2(2 * n_terms)))
    theta = 2.0 * np.pi * np.arange(m) / m
    coef = np.fft.fft(np.exp(-1j * np.outer(x, np.cos(theta))), axis=1)[:, :n_terms] / m
    coef[:, 1:] *= 2.0
    return coef


def _chebyshev_transfer_amplitude(diag: np.ndarray, offdiag: np.ndarray, half_width,
                                  times: np.ndarray) -> np.ndarray:
    """f_N(t) of a stack of equal-N Hamiltonians, as (R, T).

    diag and offdiag are (R, N) and (R, N-1); half_width is one value or
    one per row.  With H~ = H / a and x = a t for a row's half-width a,
    f_N(t) = sum_k (2 - delta_k0) (-i)^k J_k(x) phi_k[N-1], where
    phi_0 = e_1, phi_1 = H~ e_1 and phi_(k+1) = 2 H~ phi_k - phi_(k-1).
    Each distinct half-width gets one coefficient table, computed as for
    a stack of that half-width alone, with its own term count K_a.  The
    rows are sorted by term count, largest first, and the recurrence runs
    on the stack elementwise; when the rows of the smallest count left
    are done, the rows still running are copied into narrower contiguous
    work arrays, and the sums are put back in input order at the end.
    Each row thus takes exactly its own terms, and its bits depend on its
    own Hamiltonian, half-width and times alone, not on the stack it runs
    in: the sites it reads only grow.  phi_k vanishes beyond site k (the
    light cone), so terms k < N-1 are zero, and each step updates only
    the sites that a later term still reads.

    A stack whose diagonals are all zero (-0.0 included) is bipartite:
    phi_k lives on the sites of parity k alone.  Its phi is held on two
    contiguous arrays, one per sublattice, with zero rows for the sites
    off the chain, and step k+1 rewrites only sublattice k+1 mod 2 in
    place, as (o_right c_right + o_left c_left) - phi_(k-1): four numpy
    calls over N/2 sites against six over N, and the sums read site N-1
    only on the steps of its parity.  Every term this drops from the full
    step (d c_i, which is +-0, and the off-parity zeros) is an exact zero,
    and the kept operations are the full step's in its order, so the
    amplitudes are the same to the byte (tests/oracles.py's plain
    recurrence checks both steps).

    Each step's range of sites is rounded out to whole chunks of
    _SWEEP_CHUNK work-array rows (sublattice rows zero-field, sites with
    fields), and its slice views are kept per (parity or buffer, chunk
    bounds) until the bounds move or the stack narrows, so most steps make
    only their numpy calls.  The rows this adds above the light cone
    compute zeros (of either sign; the sums start at +0.0, so neither
    moves a byte), and those below it values that no later term reads;
    the plain recurrence computes every site, so the bytes stay.

    Every spectrum must lie in its row's [-a, a]; a Hamiltonian whose
    Gershgorin radius exceeds it raises ValueError, since the recurrence
    would grow.  Truncation leaves |error| < 1e-16; rounding grows with
    the term count K and stays below 4e-13 up to N = 500 at 5 t1 (K about
    8000) against a matrix-exponential oracle.

    Cost: K_a ~ a max(t) + O((a max(t))^(1/3)) steps for each row, each
    updating at most N elements of it (N/2 in a zero-field stack), plus
    a fixed cost per step for the numpy calls: at N = 200, t1, one core, a
    step takes 4.2 us for one zero-field row and 8.3 us for 40 (5.6 and
    9.9 us without the reused views), and with fields 6.7 and 14.9 us
    (9.0 and 17.6).  Propagation alone at eps_j = 0.1 in
    ensemble_averages' blocks, one core, at 1 / 5 / 10 t1, best of 9:
    zero-field rows take 1.7 / 5.1 / 9.1 ms at N = 20, R = 1000,
    13 / 70 / 138 ms at N = 100, R = 1000 and 20 / 153 / 333 ms at
    N = 500, R = 100; rows with fields (eps_b = 0.1) take
    3.5 / 11.5 / 21, 35 / 187 / 373 and 61 / 459 / 902 ms.  Long times
    belong on the spectrum (fidelity_series), since the coefficient
    table alone holds 2K complex values per time.
    """
    n_real, n = diag.shape
    half_width = np.broadcast_to(np.asarray(half_width, dtype=float), (n_real,))
    radius = np.max(gershgorin_radii(diag, offdiag), axis=1)
    beyond = np.flatnonzero(radius > half_width)
    if beyond.size:
        r = beyond[0]
        raise ValueError(f"Gershgorin radius {float(radius[r])!r} exceeds the Chebyshev "
                         f"half-width {float(half_width[r])!r}")
    # one table per distinct half-width, stacked as (K, widths, T), and
    # each row's table, so that a step reads every row's coefficient at once
    widths, table_of_row = np.unique(half_width, return_inverse=True)
    tables = [_chebyshev_coefficients(float(a) * times) for a in widths]
    table_terms = np.array([table.shape[1] for table in tables])
    n_terms = int(table_terms.max())
    coef = np.zeros((n_terms, len(tables), times.shape[0]), dtype=complex)
    for i, table in enumerate(tables):
        coef[:table.shape[1], i] = table.T
    out = np.zeros((n_real, times.shape[0]), dtype=complex)
    if n_terms < n:  # every term that reaches site N lies in the tail
        return out
    # rows in descending order of their term count, so the rows still
    # running are always the leading ones; at step k == K a row of K terms
    # is done, and the rows that go on are copied into narrower arrays
    order = np.argsort(-table_terms[table_of_row], kind="stable")
    table_of_row = table_of_row[order]
    row_terms = table_terms[table_of_row]
    running_after = {int(c): int(np.count_nonzero(row_terms > c)) for c in table_terms}
    # sites outer, realizations inner: a site range is one contiguous slice;
    # phi[k % len(phi)] holds phi_k
    scale = 2.0 / half_width[order]
    o2 = np.ascontiguousarray(offdiag[order].T) * scale
    chiral = not diag.any()
    if chiral:
        # phi_k lives on the sites of parity k.  Sublattice q holds site
        # 2j - q in row j, so its site in row j reads rows j - q and
        # j + 1 - q of the other one; coupling[q][j] joins that site to the
        # one right of it.  The rows of sites off the chain, and their
        # bonds, stay zero.
        rows = n // 2 + 2
        phi = [np.zeros((rows, n_real)) for _ in range(2)]
        coupling = [np.zeros((rows, n_real)) for _ in range(2)]
        coupling[0][:n // 2], coupling[1][1:(n + 1) // 2] = o2[0::2], o2[1::2]
        scratch = [np.empty((rows, n_real)) for _ in range(2)]
        phi[0][0], phi[1][1] = 1.0, 0.5 * o2[0]
        end, stride = n // 2, 2   # site N-1's row, live every other step
    else:
        d2 = np.ascontiguousarray(diag[order].T) * scale
        phi = [np.zeros((n, n_real)) for _ in range(3)]
        coupling, scratch = [d2, o2], [np.empty((n - 1, n_real))]
        phi[0][0] = 1.0
        phi[1][0], phi[1][1] = 0.5 * d2[0], 0.5 * o2[0]
        end, stride = n - 1, 1
    sums, at_end, views = out, [p[end][:, None] for p in phi], {}
    chunk = _SWEEP_CHUNK
    for k in range(1, n_terms):
        if k in running_after:
            r = running_after[k]
            phi, coupling, scratch = ([np.ascontiguousarray(a[:, :r]) for a in group]
                                      for group in (phi, coupling, scratch))
            table_of_row, sums = table_of_row[:r], out[:r]
            at_end, views = [p[end][:, None] for p in phi], {}
        if k >= n - 1 and (k - n + 1) % stride == 0:
            sums += at_end[k % len(phi)] * coef[k].take(table_of_row, axis=0)
        if k + 1 == n_terms:
            break
        # phi_(k+1) on sites lo..hi-1: beyond k+1 it is zero, and below lo
        # no term up to K-1 reads it.  The range is rounded out to whole
        # chunks of work-array rows, so that the views of one step serve the
        # next ones; the extra rows above hi compute zeros, and those below
        # lo values that no term up to K-1 reads
        lo, hi = max(0, n + k + 1 - n_terms), min(k + 2, n)
        if chiral:
            # only sublattice q = (k+1) mod 2, in place of phi_(k-1); its
            # sites lo..hi-1 are rows a..b-1, row 0 of sublattice 1 is off the
            # chain, and b < rows keeps the other sublattice's row b + 1 - q
            q = (k + 1) % 2
            a = max(q, (lo + q + 1) // 2 // chunk * chunk)
            b = min(-(-((hi + q + 1) // 2) // chunk) * chunk, rows - 1)
            step = views.get((q, a, b))
            if step is None:
                live, other = phi[q], phi[1 - q]
                right, left = scratch
                step = views[q, a, b] = (
                    coupling[q][a:b], other[a + 1 - q:b + 1 - q], right[a:b],
                    coupling[1 - q][a - q:b - q], other[a - q:b - q], left[a:b], live[a:b])
            o_right, c_right, right, o_left, c_left, left, live = step
            np.multiply(o_right, c_right, out=right)
            np.multiply(o_left, c_left, out=left)
            right += left
            np.subtract(right, live, out=live)
            continue
        lo, hi = lo // chunk * chunk, min(-(-hi // chunk) * chunk, n)
        step = views.get((k % 3, lo, hi))
        if step is None:
            prev, cur, nxt = phi[(k - 1) % 3], phi[k % 3], phi[(k + 1) % 3]
            (d2, o2), (tmp,) = coupling, scratch
            top, bottom = min(hi, n - 1), max(lo, 1)
            step = views[k % 3, lo, hi] = (
                d2[lo:hi], cur[lo:hi], nxt[lo:hi],
                o2[lo:top], cur[lo + 1:top + 1], tmp[lo:top], nxt[lo:top],
                o2[bottom - 1:hi - 1], cur[bottom - 1:hi - 1], tmp[bottom - 1:hi - 1],
                nxt[bottom:hi], prev[lo:hi])
        (d_here, c_here, n_here, o_right, c_right, right, n_right,
         o_left, c_left, left, n_left, p_here) = step
        np.multiply(d_here, c_here, out=n_here)
        np.multiply(o_right, c_right, out=right)
        n_right += right
        np.multiply(o_left, c_left, out=left)
        n_left += left
        n_here -= p_here
    return out[np.argsort(order)]


def ensemble_averages(cells, n_real: int, master_seed: int, t_list) -> list:
    """Disorder-averaged fidelity of several cells at the given times.

    cells is a sequence of (spec, key_prefix); realization r of a cell
    draws from substream(master_seed, *key_prefix, r).  The cells are
    grouped by chain length and row kind, zero-field (eps_b = 0) or with
    fields, each group in grid order, and a group's realizations stream
    cell after cell through blocks of max(1, _BLOCK_ELEMENTS // sites)
    rows, each one stack, with sites = N // 2 + 2 zero-field (2,730 rows
    at N = 20, 130 at N = 500) and N with fields (1,638 and 65).  Each
    row is propagated by the Chebyshev expansion on its own cell's
    spectral_half_width, so its fidelity does not depend on the block it
    lands in.  Each cell's mean runs over its own rows in ascending r,
    for bit reproducibility.  Returns one (mean, fitting.standard_error)
    per cell, in the order of cells.

    n_real and the times are checked before anything is drawn; a NaN or
    infinite time raises ValueError naming it.
    """
    cells = list(cells)
    t_list = np.atleast_1d(np.asarray(t_list, dtype=float))
    for t in t_list:
        if not np.isfinite(t):
            raise ValueError(f"evaluation time {float(t)!r} is not finite")
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    fid = np.empty((len(cells), n_real, t_list.shape[0]))

    def kind(c):   # eps_b = 0 draws an all-zero diagonal
        return cells[c][0].n_sites, cells[c][0].eps_b > 0

    for (n_sites, fields), group in groupby(sorted(range(len(cells)), key=kind), key=kind):
        group = list(group)
        slot = np.empty((len(group) * n_real, t_list.shape[0]))
        size = max(1, _BLOCK_ELEMENTS // (n_sites if fields else n_sites // 2 + 2))
        for start in range(0, slot.shape[0], size):
            stop = min(start + size, slot.shape[0])
            blocks = []
            for g in range(start // n_real, (stop - 1) // n_real + 1):
                spec, key_prefix = cells[group[g]]
                rows = range(max(start - g * n_real, 0), min(stop - g * n_real, n_real))
                blocks.append((*hamiltonian_block(spec, master_seed, key_prefix, rows),
                               np.full(len(rows), spectral_half_width(spec))))
            diag, offdiag, widths = (np.concatenate(a) for a in zip(*blocks))
            slot[start:stop] = fidelity_of_amplitude(
                _chebyshev_transfer_amplitude(diag, offdiag, widths, t_list))
        fid[group] = slot.reshape(len(group), n_real, -1)
    return [(cell.mean(axis=0), standard_error(cell)) for cell in fid]
