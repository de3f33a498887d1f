"""Independent references for the tests; nothing here imports spinchain.

The spin-half construction works in the full 2^N space, the matrix
exponential is a scaled Taylor series with squaring, levels are bisected
in 60-digit decimals, the clean basis is exact in integers, and the
eigenvector path is scipy's LAPACK with vectors.
"""

import decimal
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def _site_operator(op, site, n):
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else ID2)
    return out


def full_chain_hamiltonian(n, j=1.0, delta=None, fields=None):
    """2^N x 2^N Hamiltonian from explicit Pauli tensor products."""
    delta = np.zeros(n - 1) if delta is None else np.asarray(delta, dtype=float)
    fields = np.zeros(n) if fields is None else np.asarray(fields, dtype=float)
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        h += fields[k] * _site_operator(SZ, k, n)
    for k in range(n - 1):
        jk = j * np.sqrt((k + 1) * (n - k - 1)) * (1.0 + delta[k])
        h += jk * (_site_operator(SX, k, n) @ _site_operator(SX, k + 1, n)
                   + _site_operator(SY, k, n) @ _site_operator(SY, k + 1, n))
    return h


def single_excitation_block(n, j=1.0, delta=None, fields=None, drop_shift=True):
    """Project the full Hamiltonian onto the one-flipped-spin basis.

    Basis state j (0-based) has spin j in |1>, index 2^(n-1-j) in the
    computational ordering.  With drop_shift the mean of the diagonal is
    removed, matching the convention that a constant energy offset is a
    global phase.
    """
    full = full_chain_hamiltonian(n, j, delta, fields)
    idx = [2 ** (n - 1 - site) for site in range(n)]
    block = full[np.ix_(idx, idx)].real.copy()
    if drop_shift:
        block -= np.eye(n) * np.trace(block) / n
    return block


def expm_taylor(a):
    """Matrix exponential by scaling, Taylor summation and squaring."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    b = a / (2 ** squarings)
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 40):
        term = term @ b / k
        out += term
        if np.linalg.norm(term, np.inf) < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def sector_matrix(n, j=1.0, delta=None, fields=None):
    """Dense one-excitation Hamiltonian assembled directly (not via the
    package): hopping 2 J sqrt(k(N-k)) (1+delta_k), on-site -2 b_j."""
    delta = np.zeros(n - 1) if delta is None else np.asarray(delta, dtype=float)
    fields = np.zeros(n) if fields is None else np.asarray(fields, dtype=float)
    k = np.arange(1, n)
    off = 2.0 * j * np.sqrt(k * (n - k)) * (1.0 + delta)
    return np.diag(-2.0 * fields) + np.diag(off, 1) + np.diag(off, -1)


def oracle_amplitudes(h, t):
    """Every site's amplitude <j| exp(-iHt) |1> of the dense matrix h, by
    expm_taylor.

    Independent of every package propagator.  Against a Chebyshev sum
    within 1e-12 up to N = 500 at 5 t1, at about 1 s per call there.
    """
    return expm_taylor(-1j * t * h)[:, 0]


def phase_sum(energies, weights, times, chunk=2000):
    """sum_k w_k exp(-i E_k t) at each time, every phase evaluated afresh
    (chunk times per table), so no error carries from one sample to the
    next."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.shape[0], dtype=complex)
    for start in range(0, times.shape[0], chunk):
        block = times[start:start + chunk]
        out[start:start + chunk] = np.exp(-1j * np.outer(block, energies)) @ weights
    return out


def oracle_transfer_series(n, t_max, dt, j=1.0, delta=None, fields=None):
    """f_N(t_i) on t_i = i dt by dense eigh and a direct phase sum.

    Independent of the package's tridiagonal eigensolvers and of its
    phase tables.  Returns (times, f_N).
    """
    energies, vectors = np.linalg.eigh(sector_matrix(n, j, delta, fields))
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    return times, phase_sum(energies, vectors[0] * vectors[-1], times)


def eigendecompose(h):
    """(eigenvalues, eigenvectors) of h (any object with diag and offdiag),
    ascending, column m <-> E_m.

    scipy's stemr runs first, stev where stemr refuses (28 of 200
    eps_j = 1, N = 200 chains), and each column is signed so that its
    first nonzero entry is positive.
    """
    try:
        w, v = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stemr")
    except np.linalg.LinAlgError:
        w, v = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stev")
    first_nonzero = np.argmax(v != 0.0, axis=0)
    flip = v[first_nonzero, np.arange(v.shape[1])] < 0.0
    v[:, flip] *= -1.0
    return w, v


def amplitudes(spectrum, t):
    """All site amplitudes f_j(t) = <j| exp(-iHt) |1> from eigendecompose's
    (eigenvalues, eigenvectors)."""
    w, v = spectrum
    return v @ (np.exp(-1j * w * t) * v[0])


def transfer_amplitude(spectrum, times):
    """f_N(t) at each time from eigendecompose's (eigenvalues, eigenvectors)."""
    w, v = spectrum
    return phase_sum(w, v[0] * v[-1], times)


def oracle_sturm_level(e, k, digits=60):
    """The k-th smallest eigenvalue (0-based) of the zero-diagonal
    symmetric tridiagonal with off-diagonal e, as a decimal.Decimal.

    Bisection on Sturm counts in `digits`-digit decimal arithmetic (the
    stdlib only: no mpmath).  Each entry of e converts exactly, floats
    included, and a zero-diagonal chain's levels are relatively
    insensitive to relative changes of its couplings, so the result is
    good to roughly `digits` - 5 digits relative, tiny levels included.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        b2 = [decimal.Decimal(x) ** 2 for x in e]
        tiny = decimal.Decimal(10) ** -(4 * digits)

        def count_below(x):
            # negative pivots of the LDL^T factorization of T - x
            count, pivot = 0, -x
            for c in b2:
                if pivot == 0:
                    pivot = tiny
                count += pivot < 0
                pivot = -x - c / pivot
            return count + (pivot < 0)

        top = 2 * max((abs(decimal.Decimal(x)) for x in e), default=decimal.Decimal(0)) + 1
        lo, hi = -top, top
        tol = decimal.Decimal(10) ** -(digits - 5)
        for _ in range(20 * digits):
            mid = (lo + hi) / 2
            if count_below(mid) > k:
                hi = mid
            else:
                lo = mid
            if hi - lo <= tol * min(abs(lo), abs(hi)):
                break
        return +(lo + hi) / 2


def oracle_clean_basis(n):
    """The clean N-site chain's orthonormal eigenvectors, column m <-> E_m
    = 2(2m - N + 1), each with a positive first entry, in Python integers.

    With mu = 2m - N + 1 the integers W_1 = 1, W_2 = mu,
    W_(k+1) = mu W_k - (k-1)(N-k+1) W_(k-1) give the k-th entry (1-based)
    as sign(W_k) sqrt(s_k / sum s) with s_k = W_k^2 C(N-1, k-1) ((N-k)!)^2.
    Each root is taken by math.isqrt to 128 bits beyond the rational's
    own, so the one float conversion is the only rounding that shows.
    No recurrence in floats, no LAPACK.
    """
    out = np.empty((n, n))
    weight = [math.comb(n - 1, k - 1) * math.factorial(n - k) ** 2 for k in range(1, n + 1)]
    for m in range(n):
        mu = 2 * m - n + 1
        w = [1, mu]
        for k in range(2, n):
            w.append(mu * w[k - 1] - (k - 1) * (n - k + 1) * w[k - 2])
        squares = [wk * wk * c for wk, c in zip(w, weight)]
        total = sum(squares)
        for k, (wk, sq) in enumerate(zip(w, squares)):
            shift = (total.bit_length() - sq.bit_length() + 257) // 2
            root = math.isqrt((sq << (2 * shift)) // total)
            out[k, m] = math.copysign(math.ldexp(float(root), -shift), wk)
    return out
