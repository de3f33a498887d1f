import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# ---------------------------------------------------------------------------
# Independent oracles.  These deliberately avoid the package's own code
# paths: the spin-half construction works in the full 2^N space and the
# matrix exponential uses scaled Taylor series plus squaring.
# ---------------------------------------------------------------------------

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


def oracle_amplitudes(n, t, j=1.0, delta=None, fields=None):
    """f(t) by Taylor/squaring expm of the dense sector matrix.

    Independent of the spectral propagator; matrix assembly itself is
    cross-checked against the Pauli-projection construction at small N.
    """
    u = expm_taylor(-1j * t * sector_matrix(n, j, delta, fields))
    return u[:, 0]


def oracle_transfer_series(n, t_max, dt, j=1.0, delta=None, fields=None,
                           chunk=2000):
    """f_N(t_i) on t_i = i dt by dense eigh and a direct phase sum.

    Every sample is exp(-i E t_i) evaluated afresh, so no error carries
    from one sample to the next; independent of the package's
    tridiagonal eigensolver and of its phase tables.
    Returns (times, f_N).
    """
    energies, vectors = np.linalg.eigh(sector_matrix(n, j, delta, fields))
    weights = vectors[0] * vectors[-1]
    times = np.arange(int(round(t_max / dt)) + 1) * dt
    f_n = np.empty(times.shape[0], dtype=complex)
    for start in range(0, times.shape[0], chunk):
        block = times[start:start + chunk]
        f_n[start:start + chunk] = np.exp(-1j * np.outer(block, energies)) @ weights
    return times, f_n


def oracle_sturm_level(e, k, digits=60):
    """The k-th smallest eigenvalue (0-based) of the zero-diagonal
    symmetric tridiagonal with off-diagonal e, as a decimal.Decimal.

    Bisection on Sturm counts in `digits`-digit decimal arithmetic (the
    stdlib only: no mpmath).  Each entry of e converts exactly, floats
    included, and a zero-diagonal chain's levels are relatively
    insensitive to relative changes of its couplings, so the result is
    good to roughly `digits` - 5 digits relative, tiny levels included.
    """
    import decimal

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
    Independent of the package: no recurrence in floats, no LAPACK.
    """
    import math

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def forbid_draws(monkeypatch):
    """Make any random stream fail: both the block path and substream
    build numpy's SeedSequence and Philox."""

    def no_draw(*args, **kwargs):
        raise AssertionError("a realization was drawn")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    monkeypatch.setattr(np.random, "Philox", no_draw)
