"""Level-spacing statistics and the delta-to-Poisson crossover parameter.

The clean modulated chain has an equally spaced spectrum, so normalized
spacings form a delta peak at s = 1; strong coupling disorder pushes the
spacing distribution to the Poisson law exp(-s).  The crossover is
summarized by eta, the integrated distance of P(s) from the Poisson law
over s in [0, 1], normalized by the same distance for the delta peak.

Each ensemble is one chain.hamiltonian_block, whose rows are
diagonalized for eigenvalues only by eigvalsh_tridiagonal; realization
r of a sample draws from substream(master_seed, *key_prefix, r), and
eta_scan takes each cell's key prefix from chain.grid_cells.

eigvalsh_tridiagonal has two routes, and evolve's fidelity series
start from it too.  A chain with any nonzero field goes to LAPACK
sterf, bit for bit scipy's.  A zero-field chain (every chain of
eta-scan) is chiral, and its levels are plus and minus the singular
values of an N/2-sized bidiagonal, computed by LAPACK's dqds (dlasq1)
to high relative accuracy.  scipy.linalg does not wrap dlasq1,
so it is bound once through ctypes from the capsule that
scipy.linalg.cython_lapack exports; a missing capsule, or one with
another signature, raises ImportError naming scipy's version, and a
nonzero INFO raises numpy.linalg.LinAlgError naming N.  There is no
fallback between the routes.  scipy.linalg (and with it cython_lapack)
is imported on the first eigvalsh_tridiagonal call, not with this
module.
"""

from __future__ import annotations

import ctypes
import re
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _readonly, grid_cells, hamiltonian_block

__all__ = [
    "SpacingSample",
    "SpacingHistogram",
    "collect_spacings",
    "spacing_histogram",
    "eta",
    "eta_scan",
    "ETA_HEADER",
]


def eigvalsh_tridiagonal(d, e):
    """Ascending eigenvalues of the symmetric tridiagonal (d, e).

    A chain with fields (any nonzero d) goes to LAPACK sterf (root-free
    QL, robust for near-severed chains) and comes back bit for bit as
    scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf").
    A zero-field chain (d all zero; -0.0 counts as zero) is chiral: its
    levels are -sigma_k and sigma_k, the singular values of the
    bidiagonal with diagonal |e[0::2]| and superdiagonal |e[1::2]|
    (Golub & Kahan 1965), which LAPACK's dqds (dlasq1) computes to high
    relative accuracy (Fernando & Parlett 1994).  For odd N that
    diagonal ends in a zero; the smallest singular value is dropped and
    the middle level is an exact 0.0.  Both routes import scipy.linalg
    on first use.  dlasq1 is bound through ctypes from the capsule that
    scipy.linalg.cython_lapack exports (_bind_dlasq1): a missing capsule,
    or one with another signature, raises ImportError naming scipy's
    version, and a nonzero INFO raises numpy.linalg.LinAlgError naming N.
    Non-finite couplings raise ValueError on either route, and so do
    couplings that are not N - 1.

    collect_spacings and evolve's series path (_transfer_spectrum) both
    take their levels from here.  benchmark/tracer.py looks this
    function up by name and spans its calls.
    """
    d = np.asarray(d, dtype=float)
    if d.any():
        import scipy.linalg
        return scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    n = d.size
    e = np.abs(np.asarray(e, dtype=float))
    if d.ndim != 1 or e.shape != (n - 1,) or not np.isfinite(e).all():
        raise ValueError(f"a zero-field chain of N = {n} sites needs N - 1 finite "
                         f"couplings, got an array of shape {e.shape}")
    m = (n + 1) // 2
    diag = np.zeros(m)
    diag[:n // 2] = e[0::2]
    superdiag = np.zeros(m)
    superdiag[:m - 1] = e[1::2]
    info = _dlasq1(m, diag, superdiag)
    if info != 0:
        raise np.linalg.LinAlgError(f"dqds (dlasq1) failed on the zero-field chain of "
                                    f"N = {n}: INFO = {info}")
    sigma = diag[:n // 2]  # descending; an odd N drops its smallest, the zero level
    return np.concatenate((-sigma, np.zeros(n % 2), sigma[::-1]))


# LAPACK's dlasq1(N, D, E, WORK, INFO) from scipy.linalg.cython_lapack,
# bound on the first zero-field chain.
_DLASQ1 = None
_DLASQ1_SIGNATURE = "void (int *, d *, d *, d *, int *)"


def _dlasq1(m, diag, superdiag) -> int:
    """Singular values of the m x m upper bidiagonal (diag, superdiag),
    descending, in place of diag; returns LAPACK's INFO."""
    global _DLASQ1
    if _DLASQ1 is None:
        _DLASQ1 = _bind_dlasq1()
    n, info = ctypes.c_int(m), ctypes.c_int(0)
    work = np.empty(4 * m)
    _DLASQ1(ctypes.byref(n), diag.ctypes.data, superdiag.ctypes.data, work.ctypes.data,
            ctypes.byref(info))
    return info.value


def _bind_dlasq1():
    """A ctypes function for the dlasq1 capsule; ImportError naming scipy's
    version when the capsule is missing or has another signature."""
    import scipy
    import scipy.linalg.cython_lapack as cython_lapack

    capsule = cython_lapack.__pyx_capi__.get("dlasq1")
    if capsule is None:
        raise ImportError(f"scipy {scipy.__version__}: scipy.linalg.cython_lapack "
                          f"exports no dlasq1, which zero-field chains need")
    # prototypes of their own, so ctypes.pythonapi's shared attributes stay as they are
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    # Cython names its typedef of double __pyx_t_<module path>_d
    signature = re.sub(r"__pyx_t_\w*_d\b", "d", (name or b"").decode())
    if signature != _DLASQ1_SIGNATURE:
        raise ImportError(f"scipy {scipy.__version__}: cython_lapack's dlasq1 has the "
                          f"signature {signature!r}, not {_DLASQ1_SIGNATURE!r}")
    pointer = get_pointer(capsule, name)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_void_p, ctypes.c_void_p)
    return prototype(pointer)


# The spacing histogram's edge grid covers at least [0, S_MAX].
S_MAX = 5.0

# eta needs a bin centered in [0, 1]; the first bin of width w is centered at w/4.
MAX_BIN_WIDTH = 4.0

# The columns of eta_scan's rows.
ETA_HEADER = ("n_sites", "eps_j", "eta")


@dataclass(frozen=True)
class SpacingSample:
    """Pooled nearest-neighbor spacings, each normalized per realization."""

    spacings: np.ndarray
    n_realizations: int

    def __post_init__(self):
        object.__setattr__(self, "spacings", _readonly(self.spacings))


@dataclass(frozen=True)
class SpacingHistogram:
    """Probability density of spacings on bins centered at multiples of w.

    Centering the grid on s = 1 (instead of putting an edge there) keeps
    the clean chain's delta peak inside a single bin even with floating
    point noise on the eigenvalues.  The first bin is the half bin
    [0, w/2); total mass is 1 by construction.
    """

    edges: np.ndarray
    density: np.ndarray
    bin_width: float

    def __post_init__(self):
        for name in ("edges", "density"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def mass(self) -> float:
        """Total probability, 1 by construction; benchmark/oracle.py checks it."""
        return float(np.sum(self.density * self.widths))

    @property
    def eta(self) -> float:
        """Riemann-sum eta on the histogram's own bins.

        Both integrals run over the bins whose center lies in [0, 1], share
        the binning and share the Poisson reference evaluated at the bin
        centers, so a sample that concentrates in the bin containing s = 1
        (the clean chain) gives eta = 1 identically.  A bin width above
        MAX_BIN_WIDTH leaves no bin to integrate over and raises ValueError.
        """
        if not self.bin_width <= MAX_BIN_WIDTH:
            raise ValueError(f"bin width {self.bin_width!r} leaves no bin center "
                             f"in [0, 1]; eta needs a width of at most {MAX_BIN_WIDTH:g}")
        centers = self.centers
        widths = self.widths
        inside = centers <= 1.0 + 1e-12
        poisson = np.exp(-centers[inside])

        delta_density = np.zeros_like(self.density)
        delta_bin = np.searchsorted(self.edges, 1.0, side="right") - 1
        delta_density[delta_bin] = 1.0 / widths[delta_bin]

        num = np.sum(widths[inside] * np.abs(self.density[inside] - poisson))
        den = np.sum(widths[inside] * np.abs(delta_density[inside] - poisson))
        return float(num / den)


def collect_spacings(spec: ChainSpec, n_real: int, master_seed: int,
                     key_prefix: tuple = ()) -> SpacingSample:
    """Diagonalize n_real disordered chains and pool normalized spacings.

    Per realization the N-1 consecutive gaps of the ascending spectrum
    are divided by their own mean, which removes realization-to-
    realization bandwidth fluctuations before pooling.  Degenerate
    eigenvalues contribute zero spacings and are kept.  The realizations
    are the rows of one hamiltonian_block; n_real is checked first.
    """
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    diag, offdiag = hamiltonian_block(spec, master_seed, key_prefix, range(n_real))
    pooled = np.empty((n_real, spec.n_sites - 1))
    for r in range(n_real):
        gaps = np.diff(eigvalsh_tridiagonal(diag[r], offdiag[r]))
        pooled[r] = gaps / gaps.mean()
    return SpacingSample(spacings=pooled.ravel(), n_realizations=n_real)


def spacing_histogram(values, bin_width: float = 0.05) -> SpacingHistogram:
    """Histogram density with bins of width w centered at s = 0, w, 2w, ...

    The edge grid covers [0, S_MAX] and is extended past S_MAX when
    samples demand it, so the histogram always carries total mass 1.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty spacing sample")
    top = max(S_MAX, float(values.max()) + bin_width)
    n_centers = int(np.ceil(top / bin_width)) + 1
    edges = np.concatenate(([0.0], (np.arange(n_centers) + 0.5) * bin_width))
    counts, _ = np.histogram(values, bins=edges)
    density = counts / (values.size * np.diff(edges))
    return SpacingHistogram(edges=edges, density=density, bin_width=bin_width)


def eta(sample: SpacingSample, bin_width: float = 0.05) -> float:
    """Crossover parameter: 1 for the clean delta peak, ~0 for Poisson."""
    return spacing_histogram(sample.spacings, bin_width).eta


def eta_scan(n_values, eps_j_grid, n_real: int, master_seed: int,
             bin_width: float = 0.05) -> list:
    """Rows in ETA_HEADER order over the (N, eps_j) grid, in the order and
    with the stream keys of chain.grid_cells; bin_width is checked first."""
    if not 0 < bin_width <= MAX_BIN_WIDTH:
        raise ValueError(f"bin_width must lie in (0, {MAX_BIN_WIDTH:g}], got {bin_width!r}")
    return [(spec.n_sites, spec.eps_j,
             eta(collect_spacings(spec, n_real, master_seed, key), bin_width))
            for spec, key in grid_cells(n_values, eps_j_grid)]
