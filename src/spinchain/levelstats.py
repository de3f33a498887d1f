"""Level-spacing statistics and the delta-to-Poisson crossover parameter.

The clean modulated chain has an equally spaced spectrum, so normalized
spacings form a delta peak at s = 1; strong coupling disorder pushes the
spacing distribution to the Poisson law exp(-s).  The crossover is
summarized by eta, the integrated distance of P(s) from the Poisson law
over s in [0, 1], normalized by the same distance for the delta peak.

Each ensemble is one chain.hamiltonian_block, whose rows are
diagonalized for eigenvalues only by eigvalsh_tridiagonal; realization
r of a sample draws from substream(master_seed, *key_prefix, r), and
eta_scan takes each cell's key prefix from chain.grid_cells.  The rows
are independent, and each LAPACK call releases the GIL (ctypes releases
it around every foreign call), so collect_spacings runs them on
w = min(n_real, CPUs) workers, CPUs being the CPUs this process may run
on (os.sched_getaffinity, else os.cpu_count()); the calling thread is
one of them, and w = 1 starts no thread.  Every row takes the same
arithmetic whatever w, so no byte depends on it, and a failure raises
the exception of the lowest failing row once every thread has joined.

eigvalsh_tridiagonal has two routes, and evolve's fidelity series
start from it too.  A chain with any nonzero field goes to LAPACK
sterf, bit for bit scipy's.  A zero-field chain (every chain of
eta-scan) is chiral, and its levels are plus and minus the singular
values of an N/2-sized bidiagonal, computed by LAPACK's dqds (dlasq1)
to high relative accuracy.  Both routines come from the LAPACK bundled
with scipy, bound once each through ctypes from the capsules that
scipy.linalg.cython_lapack exports (scipy.linalg does not wrap dlasq1);
a missing capsule, or one with another signature, raises ImportError
naming scipy's version, and a nonzero INFO raises
numpy.linalg.LinAlgError naming N.  There is no fallback between the
routes.  cython_lapack is loaded by its path on the first
eigvalsh_tridiagonal call, without scipy.linalg's package, so no
command that eigensolves imports scipy.linalg.
"""

from __future__ import annotations

import contextvars
import ctypes
import importlib.machinery
import importlib.util
import os
import re
import sys
import threading
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
    the middle level is an exact 0.0.  Both routines are bound on first
    use (collect_spacings binds both before its threads start) through
    ctypes from the capsules that scipy.linalg.cython_lapack exports
    (_lapack): a missing capsule, or one with another signature,
    raises ImportError naming scipy's version, and a nonzero INFO raises
    numpy.linalg.LinAlgError naming N.  Non-finite fields or couplings
    raise ValueError on either route, and so do couplings that are not
    N - 1.  The caller's arrays are never written to.

    collect_spacings and evolve's series path (_transfer_spectrum) both
    take their levels from here.  benchmark/tracer.py looks this
    function up by name and spans its calls.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    if (d.ndim != 1 or e.shape != (n - 1,)
            or not (np.isfinite(d).all() and np.isfinite(e).all())):
        raise ValueError(f"a chain of N = {n} sites needs N - 1 finite couplings and N "
                         f"finite fields, got arrays of shapes {d.shape} and {e.shape}")
    info = ctypes.c_int(0)
    if d.any():
        # sterf overwrites D with the levels and E with scratch; the copies
        # must outlive the call, which sees only their addresses
        levels, scratch = d.copy(), e.copy()
        _lapack("dsterf")(ctypes.byref(ctypes.c_int(n)), levels.ctypes.data,
                          scratch.ctypes.data, ctypes.byref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"sterf failed on the chain of N = {n}: "
                                        f"INFO = {info.value}")
        return levels
    e = np.abs(e)
    m = (n + 1) // 2
    diag = np.zeros(m)
    diag[:n // 2] = e[0::2]
    superdiag = np.zeros(m)
    superdiag[:m - 1] = e[1::2]
    work = np.empty(4 * m)
    _lapack("dlasq1")(ctypes.byref(ctypes.c_int(m)), diag.ctypes.data,
                      superdiag.ctypes.data, work.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dqds (dlasq1) failed on the zero-field chain of "
                                    f"N = {n}: INFO = {info.value}")
    sigma = diag[:n // 2]  # descending; an odd N drops its smallest, the zero level
    return np.concatenate((-sigma, np.zeros(n % 2), sigma[::-1]))


# The LAPACK routines eigvalsh_tridiagonal calls, with their capsules'
# signatures (Cython's typedef of double written d): sterf(N, D, E, INFO)
# and dlasq1(N, D, E, WORK, INFO).  _BOUND holds each one's ctypes
# function once its first call has bound it.
_SIGNATURES = {
    "dsterf": "void (int *, d *, d *, int *)",
    "dlasq1": "void (int *, d *, d *, d *, int *)",
}
_BOUND = {}

_CYTHON_LAPACK = "scipy.linalg.cython_lapack"


def _lapack(name):
    """The ctypes function for the cython_lapack capsule of routine name,
    bound on first use; ImportError naming scipy's version when the
    capsule is missing or has another signature."""
    routine = _BOUND.get(name)
    if routine is not None:
        return routine
    import scipy

    capsule = _cython_lapack().__pyx_capi__.get(name)
    if capsule is None:
        raise ImportError(f"scipy {scipy.__version__}: {_CYTHON_LAPACK} exports no {name}, "
                          f"which eigvalsh_tridiagonal needs")
    # prototypes of their own, so ctypes.pythonapi's shared attributes stay as they are
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule_name = get_name(capsule)
    # Cython names its typedef of double __pyx_t_<module path>_d
    signature = re.sub(r"__pyx_t_\w*_d\b", "d", (capsule_name or b"").decode())
    if signature != _SIGNATURES[name]:
        raise ImportError(f"scipy {scipy.__version__}: cython_lapack's {name} has the "
                          f"signature {signature!r}, not {_SIGNATURES[name]!r}")
    # every argument of a LAPACK routine is a pointer
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(",") + 1))
    routine = _BOUND[name] = prototype(get_pointer(capsule, capsule_name))
    return routine


def _cython_lapack():
    """scipy.linalg.cython_lapack, without running scipy/linalg/__init__.py.

    An imported one is reused.  Otherwise the extension file is loaded
    by its path in scipy's package, and its sys.modules entry is dropped
    again, so no submodule stays registered without its package.  Cython
    keeps one module object per process, so a later import scipy.linalg
    takes this same object as its cython_lapack.
    """
    module = sys.modules.get(_CYTHON_LAPACK)
    if module is not None:
        return module
    import scipy

    linalg = [os.path.join(path, "linalg")
              for path in importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_CYTHON_LAPACK, linalg)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__}: no {_CYTHON_LAPACK} in {linalg}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(_CYTHON_LAPACK, None)
    return module


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

    The rows run on w = min(n_real, CPUs) workers, CPUs being the CPUs
    this process may run on (_cpus): worker j takes rows j, j + w,
    j + 2w, ...  The calling thread is worker 0 and w - 1 threads, each
    in a copy of the caller's context (numpy's errstate holds in them),
    are the others; with w = 1 no thread starts.  Each worker writes
    its own rows with the arithmetic of one thread, so the spacings do
    not depend on w.  The threads overlap because a LAPACK call
    releases the GIL.  Both LAPACK routines are bound before any thread
    starts, so no two threads race to bind one.  A worker stops at its
    first failing row; once every thread has joined, the exception of
    the lowest failing row is raised, whatever w.
    """
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    diag, offdiag = hamiltonian_block(spec, master_seed, key_prefix, range(n_real))
    pooled = np.empty((n_real, spec.n_sites - 1))
    errors = {}   # failing row -> its exception

    def rows(first, step):
        for r in range(first, n_real, step):
            try:
                gaps = np.diff(eigvalsh_tridiagonal(diag[r], offdiag[r]))
                pooled[r] = gaps / gaps.mean()
            except Exception as err:
                errors[r] = err
                return

    for name in _SIGNATURES:
        _lapack(name)
    workers = min(n_real, _cpus())
    started = []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(rows, j, workers))
            thread.start()
            started.append(thread)
        rows(0, workers)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return SpacingSample(spacings=pooled.ravel(), n_realizations=n_real)


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    os.cpu_count() where the platform has none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
