"""Level-spacing statistics and the delta-to-Poisson crossover parameter.

The clean modulated chain has an equally spaced spectrum, so normalized
spacings form a delta peak at s = 1; strong coupling disorder pushes the
spacing distribution to the Poisson law exp(-s).  The crossover is
summarized by eta, the integrated distance of P(s) from the Poisson law
over s in [0, 1], normalized by the same distance for the delta peak.

Each ensemble is one chain.hamiltonian_block, whose rows are
diagonalized for eigenvalues only by one eigvalsh_tridiagonal call on
the whole block; realization r of a sample draws from
substream(master_seed, *key_prefix, r), and eta_scan takes each cell's
key prefix from chain.grid_cells.  That call checks, routes and copies
the block once and assembles its levels once; only the LAPACK calls
run per chain, on w = min(R, CPUs) workers for R chains, CPUs being the
CPUs this process may run on (os.sched_getaffinity, else
os.cpu_count()).  The chains are independent, and ctypes releases the
GIL around every foreign call, so the workers overlap; the calling
thread is one of them, and one chain starts no thread.  No byte depends
on w, and a nonzero INFO raises for the lowest failing chain once every
thread has joined.

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

import ctypes
import importlib.machinery
import importlib.util
import math
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
    """Ascending eigenvalues of symmetric tridiagonal (d, e), along the last axis.

    d holds N fields and e N - 1 couplings per chain; a stack of chains
    (leading axes alike, as chain.gershgorin_radii takes them) gives one
    row of levels per chain, and a 1-D call one row, returned 1-D.  The
    caller's arrays are never written to.

    A chain with fields (any nonzero d) goes to LAPACK sterf (root-free
    QL, robust for near-severed chains) and comes back bit for bit as
    scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf").
    A zero-field chain (d all zero; -0.0 counts as zero) is chiral: its
    levels are -sigma_k and sigma_k, the singular values of the
    bidiagonal with diagonal |e[0::2]| and superdiagonal |e[1::2]|
    (Golub & Kahan 1965), which LAPACK's dqds (dlasq1) computes to high
    relative accuracy (Fernando & Parlett 1994).  For odd N that
    diagonal ends in a zero; the smallest singular value is dropped and
    the middle level is an exact 0.0.

    The block is checked, routed and copied into the routines' arrays
    once, and its levels are assembled once; only the LAPACK calls run
    per chain, one foreign call on that chain's row of those arrays.
    They run on w = min(R, CPUs) workers for R chains, CPUs being the
    CPUs this process may run on (_cpus): worker j takes chains j,
    j + w, j + 2w, ...  The calling thread is worker 0 and w - 1
    threads are the others; one chain starts no thread.  Each worker
    has its own dqds WORK array and each chain its own INFO slot, so
    no byte depends on w, and the threads overlap because ctypes
    releases the GIL around every foreign call.  The routines the block
    needs are bound before any thread starts, through ctypes from the
    capsules that scipy.linalg.cython_lapack exports (_lapack): a
    missing capsule, or one with another signature, raises ImportError
    naming scipy's version.  Non-finite fields or couplings, or
    couplings that are not N - 1, raise ValueError before any LAPACK
    call.  Once every thread has joined, a nonzero INFO raises
    numpy.linalg.LinAlgError naming the lowest failing chain, N and
    INFO.

    collect_spacings (a whole ensemble per call) and evolve's series
    path (_transfer_spectrum, one chain per call) both take their
    levels from here.  benchmark/tracer.py looks this function up by
    name and spans its calls.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    shape = d.shape
    n = shape[-1] if d.ndim else 0
    if (d.ndim == 0 or e.shape != shape[:-1] + (n - 1,)
            or not (np.isfinite(d).all() and np.isfinite(e).all())):
        raise ValueError(f"a chain of N = {n} sites needs N - 1 finite couplings and N "
                         f"finite fields, got arrays of shapes {d.shape} and {e.shape}")
    chains = math.prod(shape[:-1])
    d, e = d.reshape(chains, n), e.reshape(chains, n - 1)
    fields = d.any(axis=1)
    # row r of (D, E) is what chain r's routine works on in place: sterf
    # takes (d, e) and leaves the levels in D; dqds takes the bidiagonal
    # (|e[0::2]| and a zero for odd N, |e[1::2]|) and leaves its singular
    # values in D, descending
    with_fields, chiral = fields[:, None], ~fields[:, None]
    m = (n + 1) // 2
    lapack_d, lapack_e = np.zeros((chains, n)), np.zeros((chains, n))
    np.copyto(lapack_d, d, where=with_fields)
    np.copyto(lapack_e[:, :n - 1], e, where=with_fields)
    np.copyto(lapack_d[:, :n // 2], np.abs(e[:, 0::2]), where=chiral)
    np.copyto(lapack_e[:, :m - 1], np.abs(e[:, 1::2]), where=chiral)
    info = np.zeros(chains, dtype=np.int32)
    _solve_rows(n, fields.tolist(), lapack_d, lapack_e, info)
    failed = np.flatnonzero(info)
    if failed.size:
        r = failed[0]
        where = f"row {r}: " if chains > 1 else ""
        route = "sterf failed on the" if fields[r] else "dqds (dlasq1) failed on the zero-field"
        raise np.linalg.LinAlgError(f"{where}{route} chain of N = {n}: INFO = {info[r]}")
    sigma = lapack_d[:, :n // 2]  # an odd N drops its smallest, the zero level
    levels = np.zeros((chains, n))
    levels[:, :n // 2] = -sigma
    levels[:, m:] = sigma[:, ::-1]
    np.copyto(levels, lapack_d, where=with_fields)
    return levels.reshape(shape)


def _solve_rows(n, fields, lapack_d, lapack_e, info):
    """One LAPACK call per chain r, in place on row r of lapack_d and
    lapack_e: sterf when fields[r], else dlasq1 on the first (N + 1) // 2
    entries; INFO goes to info[r].

    w = min(R, CPUs) workers: worker j takes chains j, j + w, ..., the
    caller is worker 0, and every thread has joined before this returns
    or raises.  A worker stops at an exception, and the exception of
    the lowest chain where one stopped is raised after the join.
    """
    routes = {}   # fields -> (routine, the address of its N)
    sizes = {True: ctypes.c_int(n), False: ctypes.c_int((n + 1) // 2)}
    for route, name in ((True, "dsterf"), (False, "dlasq1")):
        if route in fields:
            routes[route] = _lapack(name), ctypes.addressof(sizes[route])
    d_at, e_at, row = lapack_d.ctypes.data, lapack_e.ctypes.data, lapack_d.strides[0]
    info_at = info.ctypes.data
    errors = {}   # chain a worker stopped at -> its exception

    def solve(first, step):
        work = np.empty(4 * ((n + 1) // 2))   # dlasq1's WORK, one per worker
        work_at = work.ctypes.data
        r = first
        try:
            for r in range(first, len(fields), step):
                routine, size = routes[fields[r]]
                if fields[r]:
                    routine(size, d_at + r * row, e_at + r * row, info_at + 4 * r)
                else:
                    routine(size, d_at + r * row, e_at + r * row, work_at, info_at + 4 * r)
        except Exception as err:
            errors[r] = err

    workers = max(1, min(len(fields), _cpus()))
    started = []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=solve, args=(j, workers))
            thread.start()
            started.append(thread)
        solve(0, workers)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]


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
    are the rows of one hamiltonian_block, n_real checked first, and
    one eigvalsh_tridiagonal call solves them all, on one worker per CPU
    (its docstring gives the rule); the gaps and their means are then
    taken along each row of the block, with the arithmetic of one row.
    """
    if n_real < 1:
        raise ValueError("n_real must be >= 1")
    diag, offdiag = hamiltonian_block(spec, master_seed, key_prefix, range(n_real))
    gaps = np.diff(eigvalsh_tridiagonal(diag, offdiag), axis=1)
    pooled = gaps / gaps.mean(axis=1, keepdims=True)
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
    if not bin_width > 0:    # NaN fails too
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
