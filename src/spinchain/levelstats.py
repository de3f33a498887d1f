"""Level-spacing statistics and the delta-to-Poisson crossover parameter.

The clean modulated chain has an equally spaced spectrum, so normalized
spacings form a delta peak at s = 1; strong coupling disorder pushes the
spacing distribution to the Poisson law exp(-s).  The crossover is
summarized by eta, the integrated distance of P(s) from the Poisson law
over s in [0, 1], normalized by the same distance for the delta peak.

Each ensemble is one chain.hamiltonian_block, whose rows are
diagonalized for eigenvalues only (LAPACK sterf); realization r of a
sample draws from substream(master_seed, *key_prefix, r), and eta_scan
takes each cell's key prefix from chain.grid_cells.  scipy.linalg is
imported on the first eigvalsh_tridiagonal call, not with this module.
"""

from __future__ import annotations

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
    """Ascending eigenvalues by LAPACK sterf (root-free QL, robust for
    near-severed chains), importing scipy.linalg on first use.

    benchmark/tracer.py looks this function up by name and spans its
    calls inside collect_spacings.
    """
    import scipy.linalg
    return scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")


# The spacing histogram's edge grid covers at least [0, S_MAX].
S_MAX = 5.0

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
        return float(np.sum(self.density * self.widths))

    @property
    def eta(self) -> float:
        """Riemann-sum eta on the histogram's own bins.

        Both integrals run over the bins whose center lies in [0, 1], share
        the binning and share the Poisson reference evaluated at the bin
        centers, so a sample that concentrates in the bin containing s = 1
        (the clean chain) gives eta = 1 identically.
        """
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
             base_coupling: float = 1.0, bin_width: float = 0.05) -> list:
    """Rows in ETA_HEADER order over the (N, eps_j) grid, in the order and
    with the stream keys of chain.grid_cells."""
    return [(spec.n_sites, spec.eps_j,
             eta(collect_spacings(spec, n_real, master_seed, key), bin_width))
            for spec, key in grid_cells(n_values, eps_j_grid, base_coupling=base_coupling)]
