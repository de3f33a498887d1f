"""Exact time evolution in the single-excitation sector.

Propagation uses one eigendecomposition per Hamiltonian; amplitudes at
any time follow from phase factors on the spectrum, so long time series
cost O(N) per grid point after the O(N^2)-ish setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import (ChainSpec, DisorderRealization, TridiagonalHamiltonian,
                    build_hamiltonian, disorder_ensemble)

__all__ = [
    "SpectralDecomposition",
    "FidelitySeries",
    "transfer_time",
    "eigendecompose",
    "amplitudes",
    "transfer_amplitude",
    "fidelity_of_amplitude",
    "fidelity_series",
    "ensemble_average",
]

# Tolerated overshoot of |f| beyond 1 before declaring unitarity broken.
UNITARITY_SLACK = 1e-9

# Anchor stride for the incremental phase recurrence on uniform grids.
_PHASE_CHUNK = 4096


def transfer_time(base_coupling: float = 1.0, n: int = 0) -> float:
    """n-th perfect-transfer time of the clean chain, (2n+1) pi / (4J)."""
    return (2 * n + 1) * np.pi / (4.0 * base_coupling)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors, column m <-> E_m."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class FidelitySeries:
    """Transfer amplitude f_N and fidelity F on a uniform time grid."""

    times: np.ndarray
    amplitude: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitude, dtype=complex)
        f = np.asarray(self.fidelity, dtype=float)
        if not (t.shape == a.shape == f.shape):
            raise ValueError("times, amplitude and fidelity must share a shape")
        for name, arr in (("times", t), ("amplitude", a), ("fidelity", f)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return self.times.shape[0]


def eigendecompose(h: TridiagonalHamiltonian) -> SpectralDecomposition:
    """Full spectrum of a real symmetric tridiagonal Hamiltonian.

    Eigenvalues come out ascending.  Eigenvector signs are fixed so the
    first nonzero component of each column is positive, which makes the
    decomposition deterministic; amplitudes are insensitive to the
    choice since eigenvectors always enter in pairs.

    The fast MRRR driver can refuse strongly disordered chains (a delta
    near -1 almost severs the chain); those fall through to the robust
    implicit-QL driver.  The fallback is a function of the input alone,
    so outputs stay deterministic.
    """
    try:
        w, v = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stemr")
    except np.linalg.LinAlgError:
        w, v = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver="stev")
    first_nonzero = np.argmax(v != 0.0, axis=0)
    flip = v[first_nonzero, np.arange(v.shape[1])] < 0.0
    v[:, flip] *= -1.0
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def amplitudes(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """All site amplitudes f_j(t) = <j| exp(-iHt) |1>, j = 1..N."""
    if t < 0:
        raise ValueError("t must be >= 0")
    v = sd.eigenvectors
    phase = np.exp(-1j * sd.eigenvalues * t)
    return v @ (phase * v[0])


def transfer_amplitude(sd: SpectralDecomposition, times) -> np.ndarray:
    """End-of-chain amplitude f_N(t) for an arbitrary array of times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    v = sd.eigenvectors
    weights = v[0] * v[-1]
    out = np.empty(times.shape[0], dtype=complex)
    for start in range(0, times.shape[0], _PHASE_CHUNK):
        stop = min(start + _PHASE_CHUNK, times.shape[0])
        phases = np.exp(np.outer(times[start:stop], -1j * sd.eigenvalues))
        out[start:stop] = phases @ weights
    return out


def _transfer_amplitude_uniform(sd: SpectralDecomposition, times: np.ndarray,
                                dt: float) -> np.ndarray:
    """f_N on a uniform grid t_i = i dt via an anchored phase recurrence.

    exp(-iE(t+dt)) = exp(-iEt) exp(-iE dt), so inside a chunk each row is
    one complex multiply instead of an exp evaluation; every chunk starts
    from an exactly computed anchor, keeping the drift below ~1e-12.
    """
    v = sd.eigenvectors
    weights = v[0] * v[-1]
    step = np.exp(-1j * sd.eigenvalues * dt)
    m = times.shape[0]
    out = np.empty(m, dtype=complex)
    for start in range(0, m, _PHASE_CHUNK):
        stop = min(start + _PHASE_CHUNK, m)
        k = stop - start
        block = np.ones((k, sd.n_sites), dtype=complex)
        block[0] = np.exp(-1j * sd.eigenvalues * times[start])
        block[1:] = step
        np.cumprod(block, axis=0, out=block)
        out[start:stop] = block @ weights
    return out


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


def fidelity_series(spec: ChainSpec, realization: DisorderRealization,
                    t_max: float, dt: float) -> FidelitySeries:
    """Fidelity of the last spin on the grid t_i = i dt, 0 <= t_i <= t_max."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_max < dt:
        raise ValueError("t_max must be >= dt")
    n_steps = int(np.floor(t_max / dt + 1e-9))
    times = np.arange(n_steps + 1) * dt
    sd = eigendecompose(build_hamiltonian(spec, realization))
    amp = _transfer_amplitude_uniform(sd, times, dt)
    return FidelitySeries(times=times, amplitude=amp,
                          fidelity=fidelity_of_amplitude(amp))


def ensemble_average(spec: ChainSpec, n_real: int, master_seed: int, t_list,
                     key_prefix: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Disorder-averaged fidelity at the given times.

    Realization r draws from substream(master_seed, *key_prefix, r) and
    the mean runs in ascending r for bit reproducibility.  Returns
    (mean, standard error); the standard error is sample std / sqrt(n)
    with zero reported for a single realization.
    """
    realizations = disorder_ensemble(spec, n_real, master_seed, key_prefix)
    t_list = np.atleast_1d(np.asarray(t_list, dtype=float))
    fid = np.empty((n_real, t_list.shape[0]))
    for r, realization in enumerate(realizations):
        sd = eigendecompose(build_hamiltonian(spec, realization))
        fid[r] = fidelity_of_amplitude(transfer_amplitude(sd, t_list))
    mean = fid.mean(axis=0)
    if n_real == 1:
        return mean, np.zeros_like(mean)
    return mean, fid.std(axis=0, ddof=1) / np.sqrt(n_real)
