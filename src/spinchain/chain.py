"""Disordered modulated XY chain in the single-excitation sector.

The chain couples N spins with the perfect-transfer modulation
J_k = J sqrt(k (N - k)) plus static random offsets in the couplings and
in the local fields.  Total z-magnetization is conserved, so everything
here works with the N basis states that have exactly one flipped spin;
in that sector the Hamiltonian is a real symmetric tridiagonal matrix
with hopping elements 2 J_k (1 + delta_k) and on-site energies -2 b_j
(the disorder-dependent constant sum of the fields is a global phase on
the transfer amplitude and is dropped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "DisorderRealization",
    "TridiagonalHamiltonian",
    "substream",
    "sample_disorder",
    "hamiltonian_block",
    "zero_disorder",
    "build_hamiltonian",
    "clean_hamiltonian",
    "gershgorin_radii",
    "spectral_half_width",
]


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic random stream keyed by (master_seed, *key).

    Streams use a Philox generator seeded through a SeedSequence spawn
    key, so each (seed, index...) pair gives an independent stream that
    does not depend on evaluation order.  Ensembles can therefore be
    drawn in parallel, resumed, or subsampled without changing samples.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChainSpec:
    """Physical parameters of one disordered-chain experiment.

    n_sites:       chain length N (>= 2)
    base_coupling: exchange scale J > 0; times are in units of 1/J
    eps_j:         coupling disorder amplitude, dimensionless (>= 0)
    eps_b:         field disorder amplitude in units of J (>= 0)
    corr_p:        probability that consecutive coupling errors share a
                   sign; 0.5 is exactly the uncorrelated model
    """

    n_sites: int
    base_coupling: float = 1.0
    eps_j: float = 0.0
    eps_b: float = 0.0
    corr_p: float = 0.5

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not self.base_coupling > 0:
            raise ValueError(f"base_coupling must be > 0, got {self.base_coupling}")
        if self.eps_j < 0 or self.eps_b < 0:
            raise ValueError("disorder amplitudes must be >= 0")
        if not 0.0 <= self.corr_p <= 1.0:
            raise ValueError(f"corr_p must lie in [0, 1], got {self.corr_p}")


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled set of coupling errors delta_k and field errors b_k."""

    delta: np.ndarray       # length N-1, |delta_k| <= eps_j
    field_err: np.ndarray   # length N,   |b_k| <= eps_b

    def __post_init__(self):
        object.__setattr__(self, "delta", _readonly(self.delta))
        object.__setattr__(self, "field_err", _readonly(self.field_err))
        if self.field_err.shape != (self.delta.shape[0] + 1,):
            raise ValueError("field_err must have one more entry than delta")


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Single-excitation Hamiltonian, stored as diagonal and off-diagonal."""

    diag: np.ndarray      # length N
    offdiag: np.ndarray   # length N-1

    def __post_init__(self):
        object.__setattr__(self, "diag", _readonly(self.diag))
        object.__setattr__(self, "offdiag", _readonly(self.offdiag))
        if self.diag.shape != (self.offdiag.shape[0] + 1,):
            raise ValueError("diag must have one more entry than offdiag")

    @property
    def n_sites(self) -> int:
        return self.diag.shape[0]

    def dense(self) -> np.ndarray:
        """Full N x N matrix, mainly for tests and small-N checks."""
        h = np.diag(self.diag)
        n = self.n_sites
        h[np.arange(n - 1), np.arange(1, n)] = self.offdiag
        h[np.arange(1, n), np.arange(n - 1)] = self.offdiag
        return h


def sample_disorder(spec: ChainSpec, stream: np.random.Generator) -> DisorderRealization:
    """Draw one disorder realization from the given stream.

    Field errors are i.i.d. uniform on [-eps_b, eps_b].  Coupling error
    magnitudes are i.i.d. uniform on [0, eps_j]; the first sign is a fair
    coin and each subsequent sign repeats its left neighbor with
    probability corr_p (flipped otherwise).  At corr_p = 0.5 the signs
    are i.i.d. fair coins, so the joint law is exactly i.i.d. uniform on
    [-eps_j, eps_j].

    The draw order (magnitudes, sign coins, field errors) is fixed, so
    runs that differ only in corr_p share magnitudes and field errors.
    """
    magnitude, coins, field_err = _draws(spec, stream)
    return DisorderRealization(delta=_coupling_errors(spec, magnitude, coins),
                               field_err=field_err)


def _draws(spec: ChainSpec, stream: np.random.Generator) -> tuple:
    """The three draws of one realization, in their fixed order."""
    n = spec.n_sites
    return (stream.uniform(0.0, spec.eps_j, n - 1), stream.random(n - 1),
            stream.uniform(-spec.eps_b, spec.eps_b, n))


def _coupling_errors(spec: ChainSpec, magnitude: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """delta_k from magnitudes and sign coins, along the last axis."""
    first = np.where(coins[..., :1] < 0.5, 1.0, -1.0)
    flips = np.where(coins[..., 1:] < spec.corr_p, 1.0, -1.0)
    signs = np.concatenate([first, first * np.cumprod(flips, axis=-1)], axis=-1)
    return signs * magnitude


def hamiltonian_block(spec: ChainSpec, master_seed: int, key_prefix: tuple,
                      rows: range) -> tuple[np.ndarray, np.ndarray]:
    """(diag, offdiag) of realizations r in rows, as (R, N) and (R, N-1).

    Every ensemble in the package draws here: realization r draws from
    substream(master_seed, *key_prefix, r), so it can be reproduced from
    its key alone.  Row i draws exactly as sample_disorder does, and the
    block is then built with build_hamiltonian's arithmetic, so every row
    equals build_hamiltonian(spec, sample_disorder(spec, substream(...)))
    bit for bit, with no per-realization objects; those two functions
    remain the one-at-a-time reference.
    """
    n = spec.n_sites
    magnitude, coins = np.empty((len(rows), n - 1)), np.empty((len(rows), n - 1))
    field_err = np.empty((len(rows), n))
    for i, r in enumerate(rows):
        magnitude[i], coins[i], field_err[i] = _draws(
            spec, substream(master_seed, *key_prefix, r))
    return _hamiltonian_arrays(spec, _coupling_errors(spec, magnitude, coins), field_err)


def zero_disorder(spec: ChainSpec) -> DisorderRealization:
    """The clean (zero-error) realization for the given chain length."""
    return DisorderRealization(delta=np.zeros(spec.n_sites - 1),
                               field_err=np.zeros(spec.n_sites))


def build_hamiltonian(spec: ChainSpec, realization: DisorderRealization) -> TridiagonalHamiltonian:
    """Assemble the single-excitation Hamiltonian for one realization.

    Hopping: offdiag[k] = 2 J sqrt((k+1)(N-k-1)) (1 + delta[k]) for
    k = 0 .. N-2 (0-based).  On-site: diag[j] = -2 b_j; the constant
    part of the field term only rotates the global phase of the
    amplitude and is omitted.
    """
    n = spec.n_sites
    if realization.delta.shape != (n - 1,) or realization.field_err.shape != (n,):
        raise ValueError(
            f"realization sized for N={realization.field_err.shape[0]}, spec has N={n}")
    diag, offdiag = _hamiltonian_arrays(spec, realization.delta, realization.field_err)
    return TridiagonalHamiltonian(diag=diag, offdiag=offdiag)


def _hamiltonian_arrays(spec: ChainSpec, delta: np.ndarray, field_err: np.ndarray) -> tuple:
    """(diag, offdiag) of build_hamiltonian, along the last axis."""
    n = spec.n_sites
    k = np.arange(1, n, dtype=float)
    return -2.0 * field_err, 2.0 * spec.base_coupling * np.sqrt(k * (n - k)) * (1.0 + delta)


def clean_hamiltonian(n_sites: int, base_coupling: float = 1.0) -> TridiagonalHamiltonian:
    spec = ChainSpec(n_sites=n_sites, base_coupling=base_coupling)
    return build_hamiltonian(spec, zero_disorder(spec))


def gershgorin_radii(diag, offdiag) -> np.ndarray:
    """Gershgorin radii |d_j| + |o_j| + |o_(j-1)| of tridiagonal matrices.

    Works on the last axis, so a stack of Hamiltonians gives one row of
    radii per Hamiltonian; the spectrum of each lies within [-max, max].
    """
    radius = np.abs(np.asarray(diag, dtype=float))
    off = np.abs(np.asarray(offdiag, dtype=float))
    radius[..., :-1] += off
    radius[..., 1:] += off
    return radius


def spectral_half_width(spec: ChainSpec) -> float:
    """A bound a with every Hamiltonian that spec can draw inside [-a, a].

    This is the largest Gershgorin radius of the worst-case realization
    (every delta_k = eps_j, every b_j = eps_b), built and summed exactly
    as any drawn realization is.  Rounding is monotone, so no drawn
    realization's radii exceed it, even in the last bit.
    """
    n = spec.n_sites
    worst = build_hamiltonian(spec, DisorderRealization(
        delta=np.full(n - 1, spec.eps_j), field_err=np.full(n, spec.eps_b)))
    return float(np.max(gershgorin_radii(worst.diag, worst.offdiag)))
