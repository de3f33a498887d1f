"""Disordered modulated XY chain in the single-excitation sector.

The chain couples N spins with the perfect-transfer modulation
J_k = J sqrt(k (N - k)) plus static random offsets in the couplings and
in the local fields.  Total z-magnetization is conserved, so everything
here works with the N basis states that have exactly one flipped spin;
in that sector the Hamiltonian is a real symmetric tridiagonal matrix
with hopping elements 2 J_k (1 + delta_k) and on-site energies -2 b_j
(the disorder-dependent constant sum of the fields is a global phase on
the transfer amplitude and is dropped).

Realization r of an ensemble draws from the Philox stream
substream(master_seed, *key_prefix, r), grid_cells keying the cells of a
grid.  A stream is fully defined by its 128-bit key and a zero counter,
so hamiltonian_block derives the keys of a whole block of rows at once
and draws every row through one reused generator, a few us per row plus
about 0.1 ms per call; substream, sample_disorder and build_hamiltonian
draw one realization at a time (about 20 us for the stream alone) and
remain the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "DisorderRealization",
    "TridiagonalHamiltonian",
    "substream",
    "sample_disorder",
    "hamiltonian_block",
    "grid_cells",
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
    Each call builds a SeedSequence and a Philox (about 20 us), so
    ensembles draw through hamiltonian_block, which builds neither per
    realization and draws the same numbers.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _readonly(a, dtype=float) -> np.ndarray:
    """A read-only view of a as dtype; the caller's array stays writeable."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ChainSpec:
    """Physical parameters of one disordered chain; J = 1 is the unit.

    n_sites: chain length N, of integral value >= 2 (stored as an int)
    eps_j:   coupling disorder amplitude, dimensionless, finite and >= 0
    eps_b:   field disorder amplitude in units of J, finite and >= 0
    corr_p:  probability that consecutive coupling errors share a sign;
             0.5 is exactly the uncorrelated model
    """

    n_sites: int
    eps_j: float = 0.0
    eps_b: float = 0.0
    corr_p: float = 0.5

    def __post_init__(self):
        if not (float(self.n_sites).is_integer() and self.n_sites >= 2):
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        if not (0 <= self.eps_j < math.inf and 0 <= self.eps_b < math.inf):
            raise ValueError("disorder amplitudes must be finite and >= 0")
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
        """Full N x N matrix: the dense oracles of the tests and of
        benchmark/oracle.py read it."""
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
    n = spec.n_sites
    magnitude = stream.uniform(0.0, spec.eps_j, n - 1)
    coins = stream.random(n - 1)
    field_err = stream.uniform(-spec.eps_b, spec.eps_b, n)
    return DisorderRealization(delta=_coupling_errors(spec, magnitude, coins),
                               field_err=field_err)


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
    its key alone.  One call derives every row's Philox key at once,
    hashing the row indices as SeedSequence does, and draws each row's
    3N - 2 uniforms through one generator reset to that key, in
    sample_disorder's order and mapped as Generator.uniform maps them;
    the block is then built with build_hamiltonian's arithmetic.  So
    every row equals build_hamiltonian(spec, sample_disorder(spec,
    substream(...))) bit for bit, with no per-realization objects; those
    three functions remain the one-at-a-time reference.  The first row's
    key is checked against numpy's SeedSequence on every call.

    master_seed must be >= 0 and every row in [0, 2**32); an empty range
    gives empty arrays and draws nothing.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    for r in (rows[0], rows[-1]) if rows else ():
        if not 0 <= r < 2 ** 32:
            raise ValueError(f"row {r} is outside [0, 2**32)")
    n = spec.n_sites
    u = np.empty((len(rows), 3 * n - 2))
    if rows:
        _draw_rows(int(master_seed), tuple(int(k) for k in key_prefix), rows, u)
    magnitude = _uniform(0.0, spec.eps_j, u[:, :n - 1])
    coins = u[:, n - 1:2 * n - 2]
    field_err = _uniform(-spec.eps_b, spec.eps_b, u[:, 2 * n - 2:])
    return _hamiltonian_arrays(spec, _coupling_errors(spec, magnitude, coins), field_err)


def grid_cells(n_values, eps_j_values, eps_b_values=(0.0,), corr_p_values=(0.5,)) -> list:
    """[(spec, key prefix)] of a (corr_p, N, eps_j, eps_b) grid, eps_b inner.

    The cell of the k-th N, i-th eps_j and l-th eps_b has the key prefix
    (k, i * len(eps_b_values) + l) whatever corr_p, so cells that differ
    only in corr_p share their draws; a repeated value is a cell of its
    own.  Every grid command (scan, eta-scan, dimension-scan) keys its
    cells here; ChainSpec refuses a non-integral N."""
    return [(ChainSpec(n_sites=n, eps_j=float(eps_j), eps_b=float(eps_b), corr_p=float(corr_p)),
             (k, i * len(eps_b_values) + l))
            for corr_p in corr_p_values
            for k, n in enumerate(n_values)
            for i, eps_j in enumerate(eps_j_values)
            for l, eps_b in enumerate(eps_b_values)]


def _uniform(low, high, u: np.ndarray) -> np.ndarray:
    """Generator.uniform(low, high) of the unit doubles u, as numpy computes it."""
    low, high = float(low), float(high)
    return low + (high - low) * u


def _draw_rows(master_seed: int, key_prefix: tuple, rows: range, out: np.ndarray) -> None:
    """Fill out[i] with the first uniforms of substream(master_seed, *key_prefix, rows[i])."""
    keys = _finish_keys(_row_pools(master_seed, key_prefix, rows))
    bitgen = np.random.Philox(
        np.random.SeedSequence(master_seed, spawn_key=(*key_prefix, rows[0])))
    state = bitgen.state
    if not np.array_equal(keys[0], state["state"]["key"]):
        raise RuntimeError(
            f"the Philox key derived for row {rows[0]} differs from numpy's "
            "SeedSequence; its hash has changed, so the block would draw "
            "other numbers than substream")
    # a fresh stream: zero counter, empty buffer (plain lists set fastest)
    state["state"]["counter"] = state["buffer"] = [0, 0, 0, 0]
    gen = np.random.Generator(bitgen)
    for i, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(out=out[i])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32
# words; _draw_rows checks its result against numpy on every call.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # hashmix, while mixing entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _n_words(v: int) -> int:
    """Number of uint32 words SeedSequence makes of a non-negative int."""
    return max(1, -(-v.bit_length() // 32))


def _hash(words: np.ndarray, init: int, mult: int, done: int) -> np.ndarray:
    """Hash row d of words with the constant advanced done + d times.

    Both of SeedSequence's hashes XOR a word with the running constant,
    advance the constant by mult, multiply by it and XOR-shift by 16.
    """
    c = [init * pow(mult, done + d, 1 << 32) & _MASK32 for d in range(_POOL_SIZE + 1)]
    v = (words ^ np.array(c[:-1], np.uint32)[:, None]) * np.array(c[1:], np.uint32)[:, None]
    return v ^ (v >> np.uint32(16))


def _row_pools(master_seed: int, key_prefix: tuple, rows: range) -> np.ndarray:
    """(4, R) entropy pools of SeedSequence(master_seed, spawn_key=(*key_prefix, r)).

    The run entropy (padded to the pool size) and the spawn key's words
    are mixed in one after another, and each word past the pool size is
    mixed into every pool word in turn.  So before the row's word is
    mixed in, the pool is that of SeedSequence(master_seed,
    spawn_key=key_prefix) for every row (with no prefix that parent is
    not padded, but it fills the pool with the same hashes of 0), and
    the hashmix constant has been advanced 4 times per word mixed in so
    far.  A row in [0, 2**32) is one word.
    """
    parent = np.random.SeedSequence(master_seed, spawn_key=key_prefix)
    words = max(_POOL_SIZE, _n_words(master_seed)) + sum(map(_n_words, key_prefix))
    r = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint32)
    hashed = _hash(r[None, :], _INIT_A, _MULT_A, _POOL_SIZE * words)
    # mix(pool, hashed): MIX_MULT_L pool - MIX_MULT_R hashed, XOR-shifted
    pool = (parent.pool.astype(np.uint64) * _MIX_MULT_L & _MASK32).astype(np.uint32)
    mixed = pool[:, None] - hashed * np.uint32(_MIX_MULT_R)
    return mixed ^ (mixed >> np.uint32(16))


def _finish_keys(pools: np.ndarray) -> np.ndarray:
    """(R, 2) Philox keys: generate_state(2, np.uint64) of each pool column."""
    w = _hash(pools, _INIT_B, _MULT_B, 0).astype(np.uint64)
    return np.stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)], axis=1)


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
    return -2.0 * field_err, 2.0 * np.sqrt(k * (n - k)) * (1.0 + delta)


def clean_hamiltonian(n_sites: int) -> TridiagonalHamiltonian:
    spec = ChainSpec(n_sites=n_sites)
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
