import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (BoxCountCurve, ChainSpec, DisorderRealization, FidelitySeries,
                       SpacingHistogram, SpacingSample, TridiagonalHamiltonian,
                       build_hamiltonian, hamiltonian_block, sample_disorder, substream)
from spinchain.chain import gershgorin_radii, grid_cells, spectral_half_width

from oracles import sector_matrix, single_excitation_block


def clean_hamiltonian(n):
    return build_hamiltonian(ChainSpec(n_sites=n),
                             DisorderRealization(np.zeros(n - 1), np.zeros(n)))


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n_sites=1)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, eps_j=-0.1)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, corr_p=1.5)
    # chains that cannot be built: a non-integral N or a non-finite eps
    for named, kwargs in [("n_sites", {"n_sites": 8.5}), ("n_sites", {"n_sites": np.nan}),
                          ("disorder", {"eps_j": np.inf}), ("disorder", {"eps_j": np.nan}),
                          ("disorder", {"eps_b": np.inf}), ("disorder", {"eps_b": np.nan})]:
        with pytest.raises(ValueError, match=named):
            ChainSpec(**{"n_sites": 6, **kwargs})


@pytest.mark.parametrize("finite, overflowing", [({"eps_j": 1e307}, {"eps_j": 1e308}),
                                                 ({"eps_b": 8e307}, {"eps_b": 1e308}),
                                                 ({"eps_j": 1e307}, {"eps_j": 1e307,
                                                                     "eps_b": 8e307})],
                         ids=["eps_j", "eps_b", "together"])
def test_spec_refuses_an_amplitude_whose_worst_case_chain_overflows(finite, overflowing):
    # at N = 6 the worst case (every delta = eps_j, every b = eps_b) has
    # couplings up to 6 (1 + eps_j), fields 2 eps_b, and radii summing both
    spec = ChainSpec(n_sites=6, **finite)
    assert np.isfinite(spectral_half_width(spec))
    diag, offdiag = hamiltonian_block(spec, 1, (), range(3))
    assert np.isfinite(gershgorin_radii(diag, offdiag)).all()
    named = ", ".join(f"{k} = {overflowing.get(k, 0.0)!r}" for k in ("eps_j", "eps_b"))
    with pytest.raises(ValueError, match=rf"^{re.escape(named)}: the worst-case chain of N = 6 "):
        ChainSpec(n_sites=6, **overflowing)
    # a longer chain's couplings are larger: 1e307 overflows at N = 40
    with pytest.raises(ValueError, match="N = 40 "):
        ChainSpec(n_sites=40, eps_j=1e307)


@pytest.mark.parametrize("n", [8.9, 8.5, np.nan, np.inf])
def test_grid_cells_refuse_a_non_integral_chain_length(n):
    with pytest.raises(ValueError, match=f"n_sites must be an integer >= 2, got {n!r}"):
        grid_cells((6, n), (0.1,))


def test_integral_chain_lengths_are_stored_as_ints():
    cells = [grid_cells((n,), (0.1,)) for n in (8, 8.0, np.int64(8))]
    assert cells[0] == cells[1] == cells[2]
    assert all(type(spec.n_sites) is int for [(spec, _)] in cells)
    assert type(ChainSpec(n_sites=np.float64(8.0)).n_sites) is int


# The array fields of each value type, and its other fields.
VALUE_TYPES = {
    DisorderRealization: ({"delta": np.zeros(4), "field_err": np.zeros(5)}, {}),
    TridiagonalHamiltonian: ({"diag": np.zeros(5), "offdiag": np.zeros(4)}, {}),
    FidelitySeries: ({"amplitude": np.zeros(3, complex), "fidelity": np.zeros(3)},
                     {"dt": 0.05}),
    BoxCountCurve: ({"lengths": np.ones(3), "m_values": np.ones(3)}, {}),
    SpacingSample: ({"spacings": np.ones(3)}, {"n_realizations": 1}),
    SpacingHistogram: ({"edges": np.arange(3.0), "density": np.ones(2)},
                       {"bin_width": 1.0}),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_freeze_a_view_not_the_callers_arrays(cls):
    arrays, extra = VALUE_TYPES[cls]
    obj = cls(**arrays, **extra)
    for name, given in arrays.items():
        held = getattr(obj, name)
        assert given.flags.writeable, name
        assert not held.flags.writeable, name
        assert np.shares_memory(held, given), name   # a view, not a copy
        with pytest.raises(ValueError):
            held[...] = 0


def test_zero_amplitude_disorder_gives_zero_vectors():
    spec = ChainSpec(n_sites=12, eps_j=0.0, eps_b=0.0)
    real = sample_disorder(spec, substream(123, 0))
    assert np.all(real.delta == 0.0)
    assert np.all(real.field_err == 0.0)


def test_perfect_correlation_shares_one_sign():
    spec = ChainSpec(n_sites=60, eps_j=0.1, corr_p=1.0)
    for r in range(20):
        delta = sample_disorder(spec, substream(5, r)).delta
        signs = np.sign(delta)
        assert np.all(signs == signs[0])


def test_perfect_anticorrelation_alternates():
    spec = ChainSpec(n_sites=60, eps_j=0.1, corr_p=0.0)
    delta = sample_disorder(spec, substream(5, 0)).delta
    assert np.all(np.sign(delta[1:]) == -np.sign(delta[:-1]))


def _same_sign_fraction(corr_p, n_pairs, seed):
    spec = ChainSpec(n_sites=n_pairs + 2, eps_j=0.2, corr_p=corr_p)
    delta = sample_disorder(spec, substream(seed, 0)).delta
    same = np.sign(delta[1:]) == np.sign(delta[:-1])
    return same.mean(), same.size


def test_uncorrelated_same_sign_frequency_is_half():
    # 1e5 consecutive pairs; binomial 3 sigma around 0.5
    frac, n = _same_sign_fraction(0.5, 100_000, seed=31)
    assert abs(frac - 0.5) < 3.0 * np.sqrt(0.25 / n)


@pytest.mark.parametrize("corr_p", [0.1, 0.9])
def test_sign_correlation_law(corr_p):
    frac, n = _same_sign_fraction(corr_p, 20_000, seed=32)
    assert n >= 1e4
    assert abs(frac - corr_p) < 3.0 * np.sqrt(corr_p * (1 - corr_p) / n)


def test_half_probability_marginals_match_uniform():
    # at corr_p = 0.5 the deltas are i.i.d. uniform on [-eps, eps];
    # 5 sigma bounds: a wrong scale would sit hundreds of sigma out
    spec = ChainSpec(n_sites=50_001, eps_j=0.3, corr_p=0.5)
    delta = sample_disorder(spec, substream(8, 0)).delta
    n = delta.size
    assert abs(delta.mean()) < 5.0 * spec.eps_j / np.sqrt(3 * n)
    var = spec.eps_j ** 2 / 3.0
    assert abs(np.mean(delta ** 2) - var) < 5.0 * var * np.sqrt(0.8 / n)
    assert abs(np.mean(delta > 0) - 0.5) < 5.0 * np.sqrt(0.25 / n)


@given(seed=st.integers(0, 2 ** 63 - 1), index=st.integers(0, 10 ** 6))
@settings(max_examples=20)
def test_determinism_bit_identical(seed, index):
    spec = ChainSpec(n_sites=17, eps_j=0.4, eps_b=0.2, corr_p=0.3)
    a = sample_disorder(spec, substream(seed, index))
    b = sample_disorder(spec, substream(seed, index))
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.field_err, b.field_err)


def test_distinct_indices_give_distinct_draws():
    spec = ChainSpec(n_sites=9, eps_j=0.1, eps_b=0.1)
    a = sample_disorder(spec, substream(7, 0))
    b = sample_disorder(spec, substream(7, 1))
    assert not np.array_equal(a.delta, b.delta)


@given(eps_j=st.floats(0, 1), eps_b=st.floats(0, 2), corr_p=st.floats(0, 1),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=40)
def test_disorder_support_bounds(eps_j, eps_b, corr_p, seed):
    spec = ChainSpec(n_sites=24, eps_j=eps_j, eps_b=eps_b, corr_p=corr_p)
    real = sample_disorder(spec, substream(seed))
    assert np.all(np.abs(real.delta) <= eps_j)
    assert np.all(np.abs(real.field_err) <= eps_b)


def test_realization_shape_mismatch_rejected():
    spec = ChainSpec(n_sites=6)
    bad = DisorderRealization(delta=np.zeros(3), field_err=np.zeros(4))
    with pytest.raises(ValueError):
        build_hamiltonian(spec, bad)


def test_clean_three_site_matches_dense_pauli_oracle():
    # full 8x8 three-spin Hamiltonian, projected onto the one-flip basis
    block = single_excitation_block(3, j=1.0)
    h = clean_hamiltonian(3)
    assert np.allclose(h.dense(), block, atol=1e-12)
    assert np.allclose(h.offdiag, [2.0 * np.sqrt(2.0)] * 2)
    assert np.allclose(np.linalg.eigvalsh(block), [-4.0, 0.0, 4.0], atol=1e-12)


def test_clean_diagonal_is_zero():
    for n in (2, 5, 41):
        assert np.all(clean_hamiltonian(n).diag == 0.0)


def test_two_site_field_example_matches_dense_oracle():
    # N=2, b=(0.1,-0.1): diag (-0.2, +0.2), offdiag (2), zero net shift
    spec = ChainSpec(n_sites=2, eps_b=0.1)
    real = DisorderRealization(delta=np.zeros(1), field_err=np.array([0.1, -0.1]))
    h = build_hamiltonian(spec, real)
    assert np.allclose(h.diag, [-0.2, 0.2])
    assert np.allclose(h.offdiag, [2.0])
    block = single_excitation_block(2, fields=[0.1, -0.1])
    assert np.allclose(h.dense(), block, atol=1e-12)


def test_disordered_block_matches_dense_oracle():
    # compare trace-free parts: the dropped constant is a global phase
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5, 6):
        delta = rng.uniform(-0.3, 0.3, n - 1)
        fields = rng.uniform(-0.2, 0.2, n)
        spec = ChainSpec(n_sites=n, eps_j=0.3, eps_b=0.2)
        h = build_hamiltonian(spec, DisorderRealization(delta=delta, field_err=fields))
        mine = h.dense()
        mine -= np.eye(n) * np.trace(mine) / n
        block = single_excitation_block(n, delta=delta, fields=fields)
        assert np.allclose(mine, block, atol=1e-12)
        # ties the fast test oracle to the Pauli-projection construction
        direct = sector_matrix(n, delta=delta, fields=fields)
        direct -= np.eye(n) * np.trace(direct) / n
        assert np.allclose(direct, block, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
def test_clean_spectrum_equispaced(n):
    h = clean_hamiltonian(n)
    gaps = np.diff(np.linalg.eigvalsh(h.dense()))
    assert np.all(np.abs(gaps - 4.0) <= 1e-8 * 4.0)


@pytest.mark.parametrize("n", [2, 3, 20, 200])
@pytest.mark.parametrize("corr_p", [0.0, 0.5, 1.0])
def test_hamiltonian_block_matches_one_realization_at_a_time(n, corr_p):
    for eps_j in (0.0, 0.3):
        for eps_b in (0.0, 0.2):
            spec = ChainSpec(n_sites=n, eps_j=eps_j, eps_b=eps_b, corr_p=corr_p)
            for key_prefix in ((), (4,), (2, 7)):
                rows = range(3, 9)
                diag, offdiag = hamiltonian_block(spec, 17, key_prefix, rows)
                assert diag.shape == (6, n) and offdiag.shape == (6, n - 1)
                for i, r in enumerate(rows):
                    h = build_hamiltonian(
                        spec, sample_disorder(spec, substream(17, *key_prefix, r)))
                    assert diag[i].tobytes() == h.diag.tobytes()
                    assert offdiag[i].tobytes() == h.offdiag.tobytes()


def _amplitude(high):
    return st.one_of(st.sampled_from([0.0, high]), st.floats(0.0, high))


@given(seed=st.integers(0, 2 ** 130),
       key_prefix=st.lists(st.integers(0, 2 ** 70), max_size=3).map(tuple),
       start=st.one_of(st.integers(0, 100), st.integers(2 ** 32 - 8, 2 ** 32 - 1)),
       count=st.integers(1, 5), step=st.integers(1, 3),
       n=st.sampled_from([2, 3, 20]), eps_j=_amplitude(1.0), eps_b=_amplitude(1.0),
       corr_p=_amplitude(1.0))
@settings(max_examples=60)
def test_hamiltonian_block_matches_reference_at_any_key(seed, key_prefix, start, count,
                                                          step, n, eps_j, eps_b, corr_p):
    spec = ChainSpec(n_sites=n, eps_j=eps_j, eps_b=eps_b, corr_p=corr_p)
    rows = range(start, min(start + count * step, 2 ** 32), step)
    diag, offdiag = hamiltonian_block(spec, seed, key_prefix, rows)
    assert diag.shape == (len(rows), n) and offdiag.shape == (len(rows), n - 1)
    for i, r in enumerate(rows):
        h = build_hamiltonian(spec, sample_disorder(spec, substream(seed, *key_prefix, r)))
        assert diag[i].tobytes() == h.diag.tobytes()
        assert offdiag[i].tobytes() == h.offdiag.tobytes()


def test_hamiltonian_block_of_no_rows_draws_nothing(forbid_draws):
    spec = ChainSpec(n_sites=7, eps_j=0.2, eps_b=0.1)
    diag, offdiag = hamiltonian_block(spec, 3, (1,), range(5, 5))
    assert diag.shape == (0, 7) and offdiag.shape == (0, 6)
    with pytest.raises(AssertionError, match="drawn"):
        hamiltonian_block(spec, 3, (1,), range(1))


@pytest.mark.parametrize("rows, named", [
    (range(-1, 3), -1),
    (range(2 ** 32 - 2, 2 ** 32 + 2), 2 ** 32 + 1),
    (range(0, 2 ** 40), 2 ** 40 - 1),
])
def test_hamiltonian_block_refuses_rows_outside_one_word(forbid_draws, rows, named):
    with pytest.raises(ValueError, match=f"row {named} is outside"):
        hamiltonian_block(ChainSpec(n_sites=5, eps_j=0.1), 3, (), rows)


def test_hamiltonian_block_refuses_a_negative_seed_before_drawing(forbid_draws):
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        hamiltonian_block(ChainSpec(n_sites=5, eps_j=0.1), -1, (), range(3))


def test_hamiltonian_block_builds_a_constant_number_of_seed_sequences(monkeypatch):
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(kwargs.get("spawn_key"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    hamiltonian_block(ChainSpec(n_sites=20, eps_j=0.1), 9, (2,), range(128))
    assert len(made) <= 2


def test_hamiltonian_block_guards_the_derived_keys(monkeypatch):
    import spinchain.chain

    finish = spinchain.chain._finish_keys
    monkeypatch.setattr(spinchain.chain, "_finish_keys", lambda pools: finish(pools) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="differs from numpy's SeedSequence"):
        hamiltonian_block(ChainSpec(n_sites=20, eps_j=0.1), 9, (2,), range(128))
