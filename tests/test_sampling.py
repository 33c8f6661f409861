import numpy as np
import pytest

from tangleroof import _kernels
from tangleroof.invariants import c3
from tangleroof.sampling import average_c3, min_average_c3, random_decomposition
from tangleroof.states import PureState, RankTwoMixture


def _product_pair():
    a = np.zeros(8, dtype=complex)
    b = np.zeros(8, dtype=complex)
    a[0], b[7] = 1.0, 1.0
    return RankTwoMixture(PureState(3, a), PureState(3, b), 0.5)


def test_random_decomposition_reconstructs_state(toy_mix):
    rng = np.random.default_rng(3)
    state = toy_mix.at(0.37)
    rho = state.density_matrix().matrix
    for m in (2, 3, 5):
        weights, states = random_decomposition(state, m, rng)
        assert weights.shape == (m,)
        assert np.all(weights >= 0.0)
        assert abs(float(weights.sum()) - 1.0) <= 1e-12
        recon = np.zeros((8, 8), dtype=complex)
        for w, s in zip(weights, states):
            recon += w * np.outer(s.amplitudes, s.amplitudes.conj())
        assert float(np.abs(recon - rho).max()) <= 1e-12


def test_average_c3_nonnegative_and_reproducible(toy_mix):
    state = toy_mix.at(0.9)
    a = average_c3(*random_decomposition(state, 3, np.random.default_rng(11)))
    b = average_c3(*random_decomposition(state, 3, np.random.default_rng(11)))
    assert a == b
    assert a >= 0.0


def test_min_average_seed_reproducible(toy_mix):
    state = toy_mix.at(0.85)
    a = min_average_c3(state, 500, sizes=(2, 3), seed=42)
    b = min_average_c3(state, 500, sizes=(2, 3), seed=42)
    c = min_average_c3(state, 500, sizes=(2, 3), seed=43)
    assert a == b
    assert a != c
    assert a >= 0.0


def test_min_average_validation(toy_mix):
    state = toy_mix.at(0.5)
    with pytest.raises(ValueError):
        min_average_c3(state, 0, sizes=(2,), seed=1)
    with pytest.raises(ValueError):
        min_average_c3(state, 10, sizes=(), seed=1)
    with pytest.raises(ValueError):
        min_average_c3(state, 10, sizes=(1, 2), seed=1)
    two = PureState(2, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        min_average_c3(two, 10, sizes=(2,), seed=1)


def test_sample_counts_and_sizes_must_be_integers(toy_mix):
    state = toy_mix.at(0.5)
    # int() truncated the size 2.5 to 2, and True ran one sample
    with pytest.raises(ValueError, match="decomposition size must be an integer"):
        min_average_c3(state, 300, sizes=(2.5, 3))
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        min_average_c3(state, True)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        min_average_c3(state, 300.0)
    with pytest.raises(ValueError, match="decomposition size must be an integer"):
        random_decomposition(state, 2.5)
    # numpy integers are counts
    assert min_average_c3(state, np.int64(30), sizes=(np.int32(2), 3), seed=1) == min_average_c3(
        state, 30, sizes=(2, 3), seed=1
    )


def test_zero_tangle_mixture_sampling_floor():
    mix = _product_pair()
    # every decomposition of a GHZ-diagonal rank-2 state of |000>,|111>
    # at p=0.5 still averages above the unentangled floor only when c3 > 0;
    # here psi1, psi2 are product states but superpositions are GHZ-like.
    val = min_average_c3(mix.at(0.5), 2000, sizes=(2, 3), seed=5)
    assert val >= 0.0


def test_sampled_minimum_dominates_envelope(toy_rep):
    rep = toy_rep.report
    rng_ps = (0.25, 0.5, 0.9)
    for p in rng_ps:
        state = toy_rep.mixture.at(p)
        sampled = min_average_c3(state, 4000, sizes=(2, 3, 4), seed=int(p * 1000))
        assert sampled >= float(rep.envelope_curve(p)) - 1e-9


def test_average_c3_matches_manual_average(toy_mix):
    state = toy_mix.at(0.6)
    weights, states = random_decomposition(state, 4, np.random.default_rng(21))
    manual = float(sum(w * c3(s) for w, s in zip(weights, states)))
    assert average_c3(weights, states) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("n_samples", [1000, 100_000])
def test_sampler_builds_one_pencil_and_no_rows(n_samples, toy_mix, monkeypatch):
    calls = []
    original = _kernels.tau3_many

    def counted(amps):
        calls.append(len(amps))
        return original(amps)

    monkeypatch.setattr(_kernels, "tau3_many", counted)
    min_average_c3(toy_mix.at(0.4), n_samples, seed=8)
    assert calls == [7]  # 5 interpolation nodes and the two pure ends
