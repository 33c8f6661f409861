import numpy as np

from tangleroof import _kernels
from tangleroof.states import make_ghz


def _random_amps(rng, m):
    return rng.normal(size=(m, 8)) + 1j * rng.normal(size=(m, 8))


def _random_gauss(rng, n, m_max=4):
    return rng.normal(size=(n, m_max, 2, 2))


def test_tau3_numpy_reference_value():
    vals = _kernels.tau3_many(make_ghz(3).amplitudes[None, :])
    assert abs(vals[0] - 1.0) <= 1e-14


def test_sampler_skips_degenerate_draws():
    rng = np.random.default_rng(303)
    base = _random_amps(rng, 2)
    gauss = _random_gauss(rng, 8)
    gauss[0, :, 0, :] = 0.0  # first column identically zero
    gauss[3, :, 1, :] = gauss[3, :, 0, :]  # second column parallel to first
    sizes = np.full(8, 3, dtype=np.int64)
    out = _kernels.min_average_batch(base, gauss, sizes)
    assert np.isfinite(out) and out >= 0.0


def test_sampler_is_min_over_size_groups():
    rng = np.random.default_rng(404)
    base = _random_amps(rng, 2)
    gauss = _random_gauss(rng, 60)
    sizes = np.array([2, 3, 4] * 20, dtype=np.int64)
    combined = _kernels.min_average_batch(base, gauss, sizes)
    per_group = [
        _kernels.min_average_batch(base, gauss[sizes == m], sizes[sizes == m])
        for m in (2, 3, 4)
    ]
    assert abs(combined - min(per_group)) <= 1e-15
