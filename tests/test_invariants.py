import numpy as np
import pytest

from tangleroof.invariants import (
    c3,
    c3_many,
    one_tangle,
    three_tangle,
    wootters_concurrence,
)
from tangleroof.states import DensityMatrix, PureState, make_ghz, make_w, superpose


def _random_state(rng, n=3):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def _random_su2(rng):
    a = rng.normal(size=4)
    a = a / np.linalg.norm(a)
    return np.array(
        [
            [a[0] + 1j * a[1], a[2] + 1j * a[3]],
            [-a[2] + 1j * a[3], a[0] - 1j * a[1]],
        ]
    )


def test_three_tangle_reference_states():
    assert abs(three_tangle(make_ghz(3)) - 1.0) <= 1e-14
    assert abs(three_tangle(make_w(3))) <= 1e-14
    product = np.zeros(8, dtype=complex)
    product[3] = 1.0  # |011> = |0> x |11>
    assert abs(three_tangle(PureState(3, product))) <= 1e-14


def test_three_tangle_generalized_ghz():
    # a|000> + b|111> has tangle 4 a^2 b^2
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.uniform(0.1, 0.9)
        b = np.sqrt(1.0 - a * a)
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[7] = a, b
        got = three_tangle(PureState(3, amps))
        assert abs(got - 4.0 * a * a * b * b) <= 1e-14


def test_three_tangle_degree_four_homogeneity():
    rng = np.random.default_rng(9)
    psi = _random_state(rng)
    scale = 0.7 - 0.4j
    scaled = PureState(3, scale * psi.amplitudes)
    assert abs(three_tangle(scaled) - scale**4 * three_tangle(psi)) <= 1e-12


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(13)
    psi = _random_state(rng)
    u = np.kron(np.kron(_random_su2(rng), _random_su2(rng)), _random_su2(rng))
    rotated = PureState(3, u @ psi.amplitudes)
    assert abs(abs(three_tangle(rotated)) - abs(three_tangle(psi))) <= 1e-12


def test_three_tangle_rejects_other_sizes():
    with pytest.raises(ValueError):
        three_tangle(make_ghz(4))


def test_c3_matches_scalar_and_batch():
    rng = np.random.default_rng(21)
    states = [_random_state(rng) for _ in range(6)]
    amps = np.stack([s.amplitudes for s in states])
    batch = c3_many(amps)
    for s, value in zip(states, batch):
        assert abs(c3(s) - value) <= 1e-14
        assert abs(c3(s) - np.sqrt(abs(three_tangle(s)))) <= 1e-14


def test_wootters_concurrence_bell_and_product():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho_bell = DensityMatrix(2, np.outer(bell, bell.conj()))
    assert abs(wootters_concurrence(rho_bell) - 1.0) <= 1e-12

    product = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert wootters_concurrence(DensityMatrix(2, product)) <= 1e-12


def test_wootters_concurrence_werner_formula():
    # C(w Bell + (1-w) I/4) = max(0, (3w - 1) / 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    proj = np.outer(bell, bell.conj())
    for w in (0.2, 1.0 / 3.0, 0.6, 0.9):
        rho = DensityMatrix(2, w * proj + (1.0 - w) * np.eye(4) / 4.0)
        expected = max(0.0, (3.0 * w - 1.0) / 2.0)
        assert abs(wootters_concurrence(rho) - expected) <= 1e-12


def test_one_tangle_values():
    assert abs(one_tangle(make_ghz(3), 0) - 1.0) <= 1e-14
    assert abs(one_tangle(make_w(3), 0) - 8.0 / 9.0) <= 1e-14
    product = superpose(make_ghz(2), make_ghz(2), 1.0, 0.0)
    psi = PureState(3, np.kron(np.array([1.0, 0.0]), product.amplitudes))
    assert one_tangle(psi, 0) <= 1e-14
