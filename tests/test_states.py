import json
from dataclasses import replace

import numpy as np
import pytest

from tangleroof.bloch import IntervalWitness, ZeroPolytope
from tangleroof.bounds import BoundCurve, upper_bound_report
from tangleroof.states import (
    DensityMatrix,
    PureState,
    RankExceededError,
    RankTwoMixture,
    inner_product,
    load_state,
    make_ghz,
    make_w,
    partial_trace,
    rank_two_eigendecomposition,
    superpose,
)


def _random_state(rng, n=3):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(3, np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        PureState(2, np.zeros(8, dtype=complex))
    state = make_ghz(3)
    assert state.amplitudes.flags.writeable is False
    # a state and a density matrix freeze their own copies, not the caller's
    amps = np.full(4, 0.5, dtype=complex)
    matrix = np.eye(2, dtype=complex) / 2.0
    state, rho = PureState(2, amps), DensityMatrix(1, matrix)
    assert not state.amplitudes.flags.writeable and not rho.matrix.flags.writeable
    assert amps.flags.writeable and matrix.flags.writeable
    amps[0] = matrix[0, 0] = 1.0
    assert state.amplitudes[0] == 0.5 and rho.matrix[0, 0] == 0.5
    # so do the polytope, a witness, a bound curve and a report
    vertices, weights = np.eye(3), np.array([0.25, 0.75])
    knots, envelope = np.array([[0.0, 1.0], [1.0, 0.5]]), np.linspace(1.0, 0.5, 5)
    report = upper_bound_report(RankTwoMixture(make_ghz(3), make_w(3), 0.5), grid_size=5)
    frozen = (
        ZeroPolytope(vertices).vertices,
        IntervalWitness((0, 1), weights).weights,
        BoundCurve(knots, ("endpoint", "endpoint")).knots,
        replace(report, envelope=envelope).envelope,
    )
    for given, kept in zip((vertices, weights, knots, envelope), frozen):
        assert given.flags.writeable and not kept.flags.writeable
        assert np.array_equal(given, kept) and not np.shares_memory(given, kept)


def test_make_ghz_w_basics():
    for n in (2, 3, 4):
        assert abs(make_ghz(n).norm() - 1.0) <= 1e-15
        assert abs(make_w(n).norm() - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        make_ghz(1)
    with pytest.raises(ValueError):
        make_w(1)
    w = make_w(3)
    np.testing.assert_allclose(np.abs(w.amplitudes[[1, 2, 4]]), 1.0 / np.sqrt(3.0))


def test_inner_product_conjugate_linear_in_first():
    rng = np.random.default_rng(3)
    a, b = _random_state(rng), _random_state(rng)
    lhs = inner_product(superpose(a, a, 2j, 0.0), b)
    assert abs(lhs - np.conj(2j) * inner_product(a, b)) <= 1e-12
    assert abs(inner_product(a, a) - 1.0) <= 1e-12


def test_superpose_is_unnormalized_bilinear():
    ghz, w = make_ghz(3), make_w(3)
    s = superpose(ghz, w, 0.6, 0.8j)
    expected = 0.6 * ghz.amplitudes + 0.8j * w.amplitudes
    np.testing.assert_allclose(s.amplitudes, expected)


def test_density_matrix_validation():
    eye = np.eye(8) / 8.0
    DensityMatrix(3, eye)
    with pytest.raises(ValueError):
        DensityMatrix(3, eye * 2.0)
    skew = eye.astype(complex).copy()
    skew[0, 1] = 1e-6
    with pytest.raises(ValueError):
        DensityMatrix(3, skew)


def test_pure_state_rejects_a_bool_qubit_count():
    # bool is an int subclass, but True is no qubit count
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        PureState(True, [1.0, 0.0])


@pytest.mark.parametrize(
    "n, matrix",
    [
        (3.7, np.eye(8) / 8.0),
        ("2", np.eye(4) / 4.0),
        (True, np.eye(2) / 2.0),
        (0.5, np.eye(1)),
    ],
    ids=["float", "str", "bool", "half"],
)
def test_density_matrix_rejects_a_non_integer_qubit_count(n, matrix):
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        DensityMatrix(n, matrix)


def test_qubit_counts_must_be_positive():
    with pytest.raises(ValueError, match="n_qubits must be a positive integer"):
        PureState(0, [1.0])
    with pytest.raises(ValueError, match="n_qubits must be a positive integer"):
        DensityMatrix(0, np.eye(1))
    assert PureState(np.int64(1), [1.0, 0.0]).n_qubits == 1
    assert type(DensityMatrix(np.int64(1), np.eye(2) / 2.0).n_qubits) is int


def test_mixture_requires_orthonormal_pair():
    ghz, w = make_ghz(3), make_w(3)
    RankTwoMixture(ghz, w, 0.3)
    tilted = superpose(ghz, w, 1.0, 0.1)
    tilted = PureState(3, tilted.amplitudes / tilted.norm())
    with pytest.raises(ValueError):
        RankTwoMixture(ghz, tilted, 0.3)
    with pytest.raises(ValueError):
        RankTwoMixture(ghz, w, 1.5)
    with pytest.raises(ValueError):
        RankTwoMixture(ghz, PureState(3, 0.5 * w.amplitudes), 0.3)


def test_mixture_density_matrix():
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.25)
    rho = mix.density_matrix()
    evals = np.linalg.eigvalsh(rho.matrix)
    np.testing.assert_allclose(np.sort(evals)[-2:], [0.25, 0.75], atol=1e-12)


def test_partial_trace_known_reductions():
    ghz4 = make_ghz(4)
    rho = partial_trace(ghz4, (0, 1, 2))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)

    w3 = make_w(3)
    rho1 = partial_trace(w3, (0,))
    np.testing.assert_allclose(rho1.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)

    # product state reduces to a pure projector
    rng = np.random.default_rng(11)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    psi = PureState(3, np.kron(a, b))
    rho_a = partial_trace(psi, (0,))
    np.testing.assert_allclose(rho_a.matrix, np.outer(a, a.conj()), atol=1e-14)


def test_partial_trace_qubit_order_is_msb_first():
    # |01> has qubit 0 = 0, qubit 1 = 1
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    psi = PureState(2, amps)
    np.testing.assert_allclose(partial_trace(psi, (0,)).matrix, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(partial_trace(psi, (1,)).matrix, np.diag([0.0, 1.0]))


def test_rank_two_eigendecomposition_recovers_pair():
    rng = np.random.default_rng(5)
    a, b = _random_state(rng), _random_state(rng)
    b_amp = b.amplitudes - inner_product(a, b) * a.amplitudes
    b = PureState(3, b_amp / np.linalg.norm(b_amp))
    rho = RankTwoMixture(a, b, 0.7).density_matrix()
    mix = rank_two_eigendecomposition(rho)
    assert abs(mix.p - 0.7) <= 1e-12
    assert abs(abs(inner_product(mix.psi1, a)) - 1.0) <= 1e-10
    assert abs(abs(inner_product(mix.psi2, b)) - 1.0) <= 1e-10
    assert not mix.degenerate_rank


def test_rank_two_eigendecomposition_rejects_rank_three():
    m = np.diag([0.5, 0.3, 0.2, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(RankExceededError):
        rank_two_eigendecomposition(DensityMatrix(3, m))


def test_rank_one_marks_degenerate_rank():
    ghz = make_ghz(3)
    rho = RankTwoMixture(ghz, make_w(3), 1.0).density_matrix()
    mix = rank_two_eigendecomposition(rho)
    assert mix.degenerate_rank
    assert mix.p == 1.0
    assert abs(abs(inner_product(mix.psi1, ghz)) - 1.0) <= 1e-10


def test_degenerate_half_half_is_deterministic():
    rho = RankTwoMixture(make_ghz(3), make_w(3), 0.5).density_matrix()
    m1 = rank_two_eigendecomposition(rho)
    m2 = rank_two_eigendecomposition(rho)
    np.testing.assert_array_equal(m1.psi1.amplitudes, m2.psi1.amplitudes)
    np.testing.assert_array_equal(m1.psi2.amplitudes, m2.psi2.amplitudes)


def test_load_state_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    psi = _random_state(rng)
    path = tmp_path / "state.json"
    payload = {
        "n": 3,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    path.write_text(json.dumps(payload))
    loaded = load_state(str(path))
    np.testing.assert_allclose(loaded.amplitudes, psi.amplitudes, atol=1e-15)


def test_load_state_renormalize_and_errors(tmp_path):
    path = tmp_path / "big.json"
    amps = [[2.0, 0.0]] + [[0.0, 0.0]] * 7
    path.write_text(json.dumps({"n": 3, "amplitudes": amps}))
    with pytest.warns(UserWarning):
        raw = load_state(str(path))
    assert abs(raw.norm() - 2.0) <= 1e-15
    fixed = load_state(str(path), renormalize=True)
    assert abs(fixed.norm() - 1.0) <= 1e-15

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3}))
    with pytest.raises(ValueError):
        load_state(str(bad))
    bad.write_text("not json")
    with pytest.raises(ValueError):
        load_state(str(bad))
