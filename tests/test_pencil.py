import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from tangleroof.invariants import three_tangle
from tangleroof.pencil import (
    ExtendedRoot,
    IdenticallyZeroPencilError,
    PencilPolynomial,
    finite_roots,
    pencil_polynomial,
    polynomial_roots,
    zero_set,
)
from tangleroof.states import PureState, RankTwoMixture, make_ghz, make_w


def _basis_state(index):
    amps = np.zeros(8, dtype=complex)
    amps[index] = 1.0
    return PureState(3, amps)


def test_pencil_polynomial_interpolates_tangle():
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    poly = pencil_polynomial(mix.psi1, mix.psi2)
    rng = np.random.default_rng(31)
    for _ in range(6):
        z = complex(rng.normal(), rng.normal())
        direct = three_tangle(
            PureState(3, mix.psi1.amplitudes + z * mix.psi2.amplitudes)
        )
        assert abs(poly(z) - direct) <= 1e-12 * max(1.0, abs(z) ** 4)


def test_pencil_polynomial_coefficient_count():
    with pytest.raises(ValueError):
        PencilPolynomial(np.zeros(4, dtype=complex))
    poly = PencilPolynomial(np.array([0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex))
    assert poly.degree() == 2
    assert PencilPolynomial(np.zeros(5, dtype=complex)).degree() == -1


def test_polynomial_roots_quartic_with_known_roots():
    # (z - 1)(z - 2)(z - 3)(z - 4)
    c = npoly.polyfromroots([1.0, 2.0, 3.0, 4.0]).astype(complex)
    roots = polynomial_roots(PencilPolynomial(c))
    got = sorted(r.z.real for r in roots)
    np.testing.assert_allclose(got, [1.0, 2.0, 3.0, 4.0], atol=1e-10)
    assert all(r.multiplicity == 1 and not r.at_infinity for r in roots)


def test_polynomial_roots_degree_deficit_goes_to_infinity():
    # (z - 1)(z - 2): two finite roots, two at infinity
    c = np.zeros(5, dtype=complex)
    c[:3] = npoly.polyfromroots([1.0, 2.0])
    roots = polynomial_roots(PencilPolynomial(c))
    finite = [r for r in roots if not r.at_infinity]
    infinite = [r for r in roots if r.at_infinity]
    np.testing.assert_allclose(sorted(r.z.real for r in finite), [1.0, 2.0], atol=1e-12)
    assert sum(r.multiplicity for r in infinite) == 2
    assert roots[-1].at_infinity


def test_polynomial_roots_multiplicity_clustering():
    # (z - 1)^2 (z^2 + 1)
    c = npoly.polyfromroots([1.0, 1.0, 1j, -1j]).astype(complex)
    roots = polynomial_roots(PencilPolynomial(c))
    mults = {}
    for r in roots:
        key = None if r.at_infinity else complex(np.round(r.z, 6))
        mults[key] = mults.get(key, 0) + r.multiplicity
    assert mults[complex(1.0)] == 2
    assert mults[1j] == 1 and mults[-1j] == 1


def test_polynomial_roots_exact_conjugate_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.normal(size=5).astype(complex)
        roots = polynomial_roots(PencilPolynomial(c))
        zs = [r.z for r in roots if not r.at_infinity and abs(r.z.imag) > 0]
        for z in zs:
            assert any(np.conj(z) == w for w in zs if w is not z)


def test_polynomial_roots_identically_zero_raises():
    with pytest.raises(IdenticallyZeroPencilError):
        polynomial_roots(PencilPolynomial(np.full(5, 1e-14, dtype=complex)))


def test_finite_roots_rows_of_every_degree():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    for row, deg in enumerate((4, 3, 2, 1, 0)):
        coeffs[row, deg + 1 :] = 0.0
    coeffs[5] = 0.0
    roots, n_inf = finite_roots(coeffs)
    np.testing.assert_array_equal(n_inf, [0, 1, 2, 3, 4, 4])
    for row in range(6):
        finite = roots[row, : 4 - n_inf[row]]
        assert np.all(np.isinf(roots[row, 4 - n_inf[row] :]))
        assert np.abs(npoly.polyval(finite, coeffs[row])).max(initial=0.0) <= 1e-9
        alone, alone_inf = finite_roots(coeffs[row : row + 1])
        np.testing.assert_array_equal(alone[0], roots[row])
        assert alone_inf[0] == n_inf[row]


def test_finite_roots_floor_of_one_counts_four_at_infinity():
    coeffs = np.array([[1.0, -2.0, 0.5, 3.0, 1.0]], dtype=complex)
    roots, n_inf = finite_roots(coeffs, tol=2.0)
    assert n_inf[0] == 4 and np.all(np.isinf(roots))
    roots = polynomial_roots(PencilPolynomial(coeffs[0] * 10.0), tol=2.0)
    assert [(r.z, r.multiplicity) for r in roots] == [(None, 4)]


def test_polished_roots_are_accurate():
    c = npoly.polyfromroots([0.5, -3.0, 2.0 + 1.0j, 2.0 - 1.0j]).astype(complex)
    roots = polynomial_roots(PencilPolynomial(c))
    for r in roots:
        assert abs(npoly.polyval(r.z, c)) <= 1e-10


def test_extended_root_properties():
    inf = ExtendedRoot(None, 2)
    assert inf.at_infinity and inf.p0 == 0.0 and inf.phase == 0.0
    finite = ExtendedRoot(1.0 + 1.0j)
    assert abs(finite.p0 - 1.0 / 3.0) <= 1e-15
    assert abs(finite.phase - np.pi / 4.0) <= 1e-15


def test_zero_set_states_have_zero_tangle():
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    zs = zero_set(mix)
    assert len(zs.states) == 4
    assert zs.p0.shape == (4,) and zs.phases.shape == (4,)
    for state in zs.states:
        assert abs(three_tangle(state)) <= 1e-12
        assert abs(state.norm() - 1.0) <= 1e-12


def test_zero_set_identically_zero_span():
    mix = RankTwoMixture(_basis_state(0), _basis_state(1), 0.5)
    with pytest.raises(IdenticallyZeroPencilError):
        zero_set(mix)


def test_zero_set_deterministic_ordering():
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    a = zero_set(mix)
    b = zero_set(mix)
    assert [r.z for r in a.roots] == [r.z for r in b.roots]
    # reals ascending, conjugate pair with +Im first, infinity last
    finite = [r.z for r in a.roots if not r.at_infinity]
    reals = [z.real for z in finite if z.imag == 0.0]
    assert reals == sorted(reals)
