import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from tangleroof import _kernels, pencil
from tangleroof.bounds import span_geometries
from tangleroof.invariants import three_tangle
from tangleroof.pencil import (
    IdenticallyZeroPencilError,
    finite_roots,
    pencil_polynomial,
    polynomial_roots,
    zero_set,
)
from tangleroof.scenarios import toy_states
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
        assert abs(pencil._horner(poly, z) - direct) <= 1e-12 * max(1.0, abs(z) ** 4)


def test_pencil_polynomial_coefficient_count():
    coeffs = pencil_polynomial(*toy_states())
    assert coeffs.shape == (5,) and coeffs.dtype == complex
    assert not coeffs.flags.writeable
    with pytest.raises(ValueError, match="expected 5 coefficients, got 4"):
        polynomial_roots(np.zeros(4, dtype=complex))
    # numerical degree and exact roots at 0: z^2 has two of each
    rows, low, deg, real = pencil._deflated(np.array([[0.0, 0.0, 1.0, 0.0, 0.0]], dtype=complex))
    assert (low.tolist(), deg.tolist(), real.tolist()) == ([2], [2], [True])
    assert rows[0, 0] == 1.0
    _, low, deg, _ = pencil._deflated(np.zeros((1, 5), dtype=complex))
    assert (low.tolist(), deg.tolist()) == ([0], [-1])


def test_polynomial_roots_quartic_with_known_roots():
    # (z - 1)(z - 2)(z - 3)(z - 4)
    c = npoly.polyfromroots([1.0, 2.0, 3.0, 4.0]).astype(complex)
    z, mult = polynomial_roots(c)
    np.testing.assert_allclose(np.sort(z.real), [1.0, 2.0, 3.0, 4.0], atol=1e-10)
    assert np.all(mult == 1) and np.all(np.isfinite(z))


def test_polynomial_roots_degree_deficit_goes_to_infinity():
    # (z - 1)(z - 2): two finite roots, two at infinity
    c = np.zeros(5, dtype=complex)
    c[:3] = npoly.polyfromroots([1.0, 2.0])
    z, mult = polynomial_roots(c)
    finite = np.isfinite(z)
    np.testing.assert_allclose(np.sort(z[finite].real), [1.0, 2.0], atol=1e-12)
    assert mult[~finite].sum() == 2
    assert np.isinf(z[-1])


def test_polynomial_roots_multiplicity_clustering():
    # (z - 1)^2 (z^2 + 1)
    c = npoly.polyfromroots([1.0, 1.0, 1j, -1j]).astype(complex)
    z, mult = polynomial_roots(c)
    mults = {}
    for root, m in zip(np.round(z, 6).tolist(), mult.tolist()):
        mults[root] = mults.get(root, 0) + m
    assert mults[complex(1.0)] == 2
    assert mults[1j] == 1 and mults[-1j] == 1


@pytest.mark.parametrize(
    "coeffs, z, mult",
    [
        ([0, 0, 1, -2, 1], [0, 1], [2, 2]),  # z^2 (z - 1)^2
        (npoly.polyfromroots([1, 1, 2, 3]), [1, 2, 3], [2, 1, 1]),
        ([1, 0, 2, 0, 1], [1j, -1j], [2, 2]),  # (z^2 + 1)^2
    ],
    ids=["z2_1", "1_1_2_3", "i_i"],
)
def test_exact_multiple_roots_of_real_polynomials(coeffs, z, mult):
    # the real Schur form may return a double root as two equal eigenvalues,
    # where P' is rounding noise: Newton takes no step there
    got, got_mult = polynomial_roots(np.asarray(coeffs, dtype=complex))
    assert got_mult.tolist() == mult
    np.testing.assert_allclose(got, z, rtol=1e-14, atol=1e-15)


def test_a_root_near_an_exact_zero_clusters_between_them():
    # z (1e-9 + z + z^2 + z^3): the exact root at 0 and the root near -1e-9
    # lie 1e-9 apart, far beyond the inclusion disc of either, so at
    # computed accuracy they are two simple roots and 0 stays exact
    z, mult = polynomial_roots(np.array([0, 1e-9, 1, 1, 1], dtype=complex))
    assert mult.tolist() == [1, 1, 1, 1]
    np.testing.assert_allclose(z[0], -1e-9, rtol=1e-8)
    assert z[1] == 0.0 and not np.signbit(z[1].real) and not np.signbit(z[1].imag)


@pytest.mark.parametrize(
    "roots, z, mult",
    [([1, 1, 1, 3], [1, 3], [3, 1]), ([2, 2, 2, 2], [2], [4])],
    ids=["triple", "quadruple"],
)
def test_inclusion_discs_merge_a_spread_multiple_root(roots, z, mult):
    # the eigenvalues of a triple root spread by about eps^(1/3) ~ 6e-6 and
    # those of a quadruple root by eps^(1/4) ~ 1e-4; their discs overlap, and
    # the mean refined on P^(m-1) is accurate to rounding
    got, got_mult = polynomial_roots(npoly.polyfromroots(roots).astype(complex))
    assert got_mult.tolist() == mult
    assert np.all(got.imag == 0.0)
    np.testing.assert_allclose(got.real, z, rtol=0.0, atol=1e-12)


def test_inclusion_discs_resolve_a_near_double_root():
    # (z - 1)(z - 1 - 1e-6)(z - 2)(z + 1.5): roots 1e-6 apart are computed to
    # within 5e-10, and their discs stay disjoint
    z, mult = polynomial_roots(npoly.polyfromroots([1, 1 + 1e-6, 2, -1.5]).astype(complex))
    assert mult.tolist() == [1, 1, 1, 1]
    np.testing.assert_allclose(z.real, [-1.5, 1.0, 1.0 + 1e-6, 2.0], rtol=0.0, atol=1e-9)


def test_polynomial_roots_exact_conjugate_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.normal(size=5).astype(complex)
        z, _ = polynomial_roots(c)
        complex_roots = z[np.isfinite(z) & (z.imag != 0.0)]
        for root in complex_roots:
            assert np.conj(root) in complex_roots


def test_polynomial_roots_identically_zero_raises():
    with pytest.raises(IdenticallyZeroPencilError):
        polynomial_roots(np.full(5, 1e-14, dtype=complex))


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
    # a degree-1 row takes the 1x1 companion matrix, whose eigenvalue is
    # -(c_0 / c_1): the root is that quotient after the two Newton steps
    for c in (coeffs[3:4, :2], rng.normal(size=(1, 2))):
        expected = pencil._polish(-(c[:, :1] / c[:, 1:]), c)
        got, _ = finite_roots(np.pad(c, ((0, 0), (0, 3))))
        assert got[0, 0] == expected[0, 0], c


def test_finite_roots_trailing_coefficients_are_roots_at_zero():
    # z^2 (z - 1)(z - 2) and the |000>/|111> pencil, with rounding noise
    # below the floor in the vanishing coefficients
    coeffs = np.zeros((2, 5), dtype=complex)
    coeffs[0, 2:] = npoly.polyfromroots([1.0, 2.0])
    coeffs[0, :2] = [3e-17, -2e-17j]
    coeffs[1] = [0.0, 1e-17, 4.0, -1e-17, 0.0]
    roots, n_inf = finite_roots(coeffs)
    np.testing.assert_array_equal(n_inf, [0, 2])
    assert roots[0, :2].tolist() == [0j, 0j]
    np.testing.assert_allclose(np.sort(roots[0, 2:].real), [1.0, 2.0], atol=1e-12)
    assert roots[1, :2].tolist() == [0j, 0j] and np.all(np.isinf(roots[1, 2:]))
    z, mult = polynomial_roots(coeffs[1])
    assert z.tolist() == [0j, complex(np.inf)] and mult.tolist() == [2, 2]


def test_finite_roots_floor_of_one_counts_four_at_infinity():
    # no coefficient of the zero row lies above the floor
    coeffs = np.zeros((1, 5), dtype=complex)
    roots, n_inf = finite_roots(coeffs)
    assert n_inf[0] == 4 and np.all(np.isinf(roots))
    with pytest.raises(IdenticallyZeroPencilError):
        polynomial_roots(coeffs[0])


def _three_pass_polish(roots, c):
    """pencil._polish with the noise scale from a Horner pass of its own:
    the reference of the stacked first pass."""
    both = np.zeros((2, c.shape[0], 1, c.shape[1]), dtype=complex)
    both[0, :, 0] = c
    both[1, :, 0, :-1] = pencil._derivative(c)
    noise = 8 * np.finfo(float).eps * pencil._horner(np.abs(both[1]), np.abs(roots))
    for _ in range(2):
        pv, dv = pencil._horner(both, roots)
        roots = roots - np.divide(pv, dv, out=np.zeros_like(pv), where=np.abs(dv) > noise)
    return roots


def test_polish_equals_the_three_pass_reference_bitwise(monkeypatch, benchmark_inputs):
    # every _polish call of the benchmark pairs' root finding (real and
    # complex rows, double roots on P^(m-1)), and real and complex rows of
    # each degree with real and complex starting roots
    calls = []
    original = pencil._polish

    def recorded(roots, c):
        calls.append((roots, c))
        return original(roots, c)

    monkeypatch.setattr(pencil, "_polish", recorded)
    for seed in (1, 2):
        pairs = benchmark_inputs.pair_set(seed)
        span_geometries(np.array([a for _, a, _ in pairs]), np.array([b for _, _, b in pairs]))
    assert {c.dtype.kind for _, c in calls} == {"f", "c"}
    rng = np.random.default_rng(43)
    for degree in (1, 2, 3, 4):
        for real in (True, False):
            c = rng.normal(size=(20, degree + 1))
            z = rng.normal(size=(20, degree))
            if not real:
                z, c = z + 1j * rng.normal(size=z.shape), c + 1j * rng.normal(size=c.shape)
            calls.append((z, c))
    for roots, c in calls:
        assert np.array_equal(original(roots, c), _three_pass_polish(roots, c))


def test_polished_roots_are_accurate():
    c = npoly.polyfromroots([0.5, -3.0, 2.0 + 1.0j, 2.0 - 1.0j]).astype(complex)
    z, _ = polynomial_roots(c)
    assert np.abs(npoly.polyval(z, c)).max() <= 1e-10


def test_extended_root_properties():
    # (z - (1 + i)) with three roots at infinity
    c = np.zeros(5, dtype=complex)
    c[:2] = npoly.polyfromroots([1.0 + 1.0j])
    ket = np.eye(8, dtype=complex)
    zs = pencil._zero_sets(c[None, :], ket[None, 0], ket[None, 7]).zero_set(0)
    assert zs.z.tolist() == [1.0 + 1.0j, complex(np.inf)]
    assert zs.multiplicity.tolist() == [1, 3]
    np.testing.assert_allclose(zs.p0, [1.0 / 3.0, 0.0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(zs.phases, [np.pi / 4.0, 0.0], rtol=0.0, atol=1e-15)
    # the root at infinity is the pure second state
    np.testing.assert_array_equal(zs.states[1].amplitudes, ket[7])


def test_zero_set_states_have_zero_tangle():
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    zs = zero_set(mix)
    # one row per distinct root: three finite roots and one at infinity
    assert zs.multiplicity.tolist() == [1, 1, 1, 1] and np.isinf(zs.z[-1])
    assert len(zs.states) == zs.p0.shape[0] == zs.phases.shape[0] == 4
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
    assert a.z.tolist() == b.z.tolist()
    # reals ascending, conjugate pair with +Im first, infinity last
    finite = a.z[np.isfinite(a.z)].tolist()
    reals = [z.real for z in finite if z.imag == 0.0]
    assert reals == sorted(reals)


def _stress_sets(rows=60):
    """Quartic coefficient stacks that stress a root solver."""
    rng = np.random.default_rng(17)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def from_roots(roots):
        return np.array([npoly.polyfromroots(r) for r in roots]).astype(complex)

    sets = {"generic": cplx(rows, 5), "real": rng.normal(size=(rows, 5)).astype(complex)}
    c = cplx(rows, 5)  # a root near infinity: |c_4| just above COEFF_TOL
    c[:, 4] *= 3e-10 * np.abs(c[:, :4]).max(axis=1) / np.abs(c[:, 4])
    sets["c4_3e-10"] = c
    c = cplx(rows, 5)  # a root near zero
    c[:, 0] *= 1e-12 / np.abs(c[:, 0])
    sets["c0_1e-12"] = c
    for gap in (1e-9, 1e-5):
        roots = cplx(rows, 4)
        roots[:, 1] = roots[:, 0] + gap * np.exp(2j * np.pi * rng.random(rows))
        sets[f"double_{gap:g}"] = from_roots(roots)
    c = cplx(rows, 5)
    c[:, 1] = c[:, 3] = 0.0
    sets["biquadratic"] = c
    roots = np.exp(2j * np.pi * rng.random((rows, 4))) * 10.0 ** rng.uniform(-3, 3, (rows, 4))
    roots[:, 0] *= 1e-3 / np.abs(roots[:, 0])
    roots[:, 1] *= 1e3 / np.abs(roots[:, 1])
    sets["spread"] = from_roots(roots) * cplx(rows, 1)
    return sets


# worst error of finite_roots against 40-digit roots, per stress set: relative,
# except c0_1e-12, whose |c_0| lies under the floor and so counts as an exact
# root at 0; a relative error reads 1 there, so it is measured by chordal distance
_CEILINGS = {
    "generic": 1e-15, "real": 1e-15, "c4_3e-10": 1e-15, "c0_1e-12": 1e-10,
    "double_1e-09": 1e-7, "double_1e-05": 2e-9, "biquadratic": 1e-15, "spread": 1e-14,
}


def _worst_error(roots, exact, chordal):
    worst = 0.0
    for row, ref in zip(roots, exact):
        for z in row:
            a = ref[np.argmin(np.abs(ref - z))]
            scale = np.sqrt((1 + abs(a) ** 2) * (1 + abs(z) ** 2)) if chordal else abs(a)
            worst = max(worst, abs(a - z) / scale)
    return worst


def test_finite_roots_match_mpmath_on_stress_sets():
    mpmath = pytest.importorskip("mpmath")

    def exact(row):
        with mpmath.workdps(40):
            roots = mpmath.polyroots(
                [mpmath.mpc(complex(c)) for c in row[::-1]], maxsteps=400, extraprec=400
            )
        return np.array([complex(z) for z in roots])

    sets = _stress_sets()
    assert sets.keys() == _CEILINGS.keys()
    for name, coeffs in sets.items():
        roots, n_inf = finite_roots(coeffs)
        assert not n_inf.any()
        worst = _worst_error(roots, [exact(row) for row in coeffs], name == "c0_1e-12")
        assert worst <= _CEILINGS[name], (name, worst)


def _assert_bitwise_conjugates(roots):
    """Every non-real root of each row has its exact conjugate in the row."""
    for row in roots:
        finite = row[np.isfinite(row)]
        upper = np.sort_complex(finite[finite.imag > 0.0])
        lower = np.sort_complex(np.conj(finite[finite.imag < 0.0]))
        assert upper.size == lower.size
        np.testing.assert_array_equal(upper.view(float), lower.view(float))


def test_real_rows_give_bitwise_conjugate_pairs(benchmark_inputs):
    # a real row is solved in real arithmetic, so no pairing step is needed
    coeffs = _stress_sets()["real"]
    roots, _ = finite_roots(coeffs)
    assert np.count_nonzero(roots.imag) >= 40
    _assert_bitwise_conjugates(roots)
    pairs = [(a, b) for name, a, b in benchmark_inputs.pair_set(1) if name.startswith("real")]
    amps1, amps2 = (np.array(column) for column in zip(*pairs))
    coeffs = pencil._pencils(amps1, amps2)
    # the pencil of a real pair is multiplied out in real values: exactly real
    assert np.all(coeffs.imag == 0.0)
    roots, _ = finite_roots(coeffs)
    assert np.count_nonzero(roots.imag) >= 40
    _assert_bitwise_conjugates(roots)


@pytest.mark.parametrize("angle", np.linspace(0.05, 1.5, 30))
def test_double_roots_are_refined_to_rounding(angle):
    # cos t|000> + sin t|111> and cos t|111> - sin t|000>: the pencil is
    # 4 (cos t z + sin t)^2 (cos t - sin t z)^2 up to a constant, with
    # double roots at -tan t and cot t and antipodal Bloch points
    e = np.eye(8, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    zs = zero_set(RankTwoMixture(PureState(3, c * e[0] + s * e[7]), PureState(3, c * e[7] - s * e[0]), 0.5))
    assert zs.multiplicity.tolist() == [2, 2]
    assert np.all(zs.z.imag == 0.0)
    np.testing.assert_allclose(zs.z.real, [-np.tan(angle), 1.0 / np.tan(angle)], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(zs.p0, [c**2, s**2], rtol=0.0, atol=1e-15)


def test_one_eigvals_call_per_deflated_degree(monkeypatch):
    sizes = []
    original = np.linalg.eigvals

    def counted(a):
        sizes.append(a.shape[:-2])
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rng = np.random.default_rng(8)
    generic = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    double = npoly.polyfromroots([0.5, 0.5, -1.0, 2.0]).astype(complex)
    lower = generic[:2].copy()
    lower[0, 4] = lower[1, 3:] = 0.0
    roots, n_inf = finite_roots(np.vstack([generic, double, lower]))
    # complex degree 2, complex degree 3, the real quartic, the five complex quartics
    assert sorted(sizes) == [(1,), (1,), (1,), (5,)]
    np.testing.assert_array_equal(n_inf, [0] * 6 + [1, 2])
    np.testing.assert_allclose(np.sort_complex(roots[5]), [-1.0, 0.5, 0.5, 2.0], atol=1e-7)


def test_pencil_polynomial_evaluates_in_polyval_order():
    poly = pencil_polynomial(*toy_states())
    z = np.array([0.3 - 0.2j, 2.0, -1.5j])
    c = poly
    np.testing.assert_array_equal(pencil._horner(c, z), npoly.polyval(z, c))
    assert pencil._horner(c, 0.7 + 0.1j) == npoly.polyval(0.7 + 0.1j, c)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_derivatives_of_a_multiple_root_equal_polyder(m):
    # a root of multiplicity m is refined on P^(m-1); polyder trims the
    # zero leading coefficients, which add exact zeros to a Horner pass
    rng = np.random.default_rng(40 + m)
    real = rng.normal(size=(300, 5)) * 10.0 ** rng.uniform(-8.0, 8.0, (300, 1))
    rows = np.vstack([real + 0j, real + 1j * rng.normal(size=(300, 5))])
    rows[::3, 4] = 0.0
    rows[::5, 3:] = 0.0
    for c in rows:
        derivative = c
        for _ in range(m - 1):
            derivative = pencil._derivative(derivative)
        want = npoly.polyder(c, m - 1)
        assert derivative.shape == (6 - m,)
        assert derivative[: want.size].tobytes() == want.tobytes()
        assert not derivative[want.size :].any()


def _stacks(pairs):
    """The (N, 8) psi1 and psi2 stacks of (name, psi1, psi2) pairs."""
    _, amps1, amps2 = zip(*pairs)
    return np.array(amps1), np.array(amps2)


def test_pencil_ends_are_the_end_tangles_bitwise(benchmark_inputs):
    pairs = [p for seed in (1, 2, 3, 7) for p in benchmark_inputs.pair_set(seed)]
    amps1, amps2 = _stacks(pairs)
    coeffs = pencil._pencils(amps1, amps2)
    assert coeffs.shape == (len(pairs), 5) and coeffs.flags.c_contiguous
    for column, amps in ((0, amps1), (4, amps2)):
        ends = np.ascontiguousarray(coeffs[:, column])
        np.testing.assert_array_equal(ends.view(np.int64), _kernels.tau3_many(amps).view(np.int64))
    real = ~np.any(amps1.imag, axis=1) & ~np.any(amps2.imag, axis=1)
    assert real.sum() == 408
    assert np.all(coeffs[real].imag == 0.0)


def test_structural_zero_coefficients_are_exact(benchmark_inputs):
    pairs = dict((name, (a, b)) for name, a, b in benchmark_inputs.special_pairs())
    ghz, w = pairs["ghz_w"]
    c = pencil._pencils(ghz[None, :], w[None, :])[0]
    # tau3(GHZ3 + z W3) = 1 + 16 z^3 / (3 sqrt 6): no rounding in c_1, c_2, c_4
    assert c[0] == _kernels.tau3_many(ghz[None, :])[0]
    assert c[1] == c[2] == c[4] == 0.0
    assert c[3] == 2.17732421580727
    assert abs(c[3] - 16.0 / (3.0 * np.sqrt(6.0))) <= 2 * np.spacing(c[3].real)
    # tau3(|000> + z |111>) = 4 z^2
    c = pencil._pencils(*(a[None, :] for a in pairs["000_111"]))[0]
    assert c.tolist() == [0.0, 0.0, 4.0, 0.0, 0.0]


def test_pencils_match_mpmath_better_than_interpolation(benchmark_inputs):
    mpmath = pytest.importorskip("mpmath")

    def exact(a, b):
        # the tangle polynomial's table multiplied out at 40 digits
        with mpmath.workdps(40):
            x = [[mpmath.mpc(complex(u)), mpmath.mpc(complex(v))] for u, v in zip(a, b)]

            def mul(p, q):
                out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
                for i, u in enumerate(p):
                    for j, v in enumerate(q):
                        out[i + j] += u * v
                return out

            p = [mul(x[i], x[j]) for i, j in _kernels.TAU3_PAIRS]
            d1, d2 = ([sum(t) for t in zip(*(mul(p[k], p[l]) for k, l in d))]
                      for d in (_kernels.TAU3_D1, _kernels.TAU3_D2))
            chains = [mul(mul(mul(x[i], x[j]), x[k]), x[l]) for i, j, k, l in _kernels.TAU3_FOURFOLD]
            d3 = [sum(t) for t in zip(*chains)]
            return [4 * (u - 2 * v + 4 * t) for u, v, t in zip(d1, d2, d3)]

    amps1, amps2 = _stacks(benchmark_inputs.pair_set(1))
    coeffs = pencil._pencils(amps1, amps2)
    with mpmath.workdps(40):
        refs = [exact(a, b) for a, b in zip(amps1, amps2)]
        err = sum(abs(mpmath.mpc(complex(c)) - r) ** 2 for row, ref in zip(coeffs, refs) for c, r in zip(row, ref))
        norm = sum(abs(r) ** 2 for ref in refs for r in ref)
        relative = float(mpmath.sqrt(err / norm))
    # the products read 1.59e-16 here and interpolation at the 5th roots of
    # unity 2.25e-16; the products concentrate their rounding in c_2 and c_3,
    # so a single pair can read more (7.0e-16 against 5.1e-16 at most,
    # relative to its own coefficient norm)
    assert relative <= 2.0e-16


@pytest.mark.parametrize(
    "row", [[np.inf, 0, 0, 0, 0], [1, np.nan, 0, 0, 1], [0, 0, 1j * np.inf, 0, 0]]
)
def test_non_finite_coefficients_are_rejected(row):
    with pytest.raises(ValueError, match="finite"):
        polynomial_roots(row)
    with pytest.raises(ValueError, match="finite"):
        finite_roots(np.array([[1, 2, 3, 4, 5], row], dtype=complex))
