import numpy as np
import pytest

from tangleroof import _kernels, bounds, pencil, scenarios
from tangleroof.bloch import AxisInterval, IntervalWitness, _polytope_measures, bloch_from_z
from tangleroof.bounds import linearized_upper_bound, span_geometries, span_geometry
from tangleroof.invariants import c3, one_tangle, wootters_concurrence
from tangleroof.scenarios import (
    FourQubitFamily,
    _family_eigenvectors,
    _family_states,
    _quartic_invariants,
    has_interior_volume_zero,
    phi_threshold_bisect,
    four_qubit_state,
    monogamy_curve,
    monogamy_report,
    q_of_p,
    reduced_mixture,
    simplex_scan,
    toy_states,
)
from tangleroof.states import (
    PureState,
    RankTwoMixture,
    _partial_traces,
    _rank_two_eigenpairs,
    make_w,
    partial_trace,
    rank_two_eigendecomposition,
)


def test_toy_states_orthonormal():
    psi1, psi2 = toy_states()
    assert abs(psi1.norm() - 1.0) <= 1e-12
    assert abs(psi2.norm() - 1.0) <= 1e-12
    assert abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) <= 1e-12


def test_q_of_p_endpoints_and_validation():
    assert q_of_p(0.0) == pytest.approx(0.75, abs=1e-15)
    assert q_of_p(1.0) == pytest.approx(0.5, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 50)
    vals = np.array([q_of_p(p) for p in grid])
    assert np.all(vals >= 0.5 - 1e-15) and np.all(vals <= 0.75 + 1e-15)
    with pytest.raises(ValueError):
        q_of_p(-0.1)
    with pytest.raises(ValueError):
        q_of_p(1.1)


def test_family_coefficients_normalized():
    rng = np.random.default_rng(17)
    for p in rng.uniform(1e-6, 1.0, 40):
        f1, g1, h1, f2, g2, h2 = FourQubitFamily(float(p)).coefficients()
        assert abs(f1 * f1 + g1 * g1 + h1 * h1 - 1.0) <= 1e-10
        assert abs(f2 * f2 + g2 * g2 + h2 * h2 - 1.0) <= 1e-10


def test_family_limit_coefficients():
    lo = FourQubitFamily(0.0).coefficients()
    np.testing.assert_allclose(lo, (0.0, 0.0, 1.0, 0.0, 1.0, 0.0), atol=1e-12)
    hi = FourQubitFamily(1.0).coefficients()
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(hi, (r, r, 0.0, r, -r, 0.0), atol=1e-12)


def test_family_second_branch_continuous_at_sign_change():
    # g2 passes through zero at p = 3/5; the branch must stay continuous
    eps = 1e-7
    below = FourQubitFamily(0.6 - eps).coefficients()[4]
    above = FourQubitFamily(0.6 + eps).coefficients()[4]
    assert abs(below) <= 1e-3 and abs(above) <= 1e-3
    assert below > 0.0 >= -abs(above)


def test_family_eigenpair_matches_reduction():
    for p, phi in ((0.3, 0.0), (0.62, 1.1), (0.9, np.pi / 3)):
        fam = FourQubitFamily(p, phi)
        psi1, psi2 = fam.eigenpair()
        mix = reduced_mixture(p, phi)
        assert abs(abs(np.vdot(psi1.amplitudes, mix.psi1.amplitudes)) - 1.0) <= 1e-8
        assert abs(abs(np.vdot(psi2.amplitudes, mix.psi2.amplitudes)) - 1.0) <= 1e-8
        assert abs(mix.p - fam.q) <= 1e-10


def test_four_qubit_state_overlaps():
    ghz = four_qubit_state(1.0, 0.0)
    w4 = four_qubit_state(0.0, 0.0)
    assert abs(ghz.amplitudes[0] - 1.0 / np.sqrt(2.0)) <= 1e-12
    assert abs(abs(w4.amplitudes[1]) - 0.5) <= 1e-12
    mid = four_qubit_state(0.4, 0.9)
    assert abs(mid.norm() - 1.0) <= 1e-12


def test_reduced_mixture_weight_is_q():
    mix = reduced_mixture(0.5, 0.0)
    assert mix.p == pytest.approx((2.0 + np.sqrt(0.75)) / 4.0, abs=1e-10)


def test_reduced_mixture_small_p_limit():
    mix = reduced_mixture(1e-13, 0.0)
    w3 = make_w(3)
    assert abs(abs(np.vdot(mix.psi1.amplitudes, w3.amplitudes)) - 1.0) <= 1e-6


def test_simplex_scan_rejects_boundary_p():
    with pytest.raises(ValueError):
        simplex_scan(0.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        simplex_scan(0.0, np.array([0.5, 1.0]))
    rows = simplex_scan(0.0, np.array([0.3, 0.8]))
    assert len(rows) == 2 and rows[0].p == 0.3
    assert simplex_scan(0.0, []) == []


def _pencil_vertices(p, phi):
    """Bloch points of the four pencil roots of the family pair at one p."""
    v1, v2 = _family_eigenvectors(np.array([p]), phi)
    roots, _ = pencil.finite_roots(pencil._pencils(v1, v2))
    return bloch_from_z(roots)[0]


def test_pencil_vertices_on_sphere_and_planar():
    pts = _pencil_vertices(0.9, 0.0)
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-8)
    assert np.all(np.abs(pts[:, 1]) <= 1e-8)
    tilted = _pencil_vertices(0.9, 0.7)
    assert np.abs(tilted[:, 1]).max() > 1e-3


PINNED_SWEEP = [True] * 22 + [False] * 21 + [True] * 21


def test_interior_zero_sweep_and_threshold_are_pinned():
    flags = [has_interior_volume_zero(phi) for phi in np.linspace(0.0, np.pi / 2, 64, endpoint=False)]
    assert flags == PINNED_SWEEP
    assert phi_threshold_bisect() == 0.5234375


@pytest.mark.parametrize("n_coarse", [151, 301, 1201])
def test_interior_zero_sweep_holds_on_coarser_and_finer_grids(n_coarse, monkeypatch):
    monkeypatch.setattr(scenarios, "COARSE_GRID", n_coarse)
    flags = [has_interior_volume_zero(phi) for phi in np.linspace(0.0, np.pi / 2, 64, endpoint=False)]
    assert flags == PINNED_SWEEP
    assert phi_threshold_bisect() == 0.5234375


# Verdicts of the root tracking that the invariant rule replaced (1201-point
# grid, matched Bloch vertices, sign changes of the signed simplex volume).
# Phases at and near multiples of pi/2 give a real or nearly real pencil.
_TRACKED_VERDICTS = [
    (phi, True)
    for phi in (
        1e-12, 1e-9, 1e-6, 1e-4, 1e-2, np.pi / 2 - 1e-6, np.pi / 2, np.pi, 3 * np.pi / 2,
        -0.3, 2.0, 3.0, 0.52, 0.5234375 + 1e-6,
    )
] + [(phi, False) for phi in (np.pi / 4 - 1e-6, np.pi / 6, 0.53)]


@pytest.mark.parametrize("phi, flag", _TRACKED_VERDICTS)
def test_interior_zero_verdicts_match_the_root_tracking(phi, flag):
    assert has_interior_volume_zero(phi) is flag


def test_j_invariant_equals_that_of_the_root_cross_ratio():
    rng = np.random.default_rng(2121)
    c = rng.normal(size=(400, 5)) + 1j * rng.normal(size=(400, 5))
    roots, n_inf = pencil.finite_roots(c)
    assert not n_inf.any()
    z1, z2, z3, z4 = roots.T
    lam = (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))
    j_roots = 256.0 * (lam * lam - lam + 1.0) ** 3 / (lam * lam * (lam - 1.0) ** 2)
    i, _, d = _quartic_invariants(c)
    np.testing.assert_allclose(1728.0 * i**3 / d, j_roots, rtol=1e-8)


@pytest.fixture
def threshold_at_half(monkeypatch):
    """A cheap interior-zero flag that flips at phi = 0.5 and stops a bisection
    that no longer shrinks its bracket, rather than letting it run on."""
    calls = []

    def below_half(phi):
        calls.append(phi)
        if len(calls) > 200:
            raise RuntimeError("the bracket stopped shrinking")
        return phi < 0.5

    monkeypatch.setattr(scenarios, "has_interior_volume_zero", below_half)


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_threshold_bisect_ends_at_one_ulp(tol, threshold_at_half):
    phi = phi_threshold_bisect(0.40, 0.60, tol)
    assert np.nextafter(0.5, 0.0) <= phi <= np.nextafter(0.5, 1.0)


@pytest.mark.parametrize(
    "lo, hi, tol",
    [
        (0.4, 0.6, 0.0),
        (0.4, 0.6, np.nan),
        (0.4, 0.6, -1.0),
        (0.4, 0.6, np.inf),
        (0.6, 0.4, 0.005),
        (0.5, 0.5, 0.005),
        (np.nan, 0.6, 0.005),
        (0.4, np.inf, 0.005),
    ],
)
def test_threshold_bisect_rejects_a_bad_bracket_or_tol(lo, hi, tol, threshold_at_half):
    with pytest.raises(ValueError, match="finite"):
        phi_threshold_bisect(lo, hi, tol)


@pytest.mark.parametrize("phi", [0.0, np.pi / 4])
def test_interior_zero_search_batches_each_grid(phi, monkeypatch):
    # one _pencils batch on every pencil of the grid, whatever its size, and
    # no tangle rows
    batches, tangle_rows = [], []
    pencils, tau3_many = scenarios._pencils, _kernels.tau3_many

    def counted_pencils(amps1, amps2):
        batches.append(amps1.shape)
        return pencils(amps1, amps2)

    def counted_tau3(amps):
        tangle_rows.append(len(amps))
        return tau3_many(amps)

    monkeypatch.setattr(scenarios, "_pencils", counted_pencils)
    monkeypatch.setattr(_kernels, "tau3_many", counted_tau3)
    for n_coarse in (151, 301, 1201):
        monkeypatch.setattr(scenarios, "COARSE_GRID", n_coarse)
        batches.clear()
        has_interior_volume_zero(phi)
        assert batches == [(n_coarse, 8)]
    assert tangle_rows == []


def test_scan_row_fields():
    # volume degrades to polygon area when the polytope is flat
    row, = simplex_scan(0.0, [0.85])
    assert row.dimension == 2
    assert row.interval is not None
    lo, hi = row.interval
    assert 0.0 <= lo < hi <= 1.0
    assert row.volume > 0.0
    row3, = simplex_scan(np.pi / 4, [0.5])
    assert row3.dimension == 3
    assert row3.volume > 1e-6


def test_monogamy_residual_identity_and_symmetry():
    rep = monogamy_report(0.63, 0.4)
    total = rep.one_tangle
    parts = sum(rep.pairwise) + sum(rep.three_tangle_bounds)
    assert rep.residual == pytest.approx(total - parts, abs=1e-15)
    assert max(rep.pairwise) - min(rep.pairwise) <= 1e-10
    assert max(rep.three_tangle_bounds) - min(rep.three_tangle_bounds) <= 1e-10
    state = four_qubit_state(0.63, 0.4)
    assert rep.one_tangle == pytest.approx(one_tangle(state, 0), abs=1e-12)


def _monogamy_reference(p, phi):
    """One monogamy point from the scalar functions, reduction by reduction."""
    psi4 = four_qubit_state(p, phi)
    pairwise = tuple(wootters_concurrence(partial_trace(psi4, (0, j))) ** 2 for j in (1, 2, 3))
    triples = []
    for keep in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        mix = rank_two_eigendecomposition(partial_trace(psi4, keep))
        geom = None if mix.degenerate_rank else span_geometry(mix)
        bound = c3(mix.psi1) if geom is None else float(linearized_upper_bound(geom)(mix.p))
        triples.append(bound ** 2)
    return (p, phi, one_tangle(psi4, 0), pairwise, tuple(triples))


def _scan_reference(p, phi):
    geom = span_geometry(reduced_mixture(p, phi))
    iv = geom.interval
    pair = None if iv is None else (iv.p_low, iv.p_high)
    return (p, geom.polytope.volume, geom.polytope.dimension, pair)


# p = 1 is GHZ4, whose reductions carry the degenerate pair ordered by the
# lexicographic swap; p = 0 is W4
@pytest.mark.parametrize("phi", [0.0, 0.4, np.pi / 4])
def test_batched_scans_equal_batches_of_one(phi):
    ps = np.concatenate([np.linspace(0.0, 1.0, 23), [1e-13, 0.6, 0.722, 1.0 - 1e-9]])
    curve = monogamy_curve(ps, phi)
    for p, rep in zip(ps.tolist(), curve):
        alone = monogamy_report(p, phi)
        fields = (rep.p, rep.phi, rep.one_tangle, rep.pairwise, rep.three_tangle_bounds)
        assert fields == (
            alone.p, alone.phi, alone.one_tangle, alone.pairwise, alone.three_tangle_bounds
        )
        assert fields == _monogamy_reference(p, phi)
        assert rep.residual == alone.residual
    inner = ps[(ps > 0.0) & (ps < 1.0)]
    for p, row in zip(inner.tolist(), simplex_scan(phi, inner)):
        alone, = simplex_scan(phi, [p])
        fields = (row.p, row.volume, row.dimension, row.interval)
        assert fields == (alone.p, alone.volume, alone.dimension, alone.interval)
        assert fields == _scan_reference(p, phi)


def test_monogamy_curve_takes_one_phase_per_point():
    ps = np.array([0.0, 0.3, 0.3, 1.0])
    phis = np.array([0.0, 0.0, 0.9, 0.9])
    for rep, p, phi in zip(monogamy_curve(ps, phis), ps, phis):
        assert (rep.p, rep.phi) == (p, phi)
        assert rep.pairwise == monogamy_report(p, phi).pairwise
    assert monogamy_curve([]) == []


def _stacked_scan_reference(phi, ps):
    """simplex_scan rows as (p, volume, dimension, interval), built from the
    per-span objects of span_geometries and one _polytope_measures call on
    their padded vertices."""
    v1, v2, _, _ = _rank_two_eigenpairs(_partial_traces(_family_states(ps, phi), 4, (0, 1, 2)))
    geoms = span_geometries(v1, v2)
    polytopes = [geom.polytope for geom in geoms if not geom.identically_zero]
    rank, volume = _polytope_measures(
        np.array([pencil._padded(poly.vertices) for poly in polytopes]).reshape(-1, 4, 3),
        np.array([poly.n_vertices for poly in polytopes], dtype=np.intp),
    )
    measures = zip(volume.tolist(), rank.tolist())
    rows = []
    for p, geom in zip(ps.tolist(), geoms):
        if geom.identically_zero:
            rows.append((p, 0.0, 0, (0.0, 1.0)))
            continue
        iv = geom.interval
        rows.append((p, *next(measures), None if iv is None else (iv.p_low, iv.p_high)))
    return rows


def _typed(row):
    return [(value, type(value)) for value in row[:3]] + [
        None if row[3] is None else [(value, type(value)) for value in row[3]]
    ]


@pytest.mark.parametrize("phi", [0.0, 0.4, np.pi / 4])
def test_simplex_scan_reads_the_span_stack(phi, monkeypatch):
    ps = np.linspace(0.0, 1.0, 101)[1:-1]
    want = [_typed(row) for row in _stacked_scan_reference(phi, ps)]

    def refuse(*args, **kwargs):
        raise AssertionError("simplex_scan built a per-span object")

    monkeypatch.setattr(pencil._RootTables, "zero_set", refuse)
    monkeypatch.setattr(pencil, "PureState", refuse)
    monkeypatch.setattr(bounds, "ZeroPolytope", refuse)
    monkeypatch.setattr(bounds, "_interval", refuse)
    rows = simplex_scan(phi, ps)
    assert [_typed((r.p, r.volume, r.dimension, r.interval)) for r in rows] == want


@pytest.mark.parametrize(
    "call",
    [
        lambda: has_interior_volume_zero(np.nan),
        lambda: FourQubitFamily(0.5, np.nan).eigenpair(),
        lambda: simplex_scan(np.inf, [0.5]),
        lambda: monogamy_curve([0.5], np.inf),
    ],
)
def test_non_finite_phases_raise_a_clear_error(call):
    # the tier-1 configuration turns RuntimeWarning into an error, so a
    # warning before the check would fail this test too
    with pytest.raises(ValueError, match="phi must be finite"):
        call()


def test_linearized_c3_of_a_rank_one_reduction_is_c3_of_v1():
    # row 0 is a rank-one reduction: its bound is c3 of the pure v1, bit for
    # bit, whatever v2 and q hold; row 1 is the toy span's linearized bound
    rng = np.random.default_rng(12)
    pure = rng.normal(size=8) + 1j * rng.normal(size=8)
    pure /= np.linalg.norm(pure)
    toy1, toy2 = toy_states()
    v1 = np.array([pure, toy1.amplitudes])
    v2 = np.array([np.zeros(8, dtype=complex), toy2.amplitudes])
    q = np.array([0.3, 0.4])
    out = scenarios._linearized_c3(v1, v2, q, np.array([True, False]))
    assert out[0] == c3(PureState(3, pure)) and out[0] > 0.0
    mix = RankTwoMixture(toy1, toy2, 0.5)
    assert out[1] == float(linearized_upper_bound(span_geometry(mix))(0.4))


def test_weight_coincidence_of_disjoint_witness_faces_is_nan():
    lo = IntervalWitness((0,), [1.0])
    hi = IntervalWitness((1, 2), [0.5, 0.5])
    assert np.isnan(scenarios._witness_weight_coincidence(AxisInterval(0.2, 0.7, lo, hi)))
    # a shared vertex reads the difference of its two weights
    hi = IntervalWitness((0, 2), [0.25, 0.75])
    assert scenarios._witness_weight_coincidence(AxisInterval(0.2, 0.7, lo, hi)) == 0.75
