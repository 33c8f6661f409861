import numpy as np
import pytest

from tangleroof.bloch import (
    FACES,
    _axis_boundary,
    _axis_exits,
    _face_solves,
    _polytopes,
    axis_point,
    axis_zero_interval,
    bloch_from_z,
    build_polytope,
    state_from_bloch,
)
from tangleroof._kernels import tau3_many
from tangleroof.bounds import span_geometries
from tangleroof.invariants import c3
from tangleroof.pencil import zero_set
from tangleroof.scenarios import reduced_mixture, toy_mixture
from tangleroof.states import PureState, RankTwoMixture, inner_product, make_ghz, make_w


def test_bloch_from_z_reference_points():
    np.testing.assert_allclose(bloch_from_z(0.0), [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(bloch_from_z(None), [0.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(bloch_from_z(1.0), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(bloch_from_z(1.0j), [0.0, 1.0, 0.0], atol=1e-15)


def test_bloch_points_lie_on_unit_sphere():
    rng = np.random.default_rng(41)
    for _ in range(20):
        z = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
        assert abs(np.linalg.norm(bloch_from_z(z)) - 1.0) <= 1e-12
    # a root table's z for the root at infinity
    assert np.allclose(bloch_from_z(np.array([np.inf], dtype=complex)), [[0.0, 0.0, -1.0]])


def test_axis_point_endpoints():
    np.testing.assert_allclose(axis_point(1.0), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(axis_point(0.0), [0.0, 0.0, -1.0])
    np.testing.assert_allclose(axis_point(0.5), [0.0, 0.0, 0.0])


def test_build_polytope_toy_shape():
    poly = build_polytope(zero_set(toy_mixture()))
    assert poly.n_vertices == 4
    assert poly.dimension == 3
    assert poly.volume > 0.1
    assert [len(table) for table in FACES[poly.n_vertices]] == [4, 6, 4]
    norms = np.linalg.norm(poly.vertices, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_axis_interval_toy_witnesses_mix_to_axis():
    poly = build_polytope(zero_set(toy_mixture()))
    iv = axis_zero_interval(poly)
    assert iv is not None and 0.0 < iv.p_low < iv.p_high < 1.0
    for p, wit in ((iv.p_low, iv.witness_low), (iv.p_high, iv.witness_high)):
        point = np.zeros(3)
        for idx, w in zip(wit.face, wit.weights):
            point += w * poly.vertices[idx]
        np.testing.assert_allclose(point, axis_point(p), atol=1e-9)
        assert abs(float(np.sum(wit.weights)) - 1.0) <= 1e-12
        assert np.all(wit.weights >= 0.0)


def test_axis_interval_planar_case_uses_small_faces():
    # four real pencil roots put every vertex in the xz-plane with the axis
    geomix = reduced_mixture(0.85, 0.0)
    poly = build_polytope(zero_set(geomix))
    assert poly.dimension == 2
    iv = axis_zero_interval(poly)
    assert iv is not None
    assert len(iv.witness_low.face) <= 2
    assert len(iv.witness_high.face) <= 2


def _axis_ray(anchor, h):
    """(boundary, lam) of the ray from one anchor through the axis point (0, 0, h)."""
    anchor = np.asarray(anchor, dtype=float)
    lam, s = _axis_exits(anchor[None, :], np.array([h]))
    return _axis_boundary(anchor, h, s[0, 0]), float(lam[0, 0])


def test_axis_exit_reaches_sphere():
    boundary, lam = _axis_ray(np.zeros(3), 0.5)
    assert abs(lam - 0.5) <= 1e-12
    np.testing.assert_allclose(boundary, [0.0, 0.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(47)
    for _ in range(10):
        anchor = rng.normal(size=3) * 0.3
        target = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
        if np.linalg.norm(target - anchor) < 1e-3:
            continue
        boundary, lam = _axis_ray(anchor, target[2])
        assert abs(np.linalg.norm(boundary) - 1.0) <= 1e-10
        np.testing.assert_allclose(
            lam * boundary + (1.0 - lam) * anchor, target, atol=1e-10
        )
        assert 0.0 < lam <= 1.0


def test_axis_exit_unit_lambda_on_sphere_target():
    for h in (1.0, -1.0):
        boundary, lam = _axis_ray(np.zeros(3), h)
        assert lam == 1.0
        np.testing.assert_array_equal(boundary, [0.0, 0.0, h])
    # an anchor equal to the target has no ray
    assert np.isnan(_axis_ray(np.array([0.0, 0.0, 0.3]), 0.3)[1])
    assert np.isnan(_axis_ray(np.zeros(3), 0.0)[1])


def _sphere_exit_reference(anchors, targets):
    """Sphere exits of the rays from each anchor through each target, with
    the dot products as np.sum over the length-3 axis: boundary
    (n_t, n_a, 3) and lam (n_t, n_a), lam = nan where anchor == target."""
    d = targets[:, None, :] - anchors[None, :, :]
    dd = np.sum(d * d, axis=2)
    c = np.sum(anchors[None, :, :] * d, axis=2)
    disc = c * c + (1.0 - np.sum(anchors * anchors, axis=1))[None, :] * dd
    denom = np.sqrt(np.clip(disc, 0.0, None)) - c
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where((dd > 0) & (denom > 0), dd / denom, np.nan)
        boundary = targets[:, None, :] + d * (1.0 / lam - 1.0)[:, :, None]
    return boundary, lam


def test_axis_exits_equal_the_axis_sum_form():
    rng = np.random.default_rng(71)
    inner = rng.normal(size=(40, 3))
    inner *= rng.uniform(0.0, 1.0, (40, 1)) / np.linalg.norm(inner, axis=1, keepdims=True)
    surface = rng.normal(size=(10, 3))
    surface /= np.linalg.norm(surface, axis=1, keepdims=True)
    on_sphere = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]
    )
    on_axis = np.array([[0.0, 0.0, 0.25], [0.0, 0.0, -0.6]])
    anchors = np.vstack([inner, surface, on_sphere, on_axis, np.zeros((1, 3))])
    # heights inside the ball, the heights of the on-axis anchors, and the
    # two poles on the sphere
    heights = np.concatenate([np.linspace(-0.9, 0.9, 21), rng.uniform(-1.0, 1.0, 20),
                              [0.25, -0.6, -1.0, 1.0]])
    targets = np.column_stack([np.zeros_like(heights), np.zeros_like(heights), heights])
    lam, s = _axis_exits(anchors, heights)
    boundary = _axis_boundary(anchors[None, :, :], heights[:, None], s)
    ref_boundary, ref_lam = _sphere_exit_reference(anchors, targets)
    np.testing.assert_array_equal(lam, ref_lam)
    np.testing.assert_array_equal(boundary, ref_boundary)
    # anchors equal to a target: the on-axis anchors and the two poles
    assert np.isnan(lam[41, 55]) and np.isnan(lam[42, 56])
    assert np.isnan(lam[43, 52]) and np.isnan(lam[44, 53])
    assert np.count_nonzero(np.isnan(lam)) == 4
    # targets on the sphere: lam is 1 from the centre, 1 to rounding from
    # any other interior anchor
    assert np.all(lam[-2:, -1] == 1.0)
    assert np.all(np.abs(lam[-2:, :40] - 1.0) <= 4.0 * np.finfo(float).eps)
    finite = np.isfinite(lam)
    assert np.all((lam[finite] > 0.0) & (lam[finite] <= 1.0 + 1e-15))
    np.testing.assert_allclose(np.linalg.norm(boundary[finite], axis=1), 1.0, atol=1e-10)


def test_state_from_bloch_poles_and_vertices():
    mix = toy_mixture()
    north = state_from_bloch(mix, np.array([0.0, 0.0, 1.0]))
    south = state_from_bloch(mix, np.array([0.0, 0.0, -1.0]))
    assert abs(abs(inner_product(north, mix.psi1)) - 1.0) <= 1e-12
    assert abs(abs(inner_product(south, mix.psi2)) - 1.0) <= 1e-12
    zs = zero_set(mix)
    poly = build_polytope(zs)
    for vertex, state in zip(poly.vertices, zs.states):
        rebuilt = state_from_bloch(mix, vertex)
        assert abs(abs(inner_product(rebuilt, state)) - 1.0) <= 1e-10
        assert c3(rebuilt) <= 1e-6


@pytest.mark.parametrize("point", [[0.0, 0.0, 0.0], [0.0, 0.0, 5.0], [0.6, 0.0, 0.8 + 2e-9], [np.nan, 0.0, 1.0]])
def test_state_from_bloch_rejects_points_off_the_sphere(point):
    # the centre read psi1 exactly, and (0, 0, 5) some normalized state
    with pytest.raises(ValueError, match="off the unit sphere"):
        state_from_bloch(toy_mixture(), np.array(point))
    # a point a rounding error off the sphere is on it
    state_from_bloch(toy_mixture(), np.array([0.6, 0.0, 0.8 + 1e-12]))


def test_root_table_invariants(benchmark_inputs):
    # the toy pair, GHZ3/W3, |000>/|111>, the identically zero |000>/|001>,
    # and seeded Haar and real pairs (real ones with double roots)
    pairs = benchmark_inputs.pair_set(1) + benchmark_inputs.pair_set(2)
    geoms = span_geometries(np.array([a for _, a, _ in pairs]), np.array([b for _, _, b in pairs]))
    tables = [g for g in geoms if g.zeros is not None]
    assert len(geoms) - len(tables) == 2  # |000>/|001> of either seed
    assert any((g.zeros.multiplicity > 1).any() for g in tables)
    for geom in tables:
        zeros, vertices = geom.zeros, geom.polytope.vertices
        assert zeros.multiplicity.sum() == 4 and len(zeros.states) == len(zeros.z)
        assert np.array_equal(vertices, bloch_from_z(zeros.z))
        np.testing.assert_allclose(zeros.p0, (1.0 + vertices[:, 2]) / 2.0, rtol=0.0, atol=1e-15)
        # bitwise the per-root scalar formulas on Python complex numbers
        roots = [z if np.isfinite(z) else None for z in zeros.z.tolist()]
        assert zeros.p0.tolist() == [0.0 if z is None else 1.0 / (1.0 + abs(z) ** 2) for z in roots]
        assert zeros.phases.tolist() == [0.0 if z is None else float(np.angle(z)) for z in roots]
        tau = tau3_many(np.array([s.amplitudes for s in zeros.states]))
        assert np.abs(tau).max() <= 1e-12


def _lstsq_axis_interval(poly):
    """(p_low, p_high, witness_low, witness_high) by one lstsq call per face.

    The per-face reference the stacked solves replace: faces of size 1 to 3
    in size-then-index order, triangles only when the polytope is solid or
    its plane misses the axis, residual and weight floors of 1e-9, and the
    first face within 1e-12 of each extreme as its witness.
    """
    v = poly.vertices
    center = v.mean(axis=0)
    _, sv, vt = np.linalg.svd(v - center, full_matrices=True)
    contains_axis = poly.dimension <= 1 or (
        abs(vt[2, 2]) <= 1e-8 and abs(vt[2] @ center) <= 1e-8
    )
    use_triangles = poly.dimension == 3 or (poly.dimension == 2 and not contains_axis)
    hits = []
    for table in FACES[poly.n_vertices]:
        for face in map(tuple, table.tolist()):
            sub = v[list(face)]
            if len(face) == 1:
                if np.hypot(sub[0, 0], sub[0, 1]) > 1e-9:
                    continue
                w = np.array([1.0])
            else:
                if len(face) == 3 and not use_triangles:
                    continue
                a = np.vstack([np.ones(len(face)), sub[:, 0], sub[:, 1]])
                b = np.array([1.0, 0.0, 0.0])
                w = np.linalg.lstsq(a, b, rcond=None)[0]
                if np.linalg.norm(a @ w - b) > 1e-9 or np.min(w) < -1e-9:
                    continue
                w = np.clip(w, 0.0, None)
                w = w / w.sum()
            hits.append((min(max(0.5 * (1.0 + float(w @ sub[:, 2])), 0.0), 1.0), face, w))
    if not hits:
        return None
    lo = min(h[0] for h in hits)
    hi = max(h[0] for h in hits)
    first = lambda target: next(h for h in hits if abs(h[0] - target) <= 1e-12)
    return lo, hi, first(lo), first(hi)


def _interval_zero_sets():
    rng = np.random.default_rng(101)
    pairs = []
    for real in (False,) * 12 + (True,) * 24:
        g = rng.standard_normal((8, 2))
        if not real:
            g = g + 1j * rng.standard_normal((8, 2))
        q = np.linalg.qr(g)[0].astype(complex)
        pairs.append((PureState(3, q[:, 0]), PureState(3, q[:, 1])))
    # the first 12 real pairs again with a relative phase: their polytopes
    # turn about the axis, and the flat ones lie in vertical planes through
    # it at a generic azimuth, where every triangle is singular only up to
    # rounding
    for a, b in pairs[12:24]:
        phase = np.exp(1j * rng.uniform(0.2, 1.4))
        pairs.append((a, PureState(3, phase * b.amplitudes)))
    ket000, ket111 = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    ket000[0] = ket111[7] = 1.0
    pairs.append((PureState(3, ket000), PureState(3, ket111)))
    pairs.append((make_ghz(3), make_w(3)))
    return [zero_set(RankTwoMixture(a, b, 0.5)) for a, b in pairs]


def _interval_cases():
    return [build_polytope(zs) for zs in _interval_zero_sets()]


def test_stacked_axis_interval_matches_per_face_lstsq():
    polytopes = _interval_cases()
    flat_on_axis = 0
    for poly in polytopes:
        iv = axis_zero_interval(poly)
        ref = _lstsq_axis_interval(poly)
        assert (iv is None) == (ref is None)
        if iv is None:
            continue
        flat_on_axis += poly.dimension == 2 and len(ref[2][1]) <= 2 and len(ref[3][1]) <= 2
        # the stacked solves run lstsq's own LAPACK routine: equal bits
        assert (iv.p_low, iv.p_high) == ref[:2]
        for wit, (_, face, w) in ((iv.witness_low, ref[2]), (iv.witness_high, ref[3])):
            assert wit.face == face
            assert np.array_equal(wit.weights, w)
    assert flat_on_axis > 0
    # a relative phase turns a real pair's polytope about the axis and
    # leaves its interval in place
    turned_flat = 0
    for real, phased in zip(polytopes[12:24], polytopes[36:48]):
        a, b = axis_zero_interval(real), axis_zero_interval(phased)
        turned_flat += phased.dimension == 2
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a.p_low - b.p_low) <= 1e-12 and abs(a.p_high - b.p_high) <= 1e-12
    assert turned_flat > 0
    # |000>/|111>: double roots at both poles, the whole axis
    iv = axis_zero_interval(polytopes[-2])
    assert polytopes[-2].n_vertices == 2
    assert (iv.p_low, iv.p_high) == (0.0, 1.0)
    assert (iv.witness_low.face, iv.witness_high.face) == ((1,), (0,))
    # GHZ3/W3: one root at infinity, the south pole
    assert polytopes[-1].vertices[-1].tolist() == [0.0, 0.0, -1.0]
    # a stack of zero sets with mixed vertex counts gives each its own
    # polytope and interval, from the one stacked pass
    stacked_polytopes, stacked = _polytopes(_interval_zero_sets())
    for poly, stacked_poly, iv in zip(polytopes, stacked_polytopes, stacked):
        assert np.array_equal(stacked_poly.vertices, poly.vertices)
        alone = axis_zero_interval(poly)
        assert (iv is None) == (alone is None)
        if iv is not None:
            assert (iv.p_low, iv.p_high) == (alone.p_low, alone.p_high)
            assert iv.witness_low.face == alone.witness_low.face
            assert np.array_equal(iv.witness_high.weights, alone.witness_high.weights)


def test_face_solve_cuts_rounding_level_singular_values():
    # three points of a vertical great circle through the axis: the face
    # matrix [1; x; y] has rank two up to a relative singular value of
    # 1.6e-16, which the cutoff drops; solved without the cutoff, the
    # weights turn negative and the face misses the axis
    sub = np.array([
        [0.13701499910014775, 0.863858997791803, -0.4847417064331563],
        [-0.033339044290432614, -0.2101976687020873, -0.9770902968497887],
        [-0.15371527482114983, -0.969151728820811, 0.19265653586185877],
    ])
    w, ok = _face_solves(sub[None])
    assert ok.tolist() == [True]
    a = np.vstack([np.ones(3), sub[:, 0], sub[:, 1]])
    ref = np.linalg.lstsq(a, np.array([1.0, 0.0, 0.0]), rcond=None)[0]
    assert ref.min() > 0.0
    assert np.array_equal(w[0], ref / ref.sum())
    np.testing.assert_allclose(w[0] @ sub[:, :2], 0.0, atol=1e-15)
