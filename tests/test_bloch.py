import numpy as np
import pytest

import tangleroof.bloch as bloch
from tangleroof.bloch import (
    FACES,
    ORIENTATION_TOL,
    ZeroPolytope,
    _axis_boundary,
    _axis_exits,
    _axis_intervals,
    _interval,
    _polytope_measures,
    axis_zero_interval,
    bloch_from_z,
    build_polytope,
    state_from_bloch,
)
from tangleroof._kernels import tau3_many
from tangleroof.bounds import default_anchors, span_geometries, upper_bound_report
from tangleroof.invariants import c3
from tangleroof.pencil import _padded, zero_set
from tangleroof.scenarios import _family_states, reduced_mixture, toy_mixture
from tangleroof.states import (
    PureState,
    RankTwoMixture,
    _partial_traces,
    _rank_two_eigenpairs,
    inner_product,
    make_ghz,
    make_w,
)


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


def test_build_polytope_toy_shape():
    poly = build_polytope(zero_set(toy_mixture()))
    assert poly.n_vertices == 4
    assert poly.dimension == 3
    assert poly.volume > 0.1
    # the one face table is that of four vertices
    assert [len(table) for table in FACES] == [4, 6, 4]
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
        np.testing.assert_allclose(point, [0.0, 0.0, 2.0 * p - 1.0], atol=1e-9)
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


def _exit_planes(n_t, n_a):
    """The (planes, mask) scratch that _axis_exits writes into."""
    return np.empty((6, n_t, n_a)), np.empty((n_t, n_a), dtype=bool)


def _axis_ray(anchor, h):
    """(boundary, lam) of the ray from one anchor through the axis point (0, 0, h)."""
    anchor = np.asarray(anchor, dtype=float)
    lam, s = _axis_exits(anchor[None, :], np.array([h]), _exit_planes(1, 1))
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
    lam, s = _axis_exits(anchors, heights, _exit_planes(heights.shape[0], anchors.shape[0]))
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

    The independent per-face reference of the stacked orientation pass:
    faces of size 1 to 3 in size-then-index order, triangles only when the
    polytope is solid or its plane misses the axis, residual and weight
    floors of 1e-9, and the first face within 1e-12 of each extreme as its
    witness.
    """
    v = poly.vertices
    center = v.mean(axis=0)
    _, sv, vt = np.linalg.svd(v - center, full_matrices=True)
    contains_axis = poly.dimension <= 1 or (
        abs(vt[2, 2]) <= 1e-8 and abs(vt[2] @ center) <= 1e-8
    )
    use_triangles = poly.dimension == 3 or (poly.dimension == 2 and not contains_axis)
    hits = []
    for table in FACES:
        # the faces of the table that lie within the polytope's vertices
        for face in (f for f in map(tuple, table.tolist()) if max(f) < poly.n_vertices):
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


def _cross(a, b):
    return a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1]


def _per_size_axis_intervals(vertices, tables=FACES):
    """_axis_intervals by one orientation pass per face size: the reference
    of the one-table pass.

    ``tables`` are the (count, size) vertex-index arrays of the faces of
    sizes 1, 2 and 3; the columns of the pass, which the witnesses index,
    are their rows in that order. Each size gathers the xy projections of
    its faces and decides them on its own, with the rules of
    axis_zero_interval.
    """
    columns = sum(table.shape[0] for table in tables)
    p = np.empty((vertices.shape[0], columns))
    hit = np.zeros(p.shape, dtype=bool)
    weights = np.zeros(p.shape + (3,))
    stop = 0
    for size, table in enumerate(tables, start=1):
        cols = slice(stop, stop + table.shape[0])
        stop = cols.stop
        xy = vertices[:, table, :2]  # (M, F, size, 2)
        norm = np.hypot(xy[..., 0], xy[..., 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            if size == 1:
                w = np.ones(norm.shape)
                ok = norm[..., 0] <= ORIENTATION_TOL
            elif size == 2:
                a, b = xy[..., 0, :], xy[..., 1, :]
                collinear = np.abs(_cross(a, b)) <= ORIENTATION_TOL * norm[..., 0] * norm[..., 1]
                ok = collinear & ((a * b).sum(axis=-1) < 0.0)
                w = norm[..., ::-1] / norm.sum(axis=-1, keepdims=True)
            else:
                nxt, prv = [1, 2, 0], [2, 0, 1]
                o = _cross(xy[..., nxt, :], xy[..., prv, :])
                o[np.abs(o) <= ORIENTATION_TOL * norm[..., nxt] * norm[..., prv]] = 0.0
                total = o.sum(axis=-1)
                ok = ((o >= 0.0).all(axis=-1) | (o <= 0.0).all(axis=-1)) & (total != 0.0)
                w = o / total[..., None]
        t = (w[..., None, :] @ vertices[:, table, 2:])[..., 0, 0]
        p[:, cols] = np.clip(0.5 * (1.0 + t), 0.0, 1.0)
        hit[:, cols] = ok
        weights[:, cols, :size] = w
    ends = np.stack([np.where(hit, p, np.inf).min(axis=1), np.where(hit, p, -np.inf).max(axis=1)], axis=1)
    witness = np.argmax(hit[:, None] & (np.abs(p[:, None] - ends[..., None]) <= 1e-12), axis=2)
    ends[~hit.any(axis=1)] = np.nan
    return ends, witness, np.take_along_axis(weights, witness[..., None], axis=1)


def _padded_vertices(polytopes):
    """The (M, 4, 3) stack of the polytopes' vertices, each padded to four."""
    return np.array([_padded(poly.vertices) for poly in polytopes])


def _four_qubit_polytopes():
    """Zero polytopes of the reduced four-qubit mixtures on a (phi, p) grid,
    solid and flat ones, as the scans build them."""
    ps = np.linspace(0.01, 0.99, 99)
    out = []
    for phi in (0.0, 0.3, np.pi / 4, 1.0):
        v1, v2, _, _ = _rank_two_eigenpairs(_partial_traces(_family_states(ps, phi), 4, (0, 1, 2)))
        out += [geom.polytope for geom in span_geometries(v1, v2) if geom.polytope is not None]
    return out


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
    ket = np.eye(8, dtype=complex)
    pairs.append((PureState(3, ket[0]), PureState(3, ket[7])))
    pairs.append((make_ghz(3), make_w(3)))
    # |111> with (|010> - |101>)/sqrt(2): one quadruple root at 0; and
    # (-|000> - |011> - |101> + |110>)/2 with -|010>: the roots -1 and 1
    # and a double root at infinity
    pairs.append((PureState(3, ket[7]), PureState(3, (ket[2] - ket[5]) / np.sqrt(2.0))))
    pairs.append((PureState(3, (-ket[0] - ket[3] - ket[5] + ket[6]) / 2.0), PureState(3, -ket[2])))
    return [zero_set(RankTwoMixture(a, b, 0.5)) for a, b in pairs]


def _interval_cases():
    return [build_polytope(zs) for zs in _interval_zero_sets()]


def _assert_matches_lstsq(poly):
    """The interval of poly has the existence and witness faces of the
    lstsq reference, and its endpoints and weights within 1e-14."""
    iv, ref = axis_zero_interval(poly), _lstsq_axis_interval(poly)
    assert (iv is None) == (ref is None)
    if iv is None:
        return ref
    assert abs(iv.p_low - ref[0]) <= 1e-14 and abs(iv.p_high - ref[1]) <= 1e-14
    for wit, (_, face, w) in ((iv.witness_low, ref[2]), (iv.witness_high, ref[3])):
        assert wit.face == face
        np.testing.assert_allclose(wit.weights, w, rtol=0.0, atol=1e-14)
    return ref


def test_stacked_axis_interval_matches_per_face_lstsq(benchmark_inputs):
    polytopes = _interval_cases()
    pairs = benchmark_inputs.pair_set(1)
    geoms = span_geometries(np.array([a for _, a, _ in pairs]), np.array([b for _, _, b in pairs]))
    flat_on_axis = 0
    for poly in polytopes + [g.polytope for g in geoms if g.zeros is not None]:
        ref = _assert_matches_lstsq(poly)
        if ref is not None and poly.dimension == 2:
            flat_on_axis += len(ref[2][1]) <= 2 and len(ref[3][1]) <= 2
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
    iv = axis_zero_interval(polytopes[48])
    assert polytopes[48].n_vertices == 2
    assert (iv.p_low, iv.p_high) == (0.0, 1.0)
    assert (iv.witness_low.face, iv.witness_high.face) == ((1,), (0,))
    # GHZ3/W3: one root at infinity, the south pole
    assert polytopes[49].vertices[-1].tolist() == [0.0, 0.0, -1.0]
    # one vertex, the north pole, and a flat triangle through the axis
    iv = axis_zero_interval(polytopes[50])
    assert polytopes[50].n_vertices == 1 and (iv.p_low, iv.p_high) == (1.0, 1.0)
    iv = axis_zero_interval(polytopes[51])
    assert (polytopes[51].n_vertices, polytopes[51].dimension) == (3, 2)
    assert polytopes[51].volume == pytest.approx(1.0, rel=1e-15)
    assert (iv.p_low, iv.p_high) == (0.0, 0.5)
    # a stack of zero sets with mixed vertex counts gives each its own
    # polytope and interval, from the one padded pass
    zero_sets = _interval_zero_sets()
    count = np.array([zs.z.shape[0] for zs in zero_sets])
    assert set(count.tolist()) == {1, 2, 3, 4}
    vertices = bloch_from_z(np.array([_padded(zs.z) for zs in zero_sets]))
    intervals = _axis_intervals(vertices)
    rank, volume = _polytope_measures(vertices, count)
    for j, (poly, k) in enumerate(zip(polytopes, count.tolist())):
        assert np.array_equal(vertices[j, :k], poly.vertices)
        assert (rank[j], volume[j]) == (poly.dimension, poly.volume)
        iv, alone = _interval(*(a[j] for a in intervals)), axis_zero_interval(poly)
        assert (iv is None) == (alone is None)
        if iv is not None:
            assert (iv.p_low, iv.p_high) == (alone.p_low, alone.p_high)
            assert (iv.witness_low.face, iv.witness_high.face) == (alone.witness_low.face, alone.witness_high.face)
            assert np.array_equal(iv.witness_low.weights, alone.witness_low.weights)
            assert np.array_equal(iv.witness_high.weights, alone.witness_high.weights)


def test_flat_triangle_through_the_axis_hits_by_its_edges():
    # three points of a vertical great circle through the axis: their xy
    # projections lie on one line through the origin up to rounding
    sub = np.array([
        [0.13701499910014775, 0.863858997791803, -0.4847417064331563],
        [-0.033339044290432614, -0.2101976687020873, -0.9770902968497887],
        [-0.15371527482114983, -0.969151728820811, 0.19265653586185877],
    ])
    # the triangle (0, 1, 2) alone is zero-area and skipped
    only_triangle = (np.zeros((0, 1), dtype=np.intp), np.zeros((0, 2), dtype=np.intp), FACES[2][:1])
    assert np.isnan(_per_size_axis_intervals(_padded(sub)[None], only_triangle)[0]).all()
    # with every face, the two edges that straddle the axis give the hits
    iv = axis_zero_interval(ZeroPolytope(sub))
    assert (iv.witness_low.face, iv.witness_high.face) == ((0, 1), (0, 2))
    ref = _lstsq_axis_interval(ZeroPolytope(sub))
    assert abs(iv.p_low - ref[0]) <= 1e-15 and abs(iv.p_high - ref[1]) <= 1e-15
    for wit in (iv.witness_low, iv.witness_high):
        np.testing.assert_allclose(wit.weights @ sub[list(wit.face), :2], 0.0, atol=1e-15)


def test_face_table_pass_equals_the_per_size_reference(benchmark_inputs, sparse_spans):
    # ends, witness faces and weights bit for bit: the benchmark pairs as
    # one stack and one by one, the sparse spans (1 to 4 vertices, many of
    # them flat) and the four-qubit grid
    pairs = benchmark_inputs.pair_set(1)
    geoms = span_geometries(np.array([a for _, a, _ in pairs]), np.array([b for _, _, b in pairs]))
    benchmark = _padded_vertices([geom.polytope for geom in geoms if geom.polytope is not None])
    stacks = [benchmark, _padded_vertices([geom.polytope for _, geom in sparse_spans])]
    stacks += [_padded_vertices(_four_qubit_polytopes())] + [row[None] for row in benchmark]
    sizes, misses = set(), 0
    for stack in stacks:
        got, want = _axis_intervals(stack), _per_size_axis_intervals(stack)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        hit = ~np.isnan(got[0][:, 0])
        sizes |= set(bloch._FACE_TABLE[1][got[1][hit]].ravel().tolist())
        misses += int(np.count_nonzero(~hit))
    # witnesses of every face size, and spans that miss the axis
    assert sizes == {1, 2, 3} and misses > 0


def test_polytope_measures_come_from_one_stacked_call(monkeypatch, sparse_spans):
    # dimension and volume on first read are those of the stacked call, bit
    # for bit, and are kept
    polytopes = _interval_cases() + [geom.polytope for _, geom in sparse_spans] + _four_qubit_polytopes()
    count = np.array([poly.n_vertices for poly in polytopes])
    rank, volume = _polytope_measures(_padded_vertices(polytopes), count)
    assert set(rank.tolist()) == {0, 1, 2, 3}
    assert [(poly.dimension, poly.volume) for poly in polytopes] == list(zip(rank.tolist(), volume.tolist()))
    monkeypatch.setattr(bloch, "_polytope_measures", None)
    assert [(poly.dimension, poly.volume) for poly in polytopes] == list(zip(rank.tolist(), volume.tolist()))


def test_reports_compute_no_polytope_measures(monkeypatch, benchmark_inputs):
    # the bounds read the vertices and the interval only; the measures are
    # computed when something reads them
    def refuse(vertices, count):
        raise AssertionError("polytope measures computed")

    monkeypatch.setattr(bloch, "_polytope_measures", refuse)
    for _, a, b in benchmark_inputs.pair_set(1):
        rep = upper_bound_report(RankTwoMixture(PureState(3, a), PureState(3, b), 0.5), 401)
        for p in benchmark_inputs.DECOMPOSITION_PS:
            rep.decomposition_at(p)
    with pytest.raises(AssertionError, match="measures computed"):
        rep.geometry.polytope.volume


def test_padding_never_leaks(sparse_spans):
    # every vertex set is padded to four by repeating its last vertex; no
    # witness or anchor may name a padding vertex
    spans = sparse_spans
    assert {geom.polytope.n_vertices for _, geom in spans} == {1, 2, 3, 4}
    for mix, geom in spans:
        k = geom.polytope.n_vertices
        if geom.interval is not None:
            assert max(geom.interval.witness_low.face + geom.interval.witness_high.face) < k
        assert default_anchors(geom).faces.max() < k


def test_anchor_tables_are_the_face_grid_within_the_vertices(sparse_spans):
    # 1, 5, 15 or 34 rows for 1 to 4 vertices: the ANCHOR_GRID rows whose
    # faces lie within the vertices, in table order, and no other row
    rows = {1: 1, 2: 5, 3: 15, 4: 34}
    for _, geom in sparse_spans:
        v = geom.polytope.vertices
        table = default_anchors(geom)
        assert len(table) == rows[v.shape[0]]
        within = bloch.ANCHOR_GRID[0].max(axis=1) < v.shape[0]
        for got, grid in zip((table.faces, table.weights, table.sizes), bloch.ANCHOR_GRID):
            assert np.array_equal(got, grid[within])
        for j in range(len(table)):
            assert np.array_equal(table.points[j], (table.weights[j][None] @ v[table.faces[j]])[0])


def _lstsq_mismatches(polytopes):
    """(existence, witness-face) disagreements with the lstsq reference."""
    exists = faces = 0
    for poly in polytopes:
        iv, ref = axis_zero_interval(poly), _lstsq_axis_interval(poly)
        if (iv is None) != (ref is None):
            exists += 1
        elif iv is not None:
            faces += (iv.witness_low.face, iv.witness_high.face) != (ref[2][1], ref[3][1])
    return exists, faces


def test_orientation_tolerance_is_needed(monkeypatch, sparse_spans):
    sparse = [geom.polytope for _, geom in sparse_spans]
    family = [
        build_polytope(zero_set(reduced_mixture(float(p), np.pi / 4)))
        for p in np.linspace(0.0, 1.0, 101)[1:-1]
    ]
    assert ORIENTATION_TOL == 1e-9
    assert _lstsq_mismatches(sparse) == (0, 0)
    assert _lstsq_mismatches(family) == (0, 0)
    # exact sign tests lose intervals of the sparse spans and move witnesses
    # of the family grid, whose flat and rounding-level faces need the floor
    monkeypatch.setattr(bloch, "ORIENTATION_TOL", 0.0)
    assert _lstsq_mismatches(sparse)[0] > 0
    assert _lstsq_mismatches(family)[1] > 0


def test_toy_interval_bits(toy_rep):
    iv = axis_zero_interval(build_polytope(zero_set(toy_mixture())))
    assert (iv.p_low, iv.p_high) == (0.11422953894573695, 0.6928852305271315)
    # p_low of the exact toy pencil, to 19 digits from a 50-digit mpmath solve
    assert abs(iv.p_low - 0.1142295389457369291) <= 2 * np.spacing(iv.p_low)
    # the high witness's two conjugate vertices mirror in y: their two
    # orientations, and so their weights, are bitwise equal
    assert iv.witness_high.face == (0, 2, 3)
    assert iv.witness_high.weights[1:].tolist() == [0.39881884862201866] * 2
    assert toy_rep.weight_coincidence <= 1.2e-16
