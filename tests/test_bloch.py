import numpy as np
import pytest

from tangleroof.bloch import (
    _sphere_exit_many,
    axis_point,
    axis_zero_interval,
    barycentric_weights,
    bloch_from_root,
    bloch_from_z,
    build_polytope,
    ray_extend,
    state_from_bloch,
)
from tangleroof.invariants import c3
from tangleroof.pencil import ExtendedRoot, zero_set
from tangleroof.scenarios import reduced_mixture, toy_mixture
from tangleroof.states import inner_product


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
    assert np.allclose(bloch_from_root(ExtendedRoot(None)), [0.0, 0.0, -1.0])


def test_axis_point_endpoints():
    np.testing.assert_allclose(axis_point(1.0), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(axis_point(0.0), [0.0, 0.0, -1.0])
    np.testing.assert_allclose(axis_point(0.5), [0.0, 0.0, 0.0])


def test_build_polytope_toy_shape():
    poly = build_polytope(zero_set(toy_mixture()))
    assert poly.n_vertices == 4
    assert poly.dimension == 3
    assert poly.volume > 0.1
    assert len(poly.faces) == 4 + 6 + 4
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


def test_barycentric_weights_roundtrip():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = np.array([0.2, 0.3, 0.5])
    target = w @ tri
    got = barycentric_weights(target, tri)
    np.testing.assert_allclose(got, w, atol=1e-12)
    with pytest.raises(ValueError):
        barycentric_weights(np.array([2.0, 2.0, 0.0]), tri)


def test_ray_extend_reaches_sphere():
    boundary, lam = ray_extend(np.zeros(3), np.array([0.0, 0.0, 0.5]))
    assert abs(lam - 0.5) <= 1e-12
    np.testing.assert_allclose(boundary, [0.0, 0.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(47)
    for _ in range(10):
        anchor = rng.normal(size=3) * 0.3
        target = rng.normal(size=3) * 0.3
        if np.linalg.norm(target - anchor) < 1e-3:
            continue
        boundary, lam = ray_extend(anchor, target)
        assert abs(np.linalg.norm(boundary) - 1.0) <= 1e-10
        np.testing.assert_allclose(
            lam * boundary + (1.0 - lam) * anchor, target, atol=1e-10
        )
        assert 0.0 < lam <= 1.0


def test_ray_extend_unit_lambda_on_sphere_target():
    boundary, lam = ray_extend(np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert abs(lam - 1.0) <= 1e-12
    np.testing.assert_allclose(boundary, [0.0, 1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        ray_extend(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        ray_extend(np.zeros(3), np.zeros(3))


def _sphere_exit_reference(anchors, targets):
    """_sphere_exit_many with its dot products as np.sum over the length-3 axis."""
    d = targets[:, None, :] - anchors[None, :, :]
    dd = np.sum(d * d, axis=2)
    c = np.sum(anchors[None, :, :] * d, axis=2)
    disc = c * c + (1.0 - np.sum(anchors * anchors, axis=1))[None, :] * dd
    denom = np.sqrt(np.clip(disc, 0.0, None)) - c
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where((dd > 0) & (denom > 0), dd / denom, np.nan)
        boundary = targets[:, None, :] + d * (1.0 / lam - 1.0)[:, :, None]
    return boundary, lam


def test_sphere_exit_many_equals_the_axis_sum_form():
    rng = np.random.default_rng(71)
    inner = rng.normal(size=(40, 3))
    inner *= rng.uniform(0.0, 1.0, (40, 1)) / np.linalg.norm(inner, axis=1, keepdims=True)
    surface = rng.normal(size=(10, 3))
    surface /= np.linalg.norm(surface, axis=1, keepdims=True)
    on_sphere = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]
    )
    anchors = np.vstack([inner, surface, on_sphere[:2], np.zeros((1, 3))])
    # interior targets, axis targets, one target equal to each kind of anchor,
    # and targets on the sphere
    axis = np.column_stack([np.zeros(21), np.zeros(21), np.linspace(-0.9, 0.9, 21)])
    targets = np.vstack([inner[:20] * 0.7, axis, inner[:1], surface[:1], on_sphere])
    boundary, lam = _sphere_exit_many(anchors, targets)
    ref_boundary, ref_lam = _sphere_exit_reference(anchors, targets)
    np.testing.assert_array_equal(lam, ref_lam)
    np.testing.assert_array_equal(boundary, ref_boundary)
    assert np.isnan(lam[41, 0]) and np.isnan(lam[42, 40])
    # targets on the sphere: lam is 1 from the centre, 1 to rounding from
    # any other interior anchor
    assert np.all(lam[-5:, -1] == 1.0)
    assert np.all(np.abs(lam[-5:, :40] - 1.0) <= 4.0 * np.finfo(float).eps)
    finite = np.isfinite(lam)
    assert np.all((lam[finite] > 0.0) & (lam[finite] <= 1.0 + 1e-15))


def test_state_from_bloch_poles_and_vertices():
    mix = toy_mixture()
    north = state_from_bloch(mix, np.array([0.0, 0.0, 1.0]))
    south = state_from_bloch(mix, np.array([0.0, 0.0, -1.0]))
    assert abs(abs(inner_product(north, mix.psi1)) - 1.0) <= 1e-12
    assert abs(abs(inner_product(south, mix.psi2)) - 1.0) <= 1e-12
    zs = zero_set(mix)
    poly = build_polytope(zs)
    for vertex, state in zip(poly.vertices, poly.states):
        rebuilt = state_from_bloch(mix, vertex)
        assert abs(abs(inner_product(rebuilt, state)) - 1.0) <= 1e-10
        assert c3(rebuilt) <= 1e-6
