"""Bloch-ball geometry of a rank-two span: polytopes, axis intervals, rays.

The extended pencil parameter z maps onto the unit sphere via
(x, y, z) = (2 Re z, 2 Im z, 1 - |z|^2) / (1 + |z|^2), with the point at
infinity at the south pole. The mixture rho(p) sits on the vertical axis at
(0, 0, 2p - 1). Zero-tangle vertices span a polytope; every density matrix
inside it has convex-roof tangle exactly zero, so intersecting the polytope
with the axis yields the exact zero interval in p.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
# np.linalg.lstsq is this gufunc restricted to one 2-D system
from numpy.linalg._umath_linalg import lstsq as _lstsq

from .pencil import ZeroSet
from .states import PureState, RankTwoMixture, _row_norms

__all__ = [
    "bloch_from_z",
    "axis_point",
    "ZeroPolytope",
    "IntervalWitness",
    "AxisInterval",
    "build_polytope",
    "axis_zero_interval",
    "state_from_bloch",
]

AFFINE_RANK_TOL = 1e-8
ON_AXIS_TOL = 1e-9
FACE_RESIDUAL_TOL = 1e-9
WEIGHT_TOL = 1e-9

_SOUTH_POLE = np.array([0.0, 0.0, -1.0])
_AXIS_RHS = np.array([[1.0], [0.0], [0.0]])


def bloch_from_z(z) -> np.ndarray:
    """Unit Bloch vectors of pencil parameters z, shape z.shape + (3,).

    None and non-finite entries stand for the point at infinity, which maps
    to the south pole.
    """
    if z is None:
        return _SOUTH_POLE.copy()
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    z = np.where(finite, z, 0.0)
    mod2 = np.abs(z) ** 2
    pts = np.empty(z.shape + (3,))
    pts[..., 0] = 2.0 * z.real
    pts[..., 1] = 2.0 * z.imag
    pts[..., 2] = 1.0 - mod2
    pts /= (1.0 + mod2)[..., None]
    pts[~finite] = _SOUTH_POLE
    return pts


def axis_point(p: float) -> np.ndarray:
    """Bloch point (0, 0, 2p - 1) of the mixture at weight p."""
    return np.array([0.0, 0.0, 2.0 * float(p) - 1.0])


# vertex subsets of size 1, 2 and 3 of a polytope with k vertices, one
# (count, size) index array per size in lexicographic order; taken in that
# order they list the faces by size, then by index
FACES = {
    k: tuple(
        np.array(list(combinations(range(k), size)), dtype=np.intp).reshape(-1, size)
        for size in (1, 2, 3)
    )
    for k in range(1, 5)
}
# (size position, row, face) of every face of FACES[k] in that order
_FACE_ORDER = {
    k: [
        (pos, row, tuple(face))
        for pos, table in enumerate(t for t in tables if t.shape[0])
        for row, face in enumerate(table.tolist())
    ]
    for k, tables in FACES.items()
}


@dataclass(frozen=True, eq=False)
class ZeroPolytope:
    """Convex hull data of the zero-tangle Bloch points.

    Vertex j is the Bloch point of row j of the span's ZeroSet, whose
    states, axis coordinates and multiplicities belong to it. The faces
    tested against the axis are the vertex subsets of size 1 to 3 in
    ``FACES[n_vertices]``.
    """

    vertices: np.ndarray
    dimension: int
    volume: float

    def __post_init__(self):
        v = np.asarray(self.vertices)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class IntervalWitness:
    """Face indices and barycentric weights realizing an axis point."""

    face: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "face", tuple(int(i) for i in self.face))
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class AxisInterval:
    """Exact zero interval [p_low, p_high] with endpoint witnesses."""

    p_low: float
    p_high: float
    witness_low: IntervalWitness
    witness_high: IntervalWitness


def _affine_frames(vertices: np.ndarray):
    """Centre, singular values, right singular vectors and affine rank of
    each (k, 3) point set of an (M, k, 3) stack, from one SVD call."""
    center = vertices.mean(axis=1)
    sv, vt = np.linalg.svd(vertices - center[:, None, :], full_matrices=True)[1:]
    return center, sv, vt, (sv > AFFINE_RANK_TOL).sum(axis=1)


def _solves_triangles(dims: np.ndarray, center: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Whether the 3-vertex faces of each polytope count for its axis
    interval, from its affine dimension and frame: solid polytopes, and
    flat ones whose plane misses the axis."""
    out = dims == 3
    flat = np.flatnonzero(dims == 2)
    if flat.size:
        normal, center = vt[flat, 2], center[flat]
        out[flat] = (np.abs(normal[:, 2]) > AFFINE_RANK_TOL) | (
            np.abs((normal * center).sum(axis=1)) > AFFINE_RANK_TOL
        )
    return out


def _polygon_areas(vertices: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Areas of (M, k, 3) planar point sets in the planes of vt[:, :2]."""
    uv = (vertices - vertices.mean(axis=1)[:, None, :]) @ vt[:, :2].swapaxes(1, 2)
    order = np.argsort(np.arctan2(uv[..., 1], uv[..., 0]), axis=1)
    u = np.take_along_axis(uv, order[..., None], axis=1)
    x, y = u[..., 0], u[..., 1]
    shoelace = 0.5 * np.abs(
        np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    )
    tri = FACES[vertices.shape[1]][2]
    e1 = uv[:, tri[:, 1]] - uv[:, tri[:, 0]]
    e2 = uv[:, tri[:, 2]] - uv[:, tri[:, 0]]
    t = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    # angle-sorted shoelace undercounts when one point lies inside the hull
    return np.maximum(shoelace, np.max(t, axis=1, initial=0.0))


def _by_vertex_count(counts):
    """(k, indices) of the items with each vertex count k, in item order."""
    counts = np.asarray(counts)
    return [(k, np.flatnonzero(counts == k)) for k in sorted(set(counts.tolist()))]


def _polytopes(zero_sets):
    """Zero polytope of each zero set, and whether each solves triangles
    for its axis interval (the input of _axis_intervals); sets with equal
    vertex counts share one SVD, one determinant and one polygon-area
    pass."""
    counts = [zeros.z.shape[0] for zeros in zero_sets]
    if 0 in counts:
        raise ValueError("empty zero set has no polytope")
    out: list = [None] * len(zero_sets)
    triangles = np.zeros(len(zero_sets), dtype=bool)
    if not zero_sets:
        return out, triangles
    points = bloch_from_z(np.concatenate([zeros.z for zeros in zero_sets]))
    starts = np.cumsum([0] + counts)
    for k, idx in _by_vertex_count(counts):
        v = points[starts[idx, None] + np.arange(k)]
        center, _, vt, rank = _affine_frames(v)
        triangles[idx] = _solves_triangles(rank, center, vt)
        volume = np.zeros(idx.size)
        solid, flat = rank == 3, rank == 2
        if solid.any():
            volume[solid] = np.abs(np.linalg.det(v[solid, 1:] - v[solid, :1])) / 6.0
        if flat.any():
            volume[flat] = _polygon_areas(v[flat], vt[flat])
        for j, i in enumerate(idx.tolist()):
            out[i] = ZeroPolytope(v[j], int(rank[j]), float(volume[j]))
    return out, triangles


def build_polytope(zeros: ZeroSet) -> ZeroPolytope:
    """Vertices, affine dimension, and volume of the zero polytope."""
    return _polytopes([zeros])[0][0]


def _face_solves(sub: np.ndarray):
    """Convex weights putting each face of an (..., m, 3) stack on the axis.

    Solves [1; x; y] w = [1; 0; 0] in the least-squares, minimum-norm sense
    with the LAPACK routine and default cutoff eps * max(3, m) of
    np.linalg.lstsq, whose gufunc takes the whole stack, so each face gets
    the bits of its own lstsq call. Returns the clipped, normalized weights
    and the mask of faces whose residual is at most FACE_RESIDUAL_TOL and
    whose weights are at least -WEIGHT_TOL.
    """
    m = sub.shape[-2]
    a = np.empty(sub.shape[:-2] + (3, m))
    a[..., 0, :] = 1.0
    a[..., 1:, :] = sub[..., :2].swapaxes(-1, -2)
    with np.errstate(all="ignore"):
        w = _lstsq(a, _AXIS_RHS, np.finfo(float).eps * max(3, m), signature="ddd->ddid")[0][..., 0]
    r = a @ w[..., None]
    r[..., 0, 0] -= 1.0
    residual = np.sqrt((r * r).sum(axis=(-2, -1)))
    ok = (residual <= FACE_RESIDUAL_TOL) & (w.min(axis=-1) >= -WEIGHT_TOL)
    w = np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = w / w.sum(axis=-1, keepdims=True)
    return w, ok


def _axis_intervals(polytopes, triangles) -> list:
    """Axis zero interval of each polytope (None where it misses the axis).

    ``triangles`` tells per polytope whether its 3-vertex faces count
    (_solves_triangles, as _polytopes returns it). Polytopes with equal
    vertex counts are stacked, and every face size is solved for all of
    them at once: vertices on the axis, then pairs, then triples (see
    axis_zero_interval for which faces count).
    """
    out: list = [None] * len(polytopes)
    triangles = np.asarray(triangles, dtype=bool)
    for k, idx in _by_vertex_count([poly.n_vertices for poly in polytopes]):
        v = np.array([polytopes[i].vertices for i in idx])
        use_triangles = triangles[idx]
        ps, hits, weights = [], [], []
        for size, table in enumerate(FACES[k], start=1):
            if table.shape[0] == 0:
                continue
            sub = v[:, table]  # (M, F, size, 3)
            if size == 1:
                w = np.ones(sub.shape[:-1])
                ok = np.hypot(sub[..., 0, 0], sub[..., 0, 1]) <= ON_AXIS_TOL
                t = sub[..., 0, 2]
            else:
                w, ok = _face_solves(sub)
                if size == 3:
                    ok &= use_triangles[:, None]
                # a BLAS dot, as w @ z of one face
                t = (w[..., None, :] @ sub[..., 2:])[..., 0, 0]
            ps.append(np.clip(0.5 * (1.0 + t), 0.0, 1.0))
            hits.append(ok)
            weights.append(w)
        p, hit = np.concatenate(ps, axis=1), np.concatenate(hits, axis=1)
        p_low = np.where(hit, p, np.inf).min(axis=1)
        p_high = np.where(hit, p, -np.inf).max(axis=1)
        # the witness is the first face, by size then index, within 1e-12
        # of the extreme
        f_low = np.argmax(hit & (np.abs(p - p_low[:, None]) <= 1e-12), axis=1)
        f_high = np.argmax(hit & (np.abs(p - p_high[:, None]) <= 1e-12), axis=1)
        faces = _FACE_ORDER[k]
        for j, i in enumerate(idx.tolist()):
            if not hit[j].any():
                continue
            (s_lo, r_lo, face_lo), (s_hi, r_hi, face_hi) = faces[f_low[j]], faces[f_high[j]]
            out[i] = AxisInterval(
                float(p_low[j]),
                float(p_high[j]),
                IntervalWitness(face_lo, weights[s_lo][j, r_lo]),
                IntervalWitness(face_hi, weights[s_hi][j, r_hi]),
            )
    return out


def axis_zero_interval(polytope: ZeroPolytope) -> Optional[AxisInterval]:
    """Intersection of the polytope with the mixing axis, or None.

    Enumerates faces (vertex subsets of size 1 to 3) and solves for
    convex weights putting the combination on the axis. When the polytope
    is flat and its plane contains the axis, 3-vertex faces are rank
    deficient, and the boundary edges and vertices already delimit the
    in-plane clip, so only subsets of size 1 and 2 are used there.
    """
    center, _, vt, _ = _affine_frames(polytope.vertices[None])
    triangles = _solves_triangles(np.array([polytope.dimension]), center, vt)
    return _axis_intervals([polytope], triangles)[0]


def _axis_exits(anchors: np.ndarray, heights: np.ndarray):
    """Sphere crossings of rays from each anchor through each axis point.

    anchors is (n_a, 3) and heights (n_t,); the ray from an anchor a
    through the axis point (0, 0, h) exits the sphere at the boundary point
    _axis_boundary(a, h, s), with (0, 0, h) = lam * boundary + (1 - lam) * a.
    Returns lam and s = 1/lam - 1, each (n_t, n_a). lam solves
    |a + ((0, 0, h) - a)/lam|^2 = 1 in (0, 1] in a subtraction-free form
    that stays stable for anchors on the sphere. With the ray direction
    d = (-a_x, -a_y, h - a_z), the dot products need only the per-anchor
    constants a_x^2 + a_y^2 and a_z; written out in the order of numpy's sum
    over the three components of d, they keep its bits. Pairs with
    anchor == target get lam = nan.
    """
    ax, ay, az = anchors[:, 0], anchors[:, 1], anchors[:, 2]
    r2 = ax * ax + ay * ay
    # in place, which keeps the bits: dd = r2 + dz^2, c = az dz - r2,
    # disc = c^2 + (1 - |a|^2) dd and denom = sqrt(max(disc, 0)) - c
    dz = heights[:, None] - az
    dd = dz * dz
    dd += r2
    c = az * dz
    c -= r2
    disc = c * c
    disc += (1.0 - (r2 + az * az)) * dd
    denom = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    denom -= c
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = dd / denom
        lam[(dd <= 0) | (denom <= 0)] = np.nan
        s = 1.0 / lam
    s -= 1.0
    return lam, s


def _axis_boundary(anchors: np.ndarray, heights, s) -> np.ndarray:
    """Boundary points target + (target - anchor) * s of axis rays.

    anchors (..., 3), heights and s broadcast against anchors[..., 0]; the
    target is (0, 0, h), so a ray with s = 0 (lam = 1) ends exactly on it.
    """
    heights = np.asarray(heights, dtype=float)
    target = np.zeros(np.broadcast_shapes(heights.shape, np.shape(anchors)[:-1]) + (3,))
    target[..., 2] = heights
    return target + (target - anchors) * np.asarray(s)[..., None]


def _span_coordinates(points: np.ndarray):
    """Unit-norm coefficients (a1, a2) of the span states a1 psi1 + a2 psi2 at
    Bloch points on the sphere, each of shape points.shape[:-1].

    The pair is the half-angle form (1 + z, x + iy) on the northern
    hemisphere and (x - iy, 1 - z) on the southern one; both are
    proportional to (cos(theta/2), e^{i phi} sin(theta/2)) up to a global
    phase and avoid the cancellation of sqrt(1 - (1 + z)/2) near the poles.
    """
    points = np.asarray(points, dtype=float)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    north = z >= 0.0
    a1 = np.where(north, 1.0 + z, x - 1j * y)
    a2 = np.where(north, x + 1j * y, 1.0 - z)
    norm = np.sqrt(np.abs(a1) ** 2 + np.abs(a2) ** 2)
    with np.errstate(invalid="ignore"):  # nan points (rays with no crossing)
        return a1 / norm, a2 / norm


def _span_amplitudes(mix: RankTwoMixture, points: np.ndarray) -> np.ndarray:
    """Normalized amplitudes of the span states at an (N, 3) stack of Bloch
    points on the unit sphere, shape (N, 2^n); rows of nan points stay nan.

    Each row is a1 psi1 + a2 psi2 over its _row_norms norm, so it has the
    same bits alone or in a stack.
    """
    a1, a2 = _span_coordinates(points)
    amps = a1[:, None] * mix.psi1.amplitudes + a2[:, None] * mix.psi2.amplitudes
    with np.errstate(invalid="ignore"):
        return amps / _row_norms(amps)[:, None]


def state_from_bloch(mix: RankTwoMixture, point: np.ndarray) -> PureState:
    """Normalized pure state of the span at a Bloch point on the unit sphere,
    as _span_amplitudes of a stack of one."""
    point = np.asarray(point, dtype=float).reshape(1, 3)
    return PureState(mix.psi1.n_qubits, _span_amplitudes(mix, point)[0])
