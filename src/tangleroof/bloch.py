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
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .pencil import ZeroSet, _padded
from .states import PureState, RankTwoMixture, _read_only, _row_norms

__all__ = [
    "bloch_from_z",
    "ZeroPolytope",
    "IntervalWitness",
    "AxisInterval",
    "build_polytope",
    "axis_zero_interval",
    "state_from_bloch",
]

AFFINE_RANK_TOL = 1e-8
# relative floor of the xy orientations that decide the axis faces (axis_zero_interval)
ORIENTATION_TOL = 1e-9
# state_from_bloch's bound on | |point| - 1 |, far above the package's own rounding
ON_SPHERE_TOL = 1e-9

_SOUTH_POLE = np.array([0.0, 0.0, -1.0])


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


# vertex subsets of size 1, 2 and 3 of four vertices, one (count, size)
# index array per size in lexicographic order; taken in that order they list
# the faces by size, then by index. A set of k < 4 vertices is padded to four
# by repeating its last one (pencil._padded), and its own faces come first
FACES = tuple(np.array(list(combinations(range(4), size)), dtype=np.intp) for size in (1, 2, 3))


# FACES as one table in that order: the vertex indices of each face
# zero-padded to 3 columns, and the face sizes
_FACE_TABLE = tuple(map(_read_only, (
    np.array([f + [0] * (3 - len(f)) for t in FACES for f in t.tolist()], dtype=np.intp),
    np.repeat(np.arange(1, 4), [t.shape[0] for t in FACES]),
)))
# quarter-step barycentric weights inside a face of each size, padded to 3
# columns: the vertex itself, three points of an edge, three of a triangle
_QUARTERS = {1: [[4, 0, 0]], 2: [[1, 3, 0], [2, 2, 0], [3, 1, 0]], 3: [[1, 1, 2], [1, 2, 1], [2, 1, 1]]}
# the anchor grid: the _QUARTERS points of each face of _FACE_TABLE in turn,
# as (faces, weights, sizes) padded like it; the rows whose faces lie within
# the first k vertices are the grid of a k-vertex polytope
ANCHOR_GRID = tuple(map(_read_only, (
    np.repeat(_FACE_TABLE[0], np.where(_FACE_TABLE[1] == 1, 1, 3), axis=0),
    np.concatenate([_QUARTERS[size] for size in _FACE_TABLE[1].tolist()]) / 4.0,
    np.repeat(_FACE_TABLE[1], np.where(_FACE_TABLE[1] == 1, 1, 3)),
)))


@dataclass(frozen=True, eq=False)
class ZeroPolytope:
    """Convex hull of the zero-tangle Bloch points, held as its vertices.

    Vertex j is the Bloch point of row j of the span's ZeroSet, whose
    states, axis coordinates and multiplicities belong to it. The faces
    tested against the axis are the vertex subsets of size 1 to 3 in
    ``FACES`` that lie within its ``n_vertices`` vertices. Its affine
    ``dimension`` and ``volume`` are computed on first read, from one
    _polytope_measures call on a stack of one, and kept; the bounds never
    read them.
    """

    vertices: np.ndarray

    def __post_init__(self):
        # its own copy, so the caller's array stays writable
        object.__setattr__(self, "vertices", _read_only(np.array(self.vertices, dtype=float)))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def _measures(self) -> tuple:
        rank, volume = _polytope_measures(_padded(self.vertices)[None], np.array([self.n_vertices]))
        return int(rank[0]), float(volume[0])

    @property
    def dimension(self) -> int:
        """Affine rank of the vertices, at AFFINE_RANK_TOL."""
        return self._measures[0]

    @property
    def volume(self) -> float:
        """Volume of a solid polytope, area of a flat one, 0 below rank 2."""
        return self._measures[1]


@dataclass(frozen=True, eq=False)
class IntervalWitness:
    """Face indices and barycentric weights realizing an axis point."""

    face: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "face", tuple(int(i) for i in self.face))
        # its own copy, so the caller's array stays writable
        object.__setattr__(self, "weights", _read_only(np.array(self.weights, dtype=float)))


@dataclass(frozen=True, eq=False)
class AxisInterval:
    """Exact zero interval [p_low, p_high] with endpoint witnesses."""

    p_low: float
    p_high: float
    witness_low: IntervalWitness
    witness_high: IntervalWitness


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D orientations a_x b_y - b_x a_y of (..., 2) stacks."""
    return a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1]


def _polygon_areas(centered: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Areas of (M, 4, 3) centred planar point sets in the planes of vt[:, :2]."""
    uv = centered @ vt[:, :2].swapaxes(1, 2)
    order = np.argsort(np.arctan2(uv[..., 1], uv[..., 0]), axis=1)
    u = np.take_along_axis(uv, order[..., None], axis=1)
    shoelace = 0.5 * np.abs(np.sum(_cross(u, np.roll(u, -1, axis=1)), axis=1))
    tri = FACES[2]
    e1 = uv[:, tri[:, 1]] - uv[:, tri[:, 0]]
    e2 = uv[:, tri[:, 2]] - uv[:, tri[:, 0]]
    t = 0.5 * np.abs(_cross(e1, e2))
    # angle-sorted shoelace undercounts when one point lies inside the hull
    return np.maximum(shoelace, np.max(t, axis=1))


def _polytope_measures(vertices: np.ndarray, count: np.ndarray):
    """Affine rank and volume of each padded (4, 3) vertex set of an
    (M, 4, 3) stack with count distinct vertices each (pencil._padded), as
    (M,) arrays: the volume of a solid set, the area of a flat one and 0
    below rank 2. One SVD of the sets, each centred on the mean of its
    distinct vertices, gives the ranks; one determinant pass the volumes
    and one polygon-area pass the areas.
    """
    distinct = (np.arange(4) < count[:, None])[..., None]
    centered = vertices - (np.where(distinct, vertices, 0.0).sum(axis=1) / count[:, None])[:, None, :]
    sv, vt = np.linalg.svd(centered, full_matrices=True)[1:]
    rank = (sv > AFFINE_RANK_TOL).sum(axis=1)
    volume = np.where(rank == 3, np.abs(np.linalg.det(vertices[:, 1:] - vertices[:, :1])) / 6.0, 0.0)
    flat = rank == 2
    if flat.any():
        volume[flat] = _polygon_areas(centered[flat], vt[flat])
    return rank, volume


def build_polytope(zeros: ZeroSet) -> ZeroPolytope:
    """Zero polytope of a zero set: the Bloch points of its roots."""
    return ZeroPolytope(bloch_from_z(zeros.z))


# the cells, flattened to 4 i + j, of a row's 4 x 4 (i, j) tables that the
# faces read: each edge (i, j) its own, then each triangle (i, j, k) those of
# (j, k), (k, i) and (i, j), the pairs of its three orientations
_FACE_CELLS = _read_only(np.concatenate([
    FACES[1] @ [4, 1],
    (FACES[2][:, [1, 2, 0]] * 4 + FACES[2][:, [2, 0, 1]]).ravel(),
]))
_EDGES = FACES[1].shape[0]


def _axis_intervals(vertices: np.ndarray):
    """Axis zero interval of each polytope of an (M, 4, 3) stack of padded
    vertex sets, as arrays: ends (M, 2), the (p_low, p_high) of each row,
    nan where it misses the axis; witness (M, 2), the _FACE_TABLE row of
    the face of each end; and weights (M, 2, 3), that face's barycentric
    weights padded with zeros.

    Every face of the stack is decided at once from the orientation signs
    that axis_zero_interval describes; the columns of the pass are the rows
    of _FACE_TABLE. Each row's xy projections P give one 4 x 4 table of the
    orientations c(P_i, P_j), the dot products P_i . P_j and the floors
    (ORIENTATION_TOL |P_i|) |P_j|, and _FACE_CELLS gathers every edge's and
    triangle's entries from it. The barycentric weights of the faces that
    hit, padded to 3 columns, give every axis height in one weighted-z
    product. A face through a padding vertex either repeats an earlier face
    bit for bit or holds one vertex twice, and then never hits (P . P >= 0
    on an edge; orientations 0, c and -c, summing to exactly 0, on a
    triangle), so every witness lies within the real vertices.
    """
    faces, sizes = _FACE_TABLE
    m = vertices.shape[0]
    x, y = vertices[:, :, 0, None], vertices[:, :, 1, None]
    norm = np.hypot(x, y)
    # the (i, j) tables of each row: c(P_i, P_j) = x_i y_j - x_j y_i,
    # P_i . P_j = x_i x_j + y_i y_j and (ORIENTATION_TOL |P_i|) |P_j|
    tables = np.empty((3, m, 4, 4))
    xy = x * y.swapaxes(1, 2)
    np.subtract(xy, xy.swapaxes(1, 2), out=tables[0])
    np.multiply(x, x.swapaxes(1, 2), out=tables[1])
    tables[1] += y * y.swapaxes(1, 2)
    np.multiply(ORIENTATION_TOL * norm, norm.swapaxes(1, 2), out=tables[2])
    cross, dot, floor = tables.reshape(3, m, 16)[:, :, _FACE_CELLS]
    norm = norm[..., 0]
    # the columns of the vertices, the edges and the triangles
    hit = np.empty((m, sizes.shape[0]), dtype=bool)
    np.less_equal(norm, ORIENTATION_TOL, out=hit[:, :4])
    np.logical_and(
        np.abs(cross[:, :_EDGES]) <= floor[:, :_EDGES], dot[:, :_EDGES] < 0.0, out=hit[:, 4 : 4 + _EDGES]
    )
    # num / den of each face's weights, for the faces beyond the vertices:
    # (|P_j|, |P_i|) / (|P_i| + |P_j|) on an edge, o / sum(o) on a triangle
    num = np.zeros((m, sizes.shape[0] - 4, 3))
    num[:, :_EDGES, :2] = norm[:, faces[4 : 4 + _EDGES, 1::-1]]
    o = num[:, _EDGES:]
    np.copyto(o, cross[:, _EDGES:].reshape(o.shape))
    o[np.abs(o) <= floor[:, _EDGES:].reshape(o.shape)] = 0.0
    den = num.sum(axis=2)
    np.logical_and(
        (o >= 0.0).all(axis=2) | (o <= 0.0).all(axis=2), den[:, _EDGES:] != 0.0, out=hit[:, 4 + _EDGES :]
    )
    weights = np.zeros((m, sizes.shape[0], 3))
    weights[:, :4, 0] = 1.0
    np.divide(num, den[..., None], out=weights[:, 4:], where=hit[:, 4:, None])
    # a BLAS dot per face, as w @ z of one face
    t = (weights[:, :, None, :] @ vertices[:, faces, 2:])[..., 0, 0]
    p = np.minimum(np.maximum(0.5 * (1.0 + t), 0.0), 1.0)
    ends = np.empty((m, 2))
    np.min(np.where(hit, p, np.inf), axis=1, out=ends[:, 0])
    np.max(np.where(hit, p, -np.inf), axis=1, out=ends[:, 1])
    # the witness is the first face, by size then index, within 1e-12 of the
    # extreme
    witness = np.argmax(hit[:, None] & (np.abs(p[:, None] - ends[..., None]) <= 1e-12), axis=2)
    ends[~hit.any(axis=1)] = np.nan
    return ends, witness, weights[np.arange(m)[:, None], witness]


def _interval(ends: np.ndarray, witness: np.ndarray, weights: np.ndarray) -> Optional[AxisInterval]:
    """AxisInterval of one row of the _axis_intervals arrays, or None."""
    if np.isnan(ends[0]):
        return None
    faces, sizes = _FACE_TABLE
    low, high = (IntervalWitness(faces[f, : sizes[f]], w[: sizes[f]]) for f, w in zip(witness, weights))
    return AxisInterval(float(ends[0]), float(ends[1]), low, high)


def axis_zero_interval(polytope: ZeroPolytope) -> Optional[AxisInterval]:
    """Intersection of the polytope with the mixing axis, or None.

    A face (vertex subset of size 1 to 3) meets the axis when the origin
    lies in the hull of its xy projections P. With c(a, b) = a_x b_y - b_x a_y
    taken as zero at or below ORIENTATION_TOL |a| |b|: a vertex hits when
    |P_i| <= ORIENTATION_TOL; an edge when c(P_i, P_j) = 0 and P_i . P_j < 0,
    with weights (|P_j|, |P_i|) / (|P_i| + |P_j|); a triangle when
    (c(P_j, P_k), c(P_k, P_i), c(P_i, P_j)) share a sign and have a nonzero
    sum, with weights those orientations over their sum. A zero-area
    triangle, as in a flat polytope whose plane holds the axis, is skipped.
    """
    return _interval(*(a[0] for a in _axis_intervals(_padded(polytope.vertices)[None])))


def _axis_exits(anchors: np.ndarray, heights: np.ndarray, out):
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

    ``out`` is a pair (planes, mask) of six (n_t, n_a) float planes and an
    (n_t, n_a) bool array that every (n_t, n_a) temporary is written into
    (the pivot pass passes its per-thread planes); lam and s are
    planes[4] and planes[5], planes[0] holds dz = h - a_z on return, and
    the other planes and the mask are scratch.
    """
    (dz, dd, c, disc, lam, s), mask = out
    ax, ay, az = anchors[:, 0], anchors[:, 1], anchors[:, 2]
    r2 = ax * ax + ay * ay
    # dd = r2 + dz^2, c = az dz - r2, disc = c^2 + (1 - |a|^2) dd and
    # denom = sqrt(max(disc, 0)) - c, each written into its plane
    np.subtract(heights[:, None], az, out=dz)
    np.multiply(dz, dz, out=dd)
    dd += r2
    np.multiply(az, dz, out=c)
    c -= r2
    np.multiply(c, c, out=disc)
    disc += np.multiply(1.0 - (r2 + az * az), dd, out=lam)
    denom = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    denom -= c
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(dd, denom, out=lam)
        np.copyto(lam, np.nan, where=np.less_equal(dd, 0.0, out=mask))
        np.copyto(lam, np.nan, where=np.less_equal(denom, 0.0, out=mask))
        np.divide(1.0, lam, out=s)
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
    as _span_amplitudes of a stack of one. Raises ValueError for a point
    farther than ON_SPHERE_TOL from the sphere."""
    point = np.asarray(point, dtype=float).reshape(1, 3)
    if not abs(float(np.linalg.norm(point)) - 1.0) <= ON_SPHERE_TOL:
        raise ValueError(f"Bloch point {point[0].tolist()} is off the unit sphere")
    return PureState(mix.psi1.n_qubits, _span_amplitudes(mix, point)[0])
