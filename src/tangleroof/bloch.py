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

from .pencil import ExtendedRoot, ZeroSet
from .states import PureState, RankTwoMixture

__all__ = [
    "bloch_from_z",
    "bloch_from_root",
    "axis_point",
    "ZeroPolytope",
    "IntervalWitness",
    "AxisInterval",
    "build_polytope",
    "axis_zero_interval",
    "barycentric_weights",
    "ray_extend",
    "state_from_bloch",
]

AFFINE_RANK_TOL = 1e-8
ON_AXIS_TOL = 1e-9
FACE_RESIDUAL_TOL = 1e-9
WEIGHT_TOL = 1e-9

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


def bloch_from_root(root: ExtendedRoot) -> np.ndarray:
    return bloch_from_z(root.z)


def axis_point(p: float) -> np.ndarray:
    """Bloch point (0, 0, 2p - 1) of the mixture at weight p."""
    return np.array([0.0, 0.0, 2.0 * float(p) - 1.0])


@dataclass(frozen=True, eq=False)
class ZeroPolytope:
    """Convex hull data of the zero-tangle Bloch points.

    ``faces`` lists every vertex subset of size 1 to 3; intersection tests
    pick the applicable subsets based on the polytope's shape.
    """

    vertices: np.ndarray
    p0: np.ndarray
    phases: np.ndarray
    multiplicities: np.ndarray
    states: tuple
    dimension: int
    volume: float
    faces: tuple

    def __post_init__(self):
        for name in ("vertices", "p0", "phases", "multiplicities"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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


def _affine_frame(vertices: np.ndarray):
    center = vertices.mean(axis=0)
    sv, vt = np.linalg.svd(vertices - center, full_matrices=True)[1:]
    rank = int(np.sum(sv > AFFINE_RANK_TOL))
    return center, sv, vt, rank


def _polygon_area(vertices: np.ndarray, vt: np.ndarray) -> float:
    uv = (vertices - vertices.mean(axis=0)) @ vt[:2].T
    order = np.argsort(np.arctan2(uv[:, 1], uv[:, 0]))
    u = uv[order]
    shoelace = 0.5 * abs(
        float(np.sum(u[:, 0] * np.roll(u[:, 1], -1) - np.roll(u[:, 0], -1) * u[:, 1]))
    )
    best_triangle = 0.0
    for i, j, k in combinations(range(uv.shape[0]), 3):
        e1 = uv[j] - uv[i]
        e2 = uv[k] - uv[i]
        t = 0.5 * abs(float(e1[0] * e2[1] - e1[1] * e2[0]))
        best_triangle = max(best_triangle, t)
    # angle-sorted shoelace undercounts when one point lies inside the hull
    return max(shoelace, best_triangle)


def build_polytope(zeros: ZeroSet) -> ZeroPolytope:
    """Vertices, affine dimension, volume, and faces of the zero polytope."""
    if len(zeros.roots) == 0:
        raise ValueError("empty zero set has no polytope")
    p0, phases, mults, states = [], [], [], []
    offset = 0
    for root in zeros.roots:
        p0.append(root.p0)
        phases.append(root.phase)
        mults.append(root.multiplicity)
        states.append(zeros.states[offset])
        offset += root.multiplicity
    vertices = bloch_from_z([np.inf if r.z is None else r.z for r in zeros.roots])
    k = vertices.shape[0]
    _, _, vt, rank = _affine_frame(vertices)
    if rank == 3:
        d = vertices[1:] - vertices[0]
        volume = abs(float(np.linalg.det(d))) / 6.0
    elif rank == 2:
        volume = _polygon_area(vertices, vt)
    else:
        volume = 0.0
    faces = tuple(
        f for size in range(1, min(3, k) + 1) for f in combinations(range(k), size)
    )
    return ZeroPolytope(
        vertices=vertices,
        p0=np.array(p0),
        phases=np.array(phases),
        multiplicities=np.array(mults, dtype=int),
        states=tuple(states),
        dimension=rank,
        volume=volume,
        faces=faces,
    )


def _plane_contains_axis(vertices: np.ndarray) -> bool:
    center, _, vt, rank = _affine_frame(vertices)
    if rank >= 3:
        return False
    if rank <= 1:
        return True
    normal = vt[2]
    return abs(normal[2]) <= AFFINE_RANK_TOL and abs(normal @ center) <= AFFINE_RANK_TOL


def _face_hit(vertices: np.ndarray, face: tuple):
    """Weights putting a convex combination of ``face`` on the vertical axis."""
    sub = vertices[list(face)]
    if len(face) == 1:
        if np.hypot(sub[0, 0], sub[0, 1]) > ON_AXIS_TOL:
            return None
        w = np.array([1.0])
    else:
        a = np.vstack([np.ones(len(face)), sub[:, 0], sub[:, 1]])
        b = np.array([1.0, 0.0, 0.0])
        w = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.linalg.norm(a @ w - b) > FACE_RESIDUAL_TOL:
            return None
        if np.min(w) < -WEIGHT_TOL:
            return None
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
    t = float(w @ sub[:, 2])
    p = min(max(0.5 * (1.0 + t), 0.0), 1.0)
    return p, w


def axis_zero_interval(polytope: ZeroPolytope) -> Optional[AxisInterval]:
    """Intersection of the polytope with the mixing axis, or None.

    Enumerates faces (vertex subsets of size 1 to 3) and solves for
    convex weights putting the combination on the axis. When the polytope
    is flat and its plane contains the axis, 3-vertex faces are rank
    deficient, and the boundary edges and vertices already delimit the
    in-plane clip, so only subsets of size 1 and 2 are used there.
    """
    v = polytope.vertices
    use_triangles = polytope.dimension == 3 or (
        polytope.dimension == 2 and not _plane_contains_axis(v)
    )
    hits = []
    for face in polytope.faces:
        if len(face) == 3 and not use_triangles:
            continue
        hit = _face_hit(v, face)
        if hit is not None:
            hits.append((hit[0], face, hit[1]))
    if not hits:
        return None
    ps = np.array([h[0] for h in hits])

    def pick(target: float) -> IntervalWitness:
        near = [h for h in hits if abs(h[0] - target) <= 1e-12]
        _, face, w = min(near, key=lambda h: (len(h[1]), h[1]))
        return IntervalWitness(face, w)

    p_low = float(ps.min())
    p_high = float(ps.max())
    return AxisInterval(p_low, p_high, pick(p_low), pick(p_high))


def barycentric_weights(target: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Convex weights over 1-3 vertices reconstructing ``target``.

    Raises ValueError when the target is outside the face's affine hull
    (residual above 1e-9) or the solution needs negative weights.
    """
    target = np.asarray(target, dtype=float).ravel()
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if not 1 <= verts.shape[0] <= 3 or verts.shape[1] != 3:
        raise ValueError("face must consist of 1 to 3 Bloch points")
    a = np.vstack([np.ones(verts.shape[0]), verts.T])
    b = np.concatenate([[1.0], target])
    w = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.linalg.norm(a @ w - b) > FACE_RESIDUAL_TOL:
        raise ValueError("target lies outside the face")
    if np.min(w) < -WEIGHT_TOL:
        raise ValueError("target needs negative weights; outside the face")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def _sphere_exit_many(anchors: np.ndarray, targets: np.ndarray):
    """Sphere crossings of rays from each anchor through each interior target.

    anchors is (n_a, 3) and targets (n_t, 3); returns boundary (n_t, n_a, 3)
    and lam (n_t, n_a) with target = lam * boundary + (1 - lam) * anchor.
    Solves |anchor + (target - anchor)/lam|^2 = 1 for lam in (0, 1] using a
    subtraction-free form that stays stable for anchors on the sphere, and
    writes the boundary relative to the target so it is exact at lam = 1.
    Pairs with anchor == target get lam = nan. The dot products over the
    length-3 axis are written out component by component, in the order of
    numpy's sum, which is bitwise the same and avoids a reduction call.
    """
    anchors = np.atleast_2d(anchors)
    d = targets[:, None, :] - anchors[None, :, :]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    ax, ay, az = anchors[:, 0], anchors[:, 1], anchors[:, 2]
    dd = dx * dx + dy * dy + dz * dz
    c = ax * dx + ay * dy + az * dz
    disc = c * c + (1.0 - (ax * ax + ay * ay + az * az))[None, :] * dd
    denom = np.sqrt(np.clip(disc, 0.0, None)) - c
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where((dd > 0) & (denom > 0), dd / denom, np.nan)
        boundary = targets[:, None, :] + d * (1.0 / lam - 1.0)[:, :, None]
    return boundary, lam


def ray_extend(anchor: np.ndarray, target: np.ndarray):
    """Extend the ray from a strictly interior anchor through target to the sphere.

    Returns (boundary, lam) with target = lam * boundary + (1 - lam) * anchor
    and lam in (0, 1]; lam = 1 exactly when the target is already on the
    sphere. Anchors on the sphere are rejected as ill-posed.
    """
    anchor = np.asarray(anchor, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    if anchor.shape != (3,) or target.shape != (3,):
        raise ValueError("anchor and target must be 3-vectors")
    if np.linalg.norm(anchor) >= 1.0 - 1e-12:
        raise ValueError("anchor must lie strictly inside the unit ball")
    if np.linalg.norm(target) > 1.0 + 1e-10:
        raise ValueError("target must lie inside or on the unit ball")
    boundary, lam = _sphere_exit_many(anchor[None, :], target[None, :])
    if not np.isfinite(lam[0, 0]):
        raise ValueError("target coincides with the anchor")
    return boundary[0, 0], float(lam[0, 0])


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


def state_from_bloch(mix: RankTwoMixture, point: np.ndarray) -> PureState:
    """Normalized pure state of the span at a Bloch point on the unit sphere."""
    point = np.asarray(point, dtype=float).ravel()
    a1, a2 = _span_coordinates(point)
    amps = a1 * mix.psi1.amplitudes + a2 * mix.psi2.amplitudes
    return PureState(mix.psi1.n_qubits, amps).normalized()
