"""Convex-roof upper bounds: characteristic curves, linearized and pivot bounds.

Every value reported here is certified by an explicit pure-state
decomposition of rho(p), and every certificate comes from one rule:
decompositions of two mixtures on the axis mix into a decomposition of any
mixture between them (_mix). The linearized curve's knots are certified by
the pure ends and the interval witnesses; the envelope's knots by the pivot
ray that produced them (a zero-tangle anchor inside the polytope mixed with
the boundary state where the ray through rho(p) exits the sphere) or else by
the linearized curve; every p between knots by mixing its two neighbours.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import quartic_form
from .bloch import (
    ANCHOR_GRID,
    AxisInterval,
    ZeroPolytope,
    _axis_boundary,
    _axis_exits,
    _polytopes,
    _read_only,
    _span_amplitudes,
    axis_point,
)
from .pencil import ZeroSet, _pencils, _zero_sets, pencil_polynomial
from .states import PureState, RankTwoMixture

__all__ = [
    "AnchorSet",
    "BoundCurve",
    "SpanGeometry",
    "span_geometries",
    "span_geometry",
    "characteristic_curve",
    "linearized_upper_bound",
    "default_anchors",
    "convex_envelope",
    "BoundReport",
    "upper_bound_report",
]

GRID_SIZE_DEFAULT = 401
# a hull vertex must lie below its neighbours' chord by more than the rounding
# of the two cross-product terms that compare them
_HULL_ULPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class SpanGeometry:
    """Zero-set geometry of a rank-two span, shared across bound evaluations.

    ``coefficients`` are the span's pencil coefficients c_0..c_4, the ones
    its roots come from, with c_0 = tau3(psi1) and c_4 = tau3(psi2) exact:
    the tangle of a psi1 + b psi2 is quartic_form(coefficients, a, b),
    exact at either pure end. An identically vanishing pencil is stored as
    zeros.
    """

    coefficients: np.ndarray
    zeros: Optional[ZeroSet]
    polytope: Optional[ZeroPolytope]
    interval: Optional[AxisInterval]
    identically_zero: bool

    @property
    def c3_psi1(self) -> float:
        """c3 of the pure psi1 end, sqrt|c_0|."""
        return float(np.sqrt(abs(self.coefficients[0])))

    @property
    def c3_psi2(self) -> float:
        """c3 of the pure psi2 end, sqrt|c_4|."""
        return float(np.sqrt(abs(self.coefficients[4])))


def span_geometries(amps1: np.ndarray, amps2: np.ndarray) -> list:
    """SpanGeometry of each pair of rows of two (N, 8) amplitude stacks.

    One tau3_many call on 7N rows gives every pencil with its two exact
    ends; one finite_roots call gives the raw roots; one _polytopes pass
    gives every polytope and axis interval, spans with equal vertex counts
    sharing their affine-frame SVD and their stacked face solves.
    """
    amps1 = np.asarray(amps1, dtype=complex)
    amps2 = np.asarray(amps2, dtype=complex)
    if amps1.ndim != 2 or amps1.shape[1] != 8 or amps2.shape != amps1.shape:
        raise ValueError("span geometries need two (N, 8) amplitude stacks")
    coeffs = _pencils(amps1, amps2)
    zero_sets = _zero_sets(coeffs, amps1, amps2)
    live = [zs for zs in zero_sets if zs is not None]
    pieces = iter(zip(*_polytopes(live)))
    out = []
    for n, zeros in enumerate(zero_sets):
        if zeros is None:
            out.append(SpanGeometry(np.zeros(5, dtype=complex), None, None, None, True))
            continue
        polytope, interval = next(pieces)
        out.append(SpanGeometry(coeffs[n], zeros, polytope, interval, False))
    return out


def span_geometry(mix: RankTwoMixture) -> SpanGeometry:
    """Quartic-form coefficients, zero set, polytope, and axis interval of the span."""
    return span_geometries(mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :])[0]


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """Piecewise-linear curve over p in [0, 1] with per-knot provenance.

    Provenance labels: "endpoint" (pure eigenstate ends), "zero-interval"
    (knots where the bound is exactly zero), "pivot" (anchor ray knots),
    and, on the envelope of a BoundReport, "linearized" (interior knots off
    the zero interval where no anchor ray beats the linearized bound, so
    the knot is certified by a linearized decomposition).
    """

    knots: np.ndarray
    provenance: tuple

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] < 2:
            raise ValueError("knots must be an (m, 2) array with m >= 2")
        if not np.isfinite(k).all():
            raise ValueError("knots must be finite")
        if np.any(np.diff(k[:, 0]) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        k.setflags(write=False)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def __call__(self, p):
        return np.interp(p, self.knots[:, 0], self.knots[:, 1])


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Zero-tangle points inside the polytope, one row per anchor.

    Row j is the point ``points[j]``, the convex combination
    ``weights[j, :sizes[j]]`` of the polytope vertices ``faces[j, :sizes[j]]``
    (both zero-padded to 3 columns). default_anchors builds the arrays
    read-only.
    """

    points: np.ndarray
    faces: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def _check_p(p: np.ndarray) -> None:
    bad = (p < 0.0) | (p > 1.0) | np.isnan(p)
    if np.any(bad):
        raise ValueError(f"p must lie in [0, 1], got {p[bad][0]}")


def _check_count(value, name: str) -> int:
    """``value`` as an int; raises ValueError unless it is a Python or numpy
    integer (a bool is none)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def characteristic_curve(mix: RankTwoMixture, phi: float, grid: Sequence[float]) -> np.ndarray:
    """c3 along sqrt(p) psi1 - e^{i phi} sqrt(1-p) psi2; rows (p, c3).

    The latitude circle of the span's Bloch sphere at height 2p - 1, read
    at longitude phi + pi: the quartic form at a = sqrt(p) and
    b = -e^{i phi} sqrt(1 - p). Raises ValueError for a p outside [0, 1]
    or a non-finite phi.
    """
    ps = np.asarray(grid, dtype=float)
    _check_p(ps)
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    coeffs = pencil_polynomial(mix.psi1, mix.psi2).coefficients
    tau = quartic_form(coeffs, np.sqrt(ps), -np.exp(1j * phi) * np.sqrt(1.0 - ps))
    return np.column_stack([ps, np.sqrt(np.abs(tau))])


def linearized_upper_bound(
    mix: RankTwoMixture, geometry: Optional[SpanGeometry] = None
) -> BoundCurve:
    """Piecewise-linear bound through the pure ends and the zero interval.

    Knots: (0, c3(psi2)), (p_low, 0), (p_high, 0), (1, c3(psi1)); without an
    axis interval the curve is the single chord between the pure ends, and an
    identically vanishing pencil gives the flat zero curve.
    """
    return _linearized_curve(geometry if geometry is not None else span_geometry(mix))


def _linearized_curve(geom: SpanGeometry) -> BoundCurve:
    if geom.identically_zero:
        return BoundCurve(
            np.array([[0.0, 0.0], [1.0, 0.0]]), ("zero-interval", "zero-interval")
        )
    entries = [(0.0, geom.c3_psi2, "endpoint"), (1.0, geom.c3_psi1, "endpoint")]
    if geom.interval is not None:
        entries.insert(1, (geom.interval.p_low, 0.0, "zero-interval"))
        entries.insert(2, (geom.interval.p_high, 0.0, "zero-interval"))
    entries.sort(key=lambda e: e[0])
    knots, prov = [], []
    for p, v, label in entries:
        if knots and abs(p - knots[-1][0]) <= 1e-15:
            if v < knots[-1][1]:
                knots[-1] = (p, v)
                prov[-1] = label
            continue
        knots.append((p, v))
        prov.append(label)
    return BoundCurve(np.array(knots), tuple(prov))


_NO_ANCHORS = AnchorSet(*map(_read_only, (
    np.empty((0, 3)), np.empty((0, 3), dtype=np.intp), np.empty((0, 3)), np.empty(0, dtype=np.intp)
)))


def default_anchors(
    mix: RankTwoMixture, geometry: Optional[SpanGeometry] = None
) -> AnchorSet:
    """Anchor table: the polytope's ANCHOR_GRID (each vertex, three
    quarter points per edge and three interior points per triangle), then
    the two axis interval points; empty without a polytope.

    The grid points come from one product. Rows whose points agree to 12
    decimals (an axis point on a grid point, or the overlapping triangles of
    a flat polytope) are built once, as the first of them.
    """
    geom = geometry if geometry is not None else span_geometry(mix)
    if geom.polytope is None:
        return _NO_ANCHORS
    v = geom.polytope.vertices
    faces, weights, sizes = ANCHOR_GRID[v.shape[0]]
    # a stacked (1, 3) @ (3, 3) matmul: each point has the bits of its own row
    points = (weights[:, None, :] @ v[faces])[:, 0]
    if geom.interval is not None:
        iv = geom.interval
        points = np.concatenate([points, [axis_point(iv.p_low), axis_point(iv.p_high)]])
        faces = np.concatenate([faces, np.zeros((2, 3), dtype=np.intp)])
        weights = np.concatenate([weights, np.zeros((2, 3))])
        sizes = np.append(sizes, [len(iv.witness_low.face), len(iv.witness_high.face)])
        for row, wit in enumerate((iv.witness_low, iv.witness_high), start=len(sizes) - 2):
            faces[row, :len(wit.face)], weights[row, :len(wit.face)] = wit.face, wit.weights
    first = {}
    for n, key in enumerate(map(tuple, np.round(points, 12).tolist())):
        first.setdefault(key, n)
    keep = list(first.values())
    return AnchorSet(*(_read_only(a[keep]) for a in (points, faces, weights, sizes)))


def _pivot_candidates(coeffs: np.ndarray, ps: np.ndarray, points: np.ndarray):
    """Candidate bound lam * c3(boundary) per (grid point, anchor point).

    ``points`` is the (n_a, 3) stack of anchor points. The ray from each
    anchor a through the axis point (0, 0, h), h = 2p - 1,
    exits the sphere at b = (-s a_x, -s a_y, h + (h - a_z) s), s = 1/lam - 1
    (bloch._axis_exits). With w = a_x + i a_y and the real t = -s / (1 + |b_z|),
    the half-angle span coordinates of b are proportional to (1, w t) on the
    northern hemisphere and to (conj(w) t, 1) on the southern one, so the
    tangle at b is a quartic in t with coefficients fixed per anchor:
    quartic_form(c_k w^k, 1, t) in the north and
    quartic_form(c_k conj(w)^(4-k), t, 1) in the south, both evaluated in the
    Horner order of the former, and c3 = sqrt|form| / (1 + t^2 |w|^2). Horner
    runs in u = -t >= 0 with the odd coefficients negated, which flips the
    sign of every partial sum and so keeps the bits of |form|. At the pure
    ends t = 0, so c3 there is sqrt|c_0| or sqrt|c_4| exactly. No boundary
    point or amplitude is built. Returns (candidates, lam, s), each of shape
    (len(ps), len(points)); the boundary of a ray is
    bloch._axis_boundary(point, 2p - 1, s).
    """
    heights = 2.0 * ps - 1.0
    lam, s = _axis_exits(points, heights)
    ax, ay, az = points[:, 0], points[:, 1], points[:, 2]
    n_a = points.shape[0]
    powers = np.empty((n_a, 5), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = (ax + 1j * ay)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # coefficients of t^0..t^4, one column per anchor and chart: the northern
    # chart's c_k w^k, then the southern chart's c_(4-k) conj(w)^k
    table = np.concatenate([coeffs * powers, coeffs[::-1] * powers.conj()]).T
    np.negative(table[1::2], out=table[1::2])
    # (grid, anchor) arrays are updated in place: on a pair's ~300 x 36 grid a
    # fresh temporary costs more than the arithmetic
    bz = heights[:, None] - az
    bz *= s
    bz += heights[:, None]
    # table column of each (grid point, anchor); the southern chart's columns
    # start at n_a, and a ray with a nan exit reads inf whatever its chart
    chart = (bz < 0.0) * n_a
    chart += np.arange(n_a)
    u = np.abs(bz, out=bz)
    u += 1.0
    np.divide(s, u, out=u)
    form = table[4].take(chart)
    for j in (3, 2, 1, 0):
        form *= u
        form += table[j].take(chart)
    cand = np.sqrt(np.abs(form))
    norm = np.multiply(u, u, out=u)
    norm *= ax * ax + ay * ay
    norm += 1.0
    cand /= norm
    lam = np.minimum(lam, 1.0, out=lam)
    cand *= lam
    cand[~np.isfinite(lam)] = np.inf
    return cand, lam, s


def convex_envelope(samples: Sequence) -> BoundCurve:
    """Greatest convex minorant of sampled (p, value) points.

    Piecewise linear with knots at the lower convex hull vertices of the
    sample set; needs at least two finite samples. A sample within a few
    ulps of the chord of its neighbours is not a knot.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (p, value) samples")
    if not np.isfinite(pts).all():
        raise ValueError("samples must be finite")
    # the samples of a report come strictly increasing; others are sorted
    if not (np.diff(pts[:, 0]) > 0).all():
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = np.diff(pts[:, 0]) > 0
        pts = pts[keep]
    if pts.shape[0] < 2:
        raise ValueError("samples collapse to a single abscissa")
    # Python floats run the same IEEE operations as numpy scalars, faster
    hull = []
    for q in pts.tolist():
        qx, qy = q
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            left, right = (ax - ox) * (qy - oy), (ay - oy) * (qx - ox)
            if left - right <= _HULL_ULPS * (abs(left) + abs(right)):
                hull.pop()
            else:
                break
        hull.append(q)
    prov = ["endpoint"]
    for _, value in hull[1:-1]:
        prov.append("zero-interval" if abs(value) <= 1e-12 else "pivot")
    prov.append("endpoint")
    return BoundCurve(np.array(hull), tuple(prov))


class _KnotTable(NamedTuple):
    """Certificate data of the envelope knots of a report, built once.

    ``ps`` are the knot abscissae, ``certified`` tells whether the best
    anchor ray of each knot certifies it, and ``anchor``, ``lam`` and row i
    of ``amplitudes`` are the anchor index, the lam and the normalized
    boundary state of knot i's best ray (anchor 0, nan lam and nan state
    where the knot has none).
    """

    ps: list
    certified: list
    anchor: list
    lam: list
    amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Grid evaluation of the linearized, pivot, and envelope bounds.

    ``achieving`` labels which family realizes the reported bound at each
    grid point; ``p_left``/``p_right`` are the envelope knots adjacent to
    the zero interval (where the envelope departs from the straight chords).
    The best anchor ray of each envelope knot and its boundary state are
    kept from the report's one pivot pass, so decomposition_at only looks
    certificates up; each knot certificate is assembled on first use.
    """

    mix: RankTwoMixture
    geometry: SpanGeometry
    anchors: AnchorSet
    grid: np.ndarray
    linearized: np.ndarray
    pivot: np.ndarray
    envelope: np.ndarray
    linearized_curve: BoundCurve
    envelope_curve: BoundCurve
    achieving: tuple
    p_left: Optional[float]
    p_right: Optional[float]
    _knots: _KnotTable = field(repr=False)
    _certificates: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in ("grid", "linearized", "pivot", "envelope"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def identically_zero(self) -> bool:
        return self.geometry.identically_zero

    @property
    def interval(self) -> Optional[AxisInterval]:
        return self.geometry.interval

    def rows(self):
        """(p, linearized, pivot, envelope, achieving) per grid point."""
        for i in range(self.grid.shape[0]):
            yield (
                float(self.grid[i]),
                float(self.linearized[i]),
                float(self.pivot[i]),
                float(self.envelope[i]),
                self.achieving[i],
            )

    def _linearized_certificate(self, i: int):
        """Weights and states certifying knot i of the linearized curve: a
        pure end (every knot without an axis interval), or the interval
        witness at p_low or p_high."""
        p = float(self.linearized_curve.knots[i, 0])
        interval = self.geometry.interval
        if interval is None or self.linearized_curve.provenance[i] == "endpoint":
            return (1.0,), (self.mix.psi2 if p == 0.0 else self.mix.psi1,)
        wit = interval.witness_low if p == interval.p_low else interval.witness_high
        states = self.geometry.zeros.states
        return tuple(wit.weights.tolist()), tuple(states[j] for j in wit.face)

    def _knot_certificate(self, i: int):
        """Weights and states certifying envelope knot i, assembled on first
        use and kept: the best anchor ray where it certifies an interior
        knot, and the linearized curve mixed at the knot's p elsewhere (at
        the pure ends, the pure states themselves)."""
        cert = self._certificates.get(i)
        if cert is not None:
            return cert
        knots, mix = self._knots, self.mix
        if 0 < i < len(knots.ps) - 1 and knots.certified[i]:
            j, lam, table = knots.anchor[i], knots.lam[i], self.anchors
            size = table.sizes[j]
            weights = (lam,) + tuple((1.0 - lam) * w for w in table.weights[j, :size].tolist())
            states = (PureState(mix.n_qubits, knots.amplitudes[i]),) + tuple(
                self.geometry.zeros.states[f] for f in table.faces[j, :size].tolist()
            )
            cert = weights, states
        else:
            xs = self.linearized_curve.knots[:, 0].tolist()
            cert = _mix(xs, self._linearized_certificate, knots.ps[i])
        self._certificates[i] = cert
        return cert

    def decomposition_at(self, p: float):
        """Explicit decomposition (weights, states) achieving the envelope at p.

        The weighted c3 average of the returned states equals the envelope
        value and the weighted projector sum reconstructs rho(p). Raises
        ValueError unless 0 <= p <= 1.
        """
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight p must lie in [0, 1], got {p}")
        weights, states = _mix(self._knots.ps, self._knot_certificate, p)
        return np.array(weights), states


def _mix(xs: list, certificate, p: float):
    """Decomposition at p mixed from the certificates of the two knots of
    ``xs`` around it.

    ``xs`` is a strictly increasing list of knot abscissae and
    ``certificate(i)`` the weights and states certifying knot i. The left
    knot's certificate is scaled by (right - p) / (right - left), the right
    one's by the rest. Weights at or below 1e-15 are dropped, and then
    entries holding the same state object (a vertex state of an interval
    witness, or a pure end, shared by both knots) are merged by summing
    their weights in order of first appearance, so no state is listed
    twice. A p beyond either end knot reads that knot, as np.interp does:
    the linearized curve's end knots may sit up to 1e-15 inside [0, 1],
    where an interval end merged with a pure end. Returns (weights,
    states) as a list and a tuple.
    """
    j = min(max(bisect_right(xs, p), 1), len(xs) - 1)
    left, right = xs[j - 1], xs[j]
    theta = min(max((right - p) / (right - left), 0.0), 1.0)
    merged: dict = {}  # id(state) -> [weight, state], in order of first appearance
    for scale, knot in ((theta, j - 1), (1.0 - theta, j)):
        for w, state in zip(*certificate(knot)):
            if scale * w > 1e-15:
                merged.setdefault(id(state), [0.0, state])[0] += scale * w
    return [w for w, _ in merged.values()], tuple(state for _, state in merged.values())


def _grid_pivots(coeffs: np.ndarray, grid: np.ndarray, off: np.ndarray, points: np.ndarray):
    """Best anchor ray at each point of a report grid, searched only where
    ``off`` is set.

    ``points`` is the (n_a, 3) stack of anchor points. Returns grid arrays
    (anchor, value, lam, s): the index of the argmin anchor, its candidate
    lam * c3(boundary), and its ray's lam and s (bloch._axis_exits). Grid
    points where ``off`` is clear, whose bound the interval witnesses or the
    pure ends certify, read anchor 0, value inf and a nan ray.
    """
    idx = np.nonzero(off)[0]
    cand, lam, s = _pivot_candidates(coeffs, grid[idx], points)
    best = np.argmin(cand, axis=1)
    rows = np.arange(idx.size)
    anchor = np.zeros(grid.shape, dtype=np.intp)
    value = np.full(grid.shape, np.inf)
    lam_best = np.full(grid.shape, np.nan)
    s_best = np.full(grid.shape, np.nan)
    anchor[idx] = best
    value[idx] = cand[rows, best]
    lam_best[idx] = lam[rows, best]
    s_best[idx] = s[rows, best]
    return anchor, value, lam_best, s_best


def _certified_knots(
    mix: RankTwoMixture,
    curve: BoundCurve,
    grid: np.ndarray,
    lin_vals: np.ndarray,
    pivots: tuple,
    points: np.ndarray,
):
    """The envelope with every "pivot" knot that no anchor ray certifies
    relabelled "linearized", and its _KnotTable.

    ``pivots`` are the _grid_pivots arrays of the grid and ``points`` the
    anchor points. A knot's best ray certifies it when its value lies below
    the linearized bound by more than 1e-15. Every knot is a grid sample
    (convex_envelope keeps sample coordinates), so searchsorted finds its
    row, and one _axis_boundary and one _span_amplitudes pass build the
    boundary states of all knots.
    """
    ps = curve.knots[:, 0]
    rows = np.searchsorted(grid, ps)
    anchor, value, lam, s = (a[rows] for a in pivots)
    certified = (value < lin_vals[rows] - 1e-15).tolist()
    boundary = _axis_boundary(points[anchor], 2.0 * ps - 1.0, s)
    amplitudes = _read_only(_span_amplitudes(mix, boundary))
    prov = tuple([
        "linearized" if label == "pivot" and not ok else label
        for label, ok in zip(curve.provenance, certified)
    ])
    return BoundCurve(curve.knots, prov), _KnotTable(
        ps.tolist(), certified, anchor.tolist(), lam.tolist(), amplitudes
    )


# achieving labels by code: 0 inside the zero interval, 1 pivot, 2 linearized
_ACHIEVING = np.array(["zero-interval", "pivot", "linearized"], dtype=object)


def upper_bound_report(mix: RankTwoMixture, grid_size: int = GRID_SIZE_DEFAULT) -> BoundReport:
    """Evaluate all three bounds on a uniform grid (plus the interval knots),
    searching the rays of default_anchors. ``grid_size`` is an integer of
    at least 2."""
    if _check_count(grid_size, "grid_size") < 2:
        raise ValueError("grid_size must be at least 2")
    geom = span_geometry(mix)
    grid = np.linspace(0.0, 1.0, grid_size)
    if geom.interval is not None:
        # a single-point interval whose computed ends differ by an ulp adds one row
        lo, hi = geom.interval.p_low, geom.interval.p_high
        grid = np.unique(np.concatenate([grid, [lo] if hi - lo <= 1e-15 else [lo, hi]]))
    lin_curve = linearized_upper_bound(mix, geom)
    lin_vals = lin_curve(grid)
    if geom.identically_zero:
        # the flat zero curve: the pure ends certify it everywhere
        knots = _KnotTable([0.0, 1.0], [False] * 2, [0] * 2, [np.nan] * 2, np.full((2, 8), np.nan))
        return BoundReport(
            mix, geom, _NO_ANCHORS, grid, lin_vals, lin_vals, lin_vals, lin_curve, lin_curve,
            tuple(["zero-interval"] * grid.shape[0]), None, None, knots,
        )
    inside = np.zeros(grid.shape, dtype=bool)
    if geom.interval is not None:
        inside = (grid >= geom.interval.p_low - 1e-12) & (
            grid <= geom.interval.p_high + 1e-12
        )
    anchor_set = default_anchors(mix, geom)
    # rho(0) and rho(1) are pure: their roof is the exact end c3, which a ray
    # with lam just under 1 could undercut by rounding
    off = ~inside
    off[[0, -1]] = False
    pivots = _grid_pivots(geom.coefficients, grid, off, anchor_set.points)
    pivot_vals = np.minimum(lin_vals, pivots[1])
    pivot_vals[inside] = 0.0
    # the inner zero samples are collinear with the outer two, which the hull keeps
    hull = ~inside
    if inside.any():
        hull[np.nonzero(inside)[0][[0, -1]]] = True
    env_curve, knots = _certified_knots(
        mix,
        convex_envelope(np.column_stack([grid[hull], pivot_vals[hull]])),
        grid, lin_vals, pivots, anchor_set.points,
    )
    env_vals = env_curve(grid)
    p_left = p_right = None
    if geom.interval is not None:
        xs = env_curve.knots[:, 0]
        after = xs[xs > geom.interval.p_high + 1e-9]
        before = xs[xs < geom.interval.p_low - 1e-9]
        p_right = float(after[0]) if after.size else None
        p_left = float(before[-1]) if before.size else None
    codes = 2 - (env_vals < lin_vals - 1e-12)
    codes[inside] = 0
    return BoundReport(
        mix, geom, anchor_set, grid, lin_vals, pivot_vals, env_vals,
        lin_curve, env_curve, tuple(_ACHIEVING.take(codes).tolist()),
        p_left, p_right, knots,
    )
