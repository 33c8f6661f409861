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

import threading
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
    _axis_intervals,
    _interval,
    _span_amplitudes,
    bloch_from_z,
)
from .pencil import ZeroSet, _pencils, _zero_sets
from .states import PureState, RankTwoMixture, _check_count, _read_only

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


def _span_stack(amps1: np.ndarray, amps2: np.ndarray):
    """(coefficients, roots, vertices, intervals) of the spans of the row
    pairs of two (N, 8) amplitude stacks, one pass each: the (N, 5) pencils
    of _pencils, their two ends exact; the _RootTables of the L pencils
    that do not vanish identically, padded to four roots; their (L, 4, 3)
    Bloch points; and the _axis_intervals arrays of their axis intervals.
    Row j of the last three belongs to span roots.live[j].
    """
    amps1 = np.asarray(amps1, dtype=complex)
    amps2 = np.asarray(amps2, dtype=complex)
    if amps1.ndim != 2 or amps1.shape[1] != 8 or amps2.shape != amps1.shape:
        raise ValueError("span geometries need two (N, 8) amplitude stacks")
    coeffs = _pencils(amps1, amps2)
    roots = _zero_sets(coeffs, amps1, amps2)
    vertices = bloch_from_z(roots.z)
    return coeffs, roots, vertices, _axis_intervals(vertices)


def span_geometries(amps1: np.ndarray, amps2: np.ndarray) -> list:
    """SpanGeometry of each pair of rows of two (N, 8) amplitude stacks,
    built per span from the arrays of one _span_stack call. A ZeroPolytope
    holds its real vertices only: its dimension and volume are computed
    when first read, and the bounds never read them.
    """
    coeffs, roots, vertices, intervals = _span_stack(amps1, amps2)
    out = [SpanGeometry(np.zeros(5, dtype=complex), None, None, None, True) for _ in coeffs]
    for j, (n, k) in enumerate(zip(roots.live.tolist(), roots.count.tolist())):
        polytope = ZeroPolytope(vertices[j, :k])
        interval = _interval(*(a[j] for a in intervals))
        out[n] = SpanGeometry(coeffs[n], roots.zero_set(j), polytope, interval, False)
    return out


def span_geometry(mix: RankTwoMixture) -> SpanGeometry:
    """Quartic-form coefficients, zero set, polytope, and axis interval of the span."""
    return span_geometries(mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :])[0]


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """Piecewise-linear curve over p in [0, 1] with per-knot provenance.

    Provenance labels: "endpoint" (pure eigenstate ends), "zero-interval"
    (knots where the bound is exactly zero) and "pivot" (anchor ray knots).
    Every interior "pivot" knot of a BoundReport's envelope is a ray that
    certifies it, so no envelope knot is labelled "linearized".
    """

    knots: np.ndarray
    provenance: tuple

    def __post_init__(self):
        # its own copy, so the caller's array stays writable
        k = np.array(self.knots, dtype=float)
        if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] < 2:
            raise ValueError("knots must be an (m, 2) array with m >= 2")
        if not np.isfinite(k).all():
            raise ValueError("knots must be finite")
        if np.any(np.diff(k[:, 0]) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        object.__setattr__(self, "knots", _read_only(k))
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def __call__(self, p):
        return np.interp(p, self.knots[:, 0], self.knots[:, 1])


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Zero-tangle points inside the polytope, one row per anchor.

    Row j is the point ``points[j]``, the convex combination
    ``weights[j, :sizes[j]]`` of the polytope vertices ``faces[j, :sizes[j]]``
    (both zero-padded to 3 columns). default_anchors builds the arrays
    read-only, as the rows of bloch.ANCHOR_GRID within the polytope's
    vertices, so a table has 1, 5, 15 or 34 rows for 1 to 4 vertices.
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


def characteristic_curve(mix: RankTwoMixture, phi: float, grid: Sequence[float]) -> np.ndarray:
    """c3 along sqrt(p) psi1 - e^{i phi} sqrt(1-p) psi2; rows (p, c3).

    The latitude circle of the span's Bloch sphere at height 2p - 1, read
    at longitude phi + pi: the quartic form at a = sqrt(p) and
    b = -e^{i phi} sqrt(1 - p). Raises ValueError for a mixture that is not
    of 3 qubits, a p outside [0, 1] or a non-finite phi.
    """
    if mix.n_qubits != 3:
        raise ValueError("characteristic curves are defined for 3-qubit mixtures")
    ps = np.asarray(grid, dtype=float)
    _check_p(ps)
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    coeffs = _pencils(mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :])[0]
    tau = quartic_form(coeffs, np.sqrt(ps), -np.exp(1j * phi) * np.sqrt(1.0 - ps))
    return np.column_stack([ps, np.sqrt(np.abs(tau))])


def linearized_upper_bound(geom: SpanGeometry) -> BoundCurve:
    """Piecewise-linear bound of a span through the pure ends and the zero
    interval.

    Knots: (0, c3(psi2)), (p_low, 0), (p_high, 0), (1, c3(psi1)); without an
    axis interval the curve is the single chord between the pure ends, and an
    identically vanishing pencil gives the flat zero curve.
    """
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


def default_anchors(geom: SpanGeometry) -> AnchorSet:
    """Anchor table of a span: the rows of ANCHOR_GRID within the polytope's
    k vertices (each vertex, three quarter points per edge and three
    interior points per triangle; 1, 5, 15 or 34 rows for k = 1 to 4), in
    table order; empty without a polytope. The points come from one product.
    """
    if geom.polytope is None:
        return _NO_ANCHORS
    v = geom.polytope.vertices
    within = ANCHOR_GRID[0].max(axis=1) < v.shape[0]
    faces, weights, sizes = (a[within] for a in ANCHOR_GRID)
    # a stacked (1, 3) @ (3, 3) matmul: each point has the bits of its own row
    points = (weights[:, None, :] @ v[faces])[:, 0]
    return AnchorSet(*map(_read_only, (points, faces, weights, sizes)))


# (grid point, anchor) cells of one block of the pivot pass: a report at
# grid 401 has at most 34 x 399 cells and runs in one block, while a larger
# grid runs in several, so the planes a thread holds stay bounded
_PIVOT_CELLS = 16384


class _PivotPlanes(threading.local):
    """One thread's (grid point, anchor) planes of the pivot pass: six
    float, two complex, one intp and one bool, about 89 B a cell.

    Allocated at the thread's first pass and grown to the largest block it
    has run (at most _PIVOT_CELLS cells, or one row of anchors), then
    reused by every later pass, so a report allocates no (grid point,
    anchor) array.
    """

    cells = 0

    def shaped(self, shape: tuple):
        """(real, complex, chart, mask) views of ``shape``: two sequences of
        six float and two complex planes, an intp and a bool plane."""
        n = shape[0] * shape[1]
        if n > self.cells:
            self.real = np.empty((6, n))
            self.complex = np.empty((2, n), dtype=complex)
            self.chart = np.empty(n, dtype=np.intp)
            self.mask = np.empty(n, dtype=bool)
            self.cells = n
        return (
            [plane[:n].reshape(shape) for plane in self.real],
            [plane[:n].reshape(shape) for plane in self.complex],
            self.chart[:n].reshape(shape),
            self.mask[:n].reshape(shape),
        )


_PLANES = _PivotPlanes()


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

    Every (grid point, anchor) array is written into this thread's
    _PivotPlanes, so the three results are views into them: they hold
    until the next _pivot_candidates call on the same thread, and a caller
    that keeps them copies them out.
    """
    heights = 2.0 * ps - 1.0
    n_a = points.shape[0]
    real, (form, term), chart, mask = _PLANES.shaped((ps.shape[0], n_a))
    lam, s = _axis_exits(points, heights, (real, mask))
    ax, ay = points[:, 0], points[:, 1]
    powers = np.empty((n_a, 5), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = (ax + 1j * ay)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # coefficients of t^0..t^4, one column per anchor and chart: the northern
    # chart's c_k w^k, then the southern chart's c_(4-k) conj(w)^k
    table = np.concatenate([coeffs * powers, coeffs[::-1] * powers.conj()]).T
    np.negative(table[1::2], out=table[1::2])
    # the exits leave dz = h - a_z in real[0] and real[1] to real[3] as scratch
    bz = real[0]
    bz *= s
    bz += heights[:, None]
    # table column of each (grid point, anchor); the southern chart's columns
    # start at n_a, and a ray with a nan exit reads inf whatever its chart
    np.multiply(np.less(bz, 0.0, out=mask), n_a, out=chart)
    chart += np.arange(n_a)
    u = np.abs(bz, out=bz)
    u += 1.0
    np.divide(s, u, out=u)
    # the chart indices are in range: mode="clip" writes take straight into out
    table[4].take(chart, out=form, mode="clip")
    for j in (3, 2, 1, 0):
        form *= u
        form += table[j].take(chart, out=term, mode="clip")
    cand = np.sqrt(np.abs(form, out=real[1]), out=real[1])
    norm = np.multiply(u, u, out=u)
    norm *= ax * ax + ay * ay
    norm += 1.0
    cand /= norm
    lam = np.minimum(lam, 1.0, out=lam)
    cand *= lam
    np.copyto(cand, np.inf, where=np.logical_not(np.isfinite(lam, out=mask), out=mask))
    return cand, lam, s


def _lower_hull(points: np.ndarray) -> list:
    """Row indices of the lower convex hull vertices of an (n, 2) array of
    (p, value) points with strictly increasing p, by the monotone chain: a
    point within a few ulps of the chord of its neighbours is not a vertex."""
    pts = points.tolist()
    # Python floats run the same IEEE operations as numpy scalars, faster
    hull = []
    for i, (qx, qy) in enumerate(pts):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = pts[hull[-2]], pts[hull[-1]]
            left, right = (ax - ox) * (qy - oy), (ay - oy) * (qx - ox)
            if left - right <= _HULL_ULPS * (abs(left) + abs(right)):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _knot_labels(values: list) -> tuple:
    """Provenance of hull knots with these values: "endpoint" at both ends,
    "zero-interval" at an interior value within 1e-12 of 0, "pivot" elsewhere."""
    inner = ["zero-interval" if abs(v) <= 1e-12 else "pivot" for v in values[1:-1]]
    return ("endpoint", *inner, "endpoint")


def convex_envelope(samples: Sequence) -> BoundCurve:
    """Greatest convex minorant of sampled (p, value) points.

    Piecewise linear with knots at the lower convex hull vertices of the
    sample set (_lower_hull, after sorting by p and keeping the lowest
    sample of each p); needs at least two finite samples. A sample within a
    few ulps of the chord of its neighbours is not a knot.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (p, value) samples")
    if not np.isfinite(pts).all():
        raise ValueError("samples must be finite")
    if not (np.diff(pts[:, 0]) > 0).all():
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = np.diff(pts[:, 0]) > 0
        pts = pts[keep]
    if pts.shape[0] < 2:
        raise ValueError("samples collapse to a single abscissa")
    knots = pts[_lower_hull(pts)]
    return BoundCurve(knots, _knot_labels(knots[:, 1].tolist()))


class _KnotTable(NamedTuple):
    """Certificate data of the envelope knots of a report, built once.

    Each field is read at the knot's grid row, the row _lower_hull keeps:
    ``ps`` are the knot abscissae, ``certified`` tells whether the best
    anchor ray of each knot certifies it, and ``anchor``, ``lam`` and row i
    of ``amplitudes`` are the anchor index, the lam and the normalized
    boundary state of knot i's best ray (anchor 0, nan lam and nan state
    where the knot has none), the states of all knots from one
    _axis_boundary and one _span_amplitudes pass.
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
            # its own copies, so the caller's arrays stay writable
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))

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
    pure ends certify, read anchor 0, value inf and a nan ray. The searched
    points run through _pivot_candidates in blocks of at most _PIVOT_CELLS
    (grid point, anchor) cells (one row at least), and each block's winners
    are copied out before the next block reuses the planes; a row's argmin
    reads that row alone, so the result does not depend on the block size.
    The returned arrays are the caller's own.
    """
    idx = np.nonzero(off)[0]
    anchor = np.zeros(grid.shape, dtype=np.intp)
    value = np.full(grid.shape, np.inf)
    lam_best = np.full(grid.shape, np.nan)
    s_best = np.full(grid.shape, np.nan)
    step = max(1, _PIVOT_CELLS // points.shape[0])
    for start in range(0, idx.size, step):
        block = idx[start : start + step]
        cand, lam, s = _pivot_candidates(coeffs, grid[block], points)
        best = np.argmin(cand, axis=1)
        rows = np.arange(block.size)
        anchor[block] = best
        value[block] = cand[rows, best]
        lam_best[block] = lam[rows, best]
        s_best[block] = s[rows, best]
    return anchor, value, lam_best, s_best


# achieving labels by code: 0 inside the zero interval, 1 pivot, 2 linearized
_ACHIEVING = np.array(["zero-interval", "pivot", "linearized"], dtype=object)


def upper_bound_report(mix: RankTwoMixture, grid_size: int = GRID_SIZE_DEFAULT) -> BoundReport:
    """Evaluate all three bounds on a uniform grid (plus the interval knots),
    searching the rays of default_anchors, the face grid of the polytope.
    The pivot bound is the best ray where that ray certifies, lying below
    the linearized bound by more than 1e-15, and the linearized bound
    elsewhere, so the chords through the interval
    ends need no anchor of their own and a ray that retraces a chord up to
    rounding changes nothing. The envelope is the hull of the pivot samples
    without the inner zero samples and without the linearized samples
    strictly inside a linearized chord, whose ends it keeps; _lower_hull
    returns the grid rows it keeps, and each knot's value and ray are read
    at its row. ``grid_size`` is an integer of at least 2."""
    if _check_count(grid_size, "grid_size") < 2:
        raise ValueError("grid_size must be at least 2")
    geom = span_geometry(mix)
    grid = np.linspace(0.0, 1.0, grid_size)
    if geom.interval is not None:
        # a single-point interval whose computed ends differ by an ulp adds one row
        lo, hi = geom.interval.p_low, geom.interval.p_high
        grid = np.unique(np.concatenate([grid, [lo] if hi - lo <= 1e-15 else [lo, hi]]))
    lin_curve = linearized_upper_bound(geom)
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
        inside = (grid >= geom.interval.p_low - 1e-12) & (grid <= geom.interval.p_high + 1e-12)
    anchor_set = default_anchors(geom)
    # rho(0) and rho(1) are pure: their roof is the exact end c3, which a ray
    # with lam just under 1 could undercut by rounding
    off = ~inside
    off[[0, -1]] = False
    pivots = _grid_pivots(geom.coefficients, grid, off, anchor_set.points)
    # a ray counts where it certifies a decomposition below the linearized
    # one; a ray that only retraces a chord up to rounding does not
    ray = pivots[1] < lin_vals - 1e-15
    pivot_vals = np.where(ray, pivots[1], lin_vals)
    pivot_vals[inside] = 0.0
    # the hull reads the certifying rays, the pure ends and the outer two
    # zero samples: the inner zero samples are collinear with the outer two,
    # and every other sample lies strictly inside a linearized chord, whose
    # ends it keeps (the interior knots of that curve are interval ends)
    sampled = ray.copy()
    sampled[[0, -1]] = True
    if inside.any():
        sampled[np.nonzero(inside)[0][[0, -1]]] = True
    rows = np.nonzero(sampled)[0]
    rows = rows[_lower_hull(np.column_stack([grid[rows], pivot_vals[rows]]))]
    ps, values = grid[rows], pivot_vals[rows]
    env_curve = BoundCurve(np.column_stack([ps, values]), _knot_labels(values.tolist()))
    anchor, _, lam, s = (a[rows] for a in pivots)
    boundary = _axis_boundary(anchor_set.points[anchor], 2.0 * ps - 1.0, s)
    knots = _KnotTable(
        ps.tolist(), ray[rows].tolist(), anchor.tolist(), lam.tolist(),
        _read_only(_span_amplitudes(mix, boundary)),
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
