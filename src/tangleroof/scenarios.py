"""Built-in study cases: the GHZ/W toy pair and the four-qubit interpolation.

The toy case mixes (GHZ3 + W3)/sqrt(2) with (GHZ3 - W3)/sqrt(2) and carries
a known axis zero interval with coinciding endpoint witnesses. The
four-qubit family interpolates sqrt(p) GHZ4 - e^{i phi} sqrt(1-p) W4; its
three-qubit reductions are rank two with closed-form eigenvalue q(p) and
eigenvectors expressed through six real coefficient functions. On top of
the reductions live the simplex volume scans, the extended monogamy
residual, and the threshold in phi where the interior volume zero
disappears, read from the invariants I and J of the pencil quartics on a
301-point p grid without computing their roots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bloch import AxisInterval, ZeroPolytope, _polytope_measures
from .bounds import (
    BoundReport, _check_p, _span_stack, linearized_upper_bound, span_geometries, upper_bound_report
)
from .invariants import _concurrences, _one_tangles, c3_many
from .pencil import REAL_TOL, ZeroSet, _pencils
from .states import (
    PureState,
    RankTwoMixture,
    _partial_traces,
    _rank_two_eigenpairs,
    _row_norms,
    make_ghz,
    make_w,
    partial_trace,
    rank_two_eigendecomposition,
    superpose,
)

__all__ = [
    "ToyReport",
    "toy_states",
    "toy_mixture",
    "toy_report",
    "FourQubitFamily",
    "q_of_p",
    "four_qubit_state",
    "reduced_mixture",
    "SimplexScanRow",
    "simplex_scan",
    "has_interior_volume_zero",
    "phi_threshold_bisect",
    "MonogamyReport",
    "monogamy_report",
    "monogamy_curve",
]


def toy_states():
    """The pair (GHZ3 + W3)/sqrt(2), (GHZ3 - W3)/sqrt(2)."""
    ghz, w = make_ghz(3), make_w(3)
    s = 1.0 / np.sqrt(2.0)
    return superpose(ghz, w, s, s), superpose(ghz, w, s, -s)


def toy_mixture(p: float = 0.5) -> RankTwoMixture:
    plus, minus = toy_states()
    return RankTwoMixture(plus, minus, p)


@dataclass(frozen=True, eq=False)
class ToyReport:
    """Full pipeline record for the toy pair.

    ``weight_coincidence`` is the largest difference between the weights the
    two endpoint witnesses assign to their shared polytope vertices; NaN when
    the witness faces are disjoint.
    """

    mixture: RankTwoMixture
    zeros: ZeroSet
    polytope: ZeroPolytope
    interval: AxisInterval
    report: BoundReport
    weight_coincidence: float


def _witness_weight_coincidence(interval: AxisInterval) -> float:
    lo, hi = interval.witness_low, interval.witness_high
    shared = set(lo.face) & set(hi.face)
    if not shared:
        return float("nan")
    pairs = ((lo.weights[lo.face.index(i)], hi.weights[hi.face.index(i)]) for i in shared)
    return float(max(abs(a - b) for a, b in pairs))


def toy_report(grid_size: int = 401) -> ToyReport:
    """Zero set, polytope, axis interval, and bound curves of the toy pair."""
    mix = toy_mixture()
    report = upper_bound_report(mix, grid_size=grid_size)
    geom = report.geometry
    coincidence = _witness_weight_coincidence(geom.interval)
    return ToyReport(mix, geom.zeros, geom.polytope, geom.interval, report, coincidence)


def q_of_p(p: float) -> float:
    """Larger reduction eigenvalue (2 + sqrt(1 - p^2)) / 4."""
    p = float(p)
    _check_p(np.array([p]))
    return (2.0 + np.sqrt(max(0.0, 1.0 - p * p))) / 4.0


def _family_coefficients(ps: np.ndarray) -> np.ndarray:
    """(6, N) closed forms f1, g1, h1, f2, g2, h2 of the family over a p array.

    The printed forms degenerate to 0/0 at p = 0, so every p <= 1e-12
    takes the exact limit (0, 0, 1, 0, 1, 0) and the forms themselves are
    evaluated there at a stand-in p.
    """
    ps = np.asarray(ps, dtype=float)
    _check_p(ps)
    small = ps <= 1e-12
    p = np.where(small, 0.5, ps)
    s = np.sqrt(np.maximum(0.0, (1.0 - p) * (1.0 + p)))
    a = (1.0 + p) * (3.0 - p)
    b = (3.0 + p) * s
    f1 = p * np.sqrt(2.0 / (a + b))
    g1 = np.sqrt(p * (4.0 * s - 3.0 * p + 5.0) / (a + b))
    h1 = np.sqrt(3.0 * p * (1.0 - p) / ((1.0 + p) ** 2 - (1.0 - p) * s))
    f2 = p * np.sqrt(2.0 / (a - b))
    # sign(0) taken as +1; the factor flips the branch at p = 3/5
    sign = np.where(3.0 - 5.0 * p >= 0.0, 1.0, -1.0)
    g2 = sign * np.sqrt(np.abs(p * (4.0 * s + 3.0 * p - 5.0) / (b - a)))
    h2 = -np.sqrt(3.0 * p * (1.0 - p) / ((1.0 + p) ** 2 + (1.0 - p) * s))
    out = np.stack([f1, g1, h1, f2, g2, h2])
    out[:, small] = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    return out


def _family_eigenvectors(ps: np.ndarray, phi: float):
    """Normalized (N, 8) stacks of the two closed-form reduction eigenvectors.
    Raises ValueError for a p outside [0, 1] or a non-finite phi."""
    f1, g1, h1, f2, g2, h2 = _family_coefficients(ps)
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    e_plus = np.exp(1j * phi)
    e_minus = np.exp(-1j * phi)
    vecs = []
    for f, g, h in ((f1, g1, h1), (f2, g2, h2)):
        v = np.zeros((f.shape[0], 8), dtype=complex)
        v[:, 0] = g
        v[:, 1] = v[:, 2] = v[:, 4] = -h * e_plus / np.sqrt(3.0)
        v[:, 7] = -f * e_minus
        v = v / _row_norms(v)[:, None]
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("amplitudes must be finite")
        vecs.append(v)
    return vecs[0], vecs[1]


@dataclass(frozen=True)
class FourQubitFamily:
    """Closed forms attached to the four-qubit interpolation at (p, phi).

    ``coefficients`` returns (f1, g1, h1, f2, g2, h2); the reduction
    eigenvector with eigenvalue q is g1|000> - h1 e^{i phi}|W3> -
    f1 e^{-i phi}|111> and its partner uses (f2, g2, h2). The p -> 0 limit
    is taken explicitly because the printed forms degenerate to 0/0 there.
    Both methods are the p-grid forms evaluated on a grid of one.
    """

    p: float
    phi: float = 0.0

    def __post_init__(self):
        p = float(self.p)
        _check_p(np.array([p]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def q(self) -> float:
        return q_of_p(self.p)

    def coefficients(self):
        return tuple(float(c) for c in _family_coefficients(np.array([self.p]))[:, 0])

    def eigenpair(self):
        """Closed-form reduction eigenvectors, q branch first."""
        v1, v2 = _family_eigenvectors(np.array([self.p]), self.phi)
        return PureState(3, v1[0]), PureState(3, v2[0])


def four_qubit_state(p: float, phi: float = 0.0) -> PureState:
    """sqrt(p) GHZ4 - e^{i phi} sqrt(1 - p) W4, normalized by orthogonality."""
    p = float(p)
    _check_p(np.array([p]))
    return superpose(
        make_ghz(4), make_w(4), np.sqrt(p), -np.exp(1j * phi) * np.sqrt(1.0 - p)
    )


def _family_states(ps: np.ndarray, phis) -> np.ndarray:
    """(N, 16) normalized four-qubit states over arrays of p and phi.

    Row n is four_qubit_state(ps[n], phis[n]) normalized by _row_norms, so
    each row has the bits of the state built alone. Raises ValueError for a
    p outside [0, 1] or a non-finite phi.
    """
    ps = np.asarray(ps, dtype=float)
    _check_p(ps)
    phis = np.asarray(phis, dtype=float)
    if not np.isfinite(phis).all():
        raise ValueError(f"phi must be finite, got {phis[~np.isfinite(phis)][0]}")
    beta = -np.exp(1j * phis) * np.sqrt(1.0 - ps)
    psi = np.sqrt(ps)[:, None] * make_ghz(4).amplitudes + beta[:, None] * make_w(4).amplitudes
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("amplitudes must be finite")
    return psi / _row_norms(psi)[:, None]


def reduced_mixture(p: float, phi: float = 0.0) -> RankTwoMixture:
    """Trace the last qubit of the four-qubit state and eigendecompose."""
    rho = partial_trace(four_qubit_state(p, phi), (0, 1, 2))
    return rank_two_eigendecomposition(rho)


@dataclass(frozen=True, eq=False)
class SimplexScanRow:
    """Per-p zero polytope metrics: volume, affine dimension, axis interval."""

    p: float
    volume: float
    dimension: int
    interval: Optional[tuple]


def simplex_scan(phi: float, p_grid: Sequence[float]):
    """Zero-polytope metrics of the reduced mixtures over a p grid in (0, 1).

    The whole grid is one batch: partial traces of the stacked family
    states, one eigh call and one bounds._span_stack call, whose padded
    vertices and root counts give every measure in one _polytope_measures
    call and whose interval ends give every interval; no per-span object
    is built. An identically vanishing pencil reads (0.0, 0, (0.0, 1.0)).
    """
    ps = [float(p) for p in p_grid]
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ValueError(f"scan grid must lie strictly inside (0, 1), got {p}")
    rho = _partial_traces(_family_states(np.array(ps), float(phi)), 4, (0, 1, 2))
    v1, v2, _, _ = _rank_two_eigenpairs(rho)
    _, roots, vertices, (ends, _, _) = _span_stack(v1, v2)
    rank, volume = _polytope_measures(vertices, roots.count)
    rows = [SimplexScanRow(p, 0.0, 0, (0.0, 1.0)) for p in ps]
    measures = zip(volume.tolist(), rank.tolist(), ends.tolist())
    for n, (vol, dim, (lo, hi)) in zip(roots.live.tolist(), measures):
        rows[n] = SimplexScanRow(ps[n], vol, dim, None if np.isnan(lo) else (lo, hi))
    return rows


# the p grid of the interior-zero search over [0.02, 0.99]
COARSE_GRID = 301


def _quartic_invariants(c: np.ndarray):
    """I, J and D = I^3 - 27 J^2 of the quartic in each row of an (N, 5) stack;
    1728 I^3 / D is the j-invariant of the cross-ratio of its four roots."""
    a0, a1, a2, a3, a4 = (c / np.array([1.0, 4.0, 6.0, 4.0, 1.0])).T
    i = a0 * a4 - 4.0 * a1 * a3 + 3.0 * a2 * a2
    j = a0 * a2 * a4 + 2.0 * a1 * a2 * a3 - a2 * a2 * a2 - a0 * a3 * a3 - a1 * a1 * a4
    return i, j, i * i * i - 27.0 * j * j


def has_interior_volume_zero(phi: float) -> bool:
    """True when the zero simplex turns flat transversally at some p in (0, 1).

    Its vertices, the Bloch images of the pencil roots, are coplanar when the
    roots are concyclic, that is when their cross-ratio lambda is real and so
    j(lambda) = 1728 I^3 / D is real and at least 1728. On the COARSE_GRID p
    grid (one _pencils batch) a crossing is a pair of neighbours where
    Im(I^3 / D) changes sign with Re(I^3 / D) >= 1 at both. A real pencil
    (max|Im c| <= REAL_TOL max|c|, the floor of pencil._deflated) with
    D < 0 has two real roots and a conjugate pair; lambda then lies on the
    unit circle and is real at -1, where J = 0, so there a crossing is a
    sign change of J with D < 0 at both neighbours.
    Raises ValueError for a non-finite phi.
    """
    c = _pencils(*_family_eigenvectors(np.linspace(0.02, 0.99, COARSE_GRID), float(phi)))
    i, j, d = _quartic_invariants(c)
    if np.max(np.abs(c.imag)) <= REAL_TOL * np.max(np.abs(c)):
        s, ok = j.real, d.real < 0.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):  # D = 0 gives NaN: no crossing
            f = i * i * i / d
        s, ok = f.imag, f.real >= 1.0
    return bool(np.any((np.sign(s[:-1]) != np.sign(s[1:])) & ok[:-1] & ok[1:]))


def phi_threshold_bisect(lo: float = 0.40, hi: float = 0.60, tol: float = 0.005) -> float:
    """Bisect the phi where the interior volume zero disappears."""
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not (np.isfinite([lo, hi, tol]).all() and lo < hi and tol > 0.0):
        raise ValueError("bisection needs finite lo < hi and a finite tol > 0")
    if not has_interior_volume_zero(lo):
        raise ValueError("lower bracket must still carry the interior zero")
    if has_interior_volume_zero(hi):
        raise ValueError("upper bracket must already lack the interior zero")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # one ulp apart: the midpoint rounds onto an end
            break
        if has_interior_volume_zero(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class MonogamyReport:
    """Distributed-entanglement budget of the four-qubit state around qubit 0.

    ``three_tangle_bounds`` squares the linearized bound of each three-qubit
    reduction at its own eigen-weight, so ``residual`` is a lower bound on
    what remains after pairwise and certified three-party terms.
    """

    p: float
    phi: float
    one_tangle: float
    pairwise: tuple
    three_tangle_bounds: tuple

    @property
    def residual(self) -> float:
        return self.one_tangle - sum(self.pairwise) - sum(self.three_tangle_bounds)


def monogamy_report(p: float, phi: float = 0.0) -> MonogamyReport:
    return monogamy_curve([p], phi)[0]


def _linearized_c3(v1: np.ndarray, v2: np.ndarray, q: np.ndarray, degenerate: np.ndarray) -> list:
    """Linearized c3 bound of each reduction at its own weight q.

    A rank-one reduction is the pure state v1, whose c3 is exact.
    """
    out = [0.0] * v1.shape[0]
    pure = np.nonzero(degenerate)[0]
    if pure.size:
        for i, value in zip(pure.tolist(), c3_many(v1[pure]).tolist()):
            out[i] = value
    mixed = np.nonzero(~degenerate)[0]
    for i, geom in zip(mixed.tolist(), span_geometries(v1[mixed], v2[mixed])):
        out[i] = float(linearized_upper_bound(geom)(q[i]))
    return out


def monogamy_curve(p_grid: Sequence[float], phi=0.0):
    """MonogamyReport of every (p, phi) item in one batched pass.

    ``phi`` is one phase or one per p. The family states are stacked; the
    pairwise and three-qubit reductions come from batched partial traces,
    the concurrences from one eigvals call, the eigenpairs of all three
    reductions from one eigh call and their spans from span_geometries.
    """
    ps, phis = np.broadcast_arrays(
        np.asarray(p_grid, dtype=float).ravel(), np.asarray(phi, dtype=float)
    )
    psi = _family_states(ps, phis)
    n = ps.shape[0]
    tau1 = _one_tangles(psi, 4, 0).tolist()
    pairs = np.concatenate([_partial_traces(psi, 4, (0, j)) for j in (1, 2, 3)])
    c2 = _concurrences(pairs).tolist()
    triples = np.concatenate(
        [_partial_traces(psi, 4, (0, j, k)) for j, k in ((1, 2), (1, 3), (2, 3))]
    )
    c3s = _linearized_c3(*_rank_two_eigenpairs(triples))
    return [
        MonogamyReport(
            float(ps[i]),
            float(phis[i]),
            tau1[i],
            tuple(c2[i + m * n] ** 2 for m in range(3)),
            tuple(c3s[i + m * n] ** 2 for m in range(3)),
        )
        for i in range(n)
    ]
