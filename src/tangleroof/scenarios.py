"""Built-in study cases: the GHZ/W toy pair and the four-qubit interpolation.

The toy case mixes (GHZ3 + W3)/sqrt(2) with (GHZ3 - W3)/sqrt(2) and carries
a known axis zero interval with coinciding endpoint witnesses. The
four-qubit family interpolates sqrt(p) GHZ4 - e^{i phi} sqrt(1-p) W4; its
three-qubit reductions are rank two with closed-form eigenvalue q(p) and
eigenvectors expressed through six real coefficient functions. On top of
the reductions live the simplex volume scans, the threshold in phi where
the interior volume zero disappears, and the extended monogamy residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bloch import AxisInterval, ZeroPolytope, bloch_from_z
from .bounds import (
    BoundReport,
    linearized_upper_bound,
    span_geometry,
    upper_bound_report,
)
from .invariants import c3, one_tangle, wootters_concurrence
from .pencil import ZeroSet, finite_roots, pencil_coefficients
from .states import (
    RANK_TOL,
    PureState,
    RankTwoMixture,
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
    "phi_threshold_scan",
    "phi_threshold_bisect",
    "MonogamyReport",
    "monogamy_report",
    "monogamy_curve",
    "ghzw_mixture_zero_check",
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
    shared = sorted(set(lo.face) & set(hi.face))
    if not shared:
        return float("nan")
    diffs = [
        abs(lo.weights[lo.face.index(i)] - hi.weights[hi.face.index(i)])
        for i in shared
    ]
    return float(max(diffs))


def toy_report(grid_size: int = 401) -> ToyReport:
    """Zero set, polytope, axis interval, and bound curves of the toy pair."""
    mix = toy_mixture()
    report = upper_bound_report(mix, grid_size=grid_size)
    geom = report.geometry
    return ToyReport(
        mix,
        geom.zeros,
        geom.polytope,
        geom.interval,
        report,
        _witness_weight_coincidence(geom.interval),
    )


def q_of_p(p: float) -> float:
    """Larger reduction eigenvalue (2 + sqrt(1 - p^2)) / 4."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (2.0 + np.sqrt(max(0.0, 1.0 - p * p))) / 4.0


def _check_p(p: np.ndarray) -> None:
    bad = (p < 0.0) | (p > 1.0) | np.isnan(p)
    if np.any(bad):
        raise ValueError(f"p must lie in [0, 1], got {p[bad][0]}")


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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of a complex (N, 8) stack.

    Each row's squared norm is re.re + im.im as one dot product per row,
    the sum np.linalg.norm forms for a single vector, so a row normalizes
    to the same bits alone or in a stack.
    """
    re, im = v.real, v.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    return np.sqrt(sq[:, 0, 0])


def _family_eigenvectors(ps: np.ndarray, phi: float):
    """Normalized (N, 8) stacks of the two closed-form reduction eigenvectors."""
    f1, g1, h1, f2, g2, h2 = _family_coefficients(ps)
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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return superpose(
        make_ghz(4), make_w(4), np.sqrt(p), -np.exp(1j * phi) * np.sqrt(1.0 - p)
    )


def reduced_mixture(p: float, phi: float = 0.0, rank_tol: float = RANK_TOL) -> RankTwoMixture:
    """Trace the last qubit of the four-qubit state and eigendecompose."""
    rho = partial_trace(four_qubit_state(p, phi), (0, 1, 2))
    return rank_two_eigendecomposition(rho, tol=rank_tol)


@dataclass(frozen=True, eq=False)
class SimplexScanRow:
    """Per-p zero polytope metrics: volume, affine dimension, axis interval."""

    p: float
    volume: float
    dimension: int
    interval: Optional[tuple]


def _scan_row(p: float, phi: float, rank_tol: float = RANK_TOL) -> SimplexScanRow:
    geom = span_geometry(reduced_mixture(p, phi, rank_tol))
    if geom.identically_zero:
        return SimplexScanRow(float(p), 0.0, 0, (0.0, 1.0))
    iv = geom.interval
    pair = None if iv is None else (iv.p_low, iv.p_high)
    return SimplexScanRow(
        float(p), geom.polytope.volume, geom.polytope.dimension, pair
    )


def simplex_scan(phi: float, p_grid: Sequence[float], rank_tol: float = RANK_TOL):
    """Zero-polytope metrics of the reduced mixtures over a p grid in (0, 1)."""
    ps = [float(p) for p in p_grid]
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ValueError(f"scan grid must lie strictly inside (0, 1), got {p}")
    return [_scan_row(p, float(phi), rank_tol) for p in ps]


def _pencil_bloch_vertices(ps: np.ndarray, phi: float) -> np.ndarray:
    """(N, 4, 3) raw pencil-root Bloch points of the closed-form pairs on a p grid.

    Uses unclustered polished roots so the four points move smoothly in p;
    degree deficits are filled with the south pole (roots at infinity).
    """
    v1, v2 = _family_eigenvectors(ps, phi)
    roots, _ = finite_roots(pencil_coefficients(v1, v2))
    return bloch_from_z(roots)


def _match_rows(pts: np.ndarray) -> np.ndarray:
    """Reorder each row of an (N, 4, 3) stack to follow the row before it.

    Slot by slot, each tracked point takes the nearest unused point of the
    next row (first minimum on ties). The distances between consecutive
    raw rows come from one call; only the greedy choice runs per row.
    """
    n = pts.shape[1]
    dist = np.linalg.norm(pts[1:, None, :, :] - pts[:-1, :, None, :], axis=-1).ravel().tolist()
    prev = list(range(n))
    rows = [prev]
    for base in range(0, len(dist), n * n):
        free = list(range(n))
        cur = []
        for i in prev:
            j = min(free, key=dist[base + i * n : base + (i + 1) * n].__getitem__)
            free.remove(j)
            cur.append(j)
        rows.append(cur)
        prev = cur
    return np.take_along_axis(pts, np.array(rows)[:, :, None], axis=1)


def _tracked_volumes(ps: np.ndarray, phi: float) -> np.ndarray:
    """Signed simplex volumes of the tracked pencil-root points over a p grid."""
    pts = _match_rows(_pencil_bloch_vertices(ps, phi))
    return np.linalg.det(pts[:, 1:] - pts[:, :1]) / 6.0


def has_interior_volume_zero(
    phi: float, n_coarse: int = 1201, noise_floor: float = 1e-12
) -> bool:
    """True when the tracked signed simplex volume changes sign inside (0, 1).

    Vertex tracking keeps the volume's orientation consistent along p, so a
    transversal interior zero shows up as a sign change between grid
    neighbors whose magnitudes exceed the noise floor. Candidates are
    confirmed on a refined sweep of the bracketing interval; flat
    lower-dimensional stretches sit below the floor and are ignored.
    """
    ps = np.linspace(0.02, 0.99, n_coarse)
    sv = _tracked_volumes(ps, float(phi))
    flips = np.nonzero(np.sign(sv[:-1]) != np.sign(sv[1:]))[0]
    for i in flips:
        if abs(sv[i]) <= noise_floor or abs(sv[i + 1]) <= noise_floor:
            continue
        fine = _tracked_volumes(np.linspace(ps[i], ps[i + 1], 41), float(phi))
        if np.any(np.sign(fine[:-1]) != np.sign(fine[1:])):
            return True
    return False


def phi_threshold_scan(phi_grid: Sequence[float]):
    """(phi, has interior volume zero) per grid value."""
    return [(float(phi), has_interior_volume_zero(float(phi))) for phi in phi_grid]


def phi_threshold_bisect(lo: float = 0.40, hi: float = 0.60, tol: float = 0.005) -> float:
    """Bisect the phi where the interior volume zero disappears."""
    lo, hi = float(lo), float(hi)
    if not has_interior_volume_zero(lo):
        raise ValueError("lower bracket must still carry the interior zero")
    if has_interior_volume_zero(hi):
        raise ValueError("upper bracket must already lack the interior zero")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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


def _linearized_c3(mix: RankTwoMixture) -> float:
    if mix.degenerate_rank:
        return c3(mix.psi1)
    return float(linearized_upper_bound(mix)(mix.p))


def monogamy_report(p: float, phi: float = 0.0, rank_tol: float = RANK_TOL) -> MonogamyReport:
    psi4 = four_qubit_state(p, phi)
    tau1 = one_tangle(psi4, 0)
    pairwise = tuple(
        wootters_concurrence(partial_trace(psi4, (0, j))) ** 2 for j in (1, 2, 3)
    )
    triples = []
    for j, k in ((1, 2), (1, 3), (2, 3)):
        mix = rank_two_eigendecomposition(partial_trace(psi4, (0, j, k)), tol=rank_tol)
        triples.append(_linearized_c3(mix) ** 2)
    return MonogamyReport(float(p), float(phi), tau1, pairwise, tuple(triples))


def monogamy_curve(p_grid: Sequence[float], phi: float = 0.0, rank_tol: float = RANK_TOL):
    return [monogamy_report(float(p), float(phi), rank_tol) for p in p_grid]


def ghzw_mixture_zero_check(p: float):
    """Zero-tangle witness for the reduction of p GHZ4 + (1-p) W4 mixtures.

    Keeps the four natural terms (|000> and |111> from the GHZ part, |000>
    and |W3> from the W part) without merging repeats, dropping exact zero
    weights at the endpoints. Returns (all c3 at most 1e-10, weights, states).
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    zero = np.zeros(8, dtype=complex)
    ket000, ket111 = zero.copy(), zero.copy()
    ket000[0] = 1.0
    ket111[7] = 1.0
    entries = [
        (p / 2.0, PureState(3, ket000)),
        (p / 2.0, PureState(3, ket111)),
        ((1.0 - p) / 4.0, PureState(3, ket000.copy())),
        (3.0 * (1.0 - p) / 4.0, make_w(3)),
    ]
    entries = [(w, s) for w, s in entries if w > 0.0]
    weights = np.array([w for w, _ in entries])
    states = tuple(s for _, s in entries)
    ok = bool(all(c3(s) <= 1e-10 for s in states))
    return ok, weights, states
