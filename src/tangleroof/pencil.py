"""Degree-4 polynomial along a rank-two state family and its extended roots.

For an orthonormal pair (psi1, psi2) the family psi1 + z*psi2 over the
extended complex plane covers every pure state in the span; the tangle
along it is a polynomial of degree at most 4 in z whose roots are the
zero-tangle states. Vanishing leading coefficients are counted as roots at
infinity (the pure psi2 end), so the root count is always exactly 4.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import _kernels
from .states import PureState, RankTwoMixture, _read_only, _row_norms

__all__ = [
    "ZeroSet",
    "IdenticallyZeroPencilError",
    "pencil_polynomial",
    "finite_roots",
    "polynomial_roots",
    "zero_set",
]

DEGREE = 4
COEFF_TOL = 1e-10
# a pencil is real when max|Im c| <= REAL_TOL * max|c|
REAL_TOL = 1e-9


class IdenticallyZeroPencilError(Exception):
    """Every state in the span has zero tangle; the zero set is the whole ball."""


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Root table of a pencil: one row per distinct extended root.

    Rows run real roots ascending, then conjugate pairs (positive
    imaginary part first), then the root at infinity. Row j holds the root
    ``z[j]`` (inf at infinity), its ``multiplicity[j]`` (the size of its
    component of inclusion discs, _roots_many; the column sums to 4), the
    axis coordinate ``p0[j]`` = 1 / (1 + |z|^2) and the phase ``phases[j]``
    = arg z of its Bloch point (both 0 at infinity), and the normalized
    zero-tangle state ``states[j]`` of psi1 + z psi2 (psi2 at infinity).
    """

    z: np.ndarray
    multiplicity: np.ndarray
    p0: np.ndarray
    phases: np.ndarray
    states: tuple

    def __post_init__(self):
        for name, dtype in (
            ("z", complex), ("multiplicity", int), ("p0", float), ("phases", float)
        ):
            # copies, so that freezing them leaves the caller's arrays writable
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))
        object.__setattr__(self, "states", tuple(self.states))


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products of stacked polynomials, ascending coefficients along axis 1.
    Coefficient k sums the terms p_(k-j) * q_j over ascending j, so the
    lowest and highest ones are the single products p_0 q_0 and p_top q_top."""
    terms = p[:, :, None] * q[:, None]
    out = np.concatenate((terms[:, :, 0], terms[:, -1, 1:]), axis=1)
    for j in range(1, q.shape[1]):
        out[:, j : j + p.shape[1] - 1] += terms[:, :-1, j]
    return out


def _pencils(amps1: np.ndarray, amps2: np.ndarray) -> np.ndarray:
    """(N, 5) pencil coefficients of stacked 3-qubit pairs.

    The amplitudes of amps1[n] + z*amps2[n] are linear polynomials in z,
    multiplied out by _kernels.tau3_products with no nodes and no division.
    So c_0 and c_4 are tau3_many of amps1[n] and amps2[n] bit for bit, a
    coefficient that vanishes by structure reads 0, and a real pair has
    real coefficients.
    """
    x = np.array((amps1, amps2), dtype=complex).transpose(2, 0, 1)
    return np.ascontiguousarray(_kernels.tau3_products(x, _polymul).T)


def _pencil_sizes(amps1: np.ndarray, amps2: np.ndarray) -> np.ndarray:
    """(N, 5) sums of the moduli of the products that _pencils adds into
    each coefficient, 4 ((sum_k p_k)^2 + 4 d3) of the amplitude moduli, as
    d1 + 2 d2 = (sum_k p_k)^2. A product passes through at most 12
    roundings, so a coefficient is within gamma_12 times its size of exact."""
    x = np.abs(np.array((amps1, amps2), dtype=complex)).transpose(2, 0, 1)
    p = _polymul(*x.take(_kernels._PAIRS, axis=0)).sum(axis=0, keepdims=True)
    d3 = reduce(_polymul, x.take(_kernels._CHAINS, axis=0)).sum(axis=0, keepdims=True)
    return (4.0 * (_polymul(p, p) + 4.0 * d3))[0].T


def pencil_polynomial(psi1: PureState, psi2: PureState) -> np.ndarray:
    """Tangle polynomial P(z) = sum c_k z^k along psi1 + z*psi2, as its
    read-only (5,) ascending coefficients.

    They are also those of the binary quartic form
    tau3(a psi1 + b psi2) = sum_k c_k a^(4-k) b^k, multiplied out from the
    amplitude products (_pencils), with c_0 = tau3(psi1), c_4 = tau3(psi2).
    """
    if psi1.n_qubits != 3 or psi2.n_qubits != 3:
        raise ValueError("pencil polynomial is defined for 3-qubit pairs")
    return _read_only(_pencils(psi1.amplitudes[None, :], psi2.amplitudes[None, :])[0])


def _horner(c: np.ndarray, x) -> np.ndarray:
    """Polynomial values in numpy.polynomial.polyval's order, c[..., k] + v*x.

    c holds ascending coefficients in its last axis; c[..., k] broadcasts
    against x.
    """
    v = c[..., -1] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        v = c[..., k] + v * x
    return v


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of each polynomial c[..., k] z^k, one
    fewer than c's."""
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _polish(roots: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Two Newton steps on the roots of each row of c.

    The first step's one Horner pass runs over three stacked polynomials:
    P and P' at the roots (P''s coefficients padded with a leading zero,
    which adds only an exact zero, so P' has the bits of its own pass) and
    sum_k |k c_k| |z|^(k-1) at their moduli. That sum is real, and complex
    products of reals with zero imaginary parts are exact, so its real part
    has the bits of a real pass. A root takes no step where |P'| is at
    most 8 eps times that sum, the scale of the Horner rounding error of
    P': there P' is rounding noise, as at a double root that the real
    Schur form returns as two equal eigenvalues, and P / P' would be noise
    over noise. The second step's pass runs over P and P' alone.
    """
    polys = np.zeros((3, c.shape[0], 1, c.shape[1]), dtype=complex)
    polys[0, :, 0] = c
    polys[1, :, 0, :-1] = _derivative(c)
    polys[2] = np.abs(polys[1])
    at = np.empty((3,) + roots.shape, dtype=complex)
    at[:2] = roots
    at[2] = np.abs(roots)
    pv, dv, scale = _horner(polys, at)
    noise = 8 * np.finfo(float).eps * scale.real
    for step in range(2):
        if step:
            pv, dv = _horner(polys[:2], roots)
        roots = roots - np.divide(pv, dv, out=np.zeros_like(pv), where=np.abs(dv) > noise)
    return roots


def _deflated(coeffs: np.ndarray):
    """Each row of an (N, 5) stack as finite_roots solves it: (rows, low,
    deg, real).

    deg is the row's numerical degree, the largest k with |c_k| above
    COEFF_TOL * max|c| (-1 for the zero row), and low the number of
    trailing coefficients at or below that floor, each an exact root at
    z = 0 (0 for the zero row). Row n of rows holds c_low..c_4 of row n,
    then copies of c_4, so its first deg - low + 1 entries are the
    coefficients left to the root finder. A real row, max|Im c| <= REAL_TOL *
    max|c|, holds the real parts of its coefficients. Raises ValueError for
    a coefficient that is not finite.
    """
    if not np.isfinite(coeffs).all():
        raise ValueError("pencil coefficients must be finite")
    mags = np.abs(coeffs)
    peaks = mags.max(axis=1, keepdims=True)
    above = mags > COEFF_TOL * peaks
    low = np.argmax(above, axis=1)
    deg = (above * np.arange(1, DEGREE + 2)).max(axis=1) - 1
    real = np.abs(coeffs.imag).max(axis=1, keepdims=True) <= REAL_TOL * peaks
    rows = np.where(real, coeffs.real, coeffs)
    if low.any():
        columns = np.minimum(low[:, None] + np.arange(DEGREE + 1), DEGREE)
        rows = np.take_along_axis(rows, columns, axis=1)
    return rows, low, deg, real[:, 0]


def _companion_roots(rows: np.ndarray, low: np.ndarray, deg: np.ndarray, real: np.ndarray):
    """The (N, 4) roots that finite_roots returns, from the _deflated stack."""
    roots = np.full((rows.shape[0], DEGREE), np.inf, dtype=complex)
    roots[np.arange(DEGREE) < low[:, None]] = 0.0
    companion = deg - low  # the degree of each row left to the companion matrix
    for d, is_real in sorted(set(zip(companion.tolist(), real.tolist()))):
        if d < 1:
            continue
        idx = np.nonzero((companion == d) & (real == is_real))[0]
        c = rows[idx, : d + 1]
        if is_real:
            # LAPACK's real Schur form returns complex eigenvalues as exact
            # conjugates, and Newton on real coefficients keeps them so
            c = c.real
        comp = np.zeros((idx.size, d, d), dtype=c.dtype)
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = -(c[:, :-1] / c[:, -1:])
        raw = np.linalg.eigvals(comp)
        roots[idx[:, None], low[idx, None] + np.arange(d)] = _polish(raw, c)
    return roots


def finite_roots(coeffs: np.ndarray):
    """Polished finite roots, unmerged, of each row of an (N, 5) stack.

    Returns an (N, 4) complex array and the (N,) number of roots at
    infinity. Each leading coefficient at or below COEFF_TOL * max|c|
    counts as one root at infinity, at most 4 per row; those slots hold
    inf after the finite roots. Likewise each trailing coefficient at or
    below that floor counts as one exact root at z = 0; those slots come
    first, and the remaining roots are those of the deflated polynomial:
    the eigenvalues of the companion matrices of their monic reductions
    (one eigvals call per deflated degree of 1 or more, and per real or
    complex row) after two Newton steps. A real row (_deflated) is solved
    in real arithmetic, so its non-real roots come in bitwise conjugate
    pairs. Roots are not merged, so they move smoothly with the pair.
    Raises ValueError for a coefficient that is not finite.
    """
    rows, low, deg, real = _deflated(np.asarray(coeffs, dtype=complex))
    return _companion_roots(rows, low, deg, real), DEGREE - np.maximum(deg, 0)


def _padded(a: np.ndarray) -> np.ndarray:
    """The rows of a followed by copies of its last row, DEGREE rows in all."""
    return a[np.minimum(np.arange(DEGREE), a.shape[0] - 1)]


def _roots_many(coeffs: np.ndarray, sizes: np.ndarray):
    """Root tables of the rows live of an (N, 5) stack, those with
    max|c| > COEFF_TOL, as (live, count, z, multiplicity): row j holds the
    count[j] distinct roots of row live[j] in ZeroSet's order, _padded to 4
    (multiplicity 0 in the padding), from one pass over finite_roots' table.

    The solved polynomial P = sum_k p_k z^k, z^low times the deflated one,
    of degree d, gives each finite root z_i the Weierstrass inclusion disc
    (Braess and Hadeler, Numer. Math. 21, 1973) of radius
    d (|P(z_i)| + e_i) / |p_d prod_j (z_i - z_j)| over the finite roots
    unequal to z_i, with e_i = gamma_16 sum_k (|p_k| + sizes_k) |z_i|^k,
    gamma_16 = 16u / (1 - 16u) and u = eps / 2. e_i bounds the Horner
    rounding of P(z_i) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 5) and that of each coefficient, gamma_16 of its size
    (_pencil_sizes for a pencil, |c| for given coefficients), so an exact
    root at 0 has radius 0. A connected component of m discs holds m
    roots: its multiplicity. Equal roots overlap, and the roots at infinity
    are one component. A component with an exact root at 0 is the root +0;
    any other of m >= 2 roots is their mean after two Newton steps on
    P^(m-1), of which it is a simple root.
    """
    live = np.nonzero(~(np.max(np.abs(coeffs), axis=1) <= COEFF_TOL))[0]
    coeffs = coeffs[live]
    rows, low, deg, real = _deflated(coeffs)
    raw = _companion_roots(rows, low, deg, real)
    at = np.arange(live.size)[:, None]
    slot = np.arange(DEGREE)
    finite = slot < deg[:, None]
    z = np.where(finite, raw, 0.0)
    # the solved polynomial P and the sizes of its coefficients' errors
    k = np.arange(DEGREE + 1)
    kept = (k >= low[:, None]) & (k <= deg[:, None])
    p = np.where(kept, np.where(real[:, None], coeffs.real, coeffs), 0.0)
    errors = np.where(kept, np.abs(p) + sizes[live], 0.0)
    value, scale = _horner(np.array((p, errors))[:, :, None], np.array((z, np.abs(z))))
    diff = z[:, :, None] - z[:, None, :]
    others = np.where(finite[:, None, :] & (diff != 0), diff, 1.0).prod(axis=2)
    unit = 8 * np.finfo(float).eps  # 16u
    bound = np.abs(value) + unit / (1 - unit) * scale.real
    radius = deg[:, None] * bound / np.abs(p[at, deg[:, None]] * others)
    # finite roots touch where their discs overlap, and infinite ones each other
    touch = np.where(finite[:, :, None] & finite[:, None, :],
                     (diff == 0) | (np.abs(diff) <= radius[:, :, None] + radius[:, None, :]),
                     finite[:, :, None] == finite[:, None, :])
    reach = touch @ touch
    reach = reach @ reach  # the components: paths of up to 4 discs
    first = reach.argmax(axis=2)
    leads = first == slot
    multiplicity = reach.sum(axis=2)
    zero = first < low[:, None]
    mean = np.where(reach, z[:, None, :], 0.0).sum(axis=2) / multiplicity
    z = np.where(finite, np.where(zero, 0.0, mean), raw)
    r, s = np.nonzero(leads & finite & ~zero & (multiplicity > 1))
    if r.size:
        m = multiplicity[r, s, None]
        c = p[r]
        for j in range(1, int(m.max())):
            c = np.where(m > j, np.pad(_derivative(c), ((0, 0), (0, 1))), c)
        z[r, s] = _polish(z[r, s, None], c)[:, 0]
    # the first slot of each component, finite ones by realness, real part,
    # |imag| and positive imag first, then infinity; the other slots last
    imag = z.imag
    order = np.lexsort((-imag, np.abs(imag), z.real, imag != 0, np.where(leads, ~finite, 2)))
    count = leads.sum(axis=1)
    multiplicity = (multiplicity * leads)[at, order]
    order = order[at, np.minimum(slot, count[:, None] - 1)]
    # adding +0 turns -0 into +0 and leaves every other value as it is
    return live, count, z[at, order] + 0.0, multiplicity


_IDENTICALLY_ZERO = "all pencil coefficients vanish; every state in the span has zero tangle"


def polynomial_roots(poly: np.ndarray):
    """The distinct extended roots of the pencil with the (5,) ascending
    coefficients ``poly`` and their multiplicities, as two arrays
    (z, multiplicity); z is inf for the root at infinity and the
    multiplicities sum to 4.

    Finite roots come from finite_roots and merge where their inclusion
    discs overlap (_roots_many), each coefficient known to its rounding; no
    distance is tuned. Real-coefficient input yields exactly
    conjugate-paired (or real) roots. Ordering: real roots ascending, then
    conjugate pairs (positive imaginary part first), then the point at
    infinity.

    Raises ValueError unless there are 5 finite coefficients, and
    IdenticallyZeroPencilError when max|c| <= COEFF_TOL: the whole span is
    a zero set and callers must treat the axis interval as [0, 1].
    """
    c = np.asarray(poly, dtype=complex).ravel()
    if c.shape[0] != DEGREE + 1:
        raise ValueError(f"expected {DEGREE + 1} coefficients, got {c.shape[0]}")
    live, count, z, multiplicity = _roots_many(c[None, :], np.abs(c[None, :]))
    if not live.size:
        raise IdenticallyZeroPencilError(_IDENTICALLY_ZERO)
    return z[0, : count[0]], multiplicity[0, : count[0]]


class _RootTables(NamedTuple):
    """The padded root tables of _roots_many with the axis coordinates,
    phases and normalized states of their roots, each (L, 4, ...)."""

    live: np.ndarray
    count: np.ndarray
    z: np.ndarray
    multiplicity: np.ndarray
    p0: np.ndarray
    phases: np.ndarray
    amps: np.ndarray

    def zero_set(self, j: int) -> ZeroSet:
        """ZeroSet of row j, its distinct roots only."""
        k = self.count[j]
        states = [PureState(3, amp) for amp in self.amps[j, :k]]
        return ZeroSet(self.z[j, :k], self.multiplicity[j, :k], self.p0[j, :k], self.phases[j, :k], states)


def _zero_sets(coeffs: np.ndarray, amps1: np.ndarray, amps2: np.ndarray) -> _RootTables:
    """Padded root tables of the pairs of rows of two (N, 8) stacks whose
    pencils are coeffs; identically vanishing pencils are left out.

    The axis coordinates, phases and states of the roots of all pencils
    are computed in one pass each; the state of a root at infinity is the
    pure amps2 end.
    """
    live, count, z, multiplicity = _roots_many(coeffs, _pencil_sizes(amps1, amps2))
    finite = np.isfinite(z)
    rows = np.nonzero(finite)[0]
    amps = np.repeat(amps2[live, None], DEGREE, axis=1)
    at_roots = amps1[live[rows]] + z[finite, None] * amps2[live[rows]]
    amps[finite] = at_roots / _row_norms(at_roots)[:, None]
    # the C hypot and pow of Python's abs(z) ** 2 on a complex scalar, whose
    # bits np.abs and ** on arrays do not always keep; 1 / (1 + inf) is the
    # 0 of the root at infinity
    p0 = 1.0 / (1.0 + np.float_power(np.hypot(z.real, z.imag), 2.0))
    return _RootTables(live, count, z, multiplicity, p0, np.angle(z), amps)


def zero_set(mix: RankTwoMixture) -> ZeroSet:
    """Roots of the mixture's pencil with axis coordinates and zero states."""
    if mix.n_qubits != 3:
        raise ValueError("zero sets are defined for 3-qubit mixtures")
    a1, a2 = mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :]
    roots = _zero_sets(_pencils(a1, a2), a1, a2)
    if not roots.live.size:
        raise IdenticallyZeroPencilError(_IDENTICALLY_ZERO)
    return roots.zero_set(0)
