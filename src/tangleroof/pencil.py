"""Degree-4 polynomial along a rank-two state family and its extended roots.

For an orthonormal pair (psi1, psi2) the family psi1 + z*psi2 over the
extended complex plane covers every pure state in the span; the tangle
along it is a polynomial of degree at most 4 in z whose roots are the
zero-tangle states. Vanishing leading coefficients are counted as roots at
infinity (the pure psi2 end), so the root count is always exactly 4.
"""
from __future__ import annotations

from dataclasses import dataclass
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

# Per-call constant tables, built once here, since a stack of one pays for
# every table a call builds. _RAMP is 0..5: the powers 0..4 of a pencil's
# coefficients, of which 0..3 index the slots of a root table; 16u = 8 eps,
# u the unit roundoff; _SHIFT has ones below the diagonal, and its leading
# d x d block starts a companion matrix. By a row's low and deg (0..4):
# _FINITE[deg] marks its finite slots, _ZERO_ROOTS[low] is its initial root
# row (+0 in the low slots, inf after them), _KEPT[low, deg] marks its
# solved powers low..deg, and _SHIFTED[low] takes c_low..c_4 and copies of c_4;
# _PAIRS[:, deg] holds, for the (i, j) slot pairs, whether j is finite,
# whether both are, and whether both or neither are.
_RAMP = _read_only(np.arange(DEGREE + 2))
_POWERS, _SLOTS = _RAMP[: DEGREE + 1], _RAMP[:DEGREE]
_UNIT16 = 8 * np.finfo(float).eps
_SHIFT = _read_only(np.eye(DEGREE, k=-1))
_FINITE = _read_only(_SLOTS < _POWERS[:, None])
_ZERO_ROOTS = _read_only(np.where(_FINITE, 0j, complex(np.inf)))
_KEPT = _read_only((_POWERS >= _POWERS[:, None, None]) & (_POWERS <= _POWERS[:, None]))
_SHIFTED = _read_only(np.minimum(_POWERS[:, None] + _POWERS, DEGREE))
_PAIRS = _read_only(np.array([
    np.broadcast_to(_FINITE[:, None, :], (DEGREE + 1, DEGREE, DEGREE)),
    _FINITE[:, :, None] & _FINITE[:, None, :],
    _FINITE[:, :, None] == _FINITE[:, None, :],
]))


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


def _pencil_tables(amps1: np.ndarray, amps2: np.ndarray):
    """The (N, 5) pencils of _pencils and the (N, 5) sizes of their
    coefficients from one walk over the amplitude products.

    The size of a coefficient sums the moduli of the products that _pencils
    adds into it, 4 ((sum_k p_k)^2 + 4 d3) of the amplitude moduli, as
    d1 + 2 d2 = (sum_k p_k)^2. A product passes through at most 12
    roundings, so a coefficient is within gamma_12 times its size of exact.
    The moduli ride as complex numbers with zero imaginary parts beside the
    amplitudes through one _kernels.tau3_terms call: a product or sum of
    such numbers has the bits of the real one in its real part. A stack of
    one takes about 70 us (2-CPU host, numpy 2.4).
    """
    x = np.array((amps1, amps2), dtype=complex).transpose(2, 0, 1)
    n = x.shape[2]
    p, d3 = _kernels.tau3_terms(np.concatenate((x, np.abs(x)), axis=2), _polymul)
    coeffs = _kernels.tau3_sum(p[..., :n], d3[:, :n], _polymul)
    s = p[..., n:].sum(axis=0, keepdims=True)
    sizes = 4.0 * (_polymul(s, s) + 4.0 * d3[:, n:])
    return np.ascontiguousarray(coeffs.T), sizes[0].real.T


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
        # in place: v * x + c[..., k] has the bits of c[..., k] + v * x
        v *= x
        v += c[..., k]
    return v


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of each polynomial c[..., k] z^k, one
    fewer than c's."""
    return c[..., 1:] * _RAMP[1 : c.shape[-1]]


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

    Coefficient k of the three polynomials, repeated at every root, is the
    contiguous block polys[k], so each Horner step is a product and a sum
    of equal shapes: numpy broadcasts a tiny stack at twice the cost. A
    stack of one quartic takes about 35 us (2-CPU host, numpy 2.4).
    """
    polys = np.zeros((c.shape[1], 3) + roots.shape, dtype=complex)
    polys[:, 0] = c.T[:, :, None]
    polys[:-1, 1] = _derivative(c).T[:, :, None]
    np.abs(polys[:, 1], out=polys[:, 2])
    pv, dv, scale = _horner(polys.transpose(1, 2, 3, 0), np.array((roots, roots, np.abs(roots))))
    noise = _UNIT16 * scale.real
    for step in range(2):
        if step:
            pv, dv = _horner(polys[:, :2].transpose(1, 2, 3, 0), np.array((roots, roots)))
        delta = np.divide(pv, dv, out=np.zeros(pv.shape, dtype=complex), where=np.abs(dv) > noise)
        roots = roots - delta
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
    low = above.argmax(axis=1)
    deg = (above * _RAMP[1:]).max(axis=1) - 1
    real = np.abs(coeffs.imag).max(axis=1, keepdims=True) <= REAL_TOL * peaks
    rows = np.where(real, coeffs.real, coeffs)
    if np.count_nonzero(low):
        rows = np.take_along_axis(rows, _SHIFTED[low], axis=1)
    return rows, low, deg, real[:, 0]


def _companion_roots(rows: np.ndarray, low: np.ndarray, deg: np.ndarray, real: np.ndarray):
    """The (N, 4) roots that finite_roots returns, from the _deflated stack:
    one eigvals and one _polish call per deflated degree and realness, with
    the initial root rows and the companion shift read from tables built at
    import. A stack of one takes about 65 us (2-CPU host, numpy 2.4)."""
    roots = _ZERO_ROOTS.take(low, axis=0)
    companion = deg - low  # the degree of each row left to the companion matrix
    for d, is_real in sorted(set(zip(companion.tolist(), real.tolist()))):
        if d < 1:
            continue
        idx = np.nonzero((companion == d) & (real == is_real))[0]
        c = rows.take(idx, axis=0)[:, : d + 1]
        if is_real:
            # LAPACK's real Schur form returns complex eigenvalues as exact
            # conjugates, and Newton on real coefficients keeps them so
            c = c.real
        comp = np.empty((idx.size, d, d), dtype=c.dtype)
        comp[:] = _SHIFT[:d, :d]
        comp[:, :, -1] = -(c[:, :-1] / c[:, -1:])
        raw = np.linalg.eigvals(comp)
        roots[idx[:, None], low.take(idx)[:, None] + _SLOTS[:d]] = _polish(raw, c)
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
    (_pencil_tables for a pencil, |c| for given coefficients), so an exact
    root at 0 has radius 0. A connected component of m discs holds m
    roots: its multiplicity. Equal roots overlap, and the roots at infinity
    are one component. A component with an exact root at 0 is the root +0;
    any other of m >= 2 roots is their mean after two Newton steps on
    P^(m-1), of which it is a simple root. Where every disc touches only
    itself, each root is a component of one and the component, mean and
    refinement steps are skipped: a stack of one with four simple roots
    takes about 160 us (2-CPU host, numpy 2.4), its companion solve
    (_companion_roots) about 65 us of that.
    """
    live = np.nonzero(~(np.abs(coeffs).max(axis=1) <= COEFF_TOL))[0]
    coeffs = coeffs.take(live, axis=0)
    rows, low, deg, real = _deflated(coeffs)
    raw = _companion_roots(rows, low, deg, real)
    at = np.arange(live.size)[:, None]
    finite = _FINITE.take(deg, axis=0)
    z = np.where(finite, raw, 0.0)
    # the solved polynomial P and the sizes of its coefficients' errors
    kept = _KEPT[low, deg]
    p = np.where(kept, np.where(real[:, None], coeffs.real, coeffs), 0.0)
    errors = np.where(kept, np.abs(p) + sizes.take(live, axis=0), 0.0)
    value, scale = _horner(np.array((p, errors))[:, :, None], np.array((z, np.abs(z))))
    diff = z[:, :, None] - z[:, None, :]
    finite_j, both, same = _PAIRS.take(deg, axis=1)
    others = np.where(finite_j & (diff != 0), diff, 1.0).prod(axis=2)
    bound = np.abs(value) + _UNIT16 / (1 - _UNIT16) * scale.real
    radius = deg[:, None] * bound / np.abs(p[at, deg[:, None]] * others)
    # finite roots touch where their discs overlap, and infinite ones each other
    touch = np.where(both, (diff == 0) | (np.abs(diff) <= radius[:, :, None] + radius[:, None, :]), same)
    # each disc touches only itself where every root is a component of one,
    # the mean of which is the root itself, and every slot leads
    lone = np.count_nonzero(touch) == touch.shape[0] * DEGREE
    if lone:
        z = raw
    else:
        reach = touch @ touch
        reach = reach @ reach  # the components: paths of up to 4 discs
        first = reach.argmax(axis=2)
        leads = first == _SLOTS
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
    # |imag| and positive imag first, then infinity; the other slots last;
    # adding +0 turns -0 into +0 and leaves every other value as it is
    imag = z.imag
    last = ~finite if lone else np.where(leads, ~finite, 2)
    order = np.lexsort((-imag, np.abs(imag), z.real, imag != 0, last))
    if lone:
        return live, np.full(live.size, DEGREE), z[at, order] + 0.0, np.ones(z.shape, dtype=int)
    count = leads.sum(axis=1)
    multiplicity = (multiplicity * leads)[at, order]
    order = order[at, np.minimum(_SLOTS, count[:, None] - 1)]
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


def _zero_sets(coeffs: np.ndarray, sizes: np.ndarray, amps1: np.ndarray, amps2: np.ndarray) -> _RootTables:
    """Padded root tables of the pairs of rows of two (N, 8) stacks whose
    pencils are coeffs and whose coefficient sizes are sizes
    (_pencil_tables); identically vanishing pencils are left out.

    The axis coordinates, phases and states of the roots of all pencils
    are computed in one pass each, every slot at once; the state of a root
    at infinity is the pure amps2 end. A stack of one takes about 195 us
    (2-CPU host, numpy 2.4).
    """
    live, count, z, multiplicity = _roots_many(coeffs, sizes)
    a1, a2 = (a.take(live, axis=0)[:, None] for a in (amps1, amps2))
    finite = np.isfinite(z)[..., None]
    # a slot at infinity reads amps1 and keeps amps2
    at_roots = a1 + np.where(finite, z[..., None], 0.0) * a2
    norms = _row_norms(at_roots.reshape(-1, 8)).reshape(finite.shape)
    amps = np.where(finite, at_roots / norms, a2)
    # the C hypot and pow of Python's abs(z) ** 2 on a complex scalar, whose
    # bits np.abs and ** on arrays do not always keep; 1 / (1 + inf) is the
    # 0 of the root at infinity
    p0 = 1.0 / (1.0 + np.float_power(np.hypot(z.real, z.imag), 2.0))
    return _RootTables(live, count, z, multiplicity, p0, np.arctan2(z.imag, z.real), amps)


def zero_set(mix: RankTwoMixture) -> ZeroSet:
    """Roots of the mixture's pencil with axis coordinates and zero states."""
    if mix.n_qubits != 3:
        raise ValueError("zero sets are defined for 3-qubit mixtures")
    a1, a2 = mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :]
    roots = _zero_sets(*_pencil_tables(a1, a2), a1, a2)
    if not roots.live.size:
        raise IdenticallyZeroPencilError(_IDENTICALLY_ZERO)
    return roots.zero_set(0)
