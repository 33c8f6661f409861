"""Degree-4 polynomial along a rank-two state family and its extended roots.

For an orthonormal pair (psi1, psi2) the family psi1 + z*psi2 over the
extended complex plane covers every pure state in the span; the tangle
along it is a polynomial of degree at most 4 in z whose roots are the
zero-tangle states. Vanishing leading coefficients are counted as roots at
infinity (the pure psi2 end), so the root count is always exactly 4.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _kernels
from .states import PureState, RankTwoMixture

__all__ = [
    "PencilPolynomial",
    "ExtendedRoot",
    "ZeroSet",
    "IdenticallyZeroPencilError",
    "pencil_coefficients",
    "pencil_polynomial",
    "finite_roots",
    "polynomial_roots",
    "zero_set",
]

DEGREE = 4
COEFF_TOL = 1e-10
CLUSTER_TOL = 1e-6

# interpolation nodes: 5th roots of unity, Vandermonde inverted once
_NODES = np.exp(2j * np.pi * np.arange(DEGREE + 1) / (DEGREE + 1))
_VANDERMONDE_INV = np.linalg.inv(np.vander(_NODES, DEGREE + 1, increasing=True))


class IdenticallyZeroPencilError(Exception):
    """Every state in the span has zero tangle; the zero set is the whole ball."""


@dataclass(frozen=True, eq=False)
class PencilPolynomial:
    """Tangle polynomial P(z) = sum c_k z^k along psi1 + z*psi2."""

    coefficients: np.ndarray
    psi1: Optional[PureState] = None
    psi2: Optional[PureState] = None

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex).ravel()
        if c.shape[0] != DEGREE + 1:
            raise ValueError(f"expected {DEGREE + 1} coefficients, got {c.shape[0]}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def __call__(self, z):
        return npoly.polyval(z, self.coefficients)

    def derivative(self, z):
        c = self.coefficients
        return npoly.polyval(z, c[1:] * np.arange(1, c.shape[0]))

    def degree(self, tol: float = COEFF_TOL) -> int:
        """Numerical degree: largest k with |c_k| above tol * max|c|."""
        return int(_degrees(self.coefficients[None, :], tol)[0])


@dataclass(frozen=True)
class ExtendedRoot:
    """Root of the pencil polynomial; z is None for the point at infinity."""

    z: Optional[complex]
    multiplicity: int = 1

    @property
    def at_infinity(self) -> bool:
        return self.z is None

    @property
    def p0(self) -> float:
        """Axis coordinate 1 / (1 + |z|^2) of the root's Bloch point."""
        if self.z is None:
            return 0.0
        return float(1.0 / (1.0 + abs(self.z) ** 2))

    @property
    def phase(self) -> float:
        if self.z is None:
            return 0.0
        return float(np.angle(self.z))


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Roots of the pencil with derived axis coordinates, phases, and states.

    ``roots`` holds the distinct extended roots with multiplicity; ``p0``,
    ``phases`` and ``states`` are expanded with multiplicity to length 4,
    aligned with the root order.
    """

    roots: tuple
    p0: np.ndarray
    phases: np.ndarray
    states: tuple

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float)
        ph = np.asarray(self.phases, dtype=float)
        p0.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "roots", tuple(self.roots))
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "states", tuple(self.states))


def pencil_coefficients(amps1: np.ndarray, amps2: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the pencils of stacked 3-qubit pairs.

    amps1 and amps2 are (N, 8) amplitude stacks; row n of the (N, 5) result
    interpolates the tangle along amps1[n] + z*amps2[n] at the 5 roots of
    unity, all 5N samples going through one tau3_many call.
    """
    amps1 = np.asarray(amps1, dtype=complex)
    amps2 = np.asarray(amps2, dtype=complex)
    if amps1.ndim != 2 or amps1.shape[1] != 8 or amps2.shape != amps1.shape:
        raise ValueError("pencil coefficients need two (N, 8) amplitude stacks")
    samples = _NODES[None, :, None] * amps2[:, None, :]
    samples += amps1[:, None, :]
    values = _kernels.tau3_many(samples.reshape(-1, 8)).reshape(-1, DEGREE + 1)
    # one matrix-vector product per row, as for a single pair
    return np.matmul(_VANDERMONDE_INV, values[..., None])[..., 0]


def pencil_polynomial(psi1: PureState, psi2: PureState) -> PencilPolynomial:
    """Interpolate the tangle along psi1 + z*psi2 at 5 roots of unity."""
    if psi1.n_qubits != 3 or psi2.n_qubits != 3:
        raise ValueError("pencil polynomial is defined for 3-qubit pairs")
    coeffs = pencil_coefficients(psi1.amplitudes[None, :], psi2.amplitudes[None, :])
    return PencilPolynomial(coeffs[0], psi1, psi2)


def _degrees(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """Numerical degree of each row: largest k with |c_k| above tol * max|c|.

    Rows with no coefficient above the floor (the zero row, or any row when
    tol >= 1) read -1.
    """
    mags = np.abs(coeffs)
    above = mags > tol * mags.max(axis=1, keepdims=True)
    return np.where(above.any(axis=1), DEGREE - np.argmax(above[:, ::-1], axis=1), -1)


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise polynomial values in npoly.polyval's order, c[k] + v*x."""
    v = c[:, -1:] + x * 0
    for k in range(c.shape[1] - 2, -1, -1):
        v = c[:, k : k + 1] + v * x
    return v


def _polish(roots: np.ndarray, c: np.ndarray, steps: int = 2) -> np.ndarray:
    dc = c[:, 1:] * np.arange(1, c.shape[1])
    out = roots
    for _ in range(steps):
        pv = _horner(c, out)
        dv = _horner(dc, out)
        safe = np.abs(dv) > 1e-30
        out = np.where(safe, out - pv / np.where(safe, dv, 1.0), out)
    return out


def finite_roots(coeffs: np.ndarray, tol: float = COEFF_TOL):
    """Polished finite roots, unclustered, of each row of an (N, 5) stack.

    Returns an (N, 4) complex array and the (N,) number of roots at
    infinity. Each leading coefficient at or below tol * max|c| counts as
    one root at infinity, at most 4 per row; those slots hold inf after
    the finite roots. Finite roots come from the companion matrices of the
    monic reductions, one eigvals call per numerical degree, polished by
    two Newton steps. They are neither merged nor conjugate-symmetrized,
    so they move smoothly with the pair.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = _degrees(coeffs, tol)
    roots = np.full((coeffs.shape[0], DEGREE), np.inf, dtype=complex)
    for d in range(1, DEGREE + 1):
        rows = np.nonzero(deg == d)[0]
        if rows.size == 0:
            continue
        c = coeffs[rows, : d + 1]
        if d == 1:
            raw = -c[:, :1] / c[:, 1:]
        else:
            comp = np.zeros((rows.size, d, d), dtype=complex)
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -(c[:, :-1] / c[:, -1:])
            raw = np.linalg.eigvals(comp)
        roots[rows, :d] = _polish(raw, c)
    return roots, DEGREE - np.maximum(deg, 0)


def _symmetrize_conjugates(roots: np.ndarray, pair_tol: float) -> list:
    """Pair roots of a real-coefficient polynomial into exact conjugates."""
    work = sorted(roots.tolist(), key=lambda z: (z.real, z.imag))
    used = [False] * len(work)
    out = []
    for i, zi in enumerate(work):
        if used[i]:
            continue
        used[i] = True
        scale = 1.0 + abs(zi)
        if abs(zi.imag) <= 1e-8 * scale:
            out.append(complex(zi.real, 0.0))
            continue
        best_j, best_d = -1, np.inf
        for j in range(i + 1, len(work)):
            if used[j]:
                continue
            d = abs(work[j] - zi.conjugate())
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= pair_tol * scale:
            used[best_j] = True
            w = 0.5 * (zi + work[best_j].conjugate())
            if abs(w.imag) <= 1e-8 * (1.0 + abs(w)):
                out.extend([complex(w.real, 0.0)] * 2)
            else:
                w = complex(w.real, abs(w.imag))
                out.extend([w, w.conjugate()])
        else:
            # a real polynomial cannot have an unpaired complex root
            out.append(complex(zi.real, 0.0))
    return out


def _cluster(roots: Sequence[complex], tol: float) -> list:
    """Merge roots within relative distance tol into (mean, multiplicity)."""
    reps: list = []
    for z in sorted(roots, key=lambda v: (v.real, v.imag)):
        for k, (rep, mult) in enumerate(reps):
            if abs(z - rep) <= tol * max(1.0, abs(z), abs(rep)):
                reps[k] = ((rep * mult + z) / (mult + 1), mult + 1)
                break
        else:
            reps.append((z, 1))
    return reps


def _order_key(item):
    z, _ = item
    if z.imag == 0.0:
        return (0, z.real, 0.0, 0.0)
    return (1, z.real, abs(z.imag), -np.sign(z.imag))


def polynomial_roots(
    poly: PencilPolynomial,
    tol: float = COEFF_TOL,
    cluster_tol: float = CLUSTER_TOL,
) -> list:
    """All 4 extended roots of the pencil, counted with multiplicity.

    Finite roots come from finite_roots and are merged when they lie within
    relative distance cluster_tol. Real-coefficient input yields exactly
    conjugate-paired (or real) roots. Ordering: real roots ascending, then
    conjugate pairs (positive imaginary part first), then the point at
    infinity.

    Raises IdenticallyZeroPencilError when max|c| <= tol: the whole span
    is a zero set and callers must treat the axis interval as [0, 1].
    """
    c = poly.coefficients
    peak = float(np.max(np.abs(c)))
    if peak <= tol:
        raise IdenticallyZeroPencilError(
            "all pencil coefficients vanish; every state in the span has zero tangle"
        )
    roots, n_inf = finite_roots(c[None, :], tol)
    n_inf = int(n_inf[0])
    raw = roots[0, : DEGREE - n_inf]
    merged: list = []
    if raw.size:
        real_coeffs = float(np.max(np.abs(c[: raw.size + 1].imag))) <= 1e-9 * peak
        if real_coeffs:
            finite = _symmetrize_conjugates(raw, cluster_tol)
        else:
            finite = [complex(z) for z in raw]
        merged = _cluster(finite, cluster_tol)
    merged.sort(key=_order_key)
    roots = [ExtendedRoot(z, mult) for z, mult in merged]
    if n_inf > 0:
        roots.append(ExtendedRoot(None, n_inf))
    total = sum(r.multiplicity for r in roots)
    if total != DEGREE:
        raise RuntimeError(f"root count {total} != {DEGREE}; numerical breakdown")
    return roots


def zero_set(mix: RankTwoMixture, tol: float = COEFF_TOL) -> ZeroSet:
    """Roots of the mixture's pencil with axis coordinates and zero states."""
    if mix.n_qubits != 3:
        raise ValueError("zero sets are defined for 3-qubit mixtures")
    poly = pencil_polynomial(mix.psi1, mix.psi2)
    roots = polynomial_roots(poly, tol)
    p0, phases, states = [], [], []
    for root in roots:
        if root.at_infinity:
            state = mix.psi2
        else:
            amps = mix.psi1.amplitudes + root.z * mix.psi2.amplitudes
            state = PureState(3, amps / np.linalg.norm(amps))
        for _ in range(root.multiplicity):
            p0.append(root.p0)
            phases.append(root.phase)
            states.append(state)
    return ZeroSet(tuple(roots), np.array(p0), np.array(phases), tuple(states))
