"""Batched numeric cores: the tangle polynomial, its binary quartic form on a
span, the random isometries of the sampler and its inner loop.

Inside the span of a pair (psi1, psi2) the tangle is the binary quartic

    tau3(a psi1 + b psi2) = sum_k c_k a^(4-k) b^k,

where c_0..c_4 are the coefficients of the pencil P(z) = tau3(psi1 + z psi2)
(``pencil_polynomial``, the one vector that the roots read too).
``tau3_products`` evaluates the polynomial, written once as a table of
amplitude products: ``tau3_many`` on full amplitude rows, and
``pencil._pencils`` on the linear polynomials psi1_i + z psi2_i; every span
state is then evaluated by ``quartic_form`` on its two span coordinates.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "backend_name", "tau3_many", "quartic_form", "isometry_columns", "min_average_batch",
]


def backend_name() -> str:
    """Name of the array backend running the kernels."""
    return "numpy"


# tau3 = 4 (d1 - 2 d2 + 4 d3) (Coffman, Kundu and Wootters, PRA 61, 052306,
# 2000) in the amplitudes a_i, with p_k = a_i a_j for the pairs (i, j) of
# TAU3_PAIRS: d1 and d2 sum p_k p_l over the (k, l) of TAU3_D1 and TAU3_D2,
# and d3 the products ((a_i a_j) a_k) a_l of TAU3_FOURFOLD.
TAU3_PAIRS = ((0, 7), (3, 4), (5, 2), (6, 1))
TAU3_D1 = ((0, 0), (1, 1), (2, 2), (3, 3))
TAU3_D2 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TAU3_FOURFOLD = ((0, 6, 5, 3), (7, 1, 2, 4))
_PAIRS, _TERMS, _CHAINS = (np.array(t).T for t in (TAU3_PAIRS, TAU3_D1 + TAU3_D2, TAU3_FOURFOLD))


def tau3_products(a: np.ndarray, mul=np.multiply) -> np.ndarray:
    """The tangle polynomial of a stack a whose axis 0 runs over the 8
    amplitudes, with mul as the product (pencil._pencils passes linear
    polynomials and _polymul). Each kind of product is taken for all its
    index pairs at once, as mul(left, right); sums run left to right."""
    p = mul(a.take(_PAIRS[0], axis=0), a.take(_PAIRS[1], axis=0))
    d = mul(p.take(_TERMS[0], axis=0), p.take(_TERMS[1], axis=0))
    n1 = len(TAU3_D1)
    d1, d2, d3 = (reduce(np.add, t) for t in (d[:n1], d[n1:], reduce(mul, a.take(_CHAINS, axis=0))))
    return 4.0 * (d1 - 2.0 * d2 + 4.0 * d3)


def tau3_many(amps: np.ndarray) -> np.ndarray:
    """Degree-4 tangle polynomial for each row of an (m, 8) amplitude array.

    Rows need not be normalized; the value scales with the fourth power of
    the row norm. Index convention: bit b2b1b0 with qubit 0 most significant.
    """
    return tau3_products(np.asarray(amps, dtype=complex).T)


def quartic_form(c: np.ndarray, a, b) -> np.ndarray:
    """Tangle sum_k c_k a^(4-k) b^k of the span states a*psi1 + b*psi2.

    c holds the ascending pencil coefficients in its last axis; a and b
    broadcast against each other and against c[..., 0]. The homogeneous
    Horner order (((c4 b + c3 a) b + c2 a^2) b + c1 a^3) b + c0 a^4 never
    divides by a, so a = 0 (the pure psi2 end) and b = 0 (the pure psi1
    end) give c_4 b^4 and c_0 a^4 exactly.
    """
    c = np.asarray(c, dtype=complex)
    a2 = a * a
    v = c[..., 4] * b + c[..., 3] * a
    v = v * b + c[..., 2] * a2
    v = v * b + c[..., 1] * (a2 * a)
    return v * b + c[..., 0] * (a2 * a2)


# A column whose squared norm is at most this is degenerate: a Gram-Schmidt
# norm of at most 1e-12, compared squared.
_TINY_NORM_SQ = 1e-24


def isometry_columns(planes: np.ndarray, scales) -> tuple:
    """Scaled orthonormal column pairs of random isometries, by real Gram-Schmidt.

    planes holds two complex columns z1, z2 per sample as real planes, in the
    layout [column, re/im, row, sample]. Returns (ok, a, b): a = s1 u1 and
    b = s2 u2 are (row, sample) complex arrays, where u1 = z1/|z1|,
    u2 = w/|w| with w = z2 - <u1, z2> u1, and (s1, s2) = scales. ok is False
    where |z1|^2 or |w|^2 is at most 1e-24; a and b are finite there but
    mean nothing.
    """
    s1, s2 = (float(s) for s in scales)
    v1, v2 = np.ascontiguousarray(planes, dtype=float)
    (x1, y1), (x2, y2) = v1, v2
    n1sq = np.einsum("zji,zji->i", v1, v1)
    ok = n1sq > _TINY_NORM_SQ
    n1sq[~ok] = 1.0
    # <z1, z2> / |z1|^2 = re + i im
    re = np.einsum("zji,zji->i", v1, v2) / n1sq
    im = (np.einsum("ji,ji->i", x1, y2) - np.einsum("ji,ji->i", y1, x2)) / n1sq
    x2 = x2 - re * x1
    x2 += im * y1
    y2 = y2 - re * y1
    y2 -= im * x1
    n2sq = np.einsum("ji,ji->i", x2, x2) + np.einsum("ji,ji->i", y2, y2)
    ok &= n2sq > _TINY_NORM_SQ
    n2sq[~ok] = 1.0
    a = np.empty(x1.shape, dtype=complex)
    b = np.empty(x1.shape, dtype=complex)
    r1 = s1 / np.sqrt(n1sq)
    r2 = s2 / np.sqrt(n2sq)
    np.multiply(x1, r1, out=a.real)
    np.multiply(y1, r1, out=a.imag)
    np.multiply(x2, r2, out=b.real)
    np.multiply(y2, r2, out=b.imag)
    return ok, a, b


def min_average_batch(coeffs: np.ndarray, scales, gauss: np.ndarray) -> float:
    """Smallest decomposition average of sqrt|tau3| over a batch of size-m draws.

    coeffs are the quartic-form coefficients of the mixture's eigenpair
    (psi1, psi2) and scales the pair (sqrt(w1), sqrt(w2)) of square-root
    weights. gauss has shape (n, m, 2, 2), layout [sample, row, column,
    re/im]: sample s builds a random m x 2 isometry U by Gram-Schmidt on
    gauss[s]. Its rows give the unnormalized decomposition members
    U[i, 0] sqrt(w1) psi1 + U[i, 1] sqrt(w2) psi2, whose weights are
    absorbed by degree-4 homogeneity, so the decomposition average is
    sum_i sqrt|quartic_form(coeffs, a_i, b_i)| with a_i = U[i, 0] sqrt(w1)
    and b_i = U[i, 1] sqrt(w2). The weights scale (a, b), not the
    coefficients, so a zero weight leaves the other pure end exact.
    Samples whose isometry is degenerate (``isometry_columns``) total inf,
    so a batch of only those gives inf.
    """
    ok, a, b = isometry_columns(np.transpose(gauss, (2, 3, 1, 0)), scales)
    totals = np.sqrt(np.abs(quartic_form(coeffs, a, b))).sum(axis=0)
    totals[~ok] = np.inf
    return float(totals.min())
