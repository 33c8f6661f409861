"""Batched numeric cores: the tangle polynomial, its binary quartic form on a
span, and the sampler's inner loop.

Inside the span of a pair (psi1, psi2) the tangle is the binary quartic

    tau3(a psi1 + b psi2) = sum_k c_k a^(4-k) b^k,

where c_0..c_4 are the coefficients of the pencil P(z) = tau3(psi1 + z psi2),
with c_0 = tau3(psi1) and c_4 = tau3(psi2) exact
(``PencilPolynomial.form_coefficients``). ``tau3_many`` evaluates the
polynomial on full amplitude rows and serves the pencil interpolation; every
span state is then evaluated by ``quartic_form`` on its two span coordinates.
"""
from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tau3_many", "quartic_form", "min_average_batch"]


def backend_name() -> str:
    """Name of the array backend running the kernels."""
    return "numpy"


def tau3_many(amps: np.ndarray) -> np.ndarray:
    """Degree-4 tangle polynomial for each row of an (m, 8) amplitude array.

    Rows need not be normalized; the value scales with the fourth power of
    the row norm. Index convention: bit b2b1b0 with qubit 0 most significant.
    """
    a = np.asarray(amps, dtype=complex)
    p1 = a[:, 0] * a[:, 7]
    p2 = a[:, 3] * a[:, 4]
    p3 = a[:, 5] * a[:, 2]
    p4 = a[:, 6] * a[:, 1]
    d1 = p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4
    d2 = p1 * p2 + p1 * p3 + p1 * p4 + p2 * p3 + p2 * p4 + p3 * p4
    d3 = a[:, 0] * a[:, 6] * a[:, 5] * a[:, 3] + a[:, 7] * a[:, 1] * a[:, 2] * a[:, 4]
    return 4.0 * (d1 - 2.0 * d2 + 4.0 * d3)


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


def min_average_batch(
    coeffs: np.ndarray, scales, gauss: np.ndarray, sizes: np.ndarray
) -> float:
    """Smallest decomposition average of sqrt|tau3| over a batch of draws.

    coeffs are the quartic-form coefficients of the mixture's eigenpair
    (psi1, psi2) and scales the pair (sqrt(w1), sqrt(w2)) of square-root
    weights. Sample s builds a random sizes[s] x 2 isometry U by
    Gram-Schmidt on the Gaussian block gauss[s, :sizes[s]] (layout [row,
    column, re/im]). Its rows give the unnormalized decomposition members
    U[i, 0] sqrt(w1) psi1 + U[i, 1] sqrt(w2) psi2, whose weights are
    absorbed by degree-4 homogeneity, so the decomposition average is
    sum_i sqrt|quartic_form(coeffs, a_i, b_i)| with a_i = U[i, 0] sqrt(w1)
    and b_i = U[i, 1] sqrt(w2). The weights scale (a, b), not the
    coefficients, so a zero weight leaves the other pure end exact.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    s1, s2 = (float(s) for s in scales)
    gauss = np.asarray(gauss, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64)
    best = np.inf
    for m in np.unique(sizes):
        sel = sizes == m
        g = gauss[sel, :m]
        c = g[..., 0] + 1j * g[..., 1]
        u1 = c[:, :, 0]
        n1 = np.linalg.norm(u1, axis=1)
        ok = n1 > 1e-12
        u1 = u1[ok] / n1[ok, None]
        u2 = c[ok, :, 1]
        u2 = u2 - np.sum(u1.conj() * u2, axis=1, keepdims=True) * u1
        n2 = np.linalg.norm(u2, axis=1)
        ok2 = n2 > 1e-12
        if not np.any(ok2):
            continue
        u2 = u2[ok2] / n2[ok2, None]
        u1 = u1[ok2]
        vals = np.sqrt(np.abs(quartic_form(coeffs, s1 * u1, s2 * u2)))
        group_best = float(np.min(vals.sum(axis=1)))
        if group_best < best:
            best = group_best
    return best
