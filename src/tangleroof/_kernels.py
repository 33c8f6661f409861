"""Batched numeric cores: the tangle polynomial and the sampler's inner loop."""
from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tau3_many", "min_average_batch"]


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


def min_average_batch(base: np.ndarray, gauss: np.ndarray, sizes: np.ndarray) -> float:
    """Smallest decomposition average of sqrt|tau3| over a batch of draws.

    base is the (2, 8) array [sqrt(w1)*psi1, sqrt(w2)*psi2]. Sample s builds
    a random sizes[s] x 2 isometry by Gram-Schmidt on the Gaussian block
    gauss[s, :sizes[s]] (layout [row, column, re/im]); the rows of
    isometry @ base are unnormalized decomposition members whose weights are
    absorbed by degree-4 homogeneity, so the decomposition average equals
    sum_i sqrt|tau3(row_i)|.
    """
    base = np.asarray(base, dtype=complex)
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
        rows = u1[:, :, None] * base[0] + u2[:, :, None] * base[1]
        vals = np.sqrt(np.abs(tau3_many(rows.reshape(-1, 8)))).reshape(rows.shape[:2])
        group_best = float(np.min(vals.sum(axis=1)))
        if group_best < best:
            best = group_best
    return best
