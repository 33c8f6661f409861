"""Seeded inputs of the three workloads, built with numpy alone.

The same seed gives the same inputs in the workload process and in the
oracle process, which build them independently.
"""
from __future__ import annotations

import numpy as np

N_HAAR = 98
N_REAL = 98
DECOMPOSITION_PS = (0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0)
ORACLE_SAMPLES = 100_000
ORACLE_INTERIOR = 6


def ket(index: int) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[index] = 1.0
    return v


def ghz3() -> np.ndarray:
    return (ket(0) + ket(7)) / np.sqrt(2.0)


def w3() -> np.ndarray:
    return (ket(1) + ket(2) + ket(4)) / np.sqrt(3.0)


def toy_pair():
    """(GHZ3 + W3)/sqrt(2) and (GHZ3 - W3)/sqrt(2), the paper's toy pair."""
    s = 1.0 / np.sqrt(2.0)
    return s * ghz3() + s * w3(), s * ghz3() - s * w3()


def special_pairs():
    """Named pairs with known structure: (name, psi1, psi2)."""
    return [
        ("toy", *toy_pair()),
        ("ghz_w", ghz3(), w3()),  # a root at infinity
        ("000_111", ket(0), ket(7)),  # double roots at 0 and infinity
        ("000_001", ket(0), ket(1)),  # identically zero pencil
    ]


def _orthonormal_pair(g: np.ndarray):
    q, _ = np.linalg.qr(g)
    return q[:, 0].astype(complex), q[:, 1].astype(complex)


def pair_set(seed: int):
    """Special pairs, then Haar-random complex pairs, then real pairs."""
    rng = np.random.default_rng([seed, 1])
    out = special_pairs()
    for k in range(N_HAAR):
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        out.append((f"haar{k}", *_orthonormal_pair(g)))
    for k in range(N_REAL):
        out.append((f"real{k}", *_orthonormal_pair(rng.standard_normal((8, 2)))))
    return out


def oracle_calls(seed: int):
    """(p, sampler seed) per call: p = 0, p = 1, then seeded interior p."""
    rng = np.random.default_rng([seed, 3])
    ps = [0.0, 1.0] + [float(p) for p in rng.uniform(0.0, 1.0, ORACLE_INTERIOR)]
    seeds = [int(s) for s in rng.integers(0, 2**31, len(ps))]
    return list(zip(ps, seeds))


def family_scan_grid():
    """The p grid of `scan4q --p-grid 101`: 101 interior points of [0, 1]."""
    return np.linspace(0.0, 1.0, 103)[1:-1]


def family_monogamy_grid():
    """The p grid of `monogamy --p-grid 101`."""
    return np.linspace(0.0, 1.0, 101)
