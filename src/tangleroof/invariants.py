"""Entanglement invariants: three-tangle, its square root, concurrence, one-tangle."""
from __future__ import annotations

import numpy as np

from . import _kernels
from .states import DensityMatrix, PureState, _partial_traces

__all__ = [
    "three_tangle",
    "c3",
    "c3_many",
    "wootters_concurrence",
    "one_tangle",
]


def _require_three_qubits(psi: PureState):
    if psi.n_qubits != 3:
        raise ValueError(f"three-tangle is defined for 3 qubits, got {psi.n_qubits}")


def three_tangle(psi: PureState) -> complex:
    """Degree-4 tangle polynomial of a 3-qubit state, τ3(GHZ3) = 1.

    The input need not be normalized; the value scales with the fourth
    power of the amplitudes. The analytic (complex) polynomial value is
    returned, not its modulus, so it can be used for root finding.
    """
    _require_three_qubits(psi)
    return complex(_kernels.tau3_many(psi.amplitudes[None, :])[0])


def c3(psi: PureState) -> float:
    """sqrt|three_tangle|; lies in [0, 1] for normalized input."""
    return float(np.sqrt(abs(three_tangle(psi))))


def c3_many(amps: np.ndarray) -> np.ndarray:
    """sqrt|three_tangle| for each row of an (m, 8) amplitude array."""
    return np.sqrt(np.abs(_kernels.tau3_many(amps)))


_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def _concurrences(matrices: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each matrix of an (N, 4, 4) stack, one eigvals call."""
    flipped = _SY_SY @ matrices.conj() @ _SY_SY
    ev = np.linalg.eigvals(matrices @ flipped)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort(axis=-1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, λ1-λ2-λ3-λ4) from the spin-flip spectrum."""
    if rho.n_qubits != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got {rho.n_qubits}")
    return float(_concurrences(rho.matrix[None])[0])


def _one_tangles(amps: np.ndarray, n: int, cut: int) -> np.ndarray:
    """4 det of the single-qubit reduction at ``cut`` of each normalized row, in [0, 1]."""
    val = 4.0 * np.linalg.det(_partial_traces(amps, n, (cut,))).real
    return np.clip(val, 0.0, 1.0)


def one_tangle(psi: PureState, cut: int) -> float:
    """4 det of the single-qubit reduction at index ``cut``; in [0, 1]."""
    return float(_one_tangles(psi.normalized().amplitudes[None, :], psi.n_qubits, cut)[0])
