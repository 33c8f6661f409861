"""Entanglement invariants: three-tangle, its square root, concurrence, one-tangle."""
from __future__ import annotations

import numpy as np

from . import _kernels
from .states import DensityMatrix, PureState, partial_trace

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


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, λ1-λ2-λ3-λ4) from the spin-flip spectrum."""
    if rho.n_qubits != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got {rho.n_qubits}")
    m = rho.matrix
    flipped = _SY_SY @ m.conj() @ _SY_SY
    ev = np.linalg.eigvals(m @ flipped)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


def one_tangle(psi: PureState, cut: int) -> float:
    """4 det of the single-qubit reduction at index ``cut``; in [0, 1]."""
    rho1 = partial_trace(psi, {cut})
    val = 4.0 * np.linalg.det(rho1.matrix).real
    return float(min(max(val, 0.0), 1.0))
