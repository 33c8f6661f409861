"""Multi-qubit pure states, density matrices, and rank-two mixtures.

Amplitudes are indexed by bit strings in lexicographic order with qubit 0
as the most significant bit, so for three qubits index 5 = 0b101 addresses
|101>.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "RankTwoMixture",
    "RankExceededError",
    "make_ghz",
    "make_w",
    "superpose",
    "inner_product",
    "partial_trace",
    "rank_two_eigendecomposition",
    "load_state",
]

HERMITICITY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
RANK_TOL = 1e-10


class RankExceededError(Exception):
    """Density matrix has numerical rank larger than two."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only in place."""
    a.setflags(write=False)
    return a


def _check_count(value, name: str) -> int:
    """``value`` as an int; raises ValueError unless it is a Python or numpy
    integer (a bool is none)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_qubits(value) -> int:
    """A qubit count as an int; raises ValueError unless it is a positive integer."""
    n = _check_count(value, "n_qubits")
    if n < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n}")
    return n


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of ``n_qubits`` qubits; amplitudes need not be normalized."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _check_qubits(self.n_qubits)
        # its own copy, so the caller's array stays writable
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.shape[0] != 2**n:
            raise ValueError(
                f"expected {2**n} amplitudes for {n} qubits, got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", _read_only(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.n_qubits, self.amplitudes / n)

    def density_matrix(self) -> "DensityMatrix":
        v = self.normalized().amplitudes
        return DensityMatrix(self.n_qubits, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix on ``n_qubits`` qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _check_qubits(self.n_qubits)
        m = np.array(self.matrix, dtype=complex)
        d = 2**n
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > HERMITICITY_TOL or abs(np.trace(m).imag) > HERMITICITY_TOL:
            raise ValueError("matrix trace differs from 1 beyond 1e-12")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", _read_only(m))


@dataclass(frozen=True, eq=False)
class RankTwoMixture:
    """Orthonormal eigenpair (psi1, psi2) mixed with weight p on psi1.

    Represents rho(p) = p |psi1><psi1| + (1-p) |psi2><psi2|; the segment
    p in [0, 1] is the vertical axis of the Bloch ball spanned by the pair.
    """

    psi1: PureState
    psi2: PureState
    p: float
    degenerate_rank: bool = False

    def __post_init__(self):
        if self.psi1.n_qubits != self.psi2.n_qubits:
            raise ValueError("eigenvectors act on different qubit counts")
        for name, psi in (("psi1", self.psi1), ("psi2", self.psi2)):
            if abs(psi.norm() - 1.0) > 1e-10:
                raise ValueError(f"{name} is not normalized")
        if abs(inner_product(self.psi1, self.psi2)) > ORTHOGONALITY_TOL:
            raise ValueError("eigenvectors are not orthogonal within 1e-10")
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight p must lie in [0, 1], got {p}")
        object.__setattr__(self, "p", p)

    @property
    def n_qubits(self) -> int:
        return self.psi1.n_qubits

    def density_matrix(self) -> DensityMatrix:
        v1 = self.psi1.amplitudes
        v2 = self.psi2.amplitudes
        m = self.p * np.outer(v1, v1.conj()) + (1.0 - self.p) * np.outer(v2, v2.conj())
        return DensityMatrix(self.n_qubits, m)


def make_ghz(n: int) -> PureState:
    """|00...0> + |11...1> over sqrt(2) on n >= 2 qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def make_w(n: int) -> PureState:
    """Equal superposition of the n weight-1 bit strings, n >= 2 qubits."""
    if n < 2:
        raise ValueError("W state needs at least 2 qubits")
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return PureState(n, amps)


def superpose(a: PureState, b: PureState, alpha: complex, beta: complex) -> PureState:
    """alpha*a + beta*b, amplitude-wise; the result is not renormalized."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot superpose states on different qubit counts")
    return PureState(a.n_qubits, alpha * a.amplitudes + beta * b.amplitudes)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch in inner product")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of a complex (N, d) stack.

    Each row's squared norm is re.re + im.im as one dot product per row,
    the sum np.linalg.norm forms for a single vector, so a row normalizes
    to the same bits alone or in a stack.
    """
    re, im = v.real, v.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    return np.sqrt(sq[:, 0, 0])


def _partial_traces(amps: np.ndarray, n: int, keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrices of the normalized rows of an (N, 2^n) stack.

    Returns (N, 2^k, 2^k) for the k kept qubits in ascending order: each
    row is reshaped so the kept qubits index the rows of an amplitude
    matrix m, and the reduction is m m^dagger, one product per row.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices must lie in [0, {n})")
    drop = [q for q in range(n) if q not in keep]
    # qubit q is tensor axis q + 1 because qubit 0 is the most significant bit
    axes = [0] + [q + 1 for q in keep + drop]
    # every size spelled out, so a stack of no rows reshapes too
    rows = amps.shape[0]
    m = amps.reshape((rows,) + (2,) * n).transpose(axes).reshape(rows, 2 ** len(keep), 2 ** len(drop))
    return m @ m.conj().swapaxes(-1, -2)


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of ``state`` on the ``keep`` qubits.

    ``keep`` is a nonempty set of qubit indices; the traced-out qubits are
    the complement. Kept qubits appear in ascending index order.
    """
    rho = _partial_traces(state.normalized().amplitudes[None, :], state.n_qubits, keep)[0]
    return DensityMatrix(rho.shape[0].bit_length() - 1, rho)


def _lex_key(v: np.ndarray) -> tuple:
    return tuple(np.stack([v.real, v.imag], axis=1).ravel())


def _rank_two_eigenpairs(matrices: np.ndarray):
    """Eigenpairs of a stack of numerically rank-<=2 density matrices.

    One eigh call over the (N, d, d) stack. Returns (v1, v2, p, degenerate):
    the (N, d) eigenvectors of the two largest eigenvalues, each rotated so
    its largest-magnitude amplitude is real positive, the weight p of v1,
    and the rank-one flag. A degenerate pair (eigenvalues within RANK_TOL)
    is ordered by descending amplitude lexicographic order.

    Raises RankExceededError when a third eigenvalue of any matrix exceeds
    RANK_TOL; the first such matrix is named in the message.
    """
    w, vecs = np.linalg.eigh(matrices)
    if w.shape[1] > 2:
        over = np.nonzero(w[:, -3] > RANK_TOL)[0]
        if over.size:
            raise RankExceededError(
                f"third eigenvalue {w[over[0], -3]:.3e} exceeds rank tolerance {RANK_TOL:.1e}"
            )
    rows = np.arange(w.shape[0])
    lam1, lam2 = w[:, -1].copy(), w[:, -2].copy()
    pairs = []
    for v in (vecs[:, :, -1], vecs[:, :, -2]):
        # rotate the global phase so the largest-magnitude entry is real positive
        ph = np.angle(v[rows, np.argmax(np.abs(v), axis=1)])
        pairs.append(v * np.exp(-1j * ph)[:, None])
    v1, v2 = pairs
    for i in np.nonzero(np.abs(lam1 - lam2) <= RANK_TOL)[0]:
        if _lex_key(v2[i]) > _lex_key(v1[i]):
            v1[i], v2[i] = v2[i].copy(), v1[i].copy()
            lam1[i], lam2[i] = lam2[i], lam1[i]
    degenerate = lam2 <= RANK_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(degenerate, 1.0, lam1 / (lam1 + lam2))
    return v1, v2, np.clip(p, 0.0, 1.0), degenerate


def rank_two_eigendecomposition(rho: DensityMatrix) -> RankTwoMixture:
    """Spectral decomposition of a numerically rank-<=2 density matrix.

    Returns the mixture with p = larger eigenvalue. Eigenvector phases are
    fixed so the largest-magnitude amplitude is real positive; a degenerate
    p = 0.5 pair is ordered by descending amplitude lexicographic order.

    Raises RankExceededError when a third eigenvalue exceeds RANK_TOL; a
    rank-one input sets ``degenerate_rank`` with psi2 taken from the kernel.
    """
    v1, v2, p, degenerate = _rank_two_eigenpairs(rho.matrix[None])
    n = rho.n_qubits
    return RankTwoMixture(
        PureState(n, v1[0]), PureState(n, v2[0]), float(p[0]), bool(degenerate[0])
    )


def load_state(path: str, renormalize: bool = False) -> PureState:
    """Read a state from a JSON file {"n": int, "amplitudes": [[re, im], ...]}.

    Warns when the norm is off by more than 1e-6; renormalizes only when
    ``renormalize`` is set.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "amplitudes" not in doc:
        raise ValueError(f"{path}: expected an object with fields 'n' and 'amplitudes'")
    n = doc["n"]
    # bool is an int subclass, but true is no qubit count
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    raw = doc["amplitudes"]
    # n is matched against the list's length before 2**n is formed, which
    # for a huge n costs seconds and memory
    if not isinstance(raw, list) or n != len(raw).bit_length() - 1 or len(raw) != 1 << n:
        raise ValueError(
            f"{path}: field 'amplitudes' must list 2**n [re, im] pairs, 'n' = {n}"
        )
    try:
        pairs = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: amplitudes must be [re, im] number pairs") from exc
    if pairs.shape != (2**n, 2):
        raise ValueError(f"{path}: amplitudes must be [re, im] number pairs")
    # json.load accepts NaN and Infinity, which PureState rejects, and a
    # zero state cannot be renormalized
    try:
        state = PureState(n, pairs[:, 0] + 1j * pairs[:, 1])
        if renormalize:
            return state.normalized()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if abs(state.norm() - 1.0) > 1e-6:
        warnings.warn(f"{path}: state norm {state.norm():.6g} is off by more than 1e-6")
    return state
