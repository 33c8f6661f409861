"""Independent oracle for the benchmark's output checks.

Nothing here imports tangleroof. The three-tangle is the Coffman-Kundu-
Wootters polynomial written out term by term (ckw.py); the pencil of a
pair is interpolated at 40 digits with mpmath; its roots come from
mpmath.polyroots, with one root at infinity for each vanishing leading
coefficient; the axis interval is the range of the Bloch z coordinate over
convex weights of the root points with x = y = 0, found with
scipy.optimize.linprog and then re-solved at 40 digits on the optimal
support. Partial traces, one-tangles and Wootters concurrences for the
four-qubit family are computed here as well.

Run as a script it writes the references one workload needs:

    python3 perfbench/oracle.py --workload pairs --seed 1 --out refs.json
"""
from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

import inputs
from ckw import ckw_tau3

DPS = 40
# relative size below which a 40-digit pencil coefficient is an exact zero
# of the float64 input: interpolation error is near 1e-40
ZERO_COEFF = mp.mpf("1e-30")


def pencil(psi1, psi2):
    """Ascending coefficients of tau3(psi1 + z psi2), interpolated at 40 digits.

    The five nodes are the fifth roots of unity, where the inverse
    Vandermonde matrix is the inverse discrete Fourier transform.
    """
    with mp.workdps(DPS):
        a = [mp.mpc(complex(x)) for x in psi1]
        b = [mp.mpc(complex(x)) for x in psi2]
        nodes = [mp.expjpi(mp.mpf(2 * j) / 5) for j in range(5)]
        values = [ckw_tau3([ai + w * bi for ai, bi in zip(a, b)]) for w in nodes]
        return [
            sum(v * mp.conj(w) ** k for v, w in zip(values, nodes)) / 5
            for k in range(5)
        ]


def pencil_roots(coeffs):
    """Four extended roots with multiplicity; None marks the root at infinity.

    Returns None instead of a list when every coefficient vanishes.
    """
    with mp.workdps(DPS):
        c = list(coeffs)
        peak = max(abs(x) for x in c)
        if peak <= ZERO_COEFF:
            return None
        roots = []
        while abs(c[-1]) <= ZERO_COEFF * peak:
            c.pop()
            roots.append(None)
        while abs(c[0]) <= ZERO_COEFF * peak:
            c.pop(0)
            roots.append(mp.mpc(0))
        if len(c) > 1:
            found = mp.polyroots(c[::-1], maxsteps=200, extraprec=2 * DPS)
            roots.extend(mp.mpc(z) for z in found)
        return roots


def bloch_point(z):
    """Bloch vector of psi1 + z psi2 (None is psi2, the south pole)."""
    with mp.workdps(DPS):
        if z is None:
            return (mp.mpf(0), mp.mpf(0), mp.mpf(-1))
        r2 = abs(z) ** 2
        return (2 * z.real / (1 + r2), 2 * z.imag / (1 + r2), (1 - r2) / (1 + r2))


def _refined_z(points, weights):
    """z of the LP optimum, re-solved at 40 digits on the optimal support.

    The simplex solution is basic, so its nonzero weights fix the face that
    meets the axis; solving [1; x; y] w = [1; 0; 0] on that face at full
    precision removes the LP's 1e-9 feasibility tolerance from the result.
    """
    support = [i for i, w in enumerate(weights) if w > 0.0]
    with mp.workdps(DPS):
        a = mp.matrix(
            [[1] * len(support), [points[i][0] for i in support], [points[i][1] for i in support]]
        )
        rhs = mp.matrix([1, 0, 0])
        w, residual = mp.qr_solve(a, rhs)
        if residual > mp.mpf("1e-25") or min(w) < -mp.mpf("1e-25"):
            return None
        return sum(w[k] * points[i][2] for k, i in enumerate(support))


def axis_interval(points):
    """[p_low, p_high] where the hull of ``points`` meets the axis, or None.

    p = (1 + z) / 2 for the axis point (0, 0, z).
    """
    pts = [tuple(float(c) for c in pt) for pt in points]
    a_eq = np.array([[1.0] * len(pts), [p[0] for p in pts], [p[1] for p in pts]])
    b_eq = np.array([1.0, 0.0, 0.0])
    zs = np.array([p[2] for p in pts])
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * zs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"linprog failed: {res.message}")
        z = _refined_z(points, res.x)
        ends.append(float(res.x @ zs) if z is None else float(z))
    return [0.5 * (1.0 + ends[0]), 0.5 * (1.0 + ends[1])]


def span_reference(psi1, psi2) -> dict:
    """Oracle verdict for the span of an orthonormal pair."""
    roots = pencil_roots(pencil(psi1, psi2))
    if roots is None:
        return {"identically_zero": True, "interval": [0.0, 1.0]}
    points = [bloch_point(z) for z in roots]
    return {"identically_zero": False, "interval": axis_interval(points)}


def partial_trace(psi, n: int, keep) -> np.ndarray:
    """Reduced density matrix of an n-qubit pure state on the ``keep`` qubits."""
    keep = sorted(keep)
    drop = [q for q in range(n) if q not in keep]
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)

    def bit(i, q):
        return (i >> (n - 1 - q)) & 1

    def kept_index(i):
        out = 0
        for q in keep:
            out = 2 * out + bit(i, q)
        return out

    rho = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            if all(bit(i, q) == bit(j, q) for q in drop):
                rho[kept_index(i), kept_index(j)] += psi[i] * np.conj(psi[j])
    return rho


def one_tangle(psi, n: int, qubit: int) -> float:
    """4 det of the single-qubit reduction."""
    r = partial_trace(psi, n, [qubit])
    return float(4.0 * (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the spectrum of sqrt(sqrt(rho) rho~ sqrt(rho))."""
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    tilde = yy @ rho.conj() @ yy
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ tilde @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def ghz_w_four(p: float, phi: float = 0.0) -> np.ndarray:
    """sqrt(p) GHZ4 - e^{i phi} sqrt(1 - p) W4 as 16 amplitudes."""
    psi = np.zeros(16, dtype=complex)
    psi[0] += np.sqrt(p / 2.0)
    psi[15] += np.sqrt(p / 2.0)
    for k in (1, 2, 4, 8):
        psi[k] -= np.exp(1j * phi) * np.sqrt(1.0 - p) / 2.0
    return psi


def reduction_pair(psi4):
    """Top two eigenvectors of the reduction on qubits 0, 1, 2, larger first."""
    w, v = np.linalg.eigh(partial_trace(psi4, 4, [0, 1, 2]))
    return v[:, -1], v[:, -2]


def family_references() -> dict:
    """Intervals along the scan4q p grid and monogamy terms along its p grid."""
    scan = []
    for p in inputs.family_scan_grid():
        psi1, psi2 = reduction_pair(ghz_w_four(p))
        scan.append(span_reference(psi1, psi2))
    mono = []
    for p in inputs.family_monogamy_grid():
        psi4 = ghz_w_four(p)
        mono.append(
            {
                "one_tangle": one_tangle(psi4, 4, 0),
                "c2": [concurrence(partial_trace(psi4, 4, [0, j])) ** 2 for j in (1, 2, 3)],
            }
        )
    return {"scan": scan, "monogamy": mono}


def references(workload: str, seed: int) -> dict:
    if workload == "pairs":
        return {
            "pairs": [span_reference(a, b) for _, a, b in inputs.pair_set(seed)]
        }
    if workload == "family":
        return family_references()
    if workload == "oracle":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    refs = references(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
