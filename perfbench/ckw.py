"""The Coffman-Kundu-Wootters three-tangle, written out term by term.

Coffman, Kundu and Wootters, PRA 61, 052306 (2000). Kept apart from the
oracle's mpmath and scipy imports so that the workload process can check
outputs without loading them.
"""
from __future__ import annotations


def ckw_tau3(a):
    """Three-tangle polynomial of eight amplitudes, qubit 0 most significant.

    Works on Python complex numbers and on mpmath numbers alike; returns the
    complex polynomial value, whose modulus is the three-tangle.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    d1 = (
        a000 * a000 * a111 * a111
        + a001 * a001 * a110 * a110
        + a010 * a010 * a101 * a101
        + a100 * a100 * a011 * a011
    )
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4 * (d1 - 2 * d2 + 4 * d3)


def ckw_c3(amps) -> float:
    """sqrt of the three-tangle of a normalized state, in double precision."""
    return abs(ckw_tau3([complex(x) for x in amps])) ** 0.5
