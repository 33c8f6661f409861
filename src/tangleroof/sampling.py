"""Random pure-state decompositions of rank-two mixtures.

Every decomposition of rho = w1 |psi1><psi1| + w2 |psi2><psi2| into m pure
states is an m x 2 isometry applied to [sqrt(w1) psi1; sqrt(w2) psi2]; the
rows are the unnormalized members and their squared norms the weights.
Sampling isometries at random gives a stochastic upper oracle for the
convex roof: no sampled decomposition average may fall below a valid
reported bound.
"""
from __future__ import annotations

import queue
import threading
from typing import Sequence, Tuple

import numpy as np

from . import _kernels
from .invariants import c3
from .pencil import _pencils
from .states import PureState, RankTwoMixture, _check_count

__all__ = ["min_average_c3", "random_decomposition", "average_c3"]

# Samples per kernel call and stream. A (1024, 4, 2, 2) Gaussian block is
# 128 KB. The next block is drawn while the current one is evaluated, so at
# most three are alive at once (one evaluated, one queued, one being drawn:
# ~384 KB at m = 4), and they and the kernel's temporaries stay well within
# a 2 MB L2 cache. Neither it nor the thread timing changes the draws:
# consecutive blocks of a size continue that size's stream.
_BLOCK = 1024


def min_average_c3(
    mix: RankTwoMixture,
    n_samples: int,
    sizes: Sequence[int] = (2, 3, 4),
    seed=0,
) -> float:
    """Smallest average c3 over ``n_samples`` random decompositions.

    Sample i has size sizes[i % len(sizes)]. Position j of ``sizes`` has a
    stream of its own, child j of
    ``np.random.default_rng(seed).spawn(len(sizes))`` (``seed`` is anything
    ``default_rng`` accepts); its n_j samples are drawn as consecutive
    sample-major (k, m_j, 2, 2) standard-normal blocks, so every draw is
    used and the result does not depend on the block size. The weighted
    average of each decomposition reduces to a sum of sqrt|tau3| over
    unnormalized members by degree-4 homogeneity. The quartic-form
    coefficients of the pair are multiplied out once (pencil._pencils),
    and every member is evaluated by the form. Deterministic for a fixed
    integer seed. Raises ValueError for a count or size that is not an
    integer.

    One helper thread draws the blocks, stream by stream, and hands them
    over a one-slot queue, so the next block is drawn while the calling
    thread evaluates the current one; at most three blocks are alive at
    once (~384 KB at m = 4). The result does not depend on thread timing,
    and a 1-CPU host runs the same path with no gain. An exception from a
    draw or from the kernel is raised here, and the helper thread has
    ended when this returns or raises.
    """
    if mix.n_qubits != 3:
        raise ValueError("decomposition sampling needs a 3-qubit mixture")
    sizes = tuple(_check_count(m, "decomposition size") for m in sizes)
    if not sizes or min(sizes) < 2:
        raise ValueError("decomposition sizes must be at least 2")
    n_samples = _check_count(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    coeffs = _pencils(mix.psi1.amplitudes[None, :], mix.psi2.amplitudes[None, :])[0]
    scales = (np.sqrt(mix.p), np.sqrt(1.0 - mix.p))
    streams = np.random.default_rng(seed).spawn(len(sizes))
    blocks, stop = queue.Queue(maxsize=1), threading.Event()
    drawer = threading.Thread(
        target=_draw_blocks, args=(sizes, streams, n_samples, blocks, stop), daemon=True
    )
    drawer.start()
    best = np.inf
    try:
        while (item := blocks.get()) is not None:
            if isinstance(item, BaseException):
                raise item
            best = min(best, _kernels.min_average_batch(coeffs, scales, item))
    finally:
        # the drawer puts at most one more block once stop is set, and a
        # free slot lets that put return, so the join cannot hang
        stop.set()
        try:
            blocks.get_nowait()
        except queue.Empty:
            pass
        drawer.join()
    return float(best)


def _draw_blocks(sizes, streams, n_samples, blocks, stop) -> None:
    """Put the Gaussian blocks of min_average_c3 on ``blocks`` in draw order.

    Stream j draws its n_j samples as consecutive (k, m_j, 2, 2) blocks of
    at most _BLOCK samples, streams in order. The last item is None, or the
    exception a draw raised, which the caller raises. Every draw and put is
    preceded by a check of ``stop``, so once the caller sets it at most one
    more block is put.
    """
    try:
        for j, (m, rng) in enumerate(zip(sizes, streams)):
            n = len(range(j, n_samples, len(sizes)))  # samples j, j + len(sizes), ...
            for start in range(0, n, _BLOCK):
                if stop.is_set():
                    return
                blocks.put(rng.standard_normal((min(_BLOCK, n - start), m, 2, 2)))
        last = None
    except BaseException as exc:  # handed over; the calling thread raises it
        last = exc
    if not stop.is_set():
        blocks.put(last)


def random_decomposition(
    mix: RankTwoMixture, size: int, seed: int = 0
) -> Tuple[np.ndarray, tuple]:
    """One random size-``size`` decomposition: (weights, normalized states).

    The weighted projector sum of the returned states reconstructs the
    mixture's density matrix exactly (up to roundoff).
    """
    if _check_count(size, "decomposition size") < 2:
        raise ValueError("decomposition size must be at least 2")
    rng = np.random.default_rng(seed)
    scales = (np.sqrt(mix.p), np.sqrt(1.0 - mix.p))
    while True:
        g = rng.standard_normal((size, 2, 2))
        ok, a, b = _kernels.isometry_columns(g.transpose(1, 2, 0)[..., None], scales)
        if ok[0]:
            break
    rows = a * mix.psi1.amplitudes + b * mix.psi2.amplitudes
    weights = np.sum(np.abs(rows) ** 2, axis=1)
    states = tuple(
        PureState(mix.n_qubits, rows[i] / np.sqrt(weights[i])) for i in range(size)
    )
    return weights, states


def average_c3(weights: np.ndarray, states: tuple) -> float:
    """Weighted c3 average of a decomposition."""
    return float(sum(w * c3(s) for w, s in zip(weights, states)))
