import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from tangleroof import _kernels, sampling
from tangleroof.invariants import c3
from tangleroof.pencil import pencil_polynomial
from tangleroof.sampling import min_average_c3
from tangleroof.scenarios import toy_mixture
from tangleroof.states import PureState, RankTwoMixture, make_ghz, make_w


def _random_amps(rng, m):
    return rng.normal(size=(m, 8)) + 1j * rng.normal(size=(m, 8))


def _random_gauss(rng, n, m_max=4):
    return rng.normal(size=(n, m_max, 2, 2))


def _coeffs(amps1, amps2):
    return pencil_polynomial(PureState(3, amps1), PureState(3, amps2))


def _orthonormal_pair(g):
    q, _ = np.linalg.qr(g)
    return q[:, 0].astype(complex), q[:, 1].astype(complex)


def _pairs():
    """(psi1, psi2) amplitude pairs: seeded Haar, real, and GHZ3/W3 (c_4 = 0)."""
    rng = np.random.default_rng(505)
    out = [
        _orthonormal_pair(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        for _ in range(4)
    ]
    out += [_orthonormal_pair(rng.normal(size=(8, 2))) for _ in range(3)]
    out.append((make_ghz(3).amplitudes, make_w(3).amplitudes))
    return out


def _haar_mixture(seed):
    rng = np.random.default_rng(seed)
    a, b = _orthonormal_pair(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    return RankTwoMixture(PureState(3, a), PureState(3, b), 0.5)


def test_tau3_numpy_reference_value():
    vals = _kernels.tau3_many(make_ghz(3).amplitudes[None, :])
    assert abs(vals[0] - 1.0) <= 1e-14


def _tau3_reference(a):
    """The tangle polynomial as one expression, evaluated with fresh temporaries."""
    p1 = a[:, 0] * a[:, 7]
    p2 = a[:, 3] * a[:, 4]
    p3 = a[:, 5] * a[:, 2]
    p4 = a[:, 6] * a[:, 1]
    d1 = p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4
    d2 = p1 * p2 + p1 * p3 + p1 * p4 + p2 * p3 + p2 * p4 + p3 * p4
    d3 = a[:, 0] * a[:, 6] * a[:, 5] * a[:, 3] + a[:, 7] * a[:, 1] * a[:, 2] * a[:, 4]
    return 4.0 * (d1 - 2.0 * d2 + 4.0 * d3)


def test_tau3_in_place_accumulation_equals_the_formula_bitwise():
    rng = np.random.default_rng(8407)
    amps = _random_amps(rng, 8407)
    amps[::7] *= 1e-40  # tiny and huge rows keep their bits too
    amps[::11] *= 1e40
    amps[::13, rng.integers(8)] = 0.0
    amps = np.concatenate([amps, np.stack([p for pair in _pairs() for p in pair])])
    got = _kernels.tau3_many(amps)
    np.testing.assert_array_equal(got.view(float), _tau3_reference(amps).view(float))
    assert _kernels.tau3_many(amps[:0]).shape == (0,)


def test_quartic_form_equals_tau3_of_the_span_state():
    rng = np.random.default_rng(606)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    b = rng.normal(size=64) + 1j * rng.normal(size=64)
    a[:8] = 0.0  # pure psi2 end
    b[8:16] = 0.0  # pure psi1 end
    scale = (np.abs(a) ** 2 + np.abs(b) ** 2) ** 2
    for psi1, psi2 in _pairs():
        c = _coeffs(psi1, psi2)
        form = _kernels.quartic_form(c, a, b)
        rows = a[:, None] * psi1 + b[:, None] * psi2
        direct = _kernels.tau3_many(rows)
        assert np.all(np.abs(form - direct) <= 1e-13 * scale)


def test_quartic_form_is_exact_at_the_pure_ends():
    rng = np.random.default_rng(707)
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    t = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.array_equal(_kernels.quartic_form(c, t, 0.0), c[0] * ((t * t) * (t * t)))
    assert np.array_equal(_kernels.quartic_form(c, 0.0, t), (((c[4] * t) * t) * t) * t)
    # GHZ3/W3: c_4 is the tangle of W3 itself, so the W3 end reads exactly 0
    c = _coeffs(make_ghz(3).amplitudes, make_w(3).amplitudes)
    assert c[4] == 0.0
    assert _kernels.quartic_form(c, 0.0, np.exp(0.3j)) == 0.0


def test_quartic_form_broadcasts_stacked_coefficients():
    rng = np.random.default_rng(808)
    c = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    a = rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    stacked = _kernels.quartic_form(c, a, b)
    one_by_one = [_kernels.quartic_form(c[n], a[n], b[n]) for n in range(3)]
    np.testing.assert_allclose(stacked, one_by_one, rtol=1e-14)


def _row_reference(mix, n_samples, sizes, seed):
    """min_average_c3 rebuilt from full amplitude rows and tau3_many."""
    base = np.vstack(
        [np.sqrt(mix.p) * mix.psi1.amplitudes, np.sqrt(1.0 - mix.p) * mix.psi2.amplitudes]
    )
    streams = np.random.default_rng(seed).spawn(len(sizes))
    best = np.inf
    for j, (m, rng) in enumerate(zip(sizes, streams)):
        g = rng.standard_normal((len(range(j, n_samples, len(sizes))), m, 2, 2))
        z = g[..., 0] + 1j * g[..., 1]
        u1 = z[:, :, 0] / np.linalg.norm(z[:, :, 0], axis=1, keepdims=True)
        u2 = z[:, :, 1] - np.sum(u1.conj() * z[:, :, 1], axis=1, keepdims=True) * u1
        u2 = u2 / np.linalg.norm(u2, axis=1, keepdims=True)
        rows = u1[:, :, None] * base[0] + u2[:, :, None] * base[1]
        vals = np.sqrt(np.abs(_kernels.tau3_many(rows.reshape(-1, 8)))).reshape(rows.shape[:2])
        best = min(best, float(np.min(vals.sum(axis=1))))
    return best


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_sampler_matches_the_row_reference(p):
    for mix in (toy_mixture(p), replace(_haar_mixture(909), p=p)):
        got = min_average_c3(mix, 3000, sizes=(2, 3, 4), seed=17)
        want = _row_reference(mix, 3000, (2, 3, 4), 17)
        assert abs(got - want) <= 1e-12


def test_sampler_pure_ends_equal_the_pure_tangles():
    for mix in (toy_mixture(), _haar_mixture(910)):
        assert abs(min_average_c3(replace(mix, p=0.0), 2000, seed=3) - c3(mix.psi2)) <= 1e-15
        assert abs(min_average_c3(replace(mix, p=1.0), 2000, seed=3) - c3(mix.psi1)) <= 1e-15
    ghz_w = RankTwoMixture(make_ghz(3), make_w(3), 0.0)
    assert min_average_c3(ghz_w, 2000, seed=3) == 0.0


def test_sampler_skips_degenerate_draws():
    rng = np.random.default_rng(303)
    base = _random_amps(rng, 2)
    gauss = _random_gauss(rng, 8)
    gauss[0, :, 0, :] = 0.0  # first column identically zero
    gauss[3, :, 1, :] = gauss[3, :, 0, :]  # second column parallel to first
    out = _kernels.min_average_batch(_coeffs(base[0], base[1]), (1.0, 1.0), gauss[:, :3])
    assert np.isfinite(out) and out >= 0.0


def test_sampler_is_min_over_size_groups():
    mix = replace(_haar_mixture(404), p=0.3)
    coeffs = pencil_polynomial(mix.psi1, mix.psi2)
    scales = (np.sqrt(mix.p), np.sqrt(1.0 - mix.p))
    combined = min_average_c3(mix, 60, sizes=(2, 3, 4), seed=404)
    streams = np.random.default_rng(404).spawn(3)
    per_group = [
        _kernels.min_average_batch(coeffs, scales, rng.standard_normal((20, m, 2, 2)))
        for m, rng in zip((2, 3, 4), streams)
    ]
    assert abs(combined - min(per_group)) <= 1e-15


def _reference_min_average_batch(coeffs, scales, gauss, sizes):
    """The complex Gram-Schmidt kernel that the real-plane kernel replaced."""
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
        vals = np.sqrt(np.abs(_kernels.quartic_form(coeffs, s1 * u1, s2 * u2)))
        group_best = float(np.min(vals.sum(axis=1)))
        if group_best < best:
            best = group_best
    return best


def _edge_block(rng):
    """Size-3 draws at the degeneracy rule's edges, each labelled.

    Second columns with a tiny norm are exactly orthogonal to the first
    (other rows), so their Gram-Schmidt residual is as accurate as the
    column itself.
    """
    gauss = rng.normal(size=(9, 5, 2, 2))
    gauss[0, :, 0, :] = 0.0  # zero first column
    gauss[1, :, 1, :] = 0.0  # zero second column
    gauss[2, :, 1, :] = gauss[2, :, 0, :]  # parallel columns
    z = (0.3 - 1.7j) * (gauss[3, :, 0, 0] + 1j * gauss[3, :, 0, 1])
    gauss[3, :, 1, 0], gauss[3, :, 1, 1] = z.real, z.imag  # complex multiple
    for s, n1 in ((4, 0.5e-12), (5, 2e-12)):  # first column norm either side of 1e-12
        gauss[s, :, 0, :] *= n1 / np.linalg.norm(gauss[s, :3, 0, :])
    for s, n2 in ((6, 0.5e-12), (7, 2e-12)):  # second column likewise
        gauss[s, 0, 1, :] = 0.0
        gauss[s, 1:, 0, :] = 0.0
        gauss[s, :, 1, :] *= n2 / np.linalg.norm(gauss[s, :3, 1, :])
    degenerate = [True, True, True, True, True, False, True, False, False]
    return gauss, np.full(9, 3, dtype=np.int64), degenerate


@pytest.mark.parametrize("scales", [(0.6, 0.8), (0.0, 1.0), (1.0, 0.0)])
def test_real_kernel_matches_the_complex_reference(scales):
    rng = np.random.default_rng(111)
    pairs = _pairs()
    for psi1, psi2 in pairs:
        coeffs = _coeffs(psi1, psi2)
        gauss = _random_gauss(rng, 600, m_max=5)
        sizes = rng.integers(2, 6, size=600)
        for m in range(2, 6):  # one kernel call per size group
            group = sizes == m
            got = _kernels.min_average_batch(coeffs, scales, gauss[group, :m])
            want = _reference_min_average_batch(coeffs, scales, gauss[group], sizes[group])
            assert abs(got - want) <= 1e-14
    gauss, sizes, degenerate = _edge_block(rng)
    coeffs = _coeffs(*pairs[0])
    for s, skipped in enumerate(degenerate):
        got = _kernels.min_average_batch(coeffs, scales, gauss[s : s + 1, :3])
        want = _reference_min_average_batch(coeffs, scales, gauss[s : s + 1], sizes[s : s + 1])
        assert (got == np.inf) == skipped
        assert got == want or abs(got - want) <= 1e-14  # inf == inf
    got = _kernels.min_average_batch(coeffs, scales, gauss[:, :3])
    assert abs(got - _reference_min_average_batch(coeffs, scales, gauss, sizes)) <= 1e-14


def test_all_degenerate_block_gives_inf():
    gauss = np.random.default_rng(112).normal(size=(6, 4, 2, 2))
    gauss[:3, :, 0, :] = 0.0
    gauss[3:, :, 1, :] = 2.5 * gauss[3:, :, 0, :]
    sizes = np.array([2, 3, 4, 2, 3, 4], dtype=np.int64)
    coeffs = _coeffs(*_pairs()[0])
    for m in (2, 3, 4):  # one kernel call per size group
        group = sizes == m
        assert _kernels.min_average_batch(coeffs, (0.6, 0.8), gauss[group, :m]) == np.inf
    assert _reference_min_average_batch(coeffs, (0.6, 0.8), gauss, sizes) == np.inf


def test_isometry_columns_are_scaled_orthonormal():
    planes = np.random.default_rng(113).normal(size=(2, 2, 5, 40))
    ok, a, b = _kernels.isometry_columns(planes, (0.6, 0.8))
    assert ok.all() and a.shape == b.shape == (5, 40)
    np.testing.assert_allclose(np.sum(np.abs(a) ** 2, axis=0), 0.36, rtol=1e-14)
    np.testing.assert_allclose(np.sum(np.abs(b) ** 2, axis=0), 0.64, rtol=1e-14)
    assert np.abs(np.sum(a.conj() * b, axis=0)).max() <= 1e-15
    # a is the first column, rescaled
    z1 = planes[0, 0] + 1j * planes[0, 1]
    np.testing.assert_allclose(a, 0.6 * z1 / np.linalg.norm(z1, axis=0), rtol=1e-14)


@pytest.mark.parametrize("block", [7, 1000, 4096])
def test_sampler_does_not_depend_on_the_block_size(block, monkeypatch):
    mix = replace(_haar_mixture(911), p=0.45)
    want = min_average_c3(mix, 12_345, sizes=(2, 3, 4), seed=29)
    monkeypatch.setattr(sampling, "_BLOCK", block)
    assert min_average_c3(mix, 12_345, sizes=(2, 3, 4), seed=29) == want


def _stream_reference(mix, n_samples, sizes, seed):
    """min_average_c3 with stream j drawing its (n_j, m_j, 2, 2) block in one go."""
    coeffs = pencil_polynomial(mix.psi1, mix.psi2)
    scales = (np.sqrt(mix.p), np.sqrt(1.0 - mix.p))
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    best = np.inf
    for j, (m, child) in enumerate(zip(sizes, children)):
        n = len(range(j, n_samples, len(sizes)))  # samples j, j + len(sizes), ...
        if n:
            gauss = np.random.default_rng(child).standard_normal((n, m, 2, 2))
            best = min(best, _kernels.min_average_batch(coeffs, scales, gauss))
    return best


@pytest.mark.parametrize("block", [7, 1000, sampling._BLOCK])
@pytest.mark.parametrize(
    "n_samples, sizes", [(12_346, (2, 3, 4)), (12_346, (2, 2, 3)), (2, (2, 3, 4))]
)
def test_sampler_draws_each_size_from_its_own_stream(n_samples, sizes, block, monkeypatch):
    mix = replace(_haar_mixture(912), p=0.45)
    want = _stream_reference(mix, n_samples, sizes, 31)
    monkeypatch.setattr(sampling, "_BLOCK", block)
    assert min_average_c3(mix, n_samples, sizes=sizes, seed=31) == want


def test_sampler_takes_a_generator_and_draws_only_what_it_uses():
    drawn = []

    class Counting(np.random.Generator):  # spawn() builds children of this type
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            drawn.append(size)
            return super().standard_normal(size, dtype, out)

    mix = replace(_haar_mixture(913), p=0.6)
    want = min_average_c3(mix, 2, sizes=(2, 3, 4), seed=31)
    assert min_average_c3(mix, 2, sizes=(2, 3, 4), seed=Counting(np.random.PCG64(31))) == want
    assert drawn == [(1, 2, 2, 2), (1, 3, 2, 2)]  # the size-4 stream has no sample
    want = min_average_c3(mix, 500, seed=32)
    assert min_average_c3(mix, 500, seed=np.random.default_rng(32)) == want


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_overlapped_draws_equal_the_serial_reference_bitwise(seed):
    # the helper thread draws in the serial order: partial last blocks
    # (n_j = 1667 and 1666), a repeated size, fewer samples than sizes
    mix = replace(_haar_mixture(920 + seed), p=0.35)
    for n_samples, sizes in [(5000, (2, 3, 4)), (5000, (3, 2, 3)), (2, (2, 3, 4)), (1, (4,))]:
        want = _stream_reference(mix, n_samples, sizes, seed)
        assert min_average_c3(mix, n_samples, sizes=sizes, seed=seed) == want


def test_concurrent_calls_under_fast_thread_switching(monkeypatch):
    # six callers and their six drawers on a shortened switch interval: a
    # block handed to the wrong call changes that call's minimum
    mix = replace(_haar_mixture(926), p=0.6)
    monkeypatch.setattr(sampling, "_BLOCK", 16)
    want = {seed: _stream_reference(mix, 2000, (2, 3, 4), seed) for seed in range(6)}
    got = {}

    def call(seed):
        got[seed] = min_average_c3(mix, 2000, seed=seed)

    callers = [threading.Thread(target=call, args=(seed,), daemon=True) for seed in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


class _Injected(RuntimeError):
    pass


def _raised_by(fn, *args, **kwargs):
    """The exception fn raises, called on a thread that must end within 60 s."""
    raised = []

    def call():
        try:
            fn(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    return raised[0] if raised else None


def test_a_failed_draw_is_raised_by_the_caller_and_leaves_no_thread():
    drawn = []

    class ThirdDrawFails(np.random.Generator):  # spawn() builds children of this type
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            drawn.append(size)
            if len(drawn) == 3:
                raise _Injected("third draw")
            return super().standard_normal(size, dtype, out)

    mix = replace(_haar_mixture(927), p=0.5)
    before = threading.active_count()
    exc = _raised_by(min_average_c3, mix, 10_000, seed=ThirdDrawFails(np.random.PCG64(7)))
    assert isinstance(exc, _Injected) and str(exc) == "third draw"
    assert threading.active_count() == before
    assert len(drawn) == 3  # nothing is drawn after the failure


def test_a_failed_kernel_call_is_raised_and_stops_the_drawer(monkeypatch):
    drawn, evaluated = [], []
    fourth_draw = threading.Event()
    kernel = _kernels.min_average_batch

    class Counting(np.random.Generator):
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            drawn.append(size)
            if len(drawn) == 4:
                fourth_draw.set()
            return super().standard_normal(size, dtype, out)

    def second_call_fails(coeffs, scales, gauss):
        evaluated.append(len(gauss))
        if len(evaluated) == 2:
            # block 3 is queued and block 4 drawn: the drawer blocks on its
            # put until the caller frees the slot
            fourth_draw.wait(timeout=10)
            raise _Injected("second kernel call")
        return kernel(coeffs, scales, gauss)

    monkeypatch.setattr(_kernels, "min_average_batch", second_call_fails)
    mix = replace(_haar_mixture(928), p=0.5)
    before = threading.active_count()
    exc = _raised_by(min_average_c3, mix, 100_000, seed=Counting(np.random.PCG64(8)))
    assert isinstance(exc, _Injected) and str(exc) == "second kernel call"
    assert threading.active_count() == before
    assert len(evaluated) == 2
    assert len(drawn) == 4  # of 99 blocks: nothing is drawn after the failure
