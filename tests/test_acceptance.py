"""End-to-end checks of every published number the package must reproduce."""
from dataclasses import replace

import numpy as np

import tangleroof as tr
from tangleroof.scenarios import FourQubitFamily, reduced_mixture


def _witness_rho_error(mix, p, witness, states):
    target = replace(mix, p=p).density_matrix().matrix
    recon = np.zeros_like(target)
    for idx, w in zip(witness.face, witness.weights):
        v = states[idx].amplitudes
        recon += w * np.outer(v, v.conj())
    return float(np.abs(recon - target).max())


def test_criterion_01_endpoint_values(toy_mix):
    c3_plus = np.sqrt(8.0 * np.sqrt(6.0) + 9.0) / 6.0
    c3_minus = np.sqrt(8.0 * np.sqrt(6.0) - 9.0) / 6.0
    assert abs(tr.c3(toy_mix.psi1) - c3_plus) <= 1e-12
    assert abs(tr.c3(toy_mix.psi2) - c3_minus) <= 1e-12


def test_criterion_02_toy_roots(toy_rep):
    zeros = toy_rep.zeros
    assert zeros.z.shape == (4,) and zeros.multiplicity.tolist() == [1, 1, 1, 1]
    assert np.all(np.isfinite(zeros.z))
    # published values use the opposite pencil orientation: map z -> -z
    mapped = -zeros.z
    expected = [
        1.0,
        -7.7543,
        0.5899 * np.exp(-1.8649j),
        0.5899 * np.exp(+1.8649j),
    ]
    for got, want in zip(mapped, expected):
        assert abs(abs(got) - abs(want)) <= 1e-3
        phase_diff = np.angle(got * np.conj(want))
        assert abs(phase_diff) <= 1e-3
    np.testing.assert_allclose(
        toy_rep.zeros.p0, [0.5, 0.01636, 0.74182, 0.74182], atol=1e-4
    )


def test_criterion_03_toy_interval(toy_rep):
    iv = toy_rep.interval
    assert abs(iv.p_low - 0.11423) <= 1e-4
    assert abs(iv.p_high - 0.69289) <= 1e-4
    states = toy_rep.zeros.states
    mix = toy_rep.mixture
    assert _witness_rho_error(mix, iv.p_low, iv.witness_low, states) <= 1e-9
    assert _witness_rho_error(mix, iv.p_high, iv.witness_high, states) <= 1e-9
    np.testing.assert_allclose(
        np.sort(iv.witness_low.weights), np.sort([0.202362, 0.797638]), atol=1e-5
    )
    np.testing.assert_allclose(
        np.sort(iv.witness_high.weights),
        np.sort([0.202362, 0.398819, 0.398819]),
        atol=1e-5,
    )


def test_criterion_04_char_argmins(toy_mix):
    grid = np.linspace(0.0, 1.0, 10000)
    cases = ((np.pi, 0.01636), (0.0, 0.5), (1.8649, 0.7418), (-1.8649, 0.7418))
    for phi, expected in cases:
        rows = tr.characteristic_curve(toy_mix, phi, grid)
        p_min = rows[np.argmin(rows[:, 1]), 0]
        assert abs(p_min - expected) <= 2e-3


def test_criterion_05_beyond_linearized(toy_rep):
    rep = toy_rep.report
    slack = rep.envelope - rep.linearized
    assert float(slack.max()) <= 1e-12
    inside = (rep.grid > 0.8240) & (rep.grid < 1.0)
    assert float((rep.linearized[inside] - rep.envelope[inside]).max()) >= 1e-3
    assert abs(rep.p_right - 0.8240) <= 2e-3
    assert abs(rep.p_left - 0.04395) <= 2e-3


def test_criterion_06_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = float(rng.uniform(0.01, 0.99))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        mix = reduced_mixture(p, phi)
        fam = FourQubitFamily(p, phi)
        assert abs(mix.p - fam.q) <= 1e-10
        v1, v2 = fam.eigenpair()
        assert abs(tr.inner_product(mix.psi1, v1)) >= 1.0 - 1e-8
        assert abs(tr.inner_product(mix.psi2, v2)) >= 1.0 - 1e-8


def test_criterion_07_simplex_dimension():
    for row in tr.simplex_scan(0.0, (0.7221, 0.75, 0.85, 0.95, 0.999)):
        assert row.dimension == 2
    for row in tr.simplex_scan(np.pi / 4.0, np.linspace(0.05, 0.95, 19)):
        assert row.dimension == 3
    lo, hi = 0.70, 0.75
    assert [row.dimension for row in tr.simplex_scan(0.0, (lo, hi))] == [3, 2]
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if tr.simplex_scan(0.0, (mid,))[0].dimension == 3:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 0.722074) <= 1e-3


def test_criterion_08_phi_threshold():
    assert tr.has_interior_volume_zero(0.0)
    assert not tr.has_interior_volume_zero(np.pi / 4.0)
    phi_star = tr.phi_threshold_bisect()
    assert 0.51 <= phi_star <= 0.54


def test_criterion_09_phi_periodicity():
    shift = np.pi / 2.0
    ps = (0.2, 0.55, 0.8)
    for phi in (0.0, 0.3, 1.1):
        for p, a, b in zip(ps, tr.simplex_scan(phi, ps), tr.simplex_scan(phi + shift, ps)):
            assert a.dimension == b.dimension
            assert abs(a.volume - b.volume) <= 1e-9
            assert (a.interval is None) == (b.interval is None)
            if a.interval is not None:
                assert abs(a.interval[0] - b.interval[0]) <= 1e-9
                assert abs(a.interval[1] - b.interval[1]) <= 1e-9
            dq = reduced_mixture(p, phi).p - reduced_mixture(p, phi + shift).p
            assert abs(dq) <= 1e-9


def test_criterion_10_monogamy():
    reports = tr.monogamy_curve(np.linspace(0.0, 1.0, 101), phi=0.0)
    residuals = np.array([r.residual for r in reports])
    assert abs(residuals[0] - 0.0) <= 1e-9
    assert abs(residuals[-1] - 1.0) <= 1e-9
    assert float(residuals.min()) >= -1e-9


def test_criterion_11_oracle(toy_rep):
    rep = toy_rep.report
    mix = toy_rep.mixture
    rng = np.random.default_rng(20260825)
    ps = rng.uniform(0.0, 1.0, 20)
    for i, p in enumerate(ps):
        sampled = tr.min_average_c3(
            replace(mix, p=float(p)), 100000, sizes=(2, 3, 4), seed=1000 + i
        )
        assert sampled >= float(rep.envelope_curve(p)) - 1e-9
    iv = toy_rep.interval
    p_mid = 0.5 * (iv.p_low + iv.p_high)
    weights, states = rep.decomposition_at(p_mid)
    assert tr.average_c3(weights, states) <= 1e-5


def test_criterion_12_exact_zero_witnesses(toy_rep):
    rep = toy_rep.report
    mix = toy_rep.mixture
    iv = toy_rep.interval
    for p in np.linspace(iv.p_low + 1e-6, iv.p_high - 1e-6, 10):
        weights, states = rep.decomposition_at(float(p))
        assert all(tr.c3(s) <= 1e-5 for s in states)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        target = replace(mix, p=float(p)).density_matrix().matrix
        recon = np.zeros_like(target)
        for w, s in zip(weights, states):
            recon += w * np.outer(s.amplitudes, s.amplitudes.conj())
        assert float(np.abs(recon - target).max()) <= 1e-9
