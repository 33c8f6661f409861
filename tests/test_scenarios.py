import numpy as np
import pytest

from tangleroof import _kernels
from tangleroof.invariants import c3, one_tangle
from tangleroof.scenarios import (
    FourQubitFamily,
    _match_rows,
    _pencil_bloch_vertices,
    _scan_row,
    _tracked_volumes,
    has_interior_volume_zero,
    four_qubit_state,
    ghzw_mixture_zero_check,
    monogamy_report,
    q_of_p,
    reduced_mixture,
    simplex_scan,
    toy_states,
)
from tangleroof.states import make_ghz, make_w, partial_trace


def test_toy_states_orthonormal():
    psi1, psi2 = toy_states()
    assert abs(psi1.norm() - 1.0) <= 1e-12
    assert abs(psi2.norm() - 1.0) <= 1e-12
    assert abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) <= 1e-12


def test_q_of_p_endpoints_and_validation():
    assert q_of_p(0.0) == pytest.approx(0.75, abs=1e-15)
    assert q_of_p(1.0) == pytest.approx(0.5, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 50)
    vals = np.array([q_of_p(p) for p in grid])
    assert np.all(vals >= 0.5 - 1e-15) and np.all(vals <= 0.75 + 1e-15)
    with pytest.raises(ValueError):
        q_of_p(-0.1)
    with pytest.raises(ValueError):
        q_of_p(1.1)


def test_family_coefficients_normalized():
    rng = np.random.default_rng(17)
    for p in rng.uniform(1e-6, 1.0, 40):
        f1, g1, h1, f2, g2, h2 = FourQubitFamily(float(p)).coefficients()
        assert abs(f1 * f1 + g1 * g1 + h1 * h1 - 1.0) <= 1e-10
        assert abs(f2 * f2 + g2 * g2 + h2 * h2 - 1.0) <= 1e-10


def test_family_limit_coefficients():
    lo = FourQubitFamily(0.0).coefficients()
    np.testing.assert_allclose(lo, (0.0, 0.0, 1.0, 0.0, 1.0, 0.0), atol=1e-12)
    hi = FourQubitFamily(1.0).coefficients()
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(hi, (r, r, 0.0, r, -r, 0.0), atol=1e-12)


def test_family_second_branch_continuous_at_sign_change():
    # g2 passes through zero at p = 3/5; the branch must stay continuous
    eps = 1e-7
    below = FourQubitFamily(0.6 - eps).coefficients()[4]
    above = FourQubitFamily(0.6 + eps).coefficients()[4]
    assert abs(below) <= 1e-3 and abs(above) <= 1e-3
    assert below > 0.0 >= -abs(above)


def test_family_eigenpair_matches_reduction():
    for p, phi in ((0.3, 0.0), (0.62, 1.1), (0.9, np.pi / 3)):
        fam = FourQubitFamily(p, phi)
        psi1, psi2 = fam.eigenpair()
        mix = reduced_mixture(p, phi)
        assert abs(abs(np.vdot(psi1.amplitudes, mix.psi1.amplitudes)) - 1.0) <= 1e-8
        assert abs(abs(np.vdot(psi2.amplitudes, mix.psi2.amplitudes)) - 1.0) <= 1e-8
        assert abs(mix.p - fam.q) <= 1e-10


def test_four_qubit_state_overlaps():
    ghz = four_qubit_state(1.0, 0.0)
    w4 = four_qubit_state(0.0, 0.0)
    assert abs(ghz.amplitudes[0] - 1.0 / np.sqrt(2.0)) <= 1e-12
    assert abs(abs(w4.amplitudes[1]) - 0.5) <= 1e-12
    mid = four_qubit_state(0.4, 0.9)
    assert abs(mid.norm() - 1.0) <= 1e-12


def test_reduced_mixture_weight_is_q():
    mix = reduced_mixture(0.5, 0.0)
    assert mix.p == pytest.approx((2.0 + np.sqrt(0.75)) / 4.0, abs=1e-10)


def test_reduced_mixture_small_p_limit():
    mix = reduced_mixture(1e-13, 0.0)
    w3 = make_w(3)
    assert abs(abs(np.vdot(mix.psi1.amplitudes, w3.amplitudes)) - 1.0) <= 1e-6


def test_ghzw_mixture_reconstruction():
    for p in (0.0, 0.5, 1.0):
        ok, weights, states = ghzw_mixture_zero_check(p)
        assert ok
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12
        assert len(states) == (2 if p in (0.0, 1.0) else 4)
        for s in states:
            assert c3(s) <= 1e-12


def test_ghzw_states_match_partial_trace():
    # reduction of the incoherent p GHZ4 + (1-p) W4 mixture, not the
    # coherent superposition family
    p = 0.5
    _, weights, states = ghzw_mixture_zero_check(p)
    recon = np.zeros((8, 8), dtype=complex)
    for w, s in zip(weights, states):
        recon += w * np.outer(s.amplitudes, s.amplitudes.conj())
    rho = p * partial_trace(make_ghz(4), keep=(0, 1, 2)).matrix
    rho = rho + (1.0 - p) * partial_trace(make_w(4), keep=(0, 1, 2)).matrix
    assert float(np.abs(recon - rho).max()) <= 1e-12


def test_simplex_scan_rejects_boundary_p():
    with pytest.raises(ValueError):
        simplex_scan(0.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        simplex_scan(0.0, np.array([0.5, 1.0]))
    rows = simplex_scan(0.0, np.array([0.3, 0.8]))
    assert len(rows) == 2 and rows[0].p == 0.3


def test_pencil_vertices_on_sphere_and_planar():
    pts = _pencil_bloch_vertices(np.array([0.9]), 0.0)[0]
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-8)
    assert np.all(np.abs(pts[:, 1]) <= 1e-8)
    tilted = _pencil_bloch_vertices(np.array([0.9]), 0.7)[0]
    assert np.abs(tilted[:, 1]).max() > 1e-3


def test_match_rows_restores_order():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(4, 3))
    tracked = _match_rows(np.stack([pts, pts[[2, 0, 3, 1]], pts[[3, 1, 0, 2]]]))
    np.testing.assert_array_equal(tracked, np.stack([pts, pts, pts]))


def _matched_one_by_one(ps, phi):
    """Vertices and volumes with every p a batch of one, matched step by step."""
    rows = []
    for p in ps:
        pts = _pencil_bloch_vertices(np.array([p]), phi)[0]
        if rows:
            pts = _match_rows(np.stack([rows[-1], pts]))[1]
        rows.append(pts)
    pts = np.stack(rows)
    return pts, np.array([np.linalg.det(r[1:] - r[0]) / 6.0 for r in pts])


# phi = 0 gives a real pencil; the p grid straddles the g2 branch flip at 3/5
@pytest.mark.parametrize("phi", [0.0, 0.5234375, np.pi / 4])
def test_batched_tracking_equals_batch_of_one(phi):
    ps = np.concatenate([np.linspace(0.02, 0.99, 61), [0.6 - 1e-9, 0.6, 0.6 + 1e-9]])
    ps.sort()
    vertices, volumes = _matched_one_by_one(ps, phi)
    np.testing.assert_array_equal(_match_rows(_pencil_bloch_vertices(ps, phi)), vertices)
    np.testing.assert_array_equal(_tracked_volumes(ps, phi), volumes)


@pytest.mark.parametrize("phi", [0.0, np.pi / 4])
def test_interior_zero_search_batches_each_grid(phi, monkeypatch):
    # a per-p loop would make the count grow with the coarse grid
    calls = []
    original = _kernels.tau3_many

    def counted(amps):
        calls.append(amps.shape)
        return original(amps)

    monkeypatch.setattr(_kernels, "tau3_many", counted)
    counts = []
    for n_coarse in (301, 1201):
        calls.clear()
        has_interior_volume_zero(phi, n_coarse=n_coarse)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_scan_row_fields():
    # volume degrades to polygon area when the polytope is flat
    row = _scan_row(0.85, 0.0, 1e-11)
    assert row.dimension == 2
    assert row.interval is not None
    lo, hi = row.interval
    assert 0.0 <= lo < hi <= 1.0
    assert row.volume > 0.0
    row3 = _scan_row(0.5, np.pi / 4, 1e-11)
    assert row3.dimension == 3
    assert row3.volume > 1e-6


def test_monogamy_residual_identity_and_symmetry():
    rep = monogamy_report(0.63, 0.4)
    total = rep.one_tangle
    parts = sum(rep.pairwise) + sum(rep.three_tangle_bounds)
    assert rep.residual == pytest.approx(total - parts, abs=1e-15)
    assert max(rep.pairwise) - min(rep.pairwise) <= 1e-10
    assert max(rep.three_tangle_bounds) - min(rep.three_tangle_bounds) <= 1e-10
    state = four_qubit_state(0.63, 0.4)
    assert rep.one_tangle == pytest.approx(one_tangle(state, 0), abs=1e-12)
