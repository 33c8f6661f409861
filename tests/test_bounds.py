import sys
import threading
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from tangleroof import _kernels, bloch, bounds, pencil
from tangleroof.bloch import (
    FACES,
    _axis_boundary,
    _span_amplitudes,
    _span_coordinates,
    state_from_bloch,
)
from tangleroof.bounds import (
    AnchorSet,
    BoundCurve,
    characteristic_curve,
    convex_envelope,
    default_anchors,
    linearized_upper_bound,
    span_geometries,
    span_geometry,
    upper_bound_report,
)
from tangleroof.invariants import c3
from tangleroof.scenarios import toy_mixture
from tangleroof.states import PureState, RankTwoMixture, inner_product, make_ghz, make_w


def _basis_pair():
    a = np.zeros(8, dtype=complex)
    b = np.zeros(8, dtype=complex)
    a[0], b[1] = 1.0, 1.0
    return RankTwoMixture(PureState(3, a), PureState(3, b), 0.5)


def test_bound_curve_validation():
    with pytest.raises(ValueError):
        BoundCurve(np.array([[0.0, 1.0]]), ("endpoint",))
    with pytest.raises(ValueError):
        BoundCurve(np.array([[0.5, 1.0], [0.5, 0.0]]), ("endpoint", "endpoint"))
    curve = BoundCurve(np.array([[0.0, 1.0], [1.0, 0.0]]), ("endpoint", "endpoint"))
    assert abs(curve(0.25) - 0.75) <= 1e-15


def test_characteristic_curve_endpoints(toy_mix):
    for phi in (0.0, 0.7, np.pi):
        rows = characteristic_curve(toy_mix, phi, [0.0, 1.0])
        assert abs(rows[0, 1] - c3(toy_mix.psi2)) <= 1e-12
        assert abs(rows[1, 1] - c3(toy_mix.psi1)) <= 1e-12


@pytest.mark.parametrize(
    "grid, phi",
    [
        ([0.0, 0.5, 1.5], 0.0),
        ([-0.1, 0.5], 0.0),
        ([0.5, np.nan], 0.0),
        ([0.5], np.nan),
        ([0.5], np.inf),
    ],
    ids=["p-above-1", "p-below-0", "p-nan", "phi-nan", "phi-inf"],
)
def test_characteristic_curve_rejects_bad_p_and_phi(toy_mix, grid, phi):
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]|phi must be finite"):
        characteristic_curve(toy_mix, phi, grid)


def test_characteristic_curve_needs_a_three_qubit_mixture():
    mix = RankTwoMixture(make_ghz(4), make_w(4), 0.5)
    with pytest.raises(ValueError, match="3-qubit"):
        characteristic_curve(mix, 0.0, [0.0, 1.0])


def test_linearized_upper_bound_shape(toy_mix):
    geom = span_geometry(toy_mix)
    curve = linearized_upper_bound(geom)
    knots = curve.knots
    assert knots.shape == (4, 2)
    assert knots[0, 1] == pytest.approx(c3(toy_mix.psi2), abs=1e-12)
    assert knots[3, 1] == pytest.approx(c3(toy_mix.psi1), abs=1e-12)
    assert knots[1, 1] == 0.0 and knots[2, 1] == 0.0
    iv = geom.interval
    mid = 0.5 * (iv.p_low + iv.p_high)
    assert curve(mid) == 0.0
    assert curve(iv.p_low / 2.0) == pytest.approx(c3(toy_mix.psi2) / 2.0, abs=1e-12)


def test_default_anchors_are_certified_zeros(toy_mix):
    geom = span_geometry(toy_mix)
    anchors = default_anchors(geom)
    k = geom.polytope.n_vertices
    # the whole face grid of four vertices
    assert k == 4 and len(anchors) == 34
    # the table opens with the vertices and holds face-grid rows
    assert np.array_equal(anchors.points[:k], geom.polytope.vertices)
    assert (anchors.sizes == 3).any()
    assert np.linalg.norm(anchors.points, axis=1).max() <= 1.0 + 1e-9
    assert np.abs(anchors.weights.sum(axis=1) - 1.0).max() <= 1e-9
    # every anchor's face vertex states have zero tangle up to root noise
    vertex_c3 = np.array([c3(s) for s in geom.zeros.states])
    assert vertex_c3.max() <= 1e-6
    assert np.max(np.sum(anchors.weights * vertex_c3[anchors.faces], axis=1)) <= 1e-6
    # the padding of faces and weights beyond each row's size is zero
    pad = np.arange(3) >= anchors.sizes[:, None]
    assert not anchors.faces[pad].any() and not anchors.weights[pad].any()


def test_pivot_bound_dominated_by_linearized(toy_mix):
    rep = upper_bound_report(toy_mix, grid_size=101)
    grid, pivot = rep.grid, rep.pivot
    lin_curve = linearized_upper_bound(rep.geometry)
    assert np.all(pivot <= lin_curve(grid) + 1e-12)
    iv = rep.interval
    inside = (grid >= iv.p_low) & (grid <= iv.p_high)
    assert np.all(pivot[inside] == 0.0)
    assert pivot[-1] == pytest.approx(c3(toy_mix.psi1), abs=1e-8)


def test_convex_envelope_is_convex_and_below_samples():
    xs = np.linspace(0.0, 1.0, 41)
    ys = np.abs(xs - 0.4) + 0.05 * np.sin(20.0 * xs) ** 2
    curve = convex_envelope(np.column_stack([xs, ys]))
    assert np.all(curve(xs) <= ys + 1e-12)
    kx, ky = curve.knots[:, 0], curve.knots[:, 1]
    slopes = np.diff(ky) / np.diff(kx)
    assert np.all(np.diff(slopes) >= -1e-12)


@pytest.mark.parametrize(
    "samples",
    [
        # the nan-abscissa sample lies below the chord, which was returned
        [[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]],
        # a nan value came back as a knot
        [[0.0, np.nan], [1.0, 0.0]],
    ],
)
def test_convex_envelope_rejects_non_finite_samples(samples):
    with pytest.raises(ValueError, match="finite"):
        convex_envelope(samples)


def test_bound_curve_rejects_non_finite_knots():
    with pytest.raises(ValueError, match="finite"):
        BoundCurve(np.array([[0.0, np.inf], [1.0, 0.0]]), ("endpoint", "endpoint"))


@pytest.mark.parametrize("grid_size", [2.5, 401.0, True])
def test_report_rejects_a_grid_size_that_is_no_integer(toy_mix, grid_size):
    # 2.5 reached np.linspace, which raised a TypeError
    with pytest.raises(ValueError, match="grid_size must be an integer"):
        upper_bound_report(toy_mix, grid_size=grid_size)
    assert upper_bound_report(toy_mix, grid_size=np.int64(11)).grid.shape[0] >= 11


def test_report_identically_zero_span():
    rep = upper_bound_report(_basis_pair(), grid_size=11)
    assert rep.identically_zero
    assert np.all(rep.envelope == 0.0) and np.all(rep.pivot == 0.0)
    assert set(rep.achieving) == {"zero-interval"}
    w, states = rep.decomposition_at(0.3)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    assert all(c3(s) <= 1e-12 for s in states)


def test_report_grid_contains_interval_knots(toy_rep):
    rep = toy_rep.report
    iv = rep.interval
    assert np.any(rep.grid == iv.p_low)
    assert np.any(rep.grid == iv.p_high)
    with pytest.raises(ValueError):
        upper_bound_report(toy_rep.mixture, grid_size=1)


def test_decompositions_achieve_reported_envelope(toy_rep):
    rep = toy_rep.report
    mix = toy_rep.mixture
    for p in (0.02, 0.08, 0.3, 0.75, 0.9, 0.97):
        weights, states = rep.decomposition_at(p)
        avg = float(sum(w * c3(s) for w, s in zip(weights, states)))
        env = float(rep.envelope_curve(p))
        assert avg <= env + 1e-6
        assert abs(avg - env) <= 1e-6
        recon = np.zeros((8, 8), dtype=complex)
        for w, s in zip(weights, states):
            recon += w * np.outer(s.amplitudes, s.amplitudes.conj())
        target = replace(mix, p=p).density_matrix().matrix
        assert float(np.abs(recon - target).max()) <= 1e-9


def test_achieving_labels_cover_all_families(toy_rep):
    labels = set(toy_rep.report.achieving)
    assert labels == {"zero-interval", "pivot", "linearized"}
    assert all(type(label) is str for label in toy_rep.report.achieving)


def _seeded_pairs(seed, n):
    """n Haar-random complex pairs, then n real pairs, each orthonormal."""
    rng = np.random.default_rng(seed)
    out = []
    for real in (False, True):
        for _ in range(n):
            g = rng.standard_normal((8, 2))
            if not real:
                g = g + 1j * rng.standard_normal((8, 2))
            q = np.linalg.qr(g)[0].astype(complex)
            out.append(RankTwoMixture(PureState(3, q[:, 0]), PureState(3, q[:, 1]), 0.5))
    return out


def test_envelope_reaches_pure_tangles_at_both_ends():
    for mix in [toy_mixture()] + _seeded_pairs(61, 8):
        rep = upper_bound_report(mix, grid_size=401)
        assert abs(rep.envelope_curve(1.0) - c3(mix.psi1)) <= 1e-12
        assert abs(rep.envelope_curve(0.0) - c3(mix.psi2)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 9])
def test_pure_end_bounds_are_the_exact_end_tangles(seed):
    # rho(0) and rho(1) are pure: no anchor ray may undercut their exact c3
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 2)))[0].astype(complex)
    rep = upper_bound_report(RankTwoMixture(PureState(3, q[:, 0]), PureState(3, q[:, 1]), 0.5))
    for vals in (rep.envelope, rep.pivot):
        assert vals[0] == rep.geometry.c3_psi2 and vals[-1] == rep.geometry.c3_psi1


def test_state_from_bloch_next_to_the_poles_is_pure(toy_mix):
    # axis points one or two ulps inside the sphere stand for the poles
    for eps in (2.0**-53, 2.0**-52):
        north = state_from_bloch(toy_mix, np.array([0.0, 0.0, 1.0 - eps]))
        south = state_from_bloch(toy_mix, np.array([0.0, 0.0, eps - 1.0]))
        assert abs(inner_product(toy_mix.psi2, north)) <= 1e-15
        assert abs(inner_product(toy_mix.psi1, south)) <= 1e-15


def test_ghz_w_zero_interval_matches_literature():
    # Lohmayer, Osterloh, Siewert, Uhlmann, PRL 97, 260502 (2006)
    mix = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    iv = span_geometry(mix).interval
    cube = 4.0 * 2.0 ** (1.0 / 3.0)
    losu = cube / (3.0 + cube)
    assert abs(iv.p_low) <= 1e-12
    assert abs(iv.p_high - losu) <= 1e-12
    # the reversed order: tau3(W3) = 0 is c_0 exactly, so z = 0 is an exact
    # root, stored as +0, as tau3(W3) = c_4 gives the root at infinity above
    geom = span_geometry(RankTwoMixture(make_w(3), make_ghz(3), 0.5))
    assert abs(geom.interval.p_low - (1.0 - losu)) <= 1e-12
    assert abs(geom.interval.p_high - 1.0) <= 1e-12
    z = geom.zeros.z
    at_zero = z == 0.0
    assert at_zero.sum() == 1
    assert not np.signbit(z[at_zero].real) and not np.signbit(z[at_zero].imag)
    assert geom.zeros.phases[at_zero] == 0.0 and geom.zeros.p0[at_zero] == 1.0


def test_swapping_the_pair_exchanges_the_ends_and_mirrors_the_interval(benchmark_inputs):
    # psi1 <-> psi2 maps the Bloch point (x, y, z) to (x, -y, -z): c_0 and
    # c_4 trade places and [lo, hi] becomes [1 - hi, 1 - lo]
    pairs = [pair for seed in (1, 2, 3, 7) for pair in benchmark_inputs.pair_set(seed)]
    amps1 = np.array([a for _, a, _ in pairs])
    amps2 = np.array([b for _, _, b in pairs])
    mirrored = 0
    for fwd, rev in zip(span_geometries(amps1, amps2), span_geometries(amps2, amps1)):
        assert fwd.coefficients[0] == rev.coefficients[4]
        assert fwd.coefficients[4] == rev.coefficients[0]
        assert (fwd.interval is None) == (rev.interval is None)
        if fwd.interval is None:
            continue
        mirrored += 1
        assert abs(rev.interval.p_low - (1.0 - fwd.interval.p_high)) <= 1e-13
        assert abs(rev.interval.p_high - (1.0 - fwd.interval.p_low)) <= 1e-13
    assert mirrored >= 700


def test_ghz_w_envelope_is_one_chord_right_of_the_interval():
    # the grid sample at p = 0.9975 lies 1.1e-16 below the chord from the
    # interval end to the pure GHZ3 end: rounding, not a knot
    rep = upper_bound_report(RankTwoMixture(make_ghz(3), make_w(3), 0.5), grid_size=401)
    assert rep.p_right == 1.0
    assert rep.envelope_curve.knots[:, 0].tolist() == [0.0, rep.interval.p_high, 1.0]


def test_w_ghz_envelope_is_one_chord_left_of_the_interval():
    # the mirrored pair: a ray from the axis interval point along the axis
    # once dipped 1.1e-16 below the chord at p = 0.0025 and made it a knot
    rep = upper_bound_report(RankTwoMixture(make_w(3), make_ghz(3), 0.5), grid_size=401)
    assert rep.p_left == 0.0
    assert rep.envelope_curve.knots[:, 0].tolist() == [0.0, rep.interval.p_low, 1.0]


def test_span_geometry_builds_one_pencil(toy_mix, monkeypatch):
    # one _pencil_tables batch multiplies out every pencil and the sizes of
    # its coefficients, for one span or a stack of them, and no tangle rows
    # are evaluated for it
    batches, tangle_rows = [], []
    pencils, tau3_many = bounds._pencil_tables, _kernels.tau3_many

    def counted_pencils(amps1, amps2):
        batches.append(len(amps1))
        return pencils(amps1, amps2)

    def counted_tau3(amps):
        tangle_rows.append(len(amps))
        return tau3_many(amps)

    monkeypatch.setattr(bounds, "_pencil_tables", counted_pencils)
    monkeypatch.setattr(_kernels, "tau3_many", counted_tau3)
    span_geometry(toy_mix)
    assert batches == [1]
    batches.clear()
    pairs = _seeded_pairs(5, 6)
    span_geometries(
        np.array([m.psi1.amplitudes for m in pairs]), np.array([m.psi2.amplitudes for m in pairs])
    )
    assert batches == [len(pairs)]
    assert tangle_rows == []


def test_span_geometries_equal_batches_of_one(benchmark_inputs, sparse_spans):
    # a stack of one, the path of every report, against the same span in a
    # stack of 519: the benchmark's 200 pairs (with the toy pair, GHZ3/W3, an
    # identically zero pencil and the |000>/|111> double roots) and the 300
    # sparse spans (flat polytopes, roots at 0 and at infinity)
    ket = np.eye(8, dtype=complex)
    pairs = [
        RankTwoMixture(PureState(3, a), PureState(3, b), 0.5)
        for _, a, b in benchmark_inputs.pair_set(1)
    ]
    mixes = _seeded_pairs(29, 5) + [
        RankTwoMixture(make_ghz(3), make_w(3), 0.5),
        RankTwoMixture(PureState(3, ket[0]), PureState(3, ket[7]), 0.5),
        _basis_pair(),  # identically zero pencil
        toy_mixture(),
    ] + pairs + [mix for mix, _ in sparse_spans]
    stacked = span_geometries(
        np.array([m.psi1.amplitudes for m in mixes]), np.array([m.psi2.amplitudes for m in mixes])
    )
    for mix, geom in zip(mixes, stacked):
        alone = span_geometry(mix)
        assert geom.identically_zero == alone.identically_zero
        assert np.array_equal(geom.coefficients, alone.coefficients)
        if alone.identically_zero:
            continue
        for name in ("z", "multiplicity", "p0", "phases"):
            assert np.array_equal(getattr(geom.zeros, name), getattr(alone.zeros, name))
        assert len(geom.zeros.states) == len(alone.zeros.states)
        for a, b in zip(geom.zeros.states, alone.zeros.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(geom.polytope.vertices, alone.polytope.vertices)
        assert (geom.polytope.dimension, geom.polytope.volume) == (
            alone.polytope.dimension,
            alone.polytope.volume,
        )
        assert (geom.interval is None) == (alone.interval is None)
        if alone.interval is not None:
            a, b = geom.interval, alone.interval
            assert (a.p_low, a.p_high) == (b.p_low, b.p_high)
            for wa, wb in ((a.witness_low, b.witness_low), (a.witness_high, b.witness_high)):
                assert wa.face == wb.face and np.array_equal(wa.weights, wb.weights)


def test_span_geometries_keep_no_tie_to_the_input_stacks():
    # the root states are those of the stacks as passed: overwriting the
    # caller's arrays afterwards changes no geometry
    mixes = _seeded_pairs(31, 4) + [toy_mixture()]
    amps1 = np.array([m.psi1.amplitudes for m in mixes])
    amps2 = np.array([m.psi2.amplitudes for m in mixes])
    geoms = span_geometries(amps1, amps2)
    amps1[:] = amps2[::-1]
    amps2[:] = 1.0
    for mix, geom in zip(mixes, geoms):
        alone = span_geometry(mix)
        for a, b in zip(geom.zeros.states, alone.zeros.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(geom.coefficients, alone.coefficients)


def test_report_tangle_calls_do_not_grow_with_the_grid(monkeypatch):
    calls = []
    original = _kernels.tau3_many

    def counted(amps):
        calls.append(len(amps))
        return original(amps)

    monkeypatch.setattr(_kernels, "tau3_many", counted)
    counts = []
    for mix in (toy_mixture(), RankTwoMixture(make_ghz(3), make_w(3), 0.5)):
        for grid_size in (41, 401):
            calls.clear()
            upper_bound_report(mix, grid_size)
            counts.append(len(calls))
    assert counts[0] == counts[1] and counts[2] == counts[3]


def test_span_geometry_keeps_the_form_coefficients(toy_mix):
    geom = span_geometry(toy_mix)
    poly = pencil.pencil_polynomial(toy_mix.psi1, toy_mix.psi2)
    assert np.array_equal(geom.coefficients, poly)
    assert geom.c3_psi1 == c3(toy_mix.psi1)
    assert geom.c3_psi2 == c3(toy_mix.psi2)


@pytest.mark.parametrize(
    "psi1, psi2",
    [(make_ghz(3), make_w(3)), (PureState(3, np.eye(8)[0]), PureState(3, np.eye(8)[7]))],
    ids=["ghz_w", "000_111"],
)
def test_structural_zero_ends_are_exact(psi1, psi2):
    mix = RankTwoMixture(psi1, psi2, 0.5)
    geom = span_geometry(mix)
    assert geom.c3_psi2 == c3(psi2)
    assert geom.c3_psi1 == c3(psi1)
    for phi in (0.0, 1.3):
        curve = characteristic_curve(mix, phi, [0.0, 1.0])
        assert curve[0, 1] == c3(psi2)
        assert curve[1, 1] == c3(psi1)
    lin = linearized_upper_bound(geom)
    assert lin(0.0) == c3(psi2) and lin(1.0) == c3(psi1)


# the p values at which the benchmark asks each report for a decomposition
CERTIFICATE_PS = (0.0, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0)


def _certificate_mixtures():
    ghz_w = RankTwoMixture(make_ghz(3), make_w(3), 0.5)
    return [toy_mixture(), ghz_w] + _seeded_pairs(83, 3)


def _assert_certifies(rep, mix, p):
    """The decomposition at p reconstructs rho(p) and averages to the envelope.

    Interval witnesses are polytope vertex states, whose c3 carries root
    noise of a few 1e-8. Returns the average.
    """
    weights, states = rep.decomposition_at(p)
    assert np.all(weights > 0.0) and abs(float(np.sum(weights)) - 1.0) <= 1e-12
    avg = float(sum(w * c3(s) for w, s in zip(weights, states)))
    assert abs(avg - float(rep.envelope_curve(p))) <= 1e-7
    recon = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in zip(weights, states))
    target = replace(mix, p=p).density_matrix().matrix
    assert float(np.abs(recon - target).max()) <= 1e-12
    return avg


def test_decompositions_list_each_state_once(benchmark_inputs):
    # knot certificates that share an interval witness's vertex state or a
    # pure end are merged into one entry per state object
    for name, a, b in benchmark_inputs.pair_set(1):
        mix = RankTwoMixture(PureState(3, a), PureState(3, b), 0.5)
        rep = upper_bound_report(mix, grid_size=401)
        for p in benchmark_inputs.DECOMPOSITION_PS:
            _, states = rep.decomposition_at(p)
            assert len({id(s) for s in states}) == len(states), (name, p)
            _assert_certifies(rep, mix, p)
        if name == "toy":
            assert len(rep.decomposition_at(0.05)[1]) == 3


def _subset_reports(monkeypatch, rows, mixtures):
    """(mixture, full report, report) per mixture, the second searching only
    the ``rows(table)`` rows of each default anchor table."""
    original = bounds.default_anchors

    def subset(geom):
        table = original(geom)
        return AnchorSet(*(a[rows(table)] for a in vars(table).values()))

    out = []
    for mix in mixtures:
        full = upper_bound_report(mix, grid_size=401)
        with monkeypatch.context() as m:
            m.setattr(bounds, "default_anchors", subset)
            rep = upper_bound_report(mix, grid_size=401)
        assert np.array_equal(rep.grid, full.grid)
        # fewer rays can only raise the pivot bound and its convex minorant
        assert np.all(rep.pivot >= full.pivot) and np.all(rep.envelope >= full.envelope)
        out.append((mix, full, rep))
    return out


def test_a_one_row_anchor_table_certifies_every_knot(monkeypatch):
    # one anchor leaves the envelope on linearized chords over long
    # stretches: the pivot bound reads the linearized one wherever the ray
    # does not certify, and every interior knot is a certifying ray or an
    # interval end, never a linearized sample
    mixtures = _seeded_pairs(89, 4) + [toy_mixture()]
    chords = 0
    for mix, full, rep in _subset_reports(monkeypatch, lambda t: [0], mixtures):
        assert len(rep.anchors) == 1 and np.all(rep.pivot <= rep.linearized)
        off = np.array(rep.achieving) != "zero-interval"
        ray = rep.pivot < rep.linearized - 1e-15
        assert np.array_equal(rep.pivot[off & ~ray], rep.linearized[off & ~ray])
        chords += int(np.count_nonzero(off & ~ray & (rep.envelope == rep.linearized)))
        for report in (full, rep):
            prov = report.envelope_curve.provenance
            assert "linearized" not in prov
            assert all(report._knots.certified[i] for i, label in enumerate(prov) if label == "pivot")
        knot_ps = tuple(rep.envelope_curve.knots[:, 0].tolist())
        for p in CERTIFICATE_PS + (0.3, 0.71) + knot_ps:
            assert _assert_certifies(rep, mix, p) <= float(rep.linearized_curve(p)) + 1e-7
    assert chords > 0


def test_envelope_knots_never_sit_on_a_linearized_chord(sparse_spans):
    # rounding alone makes no knot: a ray counts only where it certifies,
    # and the hull skips the linearized samples strictly inside a chord
    on_chord = pivot_knots = 0
    for mix in _reference_mixtures() + [mix for mix, _ in sparse_spans]:
        rep = upper_bound_report(mix, grid_size=401)
        # every knot is a grid sample of the pivot bound, at increasing rows
        knots, prov = rep.envelope_curve.knots, rep.envelope_curve.provenance
        rows = np.searchsorted(rep.grid, knots[:, 0])
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(knots, np.column_stack([rep.grid[rows], rep.pivot[rows]]))
        # a ray certifies exactly the interior pivot knots
        interior_pivot = [0 < i < len(prov) - 1 and label == "pivot" for i, label in enumerate(prov)]
        assert rep._knots.certified == interior_pivot
        assert rep._knots.ps == knots[:, 0].tolist()
        pivot_knots += sum(interior_pivot)
        near = np.abs(knots[1:-1, 1] - rep.linearized_curve(knots[1:-1, 0])) <= 1e-15
        on_chord += int(np.count_nonzero(near & (np.array(prov[1:-1]) != "zero-interval")))
    assert on_chord == 0 and pivot_knots > 0
    # sparse span 206 never leaves the chord from p = 0 to p_low
    mix = sparse_spans[206][0]
    assert mix.psi1.amplitudes[2:4].real.tolist() == [0.7583692466130246, 0.641749381995842]
    rep = upper_bound_report(mix, grid_size=401)
    assert rep.p_left == 0.0 and rep.envelope_curve.knots[1, 1] == 0.0


def test_an_anchor_subset_bounds_no_lower_and_certifies(monkeypatch):
    mixtures = _seeded_pairs(89, 4) + [toy_mixture()]
    # the vertices and the quarter points of the edges
    for mix, full, rep in _subset_reports(monkeypatch, lambda t: t.sizes < 3, mixtures):
        assert 0 < len(rep.anchors) < len(full.anchors)
        for p in CERTIFICATE_PS + tuple(rep.envelope_curve.knots[:, 0].tolist()):
            _assert_certifies(rep, mix, p)


def test_knot_certificates_read_the_report_pivot_pass(monkeypatch):
    calls = []
    original = bounds._pivot_candidates

    def counted(coeffs, ps, anchors):
        calls.append(len(ps))
        return original(coeffs, ps, anchors)

    monkeypatch.setattr(bounds, "_pivot_candidates", counted)
    for mix in _certificate_mixtures():
        calls.clear()
        rep = upper_bound_report(mix, grid_size=401)
        # one pass over the grid points off the zero interval, whose bound is
        # 0, and off the pure ends, whose bound is the exact end c3
        off = sum(label != "zero-interval" for label in rep.achieving[1:-1])
        assert calls == [off]
        for p in CERTIFICATE_PS:
            _assert_certifies(rep, mix, p)
        assert calls == [off]


def _report_bits(rep):
    """Every field of a report and its decompositions at CERTIFICATE_PS, as
    bytes, tuples and floats."""
    decompositions = []
    for p in CERTIFICATE_PS:
        weights, states = rep.decomposition_at(p)
        decompositions.append((weights.tobytes(), tuple(s.amplitudes.tobytes() for s in states)))
    return (
        rep.grid.tobytes(), rep.linearized.tobytes(), rep.pivot.tobytes(), rep.envelope.tobytes(),
        rep.linearized_curve.knots.tobytes(), rep.linearized_curve.provenance,
        rep.envelope_curve.knots.tobytes(), rep.envelope_curve.provenance,
        rep.achieving, rep.p_left, rep.p_right, decompositions,
    )


@pytest.mark.parametrize("cells", [36, 500, 10**7])
def test_pivot_blocks_leave_every_report_field_unchanged(monkeypatch, cells):
    mixtures = _certificate_mixtures()
    want = [_report_bits(upper_bound_report(mix, n)) for mix in mixtures for n in (401, 2001)]
    blocks = []
    original = bounds._pivot_candidates

    def counted(coeffs, ps, anchors):
        blocks.append((len(ps), len(anchors)))
        return original(coeffs, ps, anchors)

    monkeypatch.setattr(bounds, "_PIVOT_CELLS", cells)
    monkeypatch.setattr(bounds, "_pivot_candidates", counted)
    got = []
    for mix in mixtures:
        for n in (401, 2001):
            blocks.clear()
            rep = upper_bound_report(mix, n)
            got.append(_report_bits(rep))
            # full blocks of _PIVOT_CELLS cells (one row at least), then the rest
            n_a = len(rep.anchors)
            step = max(1, cells // n_a)
            off = sum(label != "zero-interval" for label in rep.achieving[1:-1])
            rows = [step] * (off // step) + ([off % step] if off % step else [])
            assert blocks == [(r, n_a) for r in rows]
    assert got == want


def test_reports_on_two_threads_equal_the_serial_ones():
    mixtures = _certificate_mixtures()
    want = [_report_bits(upper_bound_report(mix, 401)) for mix in mixtures]
    got = {}

    def run(order):
        got[order] = [_report_bits(upper_bound_report(mixtures[k], 401)) for k in order]

    orders = (tuple(range(len(mixtures))) * 3, tuple(reversed(range(len(mixtures)))) * 3)
    callers = [threading.Thread(target=run, args=(order,), daemon=True) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for order in orders:
        assert got[order] == [want[k] for k in order]


def test_a_thread_holds_one_block_of_pivot_planes():
    held = []

    def run():
        upper_bound_report(_certificate_mixtures()[0], 2001)
        planes = bounds._PLANES
        nbytes = planes.real.nbytes + planes.complex.nbytes + planes.chart.nbytes + planes.mask.nbytes
        held.append((planes.cells, nbytes))

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    # a fresh thread starts without planes, and a grid of 2001 runs in blocks
    cells, nbytes = held[0]
    assert 0 < cells <= bounds._PIVOT_CELLS
    assert nbytes == 89 * cells


def _searched_certificate(rep, p):
    """A knot certificate by a fresh single-p anchor search, as a reference."""
    geom, table = rep.geometry, rep.anchors
    cand, lam, s = bounds._pivot_candidates(geom.coefficients, np.array([p]), table.points)
    best = int(np.argmin(cand[0]))
    lin = float(rep.linearized_curve(p))
    if not np.min(cand[0]) < lin - 1e-15:
        return None
    size = table.sizes[best]
    lam_b = float(lam[0, best])
    weights = [lam_b] + [(1.0 - lam_b) * w for w in table.weights[best, :size]]
    boundary = _axis_boundary(table.points[best], 2.0 * p - 1.0, s[0, best])
    states = (state_from_bloch(rep.mix, boundary),) + tuple(
        geom.zeros.states[i] for i in table.faces[best, :size]
    )
    return np.array(weights), states


def test_knot_certificates_equal_a_fresh_anchor_search():
    pivot_knots = 0
    for mix in _certificate_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        iv = rep.interval
        knots = enumerate(zip(rep.envelope_curve.knots[:, 0], rep.envelope_curve.provenance))
        for i, (p, label) in knots:
            if label != "pivot" or (iv is not None and iv.p_low - 1e-12 <= p <= iv.p_high + 1e-12):
                continue
            expected = _searched_certificate(rep, float(p))
            weights, states = rep._knot_certificate(i)
            if expected is None:
                assert states[0] is mix.psi1 or states[0] is mix.psi2
                continue
            pivot_knots += 1
            assert np.array_equal(weights, expected[0])
            assert len(states) == len(expected[1])
            for s, e in zip(states, expected[1]):
                assert np.array_equal(s.amplitudes, e.amplitudes)
    assert pivot_knots > 0


def _numpy_scalar_hull(samples):
    """Lower hull over numpy scalars, as a reference: a vertex goes when the
    cross product of its neighbours' chords is at most 4 ulps of its two
    terms."""
    pts = np.asarray(samples, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = np.diff(pts[:, 0]) > 0
    hull = []
    for q in pts[keep]:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            left, right = (a[0] - o[0]) * (q[1] - o[1]), (a[1] - o[1]) * (q[0] - o[0])
            if left - right <= 4.0 * np.finfo(float).eps * (abs(left) + abs(right)):
                hull.pop()
            else:
                break
        hull.append(q)
    return np.array(hull)


def test_convex_envelope_knots_equal_a_numpy_scalar_hull():
    xs = np.linspace(0.0, 1.0, 9)
    collinear = np.column_stack([xs, 0.5 - 0.25 * xs])
    duplicates = [[0.5, 1.0], [0.0, 2.0], [0.5, 0.25], [1.0, 2.0], [0.0, 3.0], [0.5, 0.5]]
    integers = [[0, 4], [1, 2], [2, 0], [3, 1], [4, 2], [5, 4], [2, 3]]
    cases = [collinear, duplicates, integers]
    for mix in _certificate_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        cases.append(np.column_stack([rep.grid, rep.pivot]))
    for samples in cases:
        curve = convex_envelope(samples)
        assert np.array_equal(curve.knots, _numpy_scalar_hull(samples))
        assert all(type(label) is str for label in curve.provenance)
    assert convex_envelope(collinear).knots.tolist() == [[0.0, 0.5], [1.0, 0.25]]
    assert convex_envelope(duplicates).knots.tolist() == [[0.0, 2.0], [0.5, 0.25], [1.0, 2.0]]
    assert convex_envelope(integers).knots.tolist() == [[0, 4], [2, 0], [4, 2], [5, 4]]


# two real pairs of perfbench's pair_set (seed 1201 real3, seed 1205 real90)
# whose zero interval is a single point with two computed ends under 1e-15 apart
_SINGLE_POINT_PAIRS = [
    (
        [-0.19727804686289008, -0.543104038998575, 0.291019122587672, 0.4252246907597092,
         -0.19189913430457184, 0.08695554553485994, 0.5783939353261298, -0.14725867932944603],
        [0.03474375636732836, -0.08156696228784457, 0.6566951490929428, -0.014090719158182873,
         0.22791379742638757, 0.46034251279114585, -0.2559334724414517, 0.4809685690270224],
    ),
    (
        [-0.28743889967909086, 0.5665317931336534, -0.2208839670710412, -0.25170778539420136,
         -0.004842826150303254, -0.2919754960636875, 0.32183777895855675, 0.5435267895432674],
        [-0.22286891244952922, -0.1483592341926926, -0.2799662912696552, 0.5252596794769092,
         0.44811658717108666, 0.022819245464141005, 0.587650000159914, -0.16546423786573713],
    ),
]


@pytest.mark.parametrize("amps", _SINGLE_POINT_PAIRS)
def test_single_point_interval_adds_one_grid_row(amps):
    psi1, psi2 = (PureState(3, np.array(a, dtype=complex)) for a in amps)
    rep = upper_bound_report(RankTwoMixture(psi1, psi2, 0.5), grid_size=401)
    lo, hi = rep.interval.p_low, rep.interval.p_high
    assert hi - lo <= 1e-15
    assert rep.grid.shape == (402,)
    assert np.count_nonzero(np.abs(rep.grid - lo) <= 1e-15) == 1 and lo in rep.grid
    # a second row an ulp away made the chord into it read -2.8e-17 there
    assert rep.envelope.min() >= 0.0
    assert rep.envelope_curve.knots[:, 1].min() >= 0.0


# The pivot pass and the anchor builder as they were before rays were solved
# on the mixing axis, kept as references: general 3-D ray exits, the stacked
# boundary points, their half-angle span coordinates and the quartic form;
# and one anchor candidate at a time.


def _reference_sphere_exits(anchors, targets):
    """Boundary (n_t, n_a, 3) and lam (n_t, n_a) of the rays from each anchor
    through each target, the dot products written out component by component."""
    d = targets[:, None, :] - anchors[None, :, :]
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    ax, ay, az = anchors[:, 0], anchors[:, 1], anchors[:, 2]
    dd = dx * dx + dy * dy + dz * dz
    c = ax * dx + ay * dy + az * dz
    disc = c * c + (1.0 - (ax * ax + ay * ay + az * az))[None, :] * dd
    denom = np.sqrt(np.clip(disc, 0.0, None)) - c
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where((dd > 0) & (denom > 0), dd / denom, np.nan)
        boundary = targets[:, None, :] + d * (1.0 / lam - 1.0)[:, :, None]
    return boundary, lam


def _reference_pivot_candidates(coeffs, ps, points):
    """(candidates, lam, boundary, tangle) per (grid point, anchor point)."""
    targets = np.column_stack([np.zeros_like(ps), np.zeros_like(ps), 2.0 * ps - 1.0])
    boundary, lam = _reference_sphere_exits(points, targets)
    tau = _kernels.quartic_form(coeffs, *_span_coordinates(boundary))
    lam = np.minimum(lam, 1.0)
    cand = np.where(np.isfinite(lam), lam * np.sqrt(np.abs(tau)), np.inf)
    return cand, lam, boundary, tau


def _reference_grid_pivots(coeffs, grid, off, points):
    """(anchor, value, lam, s) grid arrays from the reference candidates,
    with s = 1/lam - 1 of the unclipped reference lam."""
    idx = np.nonzero(off)[0]
    cand, lam, _, _ = _reference_pivot_candidates(coeffs, grid[idx], points)
    targets = np.column_stack([np.zeros(idx.size), np.zeros(idx.size), 2.0 * grid[idx] - 1.0])
    with np.errstate(divide="ignore"):
        s = 1.0 / _reference_sphere_exits(points, targets)[1] - 1.0
    best = np.argmin(cand, axis=1)
    rows = np.arange(idx.size)
    out = (
        np.zeros(grid.shape, dtype=np.intp),
        np.full(grid.shape, np.inf),
        np.full(grid.shape, np.nan),
        np.full(grid.shape, np.nan),
    )
    for a, v in zip(out, (best, cand[rows, best], lam[rows, best], s[rows, best])):
        a[idx] = v
    return out


def _reference_conjugate_pairs(vertices):
    pairs = []
    k = vertices.shape[0]
    for i in range(k):
        if vertices[i, 1] <= 1e-9:
            continue
        mirror = vertices[i] * np.array([1.0, -1.0, 1.0])
        for j in range(k):
            if j != i and np.linalg.norm(vertices[j] - mirror) <= 1e-8:
                pairs.append((i, j))
                break
    return pairs


def _reference_anchors(geom):
    """Anchor points as the table was once built: vertices, conjugate-pair
    mixtures, then a quarter-step grid over every triangle."""
    if geom.polytope is None:
        return []
    v = geom.polytope.vertices
    points = list(v)
    points += [0.5 * (v[i] + v[j]) for i, j in _reference_conjugate_pairs(v)]
    grid = [np.array([a, b, 4 - a - b], dtype=float) / 4.0 for a in range(5) for b in range(5 - a)]
    for face in (f for f in FACES[2].tolist() if max(f) < v.shape[0]):
        points += [w @ v[face] for w in grid]
    return points


def _reference_face_anchors(geom):
    """(point, face, weights) per anchor, one candidate at a time: the
    quarter-step barycentric points inside every face (each vertex, then
    three points per edge, then three per triangle), each as one weight row
    padded to 3 times the padded face's vertex rows."""
    if geom.polytope is None:
        return []
    v = geom.polytope.vertices
    candidates = []
    for size in (1, 2, 3):
        for face in combinations(range(v.shape[0]), size):
            for steps in product(range(1, 5), repeat=size):
                if sum(steps) == 4:
                    w = np.array(steps + (0,) * (3 - size)) / 4.0
                    point = (w[None] @ v[list(face) + [0] * (3 - size)])[0]
                    candidates.append((point, face, w[:size]))
    return candidates


def _reference_mixtures():
    """The toy pair, GHZ3/W3 (a root at infinity), |000>/|111> (double
    roots), |000>/|001> (identically zero pencil), and 24 Haar and 24 real
    seeded pairs."""
    e = np.eye(8, dtype=complex)
    return [
        toy_mixture(),
        RankTwoMixture(make_ghz(3), make_w(3), 0.5),
        RankTwoMixture(PureState(3, e[0]), PureState(3, e[7]), 0.5),
        _basis_pair(),
    ] + _seeded_pairs(97, 24)


def test_default_anchors_equal_the_per_candidate_builder():
    anchored = 0
    for mix in _reference_mixtures():
        geom = span_geometry(mix)
        got = default_anchors(geom)
        expected = _reference_face_anchors(geom)
        assert len(got) == len(expected)
        anchored += bool(got)
        for j, (point, face, weights) in enumerate(expected):
            size = got.sizes[j]
            assert np.array_equal(got.points[j], point)
            assert tuple(got.faces[j, :size].tolist()) == face
            assert np.array_equal(got.weights[j, :size], weights) and size == weights.shape[0]
        assert not any(v.flags.writeable for v in vars(got).values())
    assert anchored >= 40


def test_face_anchors_keep_the_points_of_the_triangle_grid():
    # with three or more vertices, the quarter points of the edges hold the
    # conjugate-pair midpoints and every point the triangle grids shared
    spans = 0
    for mix in _reference_mixtures():
        geom = span_geometry(mix)
        if geom.polytope is None or geom.polytope.n_vertices < 3:
            continue
        spans += 1
        got = np.round(default_anchors(geom).points, 12).tolist()
        expected = np.round(_reference_anchors(geom), 12).tolist()
        assert {tuple(p) for p in got} == {tuple(p) for p in expected}
    assert spans >= 40


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_two_vertex_anchors_are_the_quarter_points_of_the_edge(angle):
    # cos t|000> + sin t|111> and its orthogonal partner span the plane of
    # |000> and |111>: two double roots, whose vertices are antipodal
    e = np.eye(8, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    mix = RankTwoMixture(PureState(3, c * e[0] + s * e[7]), PureState(3, c * e[7] - s * e[0]), 0.5)
    rep = upper_bound_report(mix, grid_size=101)
    v, table = rep.geometry.polytope.vertices, rep.anchors
    assert v.shape[0] == 2
    # the two vertices and the three quarter points of the edge, and no
    # other point
    assert table.sizes[:5].tolist() == [1, 1, 2, 2, 2]
    quarters = [0.25 * v[0] + 0.75 * v[1], 0.5 * (v[0] + v[1]), 0.75 * v[0] + 0.25 * v[1]]
    np.testing.assert_allclose(table.points[2:5], quarters, rtol=0.0, atol=1e-15)
    assert len(table) == 5
    for p in CERTIFICATE_PS + tuple(rep.envelope_curve.knots[:, 0].tolist()):
        _assert_certifies(rep, mix, p)


def test_every_span_with_a_zero_set_has_an_anchor_per_vertex():
    # the report searches default_anchors whenever the pencil does not vanish
    # identically, so it never meets an empty table
    spans = 0
    for mix in _reference_mixtures():
        geom = span_geometry(mix)
        if geom.identically_zero:
            assert len(default_anchors(geom)) == 0
            continue
        spans += 1
        assert len(default_anchors(geom)) >= geom.polytope.n_vertices >= 1
    assert spans == len(_reference_mixtures()) - 1


def _with_axis_rows(table, geom):
    """``table`` with a row for each end of the axis interval appended, as
    anchors were once built: the point (0, 0, 2p - 1) as the convex
    combination of its witness face."""
    if geom.interval is None:
        return table
    iv = geom.interval
    ends = ((iv.p_low, iv.witness_low), (iv.p_high, iv.witness_high))
    rows = (
        [[0.0, 0.0, 2.0 * p - 1.0] for p, _ in ends],
        [list(w.face) + [0] * (3 - len(w.face)) for _, w in ends],
        [w.weights.tolist() + [0.0] * (3 - len(w.face)) for _, w in ends],
        [len(w.face) for _, w in ends],
    )
    return AnchorSet(*(
        np.concatenate([a, np.array(r, dtype=a.dtype)]) for a, r in zip(vars(table).values(), rows)
    ))


def test_axis_interval_anchors_change_no_report_field(monkeypatch):
    # an axis interval point's rays run along the axis to a pure end and
    # retrace a linearized chord: they undercut it only by rounding, which
    # certifies nothing, so every field of the report keeps its bits
    original = bounds.default_anchors
    for mix in _reference_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        with monkeypatch.context() as m:
            m.setattr(bounds, "default_anchors", lambda geom: _with_axis_rows(original(geom), geom))
            ref = upper_bound_report(mix, grid_size=401)
        if rep.interval is not None:
            assert len(ref.anchors) == len(rep.anchors) + 2
        assert _report_bits(rep) == _report_bits(ref)
        assert np.all(rep.pivot <= rep.linearized)


def test_pivot_pass_equals_the_stacked_boundary_reference(monkeypatch):
    ties = 0
    for mix in _reference_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        with monkeypatch.context() as m:
            m.setattr(bounds, "_grid_pivots", _reference_grid_pivots)
            ref = upper_bound_report(mix, grid_size=401)
        assert np.max(np.abs(rep.pivot - ref.pivot)) <= 1e-14
        assert np.max(np.abs(rep.envelope - ref.envelope)) <= 1e-14
        assert np.array_equal(rep.envelope_curve.knots[:, 0], ref.envelope_curve.knots[:, 0])
        assert rep.envelope_curve.provenance == ref.envelope_curve.provenance
        assert rep.achieving == ref.achieving
        assert (rep.p_left, rep.p_right) == (ref.p_left, ref.p_right)
        if not rep.anchors:
            assert rep.identically_zero
            continue
        coeffs = rep.geometry.coefficients
        # the pure ends are not searched: their knots have no ray
        assert np.isnan(rep._knots.lam[0]) and np.isnan(rep._knots.lam[-1])
        idx = np.nonzero(np.array(rep.achieving[1:-1]) != "zero-interval")[0] + 1
        ps = rep.grid[idx]
        points = rep.anchors.points
        off = np.zeros(rep.grid.shape, dtype=bool)
        off[idx] = True
        anchor, value, grid_lam, grid_s = bounds._grid_pivots(coeffs, rep.grid, off, points)
        cand, lam, s = bounds._pivot_candidates(coeffs, ps, points)
        ref_cand, ref_lam, ref_boundary, ref_tau = _reference_pivot_candidates(coeffs, ps, points)
        np.testing.assert_array_equal(lam, ref_lam)
        # the tangle before the square root, c3^2 = (cand / lam)^2
        ray = np.isfinite(ref_cand)
        assert np.array_equal(np.isfinite(cand), ray)
        tau = (cand[ray] / lam[ray]) ** 2
        assert np.max(np.abs(tau - np.abs(ref_tau[ray])), initial=0.0) <= 1e-14 * np.max(
            np.abs(coeffs)
        )
        # the winner of each grid point: its ray has the reference's bits,
        # and where the argmin moved the two anchors tie in the reference
        rows = np.arange(idx.size)
        best, ref_best = anchor[idx], np.argmin(ref_cand, axis=1)
        moved = best != ref_best
        ties += int(moved.any())
        assert np.all(
            np.abs(ref_cand[rows, best] - ref_cand[rows, ref_best]) <= 1e-15
        )
        boundary = _axis_boundary(points[best], 2.0 * ps - 1.0, grid_s[idx])
        assert np.array_equal(boundary, ref_boundary[rows, best])
        assert np.array_equal(grid_lam[idx], ref_lam[rows, best])
        assert np.array_equal(value[idx], cand[rows, best])
        # knots whose winning anchor did not move keep the reference's ray and state
        knots, ref_knots = rep._knots, ref._knots
        same = np.array(knots.anchor) == np.array(ref_knots.anchor)
        for got, want in ((np.array(knots.lam), np.array(ref_knots.lam)),
                          (knots.amplitudes, ref_knots.amplitudes)):
            assert np.array_equal(got[same], want[same], equal_nan=True)
    assert ties > 0


def _lookup_mixtures():
    """The toy pair, GHZ3/W3, |000>/|111>, |000>/|001> and 4 Haar and 4
    real seeded pairs."""
    return _reference_mixtures()[:4] + _seeded_pairs(97, 4)


def test_decomposition_at_builds_no_state_from_a_bloch_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("decomposition_at rebuilt a state from a Bloch point")

    reports = [upper_bound_report(mix, grid_size=401) for mix in _lookup_mixtures()]
    for module in (bloch, bounds):
        if hasattr(module, "state_from_bloch"):
            monkeypatch.setattr(module, "state_from_bloch", refuse)
    monkeypatch.setattr(bloch, "_span_amplitudes", refuse)
    monkeypatch.setattr(bounds, "_span_amplitudes", refuse)
    for rep in reports:
        for p in CERTIFICATE_PS + (0.3, 0.71):
            _assert_certifies(rep, rep.mix, p)


def test_ray_knot_states_equal_state_from_bloch_bitwise():
    ray_knots = 0
    for mix in _lookup_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        knots = rep._knots
        if rep.identically_zero:
            assert not any(knots.certified)
            continue
        for i, p in enumerate(knots.ps):
            if not knots.certified[i]:
                continue
            # the knot's ray, solved again by the general 3-D sphere exit
            boundary, lam = _reference_sphere_exits(
                rep.anchors.points[[knots.anchor[i]]], np.array([[0.0, 0.0, 2.0 * p - 1.0]])
            )
            assert min(float(lam[0, 0]), 1.0) == knots.lam[i]
            expected = state_from_bloch(mix, boundary[0, 0])
            assert np.array_equal(knots.amplitudes[i], expected.amplitudes)
            if rep.envelope_curve.provenance[i] == "pivot":
                # a pivot knot's certificate opens with its ray's boundary state
                ray_knots += 1
                states = rep._knot_certificate(i)[1]
                assert np.array_equal(states[0].amplitudes, expected.amplitudes)
    assert ray_knots > 0


def test_repeated_decompositions_are_equal_and_share_states():
    for mix in _lookup_mixtures():
        rep = upper_bound_report(mix, grid_size=401)
        for p in CERTIFICATE_PS + (0.3, 0.71):
            w1, s1 = rep.decomposition_at(p)
            w2, s2 = rep.decomposition_at(p)
            assert np.array_equal(w1, w2) and w1.dtype == w2.dtype == float
            assert len(s1) == len(s2) and all(a is b for a, b in zip(s1, s2))


@pytest.mark.parametrize("p", [float("nan"), -0.1, 1.7, float("inf")])
def test_decomposition_at_rejects_p_outside_the_unit_interval(toy_rep, p):
    with pytest.raises(ValueError, match="must lie in"):
        toy_rep.report.decomposition_at(p)


def test_span_amplitudes_keep_nan_rows_quietly():
    # the tier-1 configuration turns RuntimeWarning into an error, so a
    # warning from the nan row would fail this test
    mix = toy_mixture()
    points = np.array([[0.0, 0.0, 1.0], [np.nan, np.nan, np.nan], [0.6, 0.0, -0.8]])
    amps = _span_amplitudes(mix, points)
    assert amps.shape == (3, 8)
    assert np.all(np.isnan(amps[1]))
    for row, point in ((0, points[0]), (2, points[2])):
        assert np.array_equal(amps[row], state_from_bloch(mix, point).amplitudes)
    assert abs(inner_product(PureState(3, amps[0]), mix.psi1)) == pytest.approx(1.0, abs=1e-15)
