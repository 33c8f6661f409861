"""Tests of the benchmark's oracle and output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

The oracle must reproduce published values, and a perturbed program output
must count as a failed operation.
"""
import numpy as np
import pytest

import checks
import inputs
import oracle
import workload
from ckw import ckw_c3

LOSU_DECIMAL = 0.6268510148


@pytest.fixture(scope="module")
def tr():
    return workload.load_program()


def _pair_outputs(tr, a, b):
    mix = tr.RankTwoMixture(tr.PureState(3, a), tr.PureState(3, b), 0.5)
    rep = tr.upper_bound_report(mix, grid_size=401)
    decs = [rep.decomposition_at(p) for p in inputs.DECOMPOSITION_PS]
    return checks.pair_outputs(rep, decs, inputs.DECOMPOSITION_PS)


def _failed_checks(name, a, b, out):
    return {c for c, _ in checks.check_pair(name, a, b, out, oracle.span_reference(a, b))}


def test_ckw_closed_forms():
    plus, minus = inputs.toy_pair()
    assert abs(ckw_c3(inputs.ghz3()) - 1.0) <= 1e-15
    assert ckw_c3(inputs.w3()) == 0.0
    assert abs(ckw_c3(plus) - checks.TOY_C3_PLUS) <= 1e-15
    assert abs(ckw_c3(minus) - checks.TOY_C3_MINUS) <= 1e-15


def test_losu_threshold():
    ref = oracle.span_reference(inputs.ghz3(), inputs.w3())
    lo, hi = ref["interval"]
    assert abs(lo) <= 1e-15
    assert abs(hi - checks.LOSU) <= 1e-15
    assert abs(hi - LOSU_DECIMAL) <= 1e-10


def test_published_toy_interval():
    lo, hi = oracle.span_reference(*inputs.toy_pair())["interval"]
    assert abs(lo - 0.11423) <= 5e-6
    assert abs(hi - 0.69289) <= 5e-6


def test_degenerate_spans():
    double = oracle.span_reference(inputs.ket(0), inputs.ket(7))
    assert double == {"identically_zero": False, "interval": [0.0, 1.0]}
    assert oracle.pencil_roots(oracle.pencil(inputs.ket(0), inputs.ket(7))).count(None) == 2
    flat = oracle.span_reference(inputs.ket(0), inputs.ket(1))
    assert flat["identically_zero"]


def test_two_qubit_invariants():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    assert abs(oracle.concurrence(np.outer(bell, bell.conj())) - 1.0) <= 1e-12
    product = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2.0)
    assert oracle.concurrence(np.outer(product, product.conj())) <= 1e-12
    w4 = oracle.ghz_w_four(0.0)
    assert abs(oracle.one_tangle(w4, 4, 0) - 0.75) <= 1e-12
    assert abs(oracle.concurrence(oracle.partial_trace(w4, 4, [0, 2])) ** 2 - 0.25) <= 1e-12
    assert abs(oracle.one_tangle(oracle.ghz_w_four(1.0), 4, 3) - 1.0) <= 1e-12


def test_oracle_matches_program_on_random_pairs(tr):
    for name, a, b in inputs.pair_set(7)[4:44]:
        mix = tr.RankTwoMixture(tr.PureState(3, a), tr.PureState(3, b), 0.5)
        iv = tr.span_geometry(mix).interval
        ref = oracle.span_reference(a, b)["interval"]
        assert (iv is None) == (ref is None), name
        if ref is not None:
            assert max(abs(iv.p_low - ref[0]), abs(iv.p_high - ref[1])) <= 1e-12, name


def test_program_outputs_pass(tr):
    for name, a, b in inputs.pair_set(3)[1:12]:
        assert _failed_checks(name, a, b, _pair_outputs(tr, a, b)) == set(), name


def test_toy_pair_fails_only_at_the_pure_end(tr):
    a, b = inputs.toy_pair()
    assert _failed_checks("toy", a, b, _pair_outputs(tr, a, b)) == {"endpoint_values"}


@pytest.mark.parametrize("index", [1, 4, 104])
def test_shifted_interval_fails(tr, index):
    name, a, b = inputs.pair_set(3)[index]
    out = _pair_outputs(tr, a, b)
    assert out["interval"] is not None
    out["interval"][1] += 1e-6
    assert "interval" in _failed_checks(name, a, b, out)


def test_dropped_member_fails(tr):
    name, a, b = inputs.pair_set(3)[5]
    out = _pair_outputs(tr, a, b)
    dec = next(d for d in out["decompositions"] if len(d["weights"]) > 1)
    dec["weights"], dec["states"] = dec["weights"][1:], dec["states"][1:]
    assert _failed_checks(name, a, b, out) & {"weights", "reconstruction"}


def test_family_checks_catch_perturbations(tr, capsys):
    import tangleroof.cli

    refs = oracle.family_references()
    for args, check in (
        (["scan4q", "--p-grid", "101"], lambda t: checks.check_p_scan(t, refs["scan"], inputs.family_scan_grid())),
        (["monogamy", "--p-grid", "101"], lambda t: checks.check_monogamy(t, refs["monogamy"], inputs.family_monogamy_grid())),
    ):
        capsys.readouterr()
        assert tangleroof.cli.main(args) == 0
        text = capsys.readouterr().out
        assert check(text) == []
        lines = text.splitlines()
        cells = lines[40].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[40] = ",".join(cells)
        assert check("\n".join(lines) + "\n") != []


def test_sampled_minimum_checks():
    assert checks.check_sampled_minimum(0.0, checks.TOY_C3_MINUS, 0.0) == []
    assert checks.check_sampled_minimum(1.0, checks.TOY_C3_PLUS + 1e-9, 0.0) != []
    assert checks.check_sampled_minimum(0.9, 0.5, 0.5 + 1e-6) != []
