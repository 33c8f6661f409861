import argparse
import json
import time

import numpy as np
import pytest

import tangleroof.cli
import tangleroof.scenarios
from tangleroof.bounds import characteristic_curve, span_geometry
from tangleroof.cli import COMMANDS, main
from tangleroof.scenarios import toy_states
from tangleroof.states import RankExceededError, RankTwoMixture, load_state, make_ghz, make_w


def _state_file(tmp_path, name, index):
    amps = [[0.0, 0.0] for _ in range(8)]
    amps[index] = [1.0, 0.0]
    path = tmp_path / name
    path.write_text(json.dumps({"n": 3, "amplitudes": amps}))
    return str(path)


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert main(["toy", "--does-not-exist"]) == 2
    capsys.readouterr()


def test_single_state_file_exits_2(tmp_path, capsys):
    path = _state_file(tmp_path, "a.json", 0)
    assert main(["zeros", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"not json",
        b'{"n": 3, "amplitudes": \xff}',
        b'{"n": 1, "amplitudes": [[NaN, 0], [1, 0]]}',
    ],
    ids=["not-json", "not-utf8", "nan-amplitude"],
)
def test_undecodable_state_file_is_named(content, tmp_path, capsys):
    good = _state_file(tmp_path, "good.json", 0)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["zeros", good, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")


def test_zero_state_that_cannot_be_renormalized_is_named(tmp_path, capsys):
    good = _state_file(tmp_path, "good.json", 0)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 3, "amplitudes": [[0, 0]] * 8}))
    assert main(["zeros", good, str(zero), "--renormalize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {zero}: cannot normalize the zero vector"]


def test_malformed_state_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "amplitudes": [1, 2]}')
    other = _state_file(tmp_path, "b.json", 7)
    assert main(["zeros", str(bad), other]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "{missing}/a.json", "{missing}/b.json"],
        ["toy", "--out", "{missing}/x.json"],
        ["toy", "--out", "{dir}"],
    ],
    ids=["missing-state-files", "out-in-a-missing-directory", "out-is-a-directory"],
)
def test_unusable_paths_exit_2(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "missing", dir=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_tiny_grid_exits_2(capsys):
    # argparse rejects the value: its usage line, then the flag and the reason
    for argv, flag in (
        (["bounds", "--p-grid", "1"], "--p-grid"),
        (["bounds", "--p-grid", "1e3"], "--p-grid"),
        (["scan4q", "--phi-grid", "1"], "--phi-grid"),
        (["monogamy", "--phi-grid", "1"], "--phi-grid"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage: tangleroof "), argv
        assert f"error: argument {flag}: " in captured.err, argv


@pytest.mark.parametrize(
    "command, grid",
    [("zeros", None), ("interval", None), ("bounds", 401), ("char", 401), ("scan4q", 101),
     ("monogamy", 101), ("toy", 401)],
)
def test_help_names_the_default_grid(command, grid, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    if grid is not None:
        assert f"grid size (default {grid})" in text
    else:
        assert "--p-grid" not in text


def test_main_calls_run_once_with_the_parsed_arguments(capsys, monkeypatch):
    # perfbench counts cli.run calls, one per command line
    calls = []
    real_run = tangleroof.cli.run

    def spy(args):
        calls.append(args)
        return real_run(args)

    monkeypatch.setattr(tangleroof.cli, "run", spy)
    for argv, expected in (
        (["bounds", "--p-grid", "5"], {"command": "bounds", "p_grid": 5, "states": []}),
        (["scan4q", "--p-grid", "3"], {"command": "scan4q", "p_grid": 3, "phi": 0.0}),
        (["monogamy", "--phi-grid", "2"], {"command": "monogamy", "p_grid": 101, "phi_grid": 2}),
        (["toy", "--format", "csv"], {"command": "toy", "p_grid": 401, "format": "csv"}),
    ):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1, argv
        assert isinstance(calls[0], argparse.Namespace)
        assert {k: getattr(calls[0], k) for k in expected} == expected, argv
    calls.clear()
    assert main(["bounds", "--p-grid", "1"]) == 2
    assert main(["scan4q", "--phi-grid", "2", "--phi", "1"]) == 2
    capsys.readouterr()
    assert calls == []


def test_tol_root_rejected_where_unused(tmp_path, capsys):
    # the root and rank floors are constants: no command takes either flag
    a, b = _state_file(tmp_path, "a.json", 0), _state_file(tmp_path, "b.json", 7)
    for flag in ("--tol-root", "--tol-rank"):
        for command in COMMANDS:
            for argv in (
                [command, flag, "1e-3"],
                [command, f"{flag}=0.5"],
                [command, flag, "nan", "--format", "json"],
                [command, "--p-grid", "3", flag, "1e-10"],
            ):
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "" and flag in captured.err, argv
        for command in ("zeros", "interval", "bounds", "char"):
            assert main([command, a, b, flag, "1e-3"]) == 2
            assert flag in capsys.readouterr().err


def test_tol_variables_are_ignored(capsys, monkeypatch):
    # configuration is flags only: no TANGLEROOF_* variable reaches any command
    plain = {}
    for command in COMMANDS:
        code = main([command])
        captured = capsys.readouterr()
        plain[command] = (code, captured.out, captured.err)
        assert code == 0, command
    # values that once changed the output or made a command exit 2
    for value in ("json", "2", "lots", "nan"):
        for name in ("PHI", "P_GRID", "PHI_GRID", "FORMAT", "TOL_ROOT", "TOL_RANK", "PARALLELISM"):
            monkeypatch.setenv(f"TANGLEROOF_{name}", value)
        for command in COMMANDS:
            code = main([command])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == plain[command], (value, command)


def test_parallelism_rejected_off_grid_commands(capsys):
    assert main(["toy", "--parallelism", "2"]) == 2
    assert "--parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_phi_exits_2(value, capsys):
    for command in (["char"], ["scan4q", "--p-grid", "3"], ["monogamy", "--p-grid", "3"]):
        for phi in ([f"--phi={value}"], ["--phi", value]):
            assert main(command + phi) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: tangleroof ")
            assert "error: argument --phi: phi must be finite" in captured.err


@pytest.mark.parametrize(
    "command", [["char"], ["scan4q", "--p-grid", "3"], ["monogamy", "--p-grid", "3"]]
)
def test_phi_with_a_negative_exponent_reads_as_a_value(command, capsys):
    # argparse alone takes a bare -1e-3 for a flag
    outputs = []
    for phi in (["--phi", "-1e-3"], ["--phi=-1e-3"]):
        assert main(command + phi) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_zeros_identically_zero_pair(tmp_path, capsys):
    a = _state_file(tmp_path, "a.json", 0)
    b = _state_file(tmp_path, "b.json", 1)
    assert main(["zeros", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identically_zero"] is True
    assert doc["interval"] == [0.0, 1.0]


@pytest.mark.parametrize("order", [(0, 7), (7, 0)], ids=["000_111", "111_000"])
def test_zeros_basis_pair_double_root_at_zero(order, tmp_path, capsys):
    # c_0 = c_1 = 0 up to rounding: two exact roots at 0, two at infinity
    files = [_state_file(tmp_path, f"{i}.json", i) for i in order]
    assert main(["zeros", *files, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,0,0,false,2,1,0", "1,,,true,2,0,0"]


def _amplitude_file(tmp_path, name, amps):
    path = tmp_path / name
    path.write_text(
        json.dumps({"n": 3, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]})
    )
    return str(path)


def _r12(x):
    """A float as the JSON payloads print it, to 12 significant digits."""
    return float(format(float(x), ".12g"))


def _pairs():
    toy1, toy2 = toy_states()
    ket = np.eye(8, dtype=complex)
    ghz, w = make_ghz(3).amplitudes, make_w(3).amplitudes
    return {
        "toy": (toy1.amplitudes, toy2.amplitudes),
        "ghz3_w3": (ghz, w),
        "w3_ghz3": (w, ghz),
        "000_111": (ket[0], ket[7]),
        "000_001": (ket[0], ket[1]),
    }


@pytest.mark.parametrize("name", sorted(_pairs()))
def test_pair_commands_read_the_span_geometry(name, tmp_path, capsys):
    amps1, amps2 = _pairs()[name]
    files = [
        _amplitude_file(tmp_path, "a.json", amps1),
        _amplitude_file(tmp_path, "b.json", amps2),
    ]
    geom = span_geometry(RankTwoMixture(load_state(files[0]), load_state(files[1]), 0.5))
    docs = {}
    for command in ("zeros", "interval", "bounds"):
        assert main([command, *files, "--format", "json"]) == 0
        docs[command] = json.loads(capsys.readouterr().out)
        assert docs[command]["identically_zero"] is geom.identically_zero
    iv = geom.interval
    if geom.identically_zero:
        assert iv is None
        # the whole span is a zero set: all three commands print [0, 1]
        for command in ("zeros", "interval", "bounds"):
            assert docs[command]["interval"] == [0.0, 1.0], command
        return
    expected = None if iv is None else [_r12(iv.p_low), _r12(iv.p_high)]
    assert docs["bounds"]["interval"] == expected
    assert docs["interval"]["interval"] == expected
    assert docs["interval"]["dimension"] == geom.polytope.dimension
    assert docs["interval"]["volume"] == _r12(geom.polytope.volume)
    zeros = geom.zeros
    roots = docs["zeros"]["roots"]
    assert [r["multiplicity"] for r in roots] == zeros.multiplicity.tolist()
    assert [r["p0"] for r in roots] == [_r12(x) for x in zeros.p0]
    assert [r["phase"] for r in roots] == [_r12(x) for x in zeros.phases]
    for r, z in zip(roots, zeros.z.tolist()):
        assert r["at_infinity"] is (not np.isfinite(z))
        if not r["at_infinity"]:
            assert (r["re"], r["im"]) == (_r12(z.real), _r12(z.imag))


@pytest.mark.parametrize(
    "doc", [{"n": 1000000000, "amplitudes": []}, {"n": True, "amplitudes": [[1, 0], [0, 0]]}],
    ids=["huge-n", "bool-n"],
)
def test_state_file_with_a_bad_qubit_count_exits_2(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["zeros", str(bad), str(bad)]) == 2
    # the count is checked against the list before 2**n is formed
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(bad) in lines[0] and "'n'" in lines[0]


def test_zeros_default_pair_roots(capsys):
    assert main(["zeros"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identically_zero"] is False
    assert len(doc["roots"]) == 4
    moduli = sorted(abs(complex(r["re"], r["im"])) for r in doc["roots"] if not r["at_infinity"])
    assert moduli[0] == pytest.approx(0.58995, abs=1e-4)


def test_toy_json_payload(capsys):
    assert main(["toy", "--p-grid", "41"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in (
        "interval",
        "roots",
        "p0",
        "vertices",
        "dimension",
        "volume",
        "witness_low",
        "witness_high",
        "weight_coincidence",
        "p_left",
        "p_right",
        "linearized_knots",
        "envelope_knots",
    ):
        assert key in doc
    assert doc["dimension"] == 3
    assert doc["interval"][0] == pytest.approx(0.11423, abs=1e-4)


def test_rerun_byte_identity(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["toy", "--p-grid", "41", "--out", str(out1)]) == 0
    assert main(["toy", "--p-grid", "41", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bounds_rows_follow_the_p_grid(capsys):
    # header + grid rows + the two inserted interval endpoints
    for p_grid, lines in ((5, 8), (11, 14)):
        assert main(["bounds", "--p-grid", str(p_grid)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == lines


def test_char_csv_minimum_location(capsys):
    assert main(["char", "--phi", str(np.pi), "--p-grid", "401"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "p,c3"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    p_min, c_min = min(rows, key=lambda r: r[1])
    assert p_min == pytest.approx(0.0165, abs=0.005)
    # c3 climbs like sqrt(|p - p0|) off the zero, so the grid minimum
    # is small but not tiny at this resolution
    assert c_min < 0.15
    assert rows[0][1] == pytest.approx(0.5425, abs=1e-3)
    assert rows[-1][1] == pytest.approx(0.8913, abs=1e-3)


def test_scan4q_phi_grid_flags(capsys):
    assert main(["scan4q", "--phi-grid", "2", "--parallelism", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "phi,has_interior_volume_zero"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == 0.0 and first[1] == "true"
    assert float(second[0]) == pytest.approx(np.pi / 4, abs=1e-9)
    assert second[1] == "false"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan4q", "--phi-grid", "4", "--phi", "1.0", "--p-grid", "7"],
        ["scan4q", "--phi-grid", "4", "--phi", "1.0"],
        ["scan4q", "--phi-grid", "4", "--p-grid", "7"],
        ["monogamy", "--phi-grid", "2", "--phi", "1.0"],
        ["monogamy", "--phi-grid", "2", "--phi", "1.0", "--p-grid", "3"],
    ],
)
def test_flags_a_phase_sweep_ignores_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not used by a phase sweep" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["scan4q", "--p-grid", "5", "--phi", "0.3"], "--phi, --p-grid"),
        (["scan4q", "--p-grid", "5"], "--p-grid"),
        (["scan4q", "--phi", "0.3"], "--phi"),
        (["monogamy", "--phi", "0.3"], "--phi"),
        (["monogamy", "--phi", "0.3", "--p-grid", "3"], "--phi"),
        # a given --phi counts even when it equals the default
        (["scan4q", "--phi", "-0.0"], "--phi"),
    ],
    ids=["scan4q-both", "scan4q-p-grid", "scan4q-phi", "monogamy-phi", "monogamy-both",
         "scan4q-negative-zero-phi"],
)
def test_flags_a_phase_sweep_ignores_are_named(argv, named, capsys):
    # alone they run the command without a phase sweep
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p,") and captured.err == ""
    assert main(argv + ["--phi-grid", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}: not used by a phase sweep (--phi-grid)\n"


def test_negative_zero_phi_keeps_its_sign(capsys):
    for argv in (["scan4q", "--p-grid", "3"], ["char", "--p-grid", "3"]):
        assert main(argv + ["--phi", "-0.0", "--format", "json"]) == 0
        phi = json.loads(capsys.readouterr().out)["phi"]
        assert phi == 0.0 and np.copysign(1.0, phi) == -1.0, argv


@pytest.mark.parametrize(
    "argv",
    [["scan4q", "--phi-grid", "2"], ["scan4q", "--p-grid", "5"], ["monogamy", "--p-grid", "9"]],
    ids=["scan4q-phi-grid", "scan4q-p-grid", "monogamy"],
)
def test_parallelism_accepts_only_1(argv, capsys):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--parallelism", "1"]) == 0
    assert capsys.readouterr().out == plain
    assert main(argv + ["--parallelism", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--parallelism" in captured.err


def test_monogamy_rows_nonnegative_residual(capsys):
    assert main(["monogamy", "--p-grid", "9", "--parallelism", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 10
    assert lines[0].startswith("p,phi,one_tangle")
    for ln in lines[1:]:
        residual = float(ln.split(",")[-1])
        assert residual >= -1e-9


def test_numerical_failure_exits_3(capsys, monkeypatch):
    def boom(grid_size):
        raise RankExceededError("rank 3 detected")

    monkeypatch.setattr(tangleroof.scenarios, "toy_report", boom)
    assert main(["toy"]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_interval_json_matches_toy(capsys):
    assert main(["interval"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interval"][0] == pytest.approx(0.11423, abs=1e-4)
    assert doc["interval"][1] == pytest.approx(0.69289, abs=1e-4)


def _cells(values):
    """Values as the CSV rows print them."""
    return ",".join(tangleroof.cli._cell(v) for v in values)


@pytest.mark.parametrize(
    "command, header",
    [
        ("zeros", "identically_zero,interval_low,interval_high"),
        ("interval", "identically_zero,p_low,p_high,dimension,volume"),
    ],
)
def test_identically_zero_pair_csv(command, header, tmp_path, capsys):
    files = [_state_file(tmp_path, f"{i}.json", i) for i in (0, 1)]
    assert span_geometry(RankTwoMixture(load_state(files[0]), load_state(files[1]), 0.5)).identically_zero
    assert main([command, *files, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the whole span is a zero set: the interval is [0, 1], and the
    # polytope's dimension and volume are empty cells
    assert lines[0] == header
    assert lines[1:] == [_cells([True, 0.0, 1.0] + [None] * (header.count(",") - 2))]


def test_interval_csv_of_the_toy_pair(capsys):
    geom = span_geometry(tangleroof.scenarios.toy_mixture())
    assert main(["interval", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identically_zero,p_low,p_high,dimension,volume"
    iv, poly = geom.interval, geom.polytope
    assert lines[1:] == [_cells([False, iv.p_low, iv.p_high, poly.dimension, poly.volume])]


def test_interval_json_of_a_polytope_that_misses_the_axis(benchmark_inputs, tmp_path, capsys):
    pairs = {name: (a, b) for name, a, b in benchmark_inputs.pair_set(1)}
    files = [_amplitude_file(tmp_path, f"{k}.json", amps) for k, amps in enumerate(pairs["haar14"])]
    geom = span_geometry(RankTwoMixture(load_state(files[0]), load_state(files[1]), 0.5))
    assert geom.interval is None and geom.polytope.dimension == 3
    assert main(["interval", *files, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "identically_zero": False,
        "dimension": 3,
        "volume": _r12(geom.polytope.volume),
        "interval": None,
        "witness_low": None,
        "witness_high": None,
    }


def test_char_json_rows_are_the_characteristic_curve(capsys):
    curve = characteristic_curve(tangleroof.scenarios.toy_mixture(), 0.0, np.linspace(0.0, 1.0, 5))
    assert main(["char", "--p-grid", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phi"] == 0.0
    assert doc["rows"] == [[_r12(p), _r12(c3)] for p, c3 in curve]


def test_monogamy_json_rows_are_the_monogamy_curve(capsys):
    reports = tangleroof.scenarios.monogamy_curve(np.linspace(0.0, 1.0, 3), 0.0)
    assert main(["monogamy", "--p-grid", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = []
    for rep in reports:
        values = (rep.p, rep.phi, rep.one_tangle) + rep.pairwise + rep.three_tangle_bounds + (rep.residual,)
        expected.append(dict(zip(tangleroof.cli._MONOGAMY_HEADER, map(_r12, values))))
    assert doc == {"rows": expected}
