import json

import numpy as np
import pytest

import tangleroof.scenarios
from tangleroof.cli import main
from tangleroof.states import RankExceededError


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


def test_malformed_state_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "amplitudes": [1, 2]}')
    other = _state_file(tmp_path, "b.json", 7)
    assert main(["zeros", str(bad), other]) == 2
    assert "error:" in capsys.readouterr().err


def test_tiny_grid_exits_2(capsys):
    assert main(["bounds", "--p-grid", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tol_root_rejected_where_unused(capsys):
    assert main(["bounds", "--tol-root", "1e-3"]) == 2
    assert "--tol-root" in capsys.readouterr().err


def test_parallelism_rejected_off_grid_commands(capsys):
    assert main(["toy", "--parallelism", "2"]) == 2
    assert "--parallelism" in capsys.readouterr().err


def test_zeros_tol_root_sets_degree_floor(capsys):
    assert main(["zeros"]) == 0
    default = json.loads(capsys.readouterr().out)["roots"]
    assert not any(r["at_infinity"] for r in default)
    assert main(["zeros", "--tol-root", "0.5"]) == 0
    coarse = json.loads(capsys.readouterr().out)["roots"]
    assert [r["at_infinity"] for r in coarse] == [False, False, False, True]
    assert coarse[-1]["multiplicity"] == 1


def test_tol_root_of_one_or_more_exits_2(capsys, monkeypatch):
    assert main(["zeros", "--tol-root", "2"]) == 2
    assert "tol-root" in capsys.readouterr().err
    monkeypatch.setenv("TANGLEROOF_TOL_ROOT", "1")
    assert main(["interval"]) == 2
    assert "tol-root" in capsys.readouterr().err


def test_zeros_identically_zero_pair(tmp_path, capsys):
    a = _state_file(tmp_path, "a.json", 0)
    b = _state_file(tmp_path, "b.json", 1)
    assert main(["zeros", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identically_zero"] is True
    assert doc["interval"] == [0.0, 1.0]


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


def test_env_grid_and_flag_override(tmp_path, capsys, monkeypatch):
    # header + grid rows + the two inserted interval endpoints
    monkeypatch.setenv("TANGLEROOF_P_GRID", "5")
    assert main(["bounds"]) == 0
    env_lines = capsys.readouterr().out.strip().split("\n")
    assert len(env_lines) == 8
    assert main(["bounds", "--p-grid", "11"]) == 0
    flag_lines = capsys.readouterr().out.strip().split("\n")
    assert len(flag_lines) == 14


def test_bad_env_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("TANGLEROOF_P_GRID", "lots")
    assert main(["bounds"]) == 2
    assert "TANGLEROOF_P_GRID" in capsys.readouterr().err


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


def test_scan4q_parallel_byte_identity(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["scan4q", "--p-grid", "5", "--out"]
    assert main(base + [str(serial), "--parallelism", "1"]) == 0
    assert main(base + [str(parallel), "--parallelism", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_monogamy_rows_nonnegative_residual(capsys):
    assert main(["monogamy", "--p-grid", "9", "--parallelism", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
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
