import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tangleroof as tr

ACCEPTANCE_LABELS = {
    "test_criterion_01_endpoint_values": "endpoint c3 closed forms (normalization gate)",
    "test_criterion_02_toy_roots": "toy pencil roots and axis coordinates",
    "test_criterion_03_toy_interval": "toy zero interval and endpoint witnesses",
    "test_criterion_04_char_argmins": "characteristic-curve zero locations",
    "test_criterion_05_beyond_linearized": "envelope below linearized, transition knots",
    "test_criterion_06_closed_forms": "four-qubit reduction closed forms",
    "test_criterion_07_simplex_dimension": "simplex scan dimensions and boundary",
    "test_criterion_08_phi_threshold": "interior volume-zero threshold in phi",
    "test_criterion_09_phi_periodicity": "scan scalars periodic in phi by pi/2",
    "test_criterion_10_monogamy": "monogamy residual endpoints and sign",
    "test_criterion_11_oracle": "random decompositions never beat the envelope",
    "test_criterion_12_exact_zero_witnesses": "interval witnesses certify exact zero",
}


@pytest.fixture(scope="session")
def toy_mix():
    return tr.toy_mixture()


@pytest.fixture(scope="session")
def benchmark_inputs():
    """The benchmark's seeded inputs (perfbench/inputs.py, numpy only):
    ``pair_set(seed)`` lists (name, psi1, psi2) amplitude pairs, starting
    with the toy pair, GHZ3/W3, |000>/|111> and |000>/|001>."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sparse_spans():
    """(mixture, geometry) of 300 seeded real spans: about 60 % of the
    entries of an 8 x 2 Gaussian zeroed, then QR-orthonormalized;
    identically zero pencils are left out. Their polytopes have 1 to 4
    vertices, and many are flat."""
    rng = np.random.default_rng(1)
    out = []
    while len(out) < 300:
        g = rng.standard_normal((8, 2))
        g[rng.random((8, 2)) < 0.6] = 0.0
        q = np.linalg.qr(g)[0].astype(complex)
        geom = tr.span_geometries(q[None, :, 0], q[None, :, 1])[0]
        if geom.zeros is not None:
            psi1, psi2 = tr.PureState(3, q[:, 0]), tr.PureState(3, q[:, 1])
            out.append((tr.RankTwoMixture(psi1, psi2, 0.5), geom))
    return out


@pytest.fixture(scope="session")
def toy_rep():
    # grid 2001 resolves the transition knots to 5e-4
    return tr.toy_report(grid_size=2001)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and status != "error":
                continue
            name = rep.nodeid.split("::")[-1]
            if name in ACCEPTANCE_LABELS:
                seen[name] = status.upper()
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for idx, name in enumerate(sorted(ACCEPTANCE_LABELS), start=1):
        status = seen.get(name, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {idx:2d} [{status:7s}] {ACCEPTANCE_LABELS[name]}"
        )
