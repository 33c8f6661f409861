"""Command-line surface emitting plot-ready CSV and JSON artifacts.

Subcommands: zeros, interval, bounds, char (pair pipelines, defaulting to
the built-in toy pair when no state files are given), scan4q and monogamy
(four-qubit family scans), and toy (full report). Output is deterministic:
fixed row order, 12 significant digits, stable headers, and key-sorted
JSON, so reruns reproduce artifacts byte for byte. Exit codes: 0 success,
2 parse or validation error, 3 numerical failure. An identically vanishing
tangle polynomial is a structured result (flag plus [0, 1] interval), not
a failure.

Flag values override TANGLEROOF_* environment variables, which override
built-in defaults.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import scenarios
from .bloch import axis_zero_interval, build_polytope
from .bounds import upper_bound_report, characteristic_curve
from .pencil import COEFF_TOL, IdenticallyZeroPencilError, zero_set
from .states import RANK_TOL, RankExceededError, RankTwoMixture, load_state

__all__ = ["RunConfig", "run", "main"]

COMMANDS = ("zeros", "interval", "bounds", "char", "scan4q", "monogamy", "toy")

_GRID_DEFAULTS = {
    "bounds": 401,
    "char": 401,
    "scan4q": 101,
    "monogamy": 101,
    "toy": 401,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command, grids, tolerances, output target."""

    command: str
    state_paths: tuple = ()
    phi: float = 0.0
    p_grid: Optional[int] = None
    phi_grid: Optional[int] = None
    out: Optional[str] = None
    format: str = "csv"
    tol_rank: float = RANK_TOL
    tol_root: float = COEFF_TOL
    parallelism: int = 1
    renormalize: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for name in ("p_grid", "phi_grid"):
            value = getattr(self, name)
            if value is not None and value < 2:
                raise ValueError(f"{name.replace('_', '-')} must be at least 2")
        for name in ("tol_rank", "tol_root"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name.replace('_', '-')} must be positive")
        # a relative floor of 1 or more leaves no coefficient above it
        if not self.tol_root < 1.0:
            raise ValueError("tol-root must lie in (0, 1)")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        object.__setattr__(self, "state_paths", tuple(self.state_paths))

    def grid_size(self) -> int:
        if self.p_grid is not None:
            return self.p_grid
        return _GRID_DEFAULTS.get(self.command, 401)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt(x)


def _json_ready(obj):
    """Recursively round floats to 12 significant digits for stable JSON."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue()


def _render_json(payload) -> str:
    return json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"


def _witness_payload(witness):
    if witness is None:
        return None
    return {
        "face": [int(i) for i in witness.face],
        "weights": [float(w) for w in witness.weights],
    }


def _root_payload(root):
    return {
        "at_infinity": root.at_infinity,
        "re": None if root.at_infinity else float(root.z.real),
        "im": None if root.at_infinity else float(root.z.imag),
        "multiplicity": int(root.multiplicity),
        "p0": float(root.p0),
        "phase": float(root.phase),
    }


def _load_pair(cfg: RunConfig) -> RankTwoMixture:
    if not cfg.state_paths:
        return scenarios.toy_mixture()
    if len(cfg.state_paths) != 2:
        raise ValueError("expected exactly two state files (psi1 psi2)")
    psi1 = load_state(cfg.state_paths[0], renormalize=cfg.renormalize)
    psi2 = load_state(cfg.state_paths[1], renormalize=cfg.renormalize)
    if psi1.n_qubits != 3 or psi2.n_qubits != 3:
        raise ValueError("state files must describe 3-qubit states")
    return RankTwoMixture(psi1, psi2, 0.5)


def _run_zeros(cfg: RunConfig):
    mix = _load_pair(cfg)
    try:
        zs = zero_set(mix, tol=cfg.tol_root)
    except IdenticallyZeroPencilError:
        if cfg.format == "json":
            return _render_json({"identically_zero": True, "interval": [0.0, 1.0]})
        return _render_csv(
            ("identically_zero", "interval_low", "interval_high"),
            [(True, 0.0, 1.0)],
        )
    roots = [_root_payload(r) for r in zs.roots]
    if cfg.format == "json":
        return _render_json({"identically_zero": False, "roots": roots})
    header = ("index", "re", "im", "at_infinity", "multiplicity", "p0", "phase")
    rows = [
        (i, r["re"], r["im"], r["at_infinity"], r["multiplicity"], r["p0"], r["phase"])
        for i, r in enumerate(roots)
    ]
    return _render_csv(header, rows)


def _run_interval(cfg: RunConfig):
    mix = _load_pair(cfg)
    try:
        zs = zero_set(mix, tol=cfg.tol_root)
    except IdenticallyZeroPencilError:
        if cfg.format == "json":
            return _render_json({"identically_zero": True, "interval": [0.0, 1.0]})
        return _render_csv(
            ("identically_zero", "p_low", "p_high", "dimension", "volume"),
            [(True, 0.0, 1.0, None, None)],
        )
    poly = build_polytope(zs)
    iv = axis_zero_interval(poly)
    if cfg.format == "json":
        return _render_json(
            {
                "identically_zero": False,
                "dimension": poly.dimension,
                "volume": poly.volume,
                "interval": None if iv is None else [iv.p_low, iv.p_high],
                "witness_low": _witness_payload(None if iv is None else iv.witness_low),
                "witness_high": _witness_payload(None if iv is None else iv.witness_high),
            }
        )
    row = (
        False,
        None if iv is None else iv.p_low,
        None if iv is None else iv.p_high,
        poly.dimension,
        poly.volume,
    )
    return _render_csv(
        ("identically_zero", "p_low", "p_high", "dimension", "volume"), [row]
    )


def _run_bounds(cfg: RunConfig):
    mix = _load_pair(cfg)
    report = upper_bound_report(mix, grid_size=cfg.grid_size())
    rows = list(report.rows())
    if cfg.format == "csv":
        return _render_csv(("p", "linearized", "pivot", "envelope", "achieving"), rows)
    iv = report.interval
    return _render_json(
        {
            "identically_zero": report.identically_zero,
            "interval": None if iv is None else [iv.p_low, iv.p_high],
            "p_left": report.p_left,
            "p_right": report.p_right,
            "envelope_knots": report.envelope_curve.knots,
            "rows": [list(r) for r in rows],
        }
    )


def _run_char(cfg: RunConfig):
    mix = _load_pair(cfg)
    grid = np.linspace(0.0, 1.0, cfg.grid_size())
    rows = characteristic_curve(mix, cfg.phi, grid)
    if cfg.format == "csv":
        return _render_csv(("p", "c3"), [tuple(r) for r in rows])
    return _render_json({"phi": cfg.phi, "rows": rows})


def _scan4q_point(args):
    p, phi, rank_tol = args
    row = scenarios._scan_row(p, phi, rank_tol)
    lo, hi = (None, None) if row.interval is None else row.interval
    return (row.p, row.volume, row.dimension, lo, hi)


def _phi_point(args):
    phi, = args
    return (phi, scenarios.has_interior_volume_zero(phi))


def _monogamy_point(args):
    p, phi, rank_tol = args
    rep = scenarios.monogamy_report(p, phi, rank_tol)
    return (
        (rep.p, rep.phi, rep.one_tangle)
        + rep.pairwise
        + rep.three_tangle_bounds
        + (rep.residual,)
    )


def _map_ordered(cfg: RunConfig, func, items):
    items = list(items)
    if cfg.parallelism == 1 or len(items) < 2:
        return [func(it) for it in items]
    with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
        return list(pool.map(func, items, chunksize=max(1, len(items) // (4 * cfg.parallelism))))


def _run_scan4q(cfg: RunConfig):
    if cfg.phi_grid is not None:
        phis = np.linspace(0.0, np.pi / 2.0, cfg.phi_grid, endpoint=False)
        rows = _map_ordered(cfg, _phi_point, [(float(phi),) for phi in phis])
        if cfg.format == "csv":
            return _render_csv(("phi", "has_interior_volume_zero"), rows)
        return _render_json(
            {"rows": [{"phi": phi, "has_interior_volume_zero": flag} for phi, flag in rows]}
        )
    # interior grid: the reductions degenerate at p = 0 and p = 1
    ps = np.linspace(0.0, 1.0, cfg.grid_size() + 2)[1:-1]
    rows = _map_ordered(
        cfg, _scan4q_point, [(float(p), cfg.phi, cfg.tol_rank) for p in ps]
    )
    if cfg.format == "csv":
        return _render_csv(("p", "volume", "dimension", "p_low", "p_high"), rows)
    payload = [
        {
            "p": p,
            "volume": vol,
            "dimension": dim,
            "interval": None if lo is None else [lo, hi],
        }
        for p, vol, dim, lo, hi in rows
    ]
    return _render_json({"phi": cfg.phi, "rows": payload})


_MONOGAMY_HEADER = (
    "p", "phi", "one_tangle",
    "c2_01", "c2_02", "c2_03",
    "c3sq_012", "c3sq_013", "c3sq_023",
    "residual",
)


def _run_monogamy(cfg: RunConfig):
    ps = np.linspace(0.0, 1.0, cfg.grid_size())
    if cfg.phi_grid is not None:
        phis = np.linspace(0.0, np.pi / 2.0, cfg.phi_grid, endpoint=False)
    else:
        phis = np.array([cfg.phi])
    items = [
        (float(p), float(phi), cfg.tol_rank) for phi in phis for p in ps
    ]
    rows = _map_ordered(cfg, _monogamy_point, items)
    if cfg.format == "csv":
        return _render_csv(_MONOGAMY_HEADER, rows)
    return _render_json(
        {"rows": [dict(zip(_MONOGAMY_HEADER, row)) for row in rows]}
    )


def _run_toy(cfg: RunConfig):
    rep = scenarios.toy_report(grid_size=cfg.grid_size())
    if cfg.format == "csv":
        return _render_csv(
            ("p", "linearized", "pivot", "envelope", "achieving"),
            list(rep.report.rows()),
        )
    iv = rep.interval
    payload = {
        "interval": [iv.p_low, iv.p_high],
        "roots": [_root_payload(r) for r in rep.zeros.roots],
        "p0": rep.polytope.p0,
        "phases": rep.polytope.phases,
        "vertices": rep.polytope.vertices,
        "multiplicities": rep.polytope.multiplicities,
        "dimension": rep.polytope.dimension,
        "volume": rep.polytope.volume,
        "witness_low": _witness_payload(iv.witness_low),
        "witness_high": _witness_payload(iv.witness_high),
        "weight_coincidence": rep.weight_coincidence,
        "p_left": rep.report.p_left,
        "p_right": rep.report.p_right,
        "linearized_knots": rep.report.linearized_curve.knots,
        "envelope_knots": rep.report.envelope_curve.knots,
    }
    return _render_json(payload)


_RUNNERS = {
    "zeros": _run_zeros,
    "interval": _run_interval,
    "bounds": _run_bounds,
    "char": _run_char,
    "scan4q": _run_scan4q,
    "monogamy": _run_monogamy,
    "toy": _run_toy,
}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        text = _RUNNERS[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RankExceededError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return 0


_ENV_CASTS = {
    "phi": ("TANGLEROOF_PHI", float),
    "p_grid": ("TANGLEROOF_P_GRID", int),
    "phi_grid": ("TANGLEROOF_PHI_GRID", int),
    "format": ("TANGLEROOF_FORMAT", str),
    "tol_rank": ("TANGLEROOF_TOL_RANK", float),
    "tol_root": ("TANGLEROOF_TOL_ROOT", float),
    "parallelism": ("TANGLEROOF_PARALLELISM", int),
}


def _read_env(env) -> dict:
    out = {}
    for key, (var, cast) in _ENV_CASTS.items():
        raw = env.get(var)
        if raw is None:
            continue
        try:
            out[key] = cast(raw)
        except ValueError:
            raise ValueError(f"{var}={raw!r} is not a valid {cast.__name__}")
    return out


def _build_parser(env_defaults: dict) -> argparse.ArgumentParser:
    def dflt(key, builtin):
        return env_defaults.get(key, builtin)

    parser = argparse.ArgumentParser(
        prog="tangleroof",
        description="Exact zero intervals and convex-roof upper bounds for "
        "the three-tangle of rank-two mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="csv"):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=dflt("format", default_format),
            help=f"output format (default {default_format})",
        )

    def add_pair(p):
        p.add_argument(
            "states",
            nargs="*",
            help="two 3-qubit state JSON files; defaults to the built-in toy pair",
        )
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale loaded amplitudes to unit norm",
        )

    def add_tol_root(p):
        p.add_argument(
            "--tol-root",
            type=float,
            default=dflt("tol_root", COEFF_TOL),
            help="relative coefficient floor for the pencil degree, in (0, 1)",
        )

    def add_parallelism(p):
        p.add_argument(
            "--parallelism",
            type=int,
            default=dflt("parallelism", 1),
            help="worker processes for grid scans (default 1)",
        )

    def add_pgrid(p, cmd):
        p.add_argument(
            "--p-grid",
            type=int,
            default=dflt("p_grid", None),
            help=f"mixing-weight grid size (default {_GRID_DEFAULTS[cmd]})",
        )

    def add_rank(p):
        p.add_argument(
            "--tol-rank",
            type=float,
            default=dflt("tol_rank", RANK_TOL),
            help="eigenvalue floor treated as rank",
        )

    p_zeros = sub.add_parser("zeros", help="pencil roots of a 3-qubit pair")
    add_pair(p_zeros)
    add_tol_root(p_zeros)
    add_common(p_zeros, default_format="json")

    p_iv = sub.add_parser("interval", help="zero polytope and axis interval")
    add_pair(p_iv)
    add_tol_root(p_iv)
    add_common(p_iv, default_format="json")

    p_bounds = sub.add_parser("bounds", help="linearized/pivot/envelope bound grid")
    add_pair(p_bounds)
    add_pgrid(p_bounds, "bounds")
    add_common(p_bounds)

    p_char = sub.add_parser("char", help="pure-superposition tangle curve")
    add_pair(p_char)
    p_char.add_argument(
        "--phi", type=float, default=dflt("phi", 0.0), help="relative phase (radians)"
    )
    add_pgrid(p_char, "char")
    add_common(p_char)

    p_scan = sub.add_parser("scan4q", help="four-qubit reduction simplex scan")
    p_scan.add_argument(
        "--phi", type=float, default=dflt("phi", 0.0), help="family phase (radians)"
    )
    add_pgrid(p_scan, "scan4q")
    p_scan.add_argument(
        "--phi-grid",
        type=int,
        default=dflt("phi_grid", None),
        help="sweep this many phases over [0, pi/2) for the interior-zero flag "
        "instead of scanning p",
    )
    add_rank(p_scan)
    add_parallelism(p_scan)
    add_common(p_scan)

    p_mono = sub.add_parser("monogamy", help="extended monogamy residual curve")
    p_mono.add_argument(
        "--phi", type=float, default=dflt("phi", 0.0), help="family phase (radians)"
    )
    add_pgrid(p_mono, "monogamy")
    p_mono.add_argument(
        "--phi-grid",
        type=int,
        default=dflt("phi_grid", None),
        help="also sweep this many phases over [0, pi/2)",
    )
    add_rank(p_mono)
    add_parallelism(p_mono)
    add_common(p_mono)

    p_toy = sub.add_parser("toy", help="full report for the built-in toy pair")
    add_pgrid(p_toy, "toy")
    add_common(p_toy, default_format="json")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        state_paths=tuple(getattr(args, "states", ()) or ()),
        phi=float(getattr(args, "phi", 0.0)),
        p_grid=getattr(args, "p_grid", None),
        phi_grid=getattr(args, "phi_grid", None),
        out=args.out,
        format=args.format,
        tol_rank=float(getattr(args, "tol_rank", RANK_TOL)),
        tol_root=float(getattr(args, "tol_root", COEFF_TOL)),
        parallelism=int(getattr(args, "parallelism", 1)),
        renormalize=bool(getattr(args, "renormalize", False)),
    )


def main(argv=None) -> int:
    try:
        env_defaults = _read_env(os.environ)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(env_defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
