"""Command-line surface emitting plot-ready CSV and JSON artifacts.

Subcommands: zeros, interval, bounds, char (pair pipelines, defaulting to
the built-in toy pair when no state files are given), scan4q and monogamy
(four-qubit family scans), and toy (full report). Output is deterministic:
fixed row order, 12 significant digits, stable headers, and key-sorted
JSON, so reruns reproduce artifacts byte for byte. Exit codes: 0 success,
2 parse or validation error, 3 numerical failure. An identically vanishing
tangle polynomial is a structured result (flag plus [0, 1] interval), not
a failure.

The command line is parsed once: each subparser holds its defaults,
argparse rejects a grid size below 2 or a non-finite phase with its usage
line and message (exit 2), and run takes the parsed arguments. zeros,
interval and bounds read one span geometry (bounds.span_geometry). The
root floor pencil.COEFF_TOL and the rank floor states.RANK_TOL are
constants, not flags. Configuration is flags only: TANGLEROOF_*
environment variables are ignored.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import scenarios
from .bounds import characteristic_curve, span_geometry, upper_bound_report
from .states import RankExceededError, RankTwoMixture, load_state

__all__ = ["run", "main"]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


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


def _root_payloads(zeros):
    """One dict per row of a ZeroSet's root table."""
    return [
        {
            "at_infinity": not finite,
            "re": float(z.real) if finite else None,
            "im": float(z.imag) if finite else None,
            "multiplicity": m,
            "p0": p0,
            "phase": phase,
        }
        for z, finite, m, p0, phase in zip(
            zeros.z.tolist(), np.isfinite(zeros.z).tolist(), zeros.multiplicity.tolist(),
            zeros.p0.tolist(), zeros.phases.tolist(),
        )
    ]


def _load_pair(args: argparse.Namespace) -> RankTwoMixture:
    if not args.states:
        return scenarios.toy_mixture()
    if len(args.states) != 2:
        raise ValueError("expected exactly two state files (psi1 psi2)")
    psi1, psi2 = (load_state(path, renormalize=args.renormalize) for path in args.states)
    if psi1.n_qubits != 3 or psi2.n_qubits != 3:
        raise ValueError("state files must describe 3-qubit states")
    return RankTwoMixture(psi1, psi2, 0.5)


def _run_zeros(args: argparse.Namespace):
    geom = span_geometry(_load_pair(args))
    if geom.identically_zero:
        if args.format == "json":
            return _render_json({"identically_zero": True, "interval": [0.0, 1.0]})
        return _render_csv(
            ("identically_zero", "interval_low", "interval_high"),
            [(True, 0.0, 1.0)],
        )
    roots = _root_payloads(geom.zeros)
    if args.format == "json":
        return _render_json({"identically_zero": False, "roots": roots})
    header = ("index", "re", "im", "at_infinity", "multiplicity", "p0", "phase")
    rows = [
        (i, r["re"], r["im"], r["at_infinity"], r["multiplicity"], r["p0"], r["phase"])
        for i, r in enumerate(roots)
    ]
    return _render_csv(header, rows)


def _run_interval(args: argparse.Namespace):
    geom = span_geometry(_load_pair(args))
    if geom.identically_zero:
        if args.format == "json":
            return _render_json({"identically_zero": True, "interval": [0.0, 1.0]})
        return _render_csv(
            ("identically_zero", "p_low", "p_high", "dimension", "volume"),
            [(True, 0.0, 1.0, None, None)],
        )
    poly, iv = geom.polytope, geom.interval
    if args.format == "json":
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


def _run_bounds(args: argparse.Namespace):
    mix = _load_pair(args)
    report = upper_bound_report(mix, grid_size=args.p_grid)
    rows = list(report.rows())
    if args.format == "csv":
        return _render_csv(("p", "linearized", "pivot", "envelope", "achieving"), rows)
    iv = report.interval
    if report.identically_zero:
        interval = [0.0, 1.0]
    else:
        interval = None if iv is None else [iv.p_low, iv.p_high]
    return _render_json(
        {
            "identically_zero": report.identically_zero,
            "interval": interval,
            "p_left": report.p_left,
            "p_right": report.p_right,
            "envelope_knots": report.envelope_curve.knots,
            "rows": [list(r) for r in rows],
        }
    )


def _run_char(args: argparse.Namespace):
    mix = _load_pair(args)
    grid = np.linspace(0.0, 1.0, args.p_grid)
    rows = characteristic_curve(mix, args.phi, grid)
    if args.format == "csv":
        return _render_csv(("p", "c3"), [tuple(r) for r in rows])
    return _render_json({"phi": args.phi, "rows": rows})


def _run_scan4q(args: argparse.Namespace):
    if args.phi_grid is not None:
        phis = np.linspace(0.0, np.pi / 2.0, args.phi_grid, endpoint=False)
        rows = [(phi, scenarios.has_interior_volume_zero(phi)) for phi in phis.tolist()]
        if args.format == "csv":
            return _render_csv(("phi", "has_interior_volume_zero"), rows)
        return _render_json(
            {"rows": [{"phi": phi, "has_interior_volume_zero": flag} for phi, flag in rows]}
        )
    # interior grid: the reductions degenerate at p = 0 and p = 1
    ps = np.linspace(0.0, 1.0, args.p_grid + 2)[1:-1]
    rows = [
        (row.p, row.volume, row.dimension)
        + ((None, None) if row.interval is None else row.interval)
        for row in scenarios.simplex_scan(args.phi, ps)
    ]
    if args.format == "csv":
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
    return _render_json({"phi": args.phi, "rows": payload})


_MONOGAMY_HEADER = (
    "p", "phi", "one_tangle",
    "c2_01", "c2_02", "c2_03",
    "c3sq_012", "c3sq_013", "c3sq_023",
    "residual",
)


def _run_monogamy(args: argparse.Namespace):
    ps = np.linspace(0.0, 1.0, args.p_grid)
    if args.phi_grid is not None:
        phis = np.linspace(0.0, np.pi / 2.0, args.phi_grid, endpoint=False)
    else:
        phis = np.array([args.phi])
    # rows run phase by phase, p fastest
    rows = [
        (rep.p, rep.phi, rep.one_tangle)
        + rep.pairwise
        + rep.three_tangle_bounds
        + (rep.residual,)
        for rep in scenarios.monogamy_curve(np.tile(ps, phis.size), np.repeat(phis, ps.size))
    ]
    if args.format == "csv":
        return _render_csv(_MONOGAMY_HEADER, rows)
    return _render_json(
        {"rows": [dict(zip(_MONOGAMY_HEADER, row)) for row in rows]}
    )


def _run_toy(args: argparse.Namespace):
    rep = scenarios.toy_report(grid_size=args.p_grid)
    if args.format == "csv":
        return _render_csv(
            ("p", "linearized", "pivot", "envelope", "achieving"),
            list(rep.report.rows()),
        )
    iv = rep.interval
    payload = {
        "interval": [iv.p_low, iv.p_high],
        "roots": _root_payloads(rep.zeros),
        "p0": rep.zeros.p0,
        "phases": rep.zeros.phases,
        "vertices": rep.polytope.vertices,
        "multiplicities": rep.zeros.multiplicity,
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

COMMANDS = tuple(_RUNNERS)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the process exit code."""
    try:
        text = _RUNNERS[args.command](args)
        if args.out is not None:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
    # OSError: a state file that cannot be read or an --out path that cannot be written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RankExceededError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    return 0


# Flags that a phase sweep does not read, per command: given together with
# --phi-grid they are rejected rather than ignored. The parser leaves them
# None, so that main can tell a given flag from its default (_FAMILY_DEFAULTS).
_PHI_GRID_UNUSED = {
    "scan4q": ("--phi", "--p-grid"),
    "monogamy": ("--phi",),
}
_FAMILY_DEFAULTS = {"phi": 0.0, "p_grid": 101}


def _grid(text: str) -> int:
    """argparse type of --p-grid and --phi-grid: an integer of at least 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
    return value


def _phase(text: str) -> float:
    """argparse type of --phi: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError("phi must be finite")
    return value


def _build_parser() -> argparse.ArgumentParser:
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
            default=default_format,
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

    def add_pgrid(p, default, shown=None):
        p.add_argument(
            "--p-grid",
            type=_grid,
            default=default,
            help=f"mixing-weight grid size (default {default if shown is None else shown})",
        )

    def add_family(cmd, help, phi_grid_help):
        p = sub.add_parser(cmd, help=help)
        p.add_argument("--phi", type=_phase, help="family phase (radians, default 0)")
        add_pgrid(p, None, shown=_FAMILY_DEFAULTS["p_grid"])
        p.add_argument("--phi-grid", type=_grid, help=phi_grid_help)
        p.add_argument(
            "--parallelism",
            type=int,
            choices=(1,),
            help="accepted for scripts that pass it; every command runs in this process",
        )
        add_common(p)

    p_zeros = sub.add_parser("zeros", help="pencil roots of a 3-qubit pair")
    add_pair(p_zeros)
    add_common(p_zeros, default_format="json")

    p_iv = sub.add_parser("interval", help="zero polytope and axis interval")
    add_pair(p_iv)
    add_common(p_iv, default_format="json")

    p_bounds = sub.add_parser("bounds", help="linearized/pivot/envelope bound grid")
    add_pair(p_bounds)
    add_pgrid(p_bounds, 401)
    add_common(p_bounds)

    p_char = sub.add_parser("char", help="pure-superposition tangle curve")
    add_pair(p_char)
    p_char.add_argument("--phi", type=_phase, default=0.0, help="relative phase (radians)")
    add_pgrid(p_char, 401)
    add_common(p_char)

    add_family(
        "scan4q",
        "four-qubit reduction simplex scan",
        "sweep this many phases over [0, pi/2) for the interior-zero flag instead of scanning p",
    )
    add_family(
        "monogamy", "extended monogamy residual curve", "also sweep this many phases over [0, pi/2)"
    )

    p_toy = sub.add_parser("toy", help="full report for the built-in toy pair")
    add_pgrid(p_toy, 401)
    add_common(p_toy, default_format="json")

    return parser


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_phi(argv: list) -> list:
    """Each "--phi X" whose X reads as a float joined into "--phi=X".

    argparse takes a value such as -1e-3 or -inf for a flag and refuses
    "--phi -1e-3"; joined, the value reaches the same checks as "--phi=-1e-3".
    """
    out: list = []
    for arg in argv:
        if out and out[-1] == "--phi" and _reads_as_float(arg):
            out[-1] = f"--phi={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_phi(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if args.command in _PHI_GRID_UNUSED:
        if args.phi_grid is not None:
            unused = [
                flag for flag in _PHI_GRID_UNUSED[args.command]
                if getattr(args, flag[2:].replace("-", "_")) is not None
            ]
            if unused:
                flags = ", ".join(unused)
                print(f"error: {flags}: not used by a phase sweep (--phi-grid)", file=sys.stderr)
                return 2
        # an "is None" test, not "or", so that --phi -0.0 keeps its sign
        for name, default in _FAMILY_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
