"""One workload process: set-up, timed rounds, output checks, metrics.

Started by run.py. The process imports numpy, tangleroof (from the
checkout's src/) and the benchmark's own check code, not scipy or mpmath,
so its peak resident set is the program's plus a fixed few MB. It prints
"ready" once set-up is done; with --setup-only it stops there. Otherwise it
runs one untimed warm-up round, then whole rounds of the same operations
until --seconds have passed, times the reference work after every
operation, and prints one JSON line of results.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    sys.path.insert(0, str(SRC))
    import tangleroof

    if Path(tangleroof.__file__).resolve().parent != SRC / "tangleroof":
        raise SystemExit(f"imported tangleroof from {tangleroof.__file__}, not from {SRC}")
    return tangleroof


class Op:
    __slots__ = ("kind", "seconds", "failures", "label", "ref_samples")

    def __init__(self, kind, seconds, failures, label, ref_samples):
        self.kind, self.seconds, self.failures, self.label = kind, seconds, failures, label
        self.ref_samples = ref_samples


# The reference work: a fixed mix of interpreter steps and small numpy
# calls that shares no code with the program. The host's speed drifts by
# 10-20 % over tens of seconds, and program and reference drift together,
# so a round's time over the reference time measured during that round is
# far steadier than either (see README, "Reference units").
REFERENCE_MATRICES = np.random.default_rng(0).standard_normal((64, 4, 4))
REFERENCE_MIN_S = 0.005
REFERENCE_SHARE = 0.05


def reference_work() -> float:
    acc = 0.0
    for i in range(3000):
        acc += (i * 7) % 13
    for m in REFERENCE_MATRICES:
        acc += float(np.abs(np.linalg.eigvals(m)).sum())
    return acc


def reference_samples(op_seconds: float) -> list:
    """Times of reference_work() run back to back for 5 % of an operation's time."""
    budget = max(REFERENCE_MIN_S, REFERENCE_SHARE * op_seconds)
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        t = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - t)
    return samples


def round_reference(ops) -> float:
    """Median time of one reference work over a round: its unit of time."""
    return statistics.median(t for op in ops for t in op.ref_samples)


def _raised(exc) -> list:
    return [("raised", f"{type(exc).__name__}: {exc}")]


class Workload:
    """Base of the three workloads: ``begin_op`` marks where an operation starts
    and ``record`` closes it.

    A traced run replaces ``begin_op`` with the tracer's, so that every span
    of an operation carries that operation's identifier.
    """

    def begin_op(self, label):
        pass

    def record(self, kind, seconds, failures, label) -> Op:
        """The finished operation, with the reference work timed right after it."""
        return Op(kind, seconds, failures, label, reference_samples(seconds))


class Pairs(Workload):
    """upper_bound_report(grid 401) and decomposition_at per seeded pair."""

    def __init__(self, tr, seed):
        self.tr = tr
        self.pairs = [
            (name, a, b, tr.RankTwoMixture(tr.PureState(3, a), tr.PureState(3, b), 0.5))
            for name, a, b in inputs.pair_set(seed)
        ]

    def run_round(self, refs, traced):
        ops = []
        for (name, a, b, mix), ref in zip(self.pairs, refs["pairs"]):
            self.begin_op(name)
            start = time.perf_counter()
            try:
                rep = self.tr.upper_bound_report(mix, grid_size=401)
                decs = [rep.decomposition_at(p) for p in inputs.DECOMPOSITION_PS]
            except Exception as exc:  # a raising operation is a failed one
                ops.append(self.record("pair", time.perf_counter() - start, _raised(exc), name))
                continue
            seconds = time.perf_counter() - start
            out = checks.pair_outputs(rep, decs, inputs.DECOMPOSITION_PS)
            ops.append(self.record("pair", seconds, checks.check_pair(name, a, b, out, ref), name))
        return ops


class Family(Workload):
    """The four-qubit GHZ4/W4 family: phase sweep, bisection, p-scan, monogamy."""

    COMMANDS = {
        "phi_scan": ["scan4q", "--phi-grid", "8", "--parallelism", "1"],
        "p_scan": ["scan4q", "--p-grid", "101", "--parallelism", "1"],
        "monogamy": ["monogamy", "--p-grid", "101", "--parallelism", "1"],
    }

    def __init__(self, tr, seed):
        self.tr = tr
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _cli(self, args, traced):
        """(exit code, stdout) of one CLI command.

        Untraced runs start a process, so start-up counts; traced runs call
        cli.main in this process, so the tracer sees the calls.
        """
        if traced:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.tr.cli.main(list(args))
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "tangleroof.cli", *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout

    def _command(self, kind, traced, check):
        self.begin_op(kind)
        start = time.perf_counter()
        code, text = self._cli(self.COMMANDS[kind], traced)
        seconds = time.perf_counter() - start
        if code != 0:
            return self.record(kind, seconds, [("exit_code", f"{kind} exited with {code}")], kind)
        try:
            failures = check(text)
        except (KeyError, ValueError, IndexError) as exc:
            failures = [("output", f"{kind}: unreadable output ({exc!r})")]
        return self.record(kind, seconds, failures, kind)

    def run_round(self, refs, traced):
        ops = [self._command("phi_scan", traced, checks.check_phi_scan)]
        self.begin_op("phi_bisect")
        start = time.perf_counter()
        try:
            value = self.tr.phi_threshold_bisect()
            seconds = time.perf_counter() - start
            ops.append(self.record("phi_bisect", seconds, checks.check_bisect(value), "phi_bisect"))
        except Exception as exc:
            ops.append(self.record("phi_bisect", time.perf_counter() - start, _raised(exc), "phi_bisect"))
        ops.append(
            self._command(
                "p_scan", traced,
                lambda t: checks.check_p_scan(t, refs["scan"], inputs.family_scan_grid()),
            )
        )
        ops.append(
            self._command(
                "monogamy", traced,
                lambda t: checks.check_monogamy(t, refs["monogamy"], inputs.family_monogamy_grid()),
            )
        )
        return ops


class Oracle(Workload):
    """min_average_c3 on the toy pair, 100k random decompositions per call."""

    def __init__(self, tr, seed):
        self.tr = tr
        a, b = inputs.toy_pair()
        psi1, psi2 = tr.PureState(3, a), tr.PureState(3, b)
        self.calls = [
            (p, s, tr.RankTwoMixture(psi1, psi2, p)) for p, s in inputs.oracle_calls(seed)
        ]
        # the envelope the sampled minima may not fall below
        self.envelope = tr.upper_bound_report(self.calls[0][2], grid_size=401).envelope_curve

    def run_round(self, refs, traced):
        ops = []
        for p, seed, mix in self.calls:
            self.begin_op(f"p={p}")
            start = time.perf_counter()
            try:
                value = self.tr.min_average_c3(mix, inputs.ORACLE_SAMPLES, sizes=(2, 3, 4), seed=seed)
            except Exception as exc:
                ops.append(self.record("call", time.perf_counter() - start, _raised(exc), f"p={p}"))
                continue
            seconds = time.perf_counter() - start
            failures = checks.check_sampled_minimum(p, value, float(self.envelope(p)))
            ops.append(self.record("call", seconds, failures, f"p={p}"))
        return ops


WORKLOADS = {"pairs": Pairs, "family": Family, "oracle": Oracle}


def detail_metrics(workload, rounds) -> dict:
    """The workload's own named metrics: (value, unit) by name."""
    op_times = [[op.seconds for op in r] for r in rounds]
    out = {
        "round_s": (statistics.median(sum(r) for r in op_times), "s"),
        "ref_ms": (1e3 * statistics.median(round_reference(r) for r in rounds), "ms"),
    }
    if workload == "pairs":
        flat = [t for r in op_times for t in r]
        out.update(
            pairs_per_s=(statistics.median(len(r) / sum(r) for r in op_times), "1/s"),
            pair_ms_p50=(1e3 * statistics.median(flat), "ms"),
            pair_ms_p95=(1e3 * statistics.quantiles(flat, n=20)[18], "ms"),
        )
    elif workload == "family":
        for kind in ("phi_scan", "phi_bisect", "p_scan", "monogamy"):
            times = [op.seconds for r in rounds for op in r if op.kind == kind]
            out[f"{kind}_s"] = (statistics.median(times), "s")
    else:
        out["samples_per_s"] = (
            statistics.median(len(r) * inputs.ORACLE_SAMPLES / sum(r) for r in op_times),
            "1/s",
        )
    return out


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", help="oracle references written by oracle.py")
    parser.add_argument("--spans", help="where a traced run writes its first round's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tr = load_program()
    workload = WORKLOADS[args.workload](tr, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)

    # One untimed round first: it fills lazy state in this process (the first
    # in-process bisection runs about 15 % slower than later ones), so that
    # every timed round is alike however many fit in --seconds. It is checked
    # and counted like the others.
    if args.trace:
        # traced family runs call cli.main in process, and the tracer wraps
        # cli.run, so the module must be loaded on every workload
        import tangleroof.cli  # noqa: F401
    warmup = workload.run_round(refs, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.begin_op = tracer.begin_op
    rounds = []
    begin = time.perf_counter()
    while True:
        rounds.append(workload.run_round(refs, bool(tracer)))
        if tracer is not None:
            tracer.keep_spans = False
        if time.perf_counter() - begin >= args.seconds:
            break

    ops = [op for r in rounds for op in r]
    failed = [op for r in (warmup, *rounds) for op in r if op.failures]
    unexpected = [
        (op.label, check, detail)
        for op in failed
        for check, detail in op.failures
        if (op.label, check) not in checks.KNOWN_FAULTS
    ]
    result = {
        "rounds": len(rounds),
        "attempted": len(warmup) + len(ops),
        "failed": len(failed),
        "unexpected": unexpected[:20],
        "failures": sorted({f"{op.label}: {c}: {d}" for op in failed for c, d in op.failures})[:20],
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": tr.backend_name(),
        },
    }
    # with tracing on, the named metrics include the tracer's overhead
    detail = detail_metrics(args.workload, rounds)
    result["detail"] = {name: {"value": v, "unit": u} for name, (v, u) in detail.items()}
    if tracer is not None:
        result["metrics"] = tracer.metrics(len(rounds))
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        round_refs = statistics.median(sum(op.seconds for op in r) / round_reference(r) for r in rounds)
        result["metrics"] = {
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "round_refs": {"value": round_refs, "unit": "refs"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
