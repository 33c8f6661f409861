"""Benchmark of tangleroof: one command, three workloads.

    python3 perfbench/run.py --workload {pairs,family,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory. Steps: four set-up probes (untraced runs only), the
independent oracle's references for the seed, the workload process, which
runs whole rounds of its operations for S seconds and checks every output,
and four more set-up probes. The line before the last is the report: the
workload's named metrics (measured with tracing on when --trace 1),
failures and machine info. The last line is one JSON object with keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES_EACH_SIDE = 4
WORKLOADS = ("pairs", "family", "oracle")


def child_env() -> dict:
    """The caller's environment without TANGLEROOF_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TANGLEROOF_")}


def run_child(args, env) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, env) -> float:
    """Wall time from process start to "ready": interpreter, import, inputs."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe of {workload} failed with exit code {code}")
    return ready - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tangleroof" / "__init__.py").is_file():
        print(f"error: no tangleroof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"

    # half the set-up probes run before the workload and half after it, so
    # that their median spans the run's drift in host speed
    probes = SETUP_PROBES_EACH_SIDE if not args.trace else 0
    setups = [setup_seconds(args.workload, args.seed, env) for _ in range(probes)]

    refs = OUT / f"refs-{tag}.json"
    run_child(
        [str(HERE / "oracle.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(refs)],
        env,
    )
    cmd = [
        str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--refs", str(refs),
    ]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.jsonl")]
    res = json.loads(run_child(cmd, env).splitlines()[-1])
    setups += [setup_seconds(args.workload, args.seed, env) for _ in range(probes)]

    metrics = res["metrics"]
    named = res["detail"]
    if setups:
        setup = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics = {**setup, **metrics}
        named = {**setup, **named}
    correct = not res["unexpected"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "machine": res["machine"],
        "metrics": named,
        "failures": res["failures"],
    }
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
