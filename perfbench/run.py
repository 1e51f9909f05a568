#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR`, or `perfbench/target` when unset,
runs one workload in a fresh process and prints its report. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`, each metric carrying the unit `BENCHMARK.json`
gives it. With `--trace 0` the metrics are the end-to-end ones. With
`--trace 1` an untraced run is followed by a traced one, and the metrics
are the per-layer ones, including the tracing overhead between the two.

Exits non-zero, printing no result line, when the build fails or a run
times out; exits 1 after the result line when a correctness check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# A run must end within 180 s; a traced invocation holds two runs.
RUN_TIMEOUT_S = 80
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, args, trace):
    """One workload process: its report lines and its result object."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join(target_dir(), "perfbench-out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--out", out]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} run exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparseable result line: {lines[-1]!r}")
    return lines[:-1], result


def with_units(values, declared, errors):
    """Attach declared units; every declared metric must be present."""
    names = {m["name"] for m in declared}
    extra = sorted(set(values) - names)
    if extra:
        errors.append(f"undeclared metrics {extra}")
    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"metric {m['name']} missing or not finite: {v!r}")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    started = time.monotonic()
    lines, result = run(binary, args, 0)
    errors = []
    if args.trace:
        traced_lines, traced = run(binary, args, 1)
        lines += traced_lines
        # Tracing overhead: extra time per window of the traced run.
        base, wps = result["windows_per_s"], traced["windows_per_s"]
        traced["metrics"]["obs.trace_overhead_share"] = base / wps - 1.0 if wps > 0 else 0.0
        traced["correct"] = traced["correct"] and result["correct"]
        result = traced
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        for m in declared:
            v = result["metrics"].get(m["name"])
            if v == 0:
                errors.append(f"end-to-end metric {m['name']} is 0")
    metrics = with_units(result["metrics"], declared, errors)
    for line in lines:
        print(line)
    for e in errors:
        print(f"error: {e}")
    print(f"wall {time.monotonic() - started:.1f} s")
    correct = bool(result["correct"]) and not errors
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
