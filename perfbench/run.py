#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) under .bench_build/ (or $CARGO_TARGET_DIR), runs the
workload, writes a results file with the run's environment, and prints as
its last stdout line one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
the per-layer set, plus the tracing overhead measured against an untraced
run of the same seed. A failed build, run or correctness check exits
nonzero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orders_durable", "escrow_backlog", "restart")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def source_digest():
    """SHA-256 over the library and benchmark sources (a checkout need not
    be a git repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_binary(binary, workload, seed, seconds, trace, out_dir):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} (trace {trace}) failed with exit code "
             f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} printed no result")
    if result.get("correct") is not True:
        fail(f"{workload} reported an incorrect run")
    return result


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None without the file."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = build_root()
    binary = build(root / "perfbench")
    out_root = root / "perfbench-out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    untraced = run_binary(binary, args.workload, args.seed, args.seconds, 0,
                          run_dir / "untraced")
    if args.trace:
        result = run_binary(binary, args.workload, args.seed, args.seconds, 1,
                            run_dir / "traced")
        metrics = dict(result["layers"])
        # Tracing overhead: every end-to-end metric, traced over untraced.
        for name, metric in result["e2e"].items():
            base = untraced["e2e"][name]["value"]
            ratio = metric["value"] / base if base else 0.0
            metrics[f"trace.overhead.{name}"] = {"value": ratio,
                                                 "unit": "ratio"}
    else:
        result = untraced
        metrics = dict(result["e2e"])

    declared = declared_metrics()
    if declared is not None:
        expected = set(declared[1] if args.trace else declared[0])
        if set(metrics) != expected:
            fail("metrics differ from BENCHMARK.json: missing "
                 f"{sorted(expected - set(metrics))}, extra "
                 f"{sorted(set(metrics) - expected)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(result["env"], git_sha=git_sha(),
                            source_sha256=source_digest()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": result["e2e"],
        "untraced_end_to_end": untraced["e2e"],
        "per_layer": result["layers"],
        "details": result["details"],
    }
    results_path = out_root / "results" / (run_dir.name + ".json")
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: results in {results_path}", file=sys.stderr)

    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)


if __name__ == "__main__":
    main()
