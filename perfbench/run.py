#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ against the Otter sources in this
checkout, runs one workload and prints its result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload cg --seed 1 --seconds 20 --trace 0

Workloads: cg, transclos, nbody, otterd_mix (see perfbench/README.md).
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, and writes a Chrome trace-event file under the build
directory. The build goes to $CARGO_TARGET_DIR/perfbench when that is set
(relative paths are taken from the repository root), else to
.bench_build/perfbench.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cg", "transclos", "nbody", "otterd_mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Time a run may take beyond --seconds: repeated set-ups with interpreter
# references and warm-up, RSS probes, and the traced run's extra legs.
SETUP_ALLOWANCE_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "otterbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "otterbench"


def expected_metrics(root, trace):
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "scripts").is_dir():
        log(f"no Otter sources or scripts under {root}; nothing to build")
        return 2

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 3

    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scripts", str(root / "scripts"), "--out", str(out_dir)]
    timeout_s = args.seconds + SETUP_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout_s:.0f} s")
        return 4
    if proc.returncode != 0:
        log(f"otterbench exited with code {proc.returncode}")
        return 5
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("otterbench printed no result line")
        return 6
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        log(f"malformed result: {lines[-1]}")
        return 6
    want = expected_metrics(root, args.trace)
    if want is not None and list(result["metrics"]) != want:
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(result['metrics']))}")
        return 6
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
