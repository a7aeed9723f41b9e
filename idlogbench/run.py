#!/usr/bin/env python3
"""IDLOG benchmark runner.

Builds the harness (idlogbench/) together with the engine from src/,
runs one workload in its own process and prints, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. The metrics are those BENCHMARK.json names:
its end_to_end list for --trace 0, its per_layer list for --trace 1.

    python3 idlogbench/run.py --workload tc_batch --seed 1 --seconds 35 --trace 0
    python3 idlogbench/run.py --workload all --seed 1

Run it from the repository root. Build outputs, inputs, the WAL and
span files all go under .bench_build/ there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "idlogbench"
HARNESS = BUILD_DIR / "idlogbench"
# A run measures for --seconds, plus set-up, warm-up and recovery; a
# harness still running after this long is stopped and the run fails.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"idlogbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no IDLOG sources at {ROOT / 'src'}; run from a repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def run_workload(name, seed, seconds, trace):
    """Runs the harness once; returns (exit code, its JSON result or None)."""
    workdir = BUILD_ROOT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(HARNESS), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{name}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"idlogbench: {name} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(f"idlogbench: {name} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def select(result, specs):
    """The metrics BENCHMARK.json lists, as {name: {value, unit}}."""
    out = {}
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail(f"harness did not report {spec['name']} in {spec['unit']}", 1)
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; one of {', '.join(names)} or all")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not seconds > 0:
        fail("--seconds must be positive")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for w in workloads:
        rc, result = run_workload(w, args.seed, seconds, args.trace == 1)
        if result is None:
            sys.exit(rc or 1)
        code = code or rc
        correct = correct and bool(result["correct"]) and rc == 0
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        if result["correct"]:
            chosen = select(result, specs)
            if len(workloads) == 1:
                metrics = chosen
            else:
                metrics.update({f"{w}.{k}": v for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
