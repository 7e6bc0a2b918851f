#!/usr/bin/env python3
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program from the checkout's sources (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), times its
set-up, runs it, checks the pinned digest of the modelled output, prints
every metric it measured as "name value unit" lines, and prints as its last
line one JSON object with the metrics BENCHMARK.json lists: the end_to_end
ones with --trace 0, the per_layer ones with --trace 1. Exits 1 when an
output check failed, 2 when it cannot run at all. See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --pin

records the digest of that seed's modelled output in perfbench/pins.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
READY = "PERFBENCH_READY"
SETUP_SPAWNS = 20  # extra set-up-only spawns; setup_s is the median
RUN_TIMEOUT_S = 160


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_config():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "eval" / "experiment.hpp").is_file():
        fail("no qolsr sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def spawn(cmd):
    """Starts the program; returns (process, seconds from spawn to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    first = proc.stdout.readline().strip()
    ready = time.perf_counter() - start
    if first != READY:
        proc.kill()
        proc.wait()
        fail(f"program did not start: {' '.join(cmd)}")
    return proc, ready


def measure_setup(exe, workload, seed):
    proc, ready = spawn([str(exe), "--workload", workload, "--seed",
                         str(seed), "--seconds", "1", "--trace", "0",
                         "--setup-only"])
    proc.communicate(timeout=30)
    return ready


def run_program(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    proc, ready = spawn(cmd)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"program exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("program printed no result")
    return json.loads(lines[-1]), ready


def check_pin(result, workload, seed):
    """Compares the modelled-output digest with the pinned one, if any.
    A mismatch fails every evaluation of the pinned prefix."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return "unpinned"
    if pinned == result["digest"]:
        return "match"
    print(f"perfbench: digest {result['digest']} != pinned {pinned} "
          f"({workload}, seed {seed})", file=sys.stderr)
    result["failed"] = max(result["failed"], result["pinned_evaluations"])
    result["correct"] = False
    return "MISMATCH"


def write_pin(exe, workload, seed):
    proc, _ = spawn([str(exe), "--workload", workload, "--seed", str(seed),
                     "--seconds", "0.001", "--trace", "0"])
    stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    result = json.loads(stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        fail("not pinning the output of a failed run")
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins.setdefault(workload, {})[str(seed)] = result["digest"]
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {workload} seed {seed}: {result['digest']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    config = load_config()
    if args.workload not in [w["name"] for w in config["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")
    exe = build()
    if args.pin:
        write_pin(exe, args.workload, args.seed)
        return 0

    result, ready = run_program(exe, args)
    measured = dict(result["metrics"])
    if not args.trace:
        setups = [ready] + [measure_setup(exe, args.workload, args.seed)
                            for _ in range(SETUP_SPAWNS)]
        measured["setup_s"] = {"value": statistics.median(setups),
                               "unit": "s"}
        pin = check_pin(result, args.workload, args.seed)
        print(f"{'digest':28s} {result['digest']} ({pin})")

    for name, metric in measured.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>14s} {metric['unit']}")

    wanted = config["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None or got["value"] is None or got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} ({spec['unit']}) not measured")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
