#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark; prints its JSON result last.

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the repository root. The binary is built from source with CMake
under $CARGO_TARGET_DIR (default .bench_build). Each workload runs in its own
process, so peak_rss_mb and setup_s belong to it alone; setup_s is the median
of SETUP_SAMPLES set-ups, each in a fresh process (untraced runs only).

With --trace 0 the result carries the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (and a Perfetto span file is written
next to the binary). The exit code is 0 only when every output check held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fleet-cold", "guest-exec", "serve-restore"]
SETUP_SAMPLES = 5


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the binary; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the repository sources are missing next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def parse_lines(text):
    """The binary's `<kind> <name> <value> <unit>` lines, by kind and name."""
    figures = {}
    info = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("end_to_end", "virtual", "layer"):
            figures.setdefault(parts[0], {})[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "info":
            info.update(zip(parts[1::2], parts[2::2]))
    return figures, info


def run_binary(command, timeout):
    """Runs the binary to completion; None if it outlives `timeout` seconds."""
    try:
        return subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout} s: {' '.join(command)}", file=sys.stderr)
        return None


def run_workload(binary, workload, seed, seconds, trace, config):
    """Runs one workload in its own process; returns its JSON result as a dict."""
    common = [str(binary), "--workload", workload, "--seed", str(seed),
              "--workers", str(config["workers"][workload]),
              "--scenarios", str(ROOT / "bench" / "scenarios")]
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        proc = run_binary(common + ["--seconds", "1", "--setup-only"], 60)
        if proc is None:
            return None
        figures, _ = parse_lines(proc.stdout)
        if proc.returncode != 0 or "setup_s" not in figures.get("end_to_end", {}):
            sys.stderr.write(proc.stdout + proc.stderr)
            return None
        setups.append(figures["end_to_end"]["setup_s"][0])

    command = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if seed == config["default_seed"]:
        command += ["--expect-digest", config["digests"][workload]]
    if trace:
        trace_file = build_dir() / "traces" / f"{workload}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_file)]
    proc = run_binary(command, seconds + 120)
    if proc is None:
        return None
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    figures, info = parse_lines(proc.stdout)
    if "setup_s" not in figures.get("end_to_end", {}):
        return None
    if not trace:
        setups.append(figures["end_to_end"]["setup_s"][0])
        figures["end_to_end"]["setup_s"] = (statistics.median(setups), "s")
        print(f"info setup_s_samples {' '.join(f'{s:.6f}' for s in setups)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind, listed = ("layer", spec["per_layer"]) if trace else ("end_to_end", spec["end_to_end"])
    metrics = {}
    missing = []
    for metric in listed:
        value = figures.get(kind, {}).get(metric["name"])
        if value is None:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value[0], "unit": metric["unit"]}
    for name in missing:
        print(f"problem metric {name} was not reported")
    return {
        "correct": proc.returncode == 0 and info.get("correct") == "true" and not missing,
        "attempted": int(info.get("ops", 0)),
        "failed": int(info.get("ops_failed", 0)),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    config = json.loads((HERE / "config.json").read_text())
    seed = config["default_seed"] if args.seed is None else args.seed

    if args.workload:
        result = run_workload(binary, args.workload, seed, args.seconds, args.trace, config)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload, one process each; metric names prefixed by workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"info run {workload}")
        result = run_workload(binary, workload, seed, args.seconds, args.trace, config)
        if result is None:
            return 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
