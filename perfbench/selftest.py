#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Checks, on short runs of every workload:
  * every printed name matches [A-Za-z0-9_.-]+ and carries a unit;
  * every end-to-end metric of perfbench/README.md is printed for the
    workloads it belongs to, with ops and ops_failed;
  * each virtual-clock metric and the digest repeat exactly across two runs
    of the same seed (each run also re-checks every input it repeats);
  * run.py's JSON result has exactly the keys correct, attempted, failed and
    metrics, with every BENCHMARK.json metric for --trace 0 and --trace 1,
    and the span file loads as JSON;
  * a wrong expected digest fails the run with a non-zero exit;
  * run.py exits non-zero without a result where only BENCHMARK.json and
    perfbench/ exist.
Exits non-zero on the first failed check.
"""

import json
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
COMMON = ["setup_s", "host_ns_per_unit", "iter_ms_p50", "iter_ms_p90", "peak_rss_mb"]
SPECIFIC = {
    "fleet-cold": ["fleet.host_us_per_vm", "fleet.virtual_makespan_ms",
                   "boot.to_init_ms_p50"],
    "guest-exec": ["guest.host_ns_per_syscall", "guest.virtual_ns_per_syscall"],
    "serve-restore": ["serve.host_us_per_request", "serve.ttfr_ms_p50", "serve.ttfr_ms_p99"],
}


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run_binary(binary, workload, config, *extra):
    command = [str(binary), "--workload", workload, "--seed", str(config["default_seed"]),
               "--workers", str(config["workers"][workload]),
               "--scenarios", str(run.ROOT / "bench" / "scenarios"), "--seconds", "0.5",
               *extra]
    return subprocess.run(command, capture_output=True, text=True)


def check_names_and_units(workload, stdout):
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("end_to_end", "virtual", "layer"):
            if len(parts) != 4 or not NAME.match(parts[1]) or not NAME.match(parts[3]):
                fail(f"{workload}: malformed line {line!r}")
            printed[parts[1]] = parts[3]
        elif parts and parts[0] in ("layer_time", "span_time") and not NAME.match(parts[1]):
            fail(f"{workload}: malformed name in {line!r}")
    for name in COMMON + SPECIFIC[workload]:
        if name not in printed:
            fail(f"{workload}: {name} not printed")
    return printed


def main():
    binary = run.build()
    if binary is None:
        fail("build failed")
    config = json.loads((run.HERE / "config.json").read_text())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for workload in run.WORKLOADS:
        first = run_binary(binary, workload, config)
        second = run_binary(binary, workload, config)
        for proc in (first, second):
            if proc.returncode != 0:
                fail(f"{workload}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        check_names_and_units(workload, first.stdout)
        figures = [run.parse_lines(proc.stdout) for proc in (first, second)]
        for key in ("ops", "ops_failed", "digest"):
            if key not in figures[0][1]:
                fail(f"{workload}: {key} not printed")
        if figures[0][1]["digest"] != config["digests"][workload]:
            fail(f"{workload}: digest {figures[0][1]['digest']} != config.json")
        if figures[0][1]["digest"] != figures[1][1]["digest"] or \
                figures[0][0]["virtual"] != figures[1][0]["virtual"]:
            fail(f"{workload}: virtual-clock figures differ between two runs of one seed")

        broken = run_binary(binary, workload, config, "--expect-digest", "0" * 16)
        if broken.returncode == 0 or "info correct false" not in broken.stdout:
            fail(f"{workload}: a wrong expected digest did not fail the run")

        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
                fail(f"{workload} --trace {trace}: bad result {result}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: not correct: {result}")
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result["metrics"]) != {metric["name"] for metric in listed}:
                fail(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
        trace_file = run.build_dir() / "traces" / f"{workload}-seed{config['default_seed']}.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        if not events or any(event["ph"] != "X" or "dur" not in event for event in events):
            fail(f"{workload}: span file {trace_file} is empty or malformed")
        print(f"selftest: {workload} ok")

    # Without the repository's sources the benchmark must fail, not report.
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py reported a result without the repository's sources")
    print("selftest: ok")


if __name__ == "__main__":
    main()
