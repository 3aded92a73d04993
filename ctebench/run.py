#!/usr/bin/env python3
"""Build ctebench from this checkout's sources and run one workload.

    python3 ctebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: batch_cluster, apps, server_mix (see
ctebench/NOTES.md). The build goes to .bench_build/ctebench at the checkout
root (CMake + Ninja, RelWithDebInfo like the repo's tier-1 build) and is
reused by later runs. The binary's report passes through to stdout; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`,
where metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1). A per-layer metric of a layer the workload never
reaches reads 0. Exits non-zero, printing no result, when the sources, the
build or the run fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "ctebench")
WORKLOADS = ("batch_cluster", "apps", "server_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ctebench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ctesim sources (src/CMakeLists.txt) in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "ctebench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "ctebench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "ctebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"ctebench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("the binary's last line is not its JSON result")

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}  # layer not reached
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} but BENCHMARK.json "
                 f"says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
