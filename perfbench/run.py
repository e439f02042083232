"""The repository's benchmark: one workload, one seed, one JVM.

    python3 perfbench/run.py --workload mr_det_higgs --seed 1 --seconds 20 --trace 0

Builds the program from source if needed (see build.py), then runs the
workload for --seconds and prints every metric by name and unit. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. The exit code is not 0 when the correctness gate
fails or the output does not match BENCHMARK.json. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

import build

# Seed kept out of tuning, on which a later performance claim must also hold.
HELD_OUT_SEED = 7919
# Explicit heap: the program's own build defaults to a far larger one.
HEAP = "2g"
# The serial collector runs no thread beside the measured solves, and it lays
# the surviving input points out in the same order after every collection, so
# the scans over the input meet the same cache behaviour in every run. Under
# G1 and the parallel collector the timings of the single-threaded solves
# moved by up to a fifth from run to run.
GC = "-XX:+UseSerialGC"
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
JVM_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def check_result(line, bench, trace):
    """Returns None if `line` is a well-formed result for BENCHMARK.json."""
    try:
        res = json.loads(line)
    except ValueError:
        return "the last output line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys are {sorted(res)}"
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        return f"metrics {got} do not match BENCHMARK.json {want}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 epilog=f"held-out seed for performance claims: {HELD_OUT_SEED}")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}", 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        return fail(f"unknown workload {args.workload}", 2)
    try:
        classes, jars = build.ensure_built()
    except build.BuildError as e:
        return fail(str(e), 2)

    out_dir = os.path.join(build.BUILD_DIR, "out")
    tmp_dir = os.path.join(build.BUILD_DIR, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", GC, "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp_dir}",
           f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}",
           *JVM_OPENS, "-cp", os.pathsep.join([classes, *jars]), "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cores", str(cores), "--out", out_dir]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(build.BUILD_DIR, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT, env=env)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"the benchmark JVM did not finish within {JVM_TIMEOUT_S} s", 3)
    lines = stdout.splitlines()
    print("\n".join(lines[:-1]))
    problem = check_result(lines[-1], bench, args.trace) if lines else "no output"
    if problem:
        print(f"perfbench: invalid result: {problem}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
