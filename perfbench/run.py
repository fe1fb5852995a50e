#!/usr/bin/env python3
"""Build and run the pcnn benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload zoo_forward|tenant_mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds the libraries and the perfbench
binary in Release with PCNN_DCHECKS and PCNN_COUNT_ALLOCS off
(perfbench/CMakeLists.txt), then writes the benchmark's own host tune
cache with pcnn_autotune. The build directory is $CARGO_TARGET_DIR when
set, else .bench_build, both relative to the repository root.

Untraced runs first time set-up (setup_s): SETUP_PROCS fresh processes
each set the workload up and print "ready"; each is timed from spawn to
that line, and the median joins the binary's own metrics. Every line
the binary prints is passed through; the last one is the JSON result,
printed only when its metric names match BENCHMARK.json. Traced runs
also write their spans to <build>/perfbench/traces/.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 130
SETUP_PROCS = 31
SETUP_GAP_S = 0.05  # spreads the set-ups over a few seconds of host state
SETUP_BUDGET_S = 30  # all set-up processes of one run together
WORKLOADS = ("zoo_forward", "tenant_mix")
# Process-wide switches that would change what is measured.
CLEARED_ENV = ("PCNN_KERNEL_TIER", "PCNN_QUANTIZE", "PCNN_CONV_ALGO",
               "PCNN_FOLD_RELU")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, **kw):
    """Run a set-up command with its output on stderr."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         cwd=ROOT, **kw)
    if res.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir])
    run_quiet(["cmake", "--build", build_dir,
               "-j", str(os.cpu_count() or 1),
               "--target", "perfbench", "pcnn_autotune"])


def time_setup(binary, workload, env, deadline):
    """Seconds from spawning a --setup-only process to its "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([binary, "--workload", workload, "--setup-only"],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        out = b""
        while b"\nready\n" not in b"\n" + out:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                fail("set-up runs exceeded %d s" % SETUP_BUDGET_S)
            chunk = os.read(fd, 4096)
            if not chunk:
                fail("set-up run ended without \"ready\": %r" % out)
            out += chunk
        t1 = time.perf_counter()
        # Nothing is printed after "ready", so the pipe cannot fill.
        rc = proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        fail("set-up runs exceeded %d s" % SETUP_BUDGET_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0:
        fail("set-up run exited with status %d" % rc)
    return t1 - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace == "1" else "end_to_end"]]

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    # The benchmark's own tune cache, written once per build directory;
    # the per-user default cache is never consulted.
    cache = os.path.join(build_dir, "hosttune.json")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PCNN_TUNE_CACHE"] = cache
    env["PCNN_GRAPH"] = "1"
    env["PCNN_THREADS"] = str(os.cpu_count() or 1)
    if not os.path.exists(cache):
        run_quiet([os.path.join(build_dir, "tools", "pcnn_autotune"),
                   "--cache", cache, "--quick", "--reps", "3"], env=env)

    binary = os.path.join(build_dir, "perfbench")
    setup = None
    if args.trace == "0":
        deadline = time.perf_counter() + SETUP_BUDGET_S
        setup = []
        for _ in range(SETUP_PROCS):
            setup.append(time_setup(binary, args.workload, env, deadline))
            time.sleep(SETUP_GAP_S)

    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = res.stdout.splitlines()
    if res.returncode not in (0, 1) or not lines:
        sys.stdout.write(res.stdout)
        fail("perfbench exited with status %d" % res.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])
    if setup is not None:
        print("# setup_ms samples (fresh processes): " +
              " ".join("%.3f" % (s * 1e3) for s in setup))
        print("%-44s %14.6g %-6s n=%d" % ("setup_s", statistics.median(setup),
                                         "s", len(setup)))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    print(json.dumps(result))
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
