#!/usr/bin/env python3
"""End-to-end benchmark entry point (see e2e_bench/README.md).

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a topofaq checkout. The first call configures and
builds e2e_bench (Release) under .bench_build/e2e_bench; later calls only
re-run the incremental build. The benchmark process gets a clean
environment: TOPOFAQ_* knobs are removed, because the benchmark fixes the
engine configuration itself.

With --trace 1 the benchmark writes its Chrome trace to
.bench_build/traces/<workload>.json, and this script validates it with
tools/check_trace_json.py; a trace that fails validation makes the run
incorrect.

The last line of standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status 0 only when the run was correct.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("serve_mix", "cyclic_skew", "ivm_churn", "protocol_sim")
# A run must finish within this many seconds of its start (the build of a
# fresh checkout excepted).
RUN_LIMIT_S = 175
# Spans every traced run must contain: the benchmark's own client spans and
# the engine's pipeline stages around them.
REQUIRED_SPANS = ("client_op", "queue_wait", "execute", "probe.query",
                  "relation.replay", "faq.solve_p1")


def fail(msg, code):
    print(f"e2e_bench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for need in ("CMakeLists.txt", os.path.join("src", "server", "engine.h"),
                 os.path.join("tools", "check_trace_json.py")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"not a topofaq checkout: {need} is missing", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = BUILD_DIR + ".log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(BUILD_DIR, "e2e_bench")


def bench_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("TOPOFAQ_")}


def run(binary, args, extra, started):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += extra
    left = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=bench_env(),
                              cwd=ROOT, timeout=left, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {left:.0f} s", 4)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    started = time.monotonic()
    extra = []
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, args.workload + ".json")
        if os.path.exists(trace_path):
            os.remove(trace_path)
        extra = ["--trace-out", trace_path]
    code, lines = run(binary, args, extra, started)
    if not lines:
        fail(f"{args.workload} printed nothing (exit {code})", code or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail(f"{args.workload}: last line is not a JSON result (exit {code})",
             code or 1)

    if trace_path is not None:
        check = [sys.executable, os.path.join(ROOT, "tools",
                                              "check_trace_json.py"),
                 trace_path]
        for name in REQUIRED_SPANS:
            check += ["--require", name]
        checked = subprocess.run(check, stdout=sys.stderr, stderr=sys.stderr,
                                 check=False)
        if checked.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
            lines[-1] = json.dumps(result)
            code = code or 1

    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
