#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny sizes.

    python3 e2e_bench/selftest.py

Builds e2e_bench (as run.py does), then for every workload:
  1. an untraced run prints every end-to-end metric that applies to the
     workload as a METRIC line with unit and sample count, and ends with a
     JSON result whose metrics are exactly BENCHMARK.json's end_to_end list,
     in the listed units;
  2. a traced run does the same for the per-layer list, and its Chrome trace
     passes tools/check_trace_json.py;
  3. a run with one oracle digest corrupted reports the wrong answer
     (correct false, failed > 0, error_rate > 0) and exits non-zero.
It also checks that protocol_sim's exact counts repeat across two runs of
one seed. Exit status 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own entry point)

COMMON = ("setup_s", "throughput_ops", "latency_p50_ms", "latency_p95_ms",
          "error_rate", "peak_rss_mb")
APPLICABLE = {
    "serve_mix": COMMON + ("point_p50_ms", "point_p99_ms"),
    "cyclic_skew": COMMON,
    "ivm_churn": COMMON + ("point_p50_ms", "point_p99_ms", "delta_p50_ms",
                           "delta_p95_ms"),
    "protocol_sim": COMMON + ("protocol_rounds", "async_makespan",
                              "rounds_over_lb"),
}
EXACT = ("protocol_rounds", "async_makespan", "rounds_over_lb")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL:", what)


def invoke(binary, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=run.bench_env(), timeout=170,
                       check=False)
    lines = p.stdout.splitlines()
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "METRIC" and \
                parts[4].startswith("samples="):
            metrics[parts[1]] = (float(parts[2]), parts[3],
                                 int(parts[4][len("samples="):]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, metrics, result


def check_result(label, result, listed):
    check(result is not None, f"{label}: last line is a JSON result")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly the four result keys")
    got = result.get("metrics", {})
    if listed is not None:
        check(list(got) == [m["name"] for m in listed],
              f"{label}: result metrics are exactly BENCHMARK.json's list")
        for m in listed:
            check(got.get(m["name"], {}).get("unit") == m["unit"],
                  f"{label}: {m['name']} is reported in {m['unit']}")
    for name, v in got.items():
        check(set(v) == {"value", "unit"} and
              isinstance(v["value"], (int, float)),
              f"{label}: {name} is a number with a unit")


def main():
    binary = run.build()
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
    tmp = tempfile.mkdtemp(prefix="e2e_selftest_", dir=os.path.join(
        run.ROOT, ".bench_build"))
    for w in run.WORKLOADS:
        # 1. untraced
        code, metrics, result = invoke(binary, w, 0)
        check(code == 0, f"{w}: untraced run exits 0")
        for name in APPLICABLE[w]:
            check(name in metrics, f"{w}: prints {name} with unit and samples")
        check(metrics.get("error_rate", (1,))[0] == 0.0, f"{w}: error_rate 0")
        check_result(f"{w} untraced", result,
                     spec["end_to_end"] if spec else None)
        if result is not None:
            check(result["correct"] and result["failed"] == 0,
                  f"{w}: untraced run correct")

        # 2. traced
        trace_path = os.path.join(tmp, w + ".json")
        code, metrics, result = invoke(binary, w, 1,
                                       ("--trace-out", trace_path))
        check(code == 0, f"{w}: traced run exits 0")
        for name in ("trace.coverage", "trace.overhead"):
            check(name in metrics, f"{w}: traced run states {name}")
        check_result(f"{w} traced", result,
                     spec["per_layer"] if spec else None)
        checked = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "tools",
                                          "check_trace_json.py"), trace_path]
            + [a for n in run.REQUIRED_SPANS for a in ("--require", n)],
            check=False)
        check(checked.returncode == 0, f"{w}: trace passes check_trace_json")

        # 3. corrupted oracle digest
        code, metrics, result = invoke(binary, w, 0, ("--corrupt-oracle",))
        check(code != 0, f"{w}: corrupted oracle exits non-zero")
        check(result is not None and not result["correct"] and
              result["failed"] > 0, f"{w}: corrupted oracle reported failed")
        check(metrics.get("error_rate", (0,))[0] > 0.0,
              f"{w}: corrupted oracle raises error_rate")

    first = invoke(binary, "protocol_sim", 0)[1]
    second = invoke(binary, "protocol_sim", 0)[1]
    for name in EXACT:
        check(name in first and first.get(name) == second.get(name),
              f"protocol_sim: {name} repeats exactly")

    print("selftest:", "OK" if not failures else f"{len(failures)} failures")
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
