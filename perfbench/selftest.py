#!/usr/bin/env python3
"""The benchmark's own self-tests. Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

1. The harness's unit tests (metric-name grammar, the percentile rule,
   the result line, input generation) via `cargo test`.
2. BENCHMARK.json itself follows the contract's limits.
3. For every workload: each printed metric name follows the grammar and
   matches BENCHMARK.json exactly (end-to-end untraced, per-layer
   traced); every percentile is printed with its sample count and has at
   least ten samples beyond it; two untraced runs with the same seed give
   bit-identical virtual-clock metrics; the traced run reports the
   tracing overhead and, on the fault workloads, >= 0.99 faults per op.
4. A held-out seed, never used while tuning, passes every correctness
   gate.

Exit code 0 only when everything passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
VIRTUAL = ["mmio_kops", "mmio_p50_cycles", "mmio_p99_cycles", "mmio_p999_cycles", "paper_err"]
TUNING_SEED = 7
HELD_OUT_SEED = 918_273_645

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL:", msg)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    for n in names:
        check(NAME.match(n) is not None, f"name grammar: {n}")
    for w in bench["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    for m in bench["end_to_end"]:
        check(UNIT.match(m["unit"]) is not None and 0 < m["bound"] <= 0.25, f"end_to_end {m['name']}")
    for m in bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"per_layer unit {m['name']}")
    check(1 <= bench["run_seconds"] <= 60, "run_seconds range")
    check(len(json.dumps(bench)) <= 64 * 1024, "file size")


def check_result(workload, lines, result, expected):
    check(result is not None, f"{workload}: last line is the JSON result")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: correctness gates")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{workload}: metric names and units match BENCHMARK.json")
    for k in got:
        check(NAME.match(k) is not None, f"{workload}: printed name {k}")
    text = "\n".join(lines)
    for p in ["mmio_p50_cycles", "mmio_p99_cycles", "mmio_p999_cycles"]:
        if p in got:
            m = re.search(rf"^{p}\s+\S+\s+cycles\s+\(n=(\d+), (\d+) beyond\)", text, re.M)
            check(m is not None and int(m.group(2)) >= 10,
                  f"{workload}: {p} printed with its sample count and >= 10 beyond")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="1")
    args = ap.parse_args()

    t = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                       env=dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(
                           os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))))
    check(t.returncode == 0, "cargo test of the harness")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in [w["name"] for w in bench["workloads"]]:
        rc, lines, a = run(w, TUNING_SEED, args.seconds, 0)
        check(rc == 0, f"{w}: exit code {rc}")
        check_result(w, lines, a, e2e)
        rc, lines, b = run(w, TUNING_SEED, args.seconds, 0)
        if a and b:
            for k in VIRTUAL:
                check(a["metrics"][k]["value"] == b["metrics"][k]["value"],
                      f"{w}: {k} bit-identical across two runs of one seed")
        rc, lines, tr = run(w, TUNING_SEED, args.seconds, 1)
        check(rc == 0, f"{w} traced: exit code {rc}")
        check_result(w + " traced", lines, tr, layer)
        check(any(l.startswith("tracing overhead:") for l in lines), f"{w}: tracing overhead reported")
        if tr and w.startswith("fault-"):
            check(tr["metrics"]["core.faults_per_op"]["value"] >= 0.99, f"{w}: faults per op >= 0.99")
        rc, lines, h = run(w, HELD_OUT_SEED, args.seconds, 0)
        check(rc == 0 and h is not None and h["correct"], f"{w}: held-out seed passes every gate")
        print(f"{w}: checked")

    # Bad arguments must fail without a result line.
    rc, lines, res = run("no-such-workload", 1, 1, 0)
    check(rc != 0 and res is None, "unknown workload is refused")

    print("selftest:", "FAILED" if failures else "ok", f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
