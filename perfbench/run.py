#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fault-fit|fault-evict|kv-ycsb-a> \
        --seed <n> --seconds <s> --trace <0|1>

An untraced run (`--trace 0`) starts the harness PROCESSES times, one
after another, each measuring for seconds/PROCESSES, and reports for every
host-clock metric the median over the processes. On a shared virtual
machine a process's host speed depends on the memory it happens to get
(consecutive processes differ by up to a third), so one process cannot
give a steady figure however long it runs. Virtual-clock metrics are
deterministic for a seed: every process must report them bit-for-bit
equal, or the run fails. A traced run (`--trace 1`) is one process.

Cargo's output goes to standard error, so the last line of standard
output is the JSON result. The exit code is 0 only when every correctness
gate passed. Builds go to $CARGO_TARGET_DIR (default `.bench_build` in the
working directory).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 5
HOST = ["setup_s", "host_kops", "peak_rss_mb"]


def build(env):
    return subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        timeout=850,
    ).returncode


def arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv and argv.index(flag) + 1 < len(argv) else None


def run_one(exe, argv, env, timeout):
    p = subprocess.run([exe] + argv, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return p.returncode, lines, result


def aggregate(results):
    """Host metrics: median over processes. Virtual metrics: must agree."""
    first = results[0]
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    notes = []
    for name, m in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in HOST:
            value = statistics.median(values)
            notes.append(f"{name}: median of {values}")
        else:
            value = values[0]
            if any(v != value for v in values):
                merged["correct"] = False
                notes.append(f"GATE FAILED: {name} differs between processes: {values}")
        merged["metrics"][name] = {"value": value, "unit": m["unit"]}
    return merged, notes


def main() -> int:
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if build(env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")

    seconds = arg(argv, "--seconds")
    if arg(argv, "--trace") == "1" or seconds is None:
        rc, lines, result = run_one(exe, argv, env, 175)
        print("\n".join(lines))
        if result is not None:
            print(json.dumps(result))
        return rc
    try:
        per = float(seconds) / PROCESSES
    except ValueError:
        print(f"perfbench: bad --seconds {seconds}", file=sys.stderr)
        return 2
    i = argv.index("--seconds")
    sub = argv[:i + 1] + [repr(per)] + argv[i + 2:]
    results, rc = [], 0
    for k in range(PROCESSES):
        code, lines, result = run_one(exe, sub, env, 170 / PROCESSES)
        if result is None:
            sys.stderr.write("\n".join(lines) + "\n")
            print(f"perfbench: process {k} gave no result (exit {code})", file=sys.stderr)
            return code or 1
        if k == 0:
            print(f"process 0 of {PROCESSES}:")
            print("\n".join(lines))
        rc = rc or code
        results.append(result)
    merged, notes = aggregate(results)
    print(f"over {PROCESSES} processes:")
    for n in notes:
        print(n)
    for name, m in merged["metrics"].items():
        print(f"{name:<34} {m['value']!r:>18} {m['unit']}")
    print(json.dumps(merged))
    return rc if merged["correct"] else (rc or 1)


if __name__ == "__main__":
    sys.exit(main())
