#!/usr/bin/env python3
"""Repository benchmark: builds the library and the harness from source, runs
one workload, checks its outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 prints the per-layer metrics (a traced replay of
the same arrivals). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full result, with the
output checks and a provenance block, is kept under .bench_build/perfbench/
results/. Exits non-zero when the build fails, when the harness fails, or
when any output check fails (after printing the result).

    python3 perfbench/run.py --selftest

builds and runs the harness self-tests instead.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS_TIMEOUT_S = 170
UNGATED_SUMMARY = (
    "serving.capacity_qps", "serving.latency_p10_ms",
    "serving.latency_p50_ms", "serving.latency_tail_ms",
    "serving.latency_tail_pct",
    "serving.read_latency_p50_ms", "serving.read_latency_tail_ms",
    "serving.read_latency_tail_pct", "setup.wall_s",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_provenance():
    """Git revision when available (a plain checkout has none) and a digest
    of every library and benchmark source, which identifies the code either
    way."""
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode

    for name in ("workload", "seed", "seconds", "trace"):
        if getattr(args, name) is None:
            parser.error("--%s is required" % name)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("BENCHMARK.json not found at the repository root")
        return 1
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build("perfbench_harness"):
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = BUILD / "runs" / ("%s-%d" % (tag, os.getpid()))
    results = BUILD / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    out_path = workdir / "result.json"
    cmd = [str(BUILD / "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % HARNESS_TIMEOUT_S)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not out_path.exists():
        log("harness failed with exit code %d" % proc.returncode)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    result = json.loads(out_path.read_text())
    result["provenance"].update(source_provenance())
    result["provenance"]["wall_s"] = time.monotonic() - started
    result["provenance"]["command"] = cmd[1:]

    metrics = {}
    source = result["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        value = source.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("metric %s missing or not a number: %r" % (m["name"], value))
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for trace_file in workdir.glob("trace-*.json"):
        kept = results / (tag + ".trace.json")
        trace_file.replace(kept)
        result["trace_file"] = str(kept.relative_to(ROOT))
    raw = Path(str(out_path) + ".raw")
    if raw.exists():
        raw.replace(results / (tag + ".raw.json"))
    (results / (tag + ".json")).write_text(json.dumps(result, indent=2) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    prov = result["provenance"]
    print("provenance: nproc=%s threads=%s/%s valid=%s cpu=%r build=%s "
          "flags=%r rev=%s src=%s seed=%d" % (
              prov["nproc"], prov["threads_observed"], prov["threads_budget"],
              prov["valid"], prov["cpu_model"], prov["build_type"],
              prov["cxx_flags"].strip(), prov["git_revision"],
              prov["source_sha256"][:12], args.seed))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print("%-*s %14.6g %s" % (width, name, m["value"], m["unit"]))
    if not args.trace:
        # Measured on every run but not gated: other tenants of a shared
        # host move them by more than any bound (see METRICS.md).
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("ungated:")
        for name in UNGATED_SUMMARY:
            value = result["per_layer"].get(name)
            if value:
                print("  %-32s %14.6g %s" % (name, value, units.get(name, "")))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
