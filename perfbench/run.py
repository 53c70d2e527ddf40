#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
repository's libraries and the perfbench executable (Release) under
.bench_build/ in the checkout; later calls only re-check the build.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  With --trace 1 the executable writes a Chrome trace under
.bench_build/traces/, and this script adds the metrics derived from its
spans (core.round_s, core.stage_a_s, core.serial_s, shard.frames,
shard.recv_wait_s).  Exits non-zero, printing no result, when the sources
are missing or the build fails, and non-zero when an answer check fails.
"""

import argparse
import bisect
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("low_load_pull", "high_load_push", "service_mixed", "shard_socket")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then build the perfbench target; logs go to stderr."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no repository sources to build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def spans(trace_path):
    """The complete ('X') events of a Chrome trace as (name, start, end) in us."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    return [(e["name"], e["ts"], e["ts"] + e["dur"]) for e in events if e["ph"] == "X"]


def span_metrics(trace):
    """Per-solve round, stage-A and serial time, and shard frame figures.

    Only spans inside a window span (a measured solve, or a service epoch)
    count.  Stage-A spans run on several threads at once, so their share
    of a round is the union of their intervals; serial time is round time
    that no stage-A span covers.
    """
    events = spans(trace["file"])
    windows = sorted((s, e) for n, s, e in events if n == trace["window_span"])
    starts = [s for s, _ in windows]
    slack = 0.002  # the trace prints microseconds with three decimals

    def inside(start, end):
        i = bisect.bisect_right(starts, start + slack) - 1
        return i >= 0 and end <= windows[i][1] + slack

    def picked(name):
        return [(s, e) for n, s, e in events if n == name and inside(s, e)]

    rounds = picked(trace["round_span"])
    stage_a = sorted(picked(trace["stage_a_span"])) if trace["stage_a_span"] else []
    covered = 0.0
    cur_s = cur_e = None
    for s, e in stage_a:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    frames = picked("shard.frame_recv")

    units = max(trace["units"], 1)
    round_us = sum(e - s for s, e in rounds)
    return {
        "core.round_s": (round_us / units / 1e6, "s"),
        "core.stage_a_s": (covered / units / 1e6, "s"),
        "core.serial_s": (max(round_us - covered, 0.0) / units / 1e6, "s"),
        "shard.frames": (len(frames) / units, "count"),
        "shard.recv_wait_s": (sum(e - s for s, e in frames) / units / 1e6, "s"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    work = root / ".bench_build"
    exe = build(root, work / "perfbench")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = work / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    trace = result.pop("trace", None)
    if trace is not None and proc.returncode == 0:
        for name, (value, unit) in span_metrics(trace).items():
            result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
