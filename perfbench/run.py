#!/usr/bin/env python3
"""End-to-end benchmark of the KV-CSD simulator.

    python3 perfbench/run.py --workload ingest|serve|query --seed N \\
        --seconds S --trace 0|1

Builds perfbench/ (and with it the repository's src/) into
.bench_build/perfbench, then runs the workload binary repeatedly for about
S seconds of wall time, at least three times. Every run rebuilds the
testbed and its data from the seed, so each run repeats the set-up.

Simulated-time, amplification and count metrics are deterministic: every
run of one seed must report them bit-identical, or the result is marked
incorrect. Host-clock metrics (host_s, setup_s, peak_rss_mb and the
per-phase host seconds) are reported as the median over the runs.

With --trace 1 the runs alternate between traced and untraced; the
per-layer metrics come from the traced runs, and
sim.trace_overhead_share is the traced runs' median host_s over the
untraced runs' median, minus one. Spans of the last traced run are
written to .bench_out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every run succeeded and every answer matched its host-side model.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "kvcsd_perfbench")
WORKLOADS = ("ingest", "serve", "query")
MIN_RUNS = 3
MIN_TRACE_RUNS = 4  # two traced, two untraced
MAX_RUNS = 15
RUN_TIMEOUT_S = 150
# Host-clock metrics: noisy, reported as medians, exempt from the
# bit-identical check.
HOST_E2E = {"host_s", "setup_s", "peak_rss_mb"}


def is_host_layer(name):
    return name.startswith("sim.host_")


def build():
    """Configures and builds the benchmark; False on any failure."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", "4"]):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run_once(workload, seed, trace, extra=()):
    """One workload run; returns (exit code, parsed JSON line or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.jsonl")
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--trace={1 if trace else 0}", f"--trace_out={spans}", *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run timed out", file=sys.stderr)
        return 1, None
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def identical(runs, section, names):
    """Names whose value differs between runs (must be none)."""
    return sorted(n for n in names
                  if len({r[section][n] for r in runs}) > 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if not build():
        return 2

    started = time.monotonic()
    runs, traced, untraced = [], [], []
    correct = True
    min_runs = MIN_TRACE_RUNS if args.trace else MIN_RUNS
    while len(runs) < MAX_RUNS:
        elapsed = time.monotonic() - started
        per_run = elapsed / len(runs) if runs else 0.0
        if len(runs) >= min_runs and elapsed + per_run > args.seconds:
            break
        with_spans = bool(args.trace) and len(runs) % 2 == 0
        code, result = run_once(args.workload, args.seed, with_spans)
        if result is None:
            print(f"{args.workload}: run produced no result (exit {code})",
                  file=sys.stderr)
            return 1
        if code != 0 or result["failed"] or result["mismatches"]:
            correct = False
        runs.append(result)
        (traced if with_spans else untraced).append(result)

    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    missing = sorted({n for r in runs for n in e2e_names if n not in r["e2e"]}
                     | {n for r in traced for n in layer_names
                        if n not in r["layer"]
                        and n != "sim.trace_overhead_share"})
    if missing:
        print(f"{args.workload}: metrics missing from the run: {missing}",
              file=sys.stderr)
        return 1

    # Determinism: simulated metrics repeat exactly across runs of a seed.
    sim_e2e = [n for n in e2e_names if n not in HOST_E2E]
    diverged = identical(runs, "e2e", sim_e2e)
    if traced:
        diverged += identical(
            traced, "layer",
            [n for n in layer_names
             if not is_host_layer(n) and n != "sim.trace_overhead_share"])
    if diverged:
        print(f"{args.workload}: nondeterministic metrics: {diverged}",
              file=sys.stderr)
        correct = False

    def value(source, section, name):
        values = [r[section][name] for r in source]
        return statistics.median(values)

    metrics = {}
    if args.trace:
        for name in layer_names:
            if name == "sim.trace_overhead_share":
                v = (value(traced, "e2e", "host_s") /
                     value(untraced, "e2e", "host_s") - 1.0)
            else:
                v = value(traced, "layer", name)
            metrics[name] = {"value": v, "unit": units[name]}
    else:
        for name in e2e_names:
            metrics[name] = {"value": value(runs, "e2e", name),
                             "unit": units[name]}

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs "
          f"({len(traced)} traced), {time.monotonic() - started:.1f} s")
    for key, val in sorted(runs[0]["info"].items()):
        print(f"  info {key} = {val}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] + r["mismatches"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
