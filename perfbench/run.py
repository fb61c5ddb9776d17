#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload svc-open|churn|dpor|all \
        --seed N --seconds S --trace 0|1

It builds perfbench/bench.exe from source with dune (build directory
.bench_build), then runs the workload in fresh processes and prints a
table, a context line and, as the last line, one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json:
setup_s and heap_mb as the median over the processes, the others as the
best process (see PROCS).  With --trace 1 they are the per_layer
metrics, from traced processes that alternate with untraced ones; a
layer the workload never calls reports 0.  Any build or process
failure exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["svc-open", "churn", "dpor"]
BUILD_DIR = ".bench_build"
# Fresh processes per run.  setup_s and heap_mb are the median over the
# processes.  The host alternates, for tens of seconds at a time, between
# a fast and a slow regime up to 40% apart (memory-bound loops show it,
# an ALU loop does not), so the other end-to-end metrics report the best
# process: the program's speed when the host lets it run.  A metric whose
# processes report per-window values ("windows.<name>" in their context)
# is the median over the windows of all processes; any other metric the
# median over the processes.
PROCS = {"svc-open": 16, "churn": 20, "dpor": 12}
MEDIAN_METRICS = ("setup_s", "heap_mb")
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 840.0


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(1)


def build(here_rel):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./" + here_rel + "/bench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", here_rel, "bench.exe")


def child(exe, workload, seed, seconds, traced, spans, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", "%.3f" % seconds, "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the %s process" % workload)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("%s process timed out" % workload)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s process exited with %d" % (workload, r.returncode))
    return json.loads(lines[-1])


def first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        out = r.stdout.strip().splitlines()
        return out[0] if r.returncode == 0 and out else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def best(xs, better):
    return max(xs) if better == "higher" else min(xs)


def run_workload(exe, spec, workload, seed, seconds, trace, deadline):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    spans_dir = os.path.join(BUILD_DIR, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    plain, traced = [], []
    # Trace runs alternate untraced and traced processes at half the
    # slice each; the untraced ones give the tracing overhead.
    slots = PROCS[workload] * (2 if trace else 1)
    for k in range(slots):
        is_traced = bool(trace) and k % 2 == 1
        # the first traced process of a run writes its spans
        spans = (os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
                 if k == 1 and is_traced else None)
        out = child(exe, workload, seed * 1000 + k, seconds / slots, is_traced,
                    spans, deadline)
        (traced if is_traced else plain).append(out)
    measured = traced if trace else plain
    procs = plain + traced

    def agg(runs, name):
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not vals:
            return None, []
        pooled = [float(x) for r in runs
                  for x in r["context"].get("windows." + name, "").split()]
        if pooled:
            return statistics.median(pooled), vals
        if name in better and name not in MEDIAN_METRICS:
            return best(vals, better[name]), vals
        return statistics.median(vals), vals

    metrics = {}
    if not trace:
        for name in e2e:
            v, vals = agg(plain, name)
            if v is None:
                fail("%s did not report %s" % (workload, name))
            metrics[name] = (v, vals)
    else:
        # Every layer value comes from one traced process, the one with
        # the best p50_us, so that split times add up; the values of the
        # other traced processes are printed beside it.
        rep = min(traced, key=lambda r: r["metrics"]["p50_us"]["value"])
        for name in layer:
            if name.startswith("trace.overhead."):
                # 0 where the traced processes do not measure the metric
                base = name[len("trace.overhead."):]
                a, _ = agg(traced, base)
                b, _ = agg(plain, base)
                metrics[name] = (0.0 if a is None else a - b, [])
            elif name.startswith("run."):
                v, vals = agg(plain, name[len("run."):])
                metrics[name] = (0.0 if v is None else v, vals)
            else:
                got = rep["metrics"].get(name)
                metrics[name] = (got["value"] if got else 0.0, agg(traced, name)[1])
    ctx = {k: v for k, v in measured[0]["context"].items()
           if not k.startswith("windows.")}
    ctx.update(workload=workload, seed=str(seed), processes=str(len(procs)),
               seconds_per_process="%.3f" % (seconds / slots),
               trace=str(trace))
    print("== %s  seed %d  trace %d  %d processes x %.2f s"
          % (workload, seed, trace, len(procs), seconds / slots))
    for name, (v, vals) in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (
            name, v, units[name],
            " ".join("%.4g" % x for x in vals) if len(vals) > 1 else ""))
    # Metrics the processes report beyond the declared ones, for reading.
    for name in plain[0]["metrics"]:
        if name not in metrics:
            v, vals = agg(plain, name)
            print("  %-40s %14.6g %-6s %s  (untraced, not declared)" % (
                name, v, plain[0]["metrics"][name]["unit"],
                " ".join("%.4g" % x for x in vals)))
    print("  samples per process: %s" % ctx.get("samples", "?"))
    result = {
        "correct": all(r["correct"] for r in procs),
        "attempted": sum(r["attempted"] for r in procs),
        "failed": sum(r["failed"] for r in procs),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, (v, _) in metrics.items()},
    }
    return result, ctx


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    start = time.monotonic()
    here_rel = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if here_rel.startswith(".."):
        fail("run from the root of the repository")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    exe = build(here_rel)
    deadline = time.monotonic() + RUN_LIMIT_S
    context = {
        "flambda": first_line(["ocamlfind", "ocamlopt", "-config-var", "flambda"]),
        "commit": first_line(["git", "rev-parse", "--short", "HEAD"])
        if os.path.isdir(".git") else "none",
        "source_digest": source_digest(),
        "build_s": "%.1f" % (time.monotonic() - start),
    }
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = []
    for w in names:
        res, ctx = run_workload(exe, spec, w, a.seed, a.seconds, a.trace,
                                deadline)
        ctx.update(context)
        ctx["oversubscribed"] = ctx.get("oversubscribed", "?")
        print("context " + json.dumps(ctx, sort_keys=True))
        results.append((w, res))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, n): m for w, r in results
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
