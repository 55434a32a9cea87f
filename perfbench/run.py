#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the iDM sources in src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload and prints its result as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
BENCHMARK.json "end_to_end" set with --trace 0 and its "per_layer" set with
--trace 1; a per-layer metric the workload does not exercise reads 0.

--strict (for the benchmark's own tests) also fails the run when a
per-layer metric the workload exercises is not reported by the binary, or
reads 0 where it must not. Other extra flags are passed to the benchmark
binary (--small, --out DIR, --selftest). Exits non-zero without a result
when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


# Per-layer metrics that only churn exercises: search makes no writes and
# runs with the result cache off. Each workload exercises every other
# per-layer metric.
CHURN_ONLY = ("iql.cache_", "rvm.sync_ms.", "rvm.views_per_change.",
              "rvm.visible", "rvm.changes_per_s", "vfs.", "email.",
              "storage.", "sub.")
# Exercised metrics that may read 0 or less: Q1-Q3 have no path to expand;
# a hit, survival or skip ratio is 0 when nothing hits, survives or skips;
# a residual is below 0 when the replayed index calls take longer than
# they did inside the query.
MAY_BE_ZERO = ("iql.expanded_views.Q1", "iql.expanded_views.Q2",
               "iql.expanded_views.Q3", "iql.cache_hit_ratio",
               "iql.cache_survival_ratio", "sub.pump_skip_ratio",
               "iql.residual_ms.")


def exercised(workload, name):
    return workload == "churn" or not name.startswith(CHURN_ONLY)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def collect(declared, reported, workload, trace, strict):
    """The declared metrics with their values from \p reported (the
    binary's metrics). Returns (metrics, error); error is "" when fine."""
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in reported:
            value = reported[name]["value"]
            if strict and value <= 0 and not name.startswith(MAY_BE_ZERO):
                return None, "%s reads %r on %s" % (name, value, workload)
            metrics[name] = {"value": value, "unit": metric["unit"]}
        elif not trace:
            return None, "end-to-end metric %s missing" % name
        elif exercised(workload, name):
            if strict:
                return None, "%s is not reported by %s" % (name, workload)
            print("perfbench: %s is not reported by %s; it reads 0"
                  % (name, workload), file=sys.stderr)
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            metrics[name] = {"value": 0, "unit": metric["unit"]}
    return metrics, ""


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main(argv):
    strict = "--strict" in argv
    argv = [arg for arg in argv if arg != "--strict"]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                          stderr=sys.stderr, cwd=ROOT, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    if "--selftest" in argv:
        print(lines[-1])
        return 0
    result = json.loads(lines[-1])
    trace = flag(argv, "--trace") == "1"
    metrics, error = collect(declared_metrics(trace), result["metrics"],
                             flag(argv, "--workload"), trace, strict)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 4
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
