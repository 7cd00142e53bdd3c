#!/usr/bin/env python3
"""Self-check of the benchmark, at a tiny size.

For every workload run.py knows (those in BENCHMARK.json and
``completion-solar``) it runs ``run.py --size tiny`` once untraced and twice
traced with one seed, and asserts that

* each run exits 0 and its last line is a correct result with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the untraced run prints every end-to-end metric and the traced runs every
  per-layer metric of BENCHMARK.json, each with the unit BENCHMARK.json gives;
* every count (unit ``count`` or ``bytes_computed``) and ``metrics.err``
  repeat exactly between the two traced runs, and solver iterations were
  traced at all.

It also runs the benchmark in a copy holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.  Run from the
repository root; takes about a minute::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes_computed")


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc, label):
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: not correct: {result}")
    return result["metrics"]


def check_units(metrics, spec, label):
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != expected:
        raise AssertionError(f"{label}: printed metrics {printed} differ from "
                             f"BENCHMARK.json {expected}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number: {m['value']!r}")


def check_tracer_threads(workers=8, spans=2000):
    """Many threads recording nested spans at a short switch interval must
    lose no span and keep every parent in its own thread's operation."""
    import threading

    import numpy as np
    from tracing import NAMES, Tracer

    tracer = Tracer()
    tracer.begin_op("op", 0)

    def record():
        for _ in range(spans):
            tracer.call("cli.point", tracer.call, "projections.svd", sum, ())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=record) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    if any(t.is_alive() for t in threads):
        raise AssertionError("tracer stress: a worker did not finish")
    cols = tracer.arrays()
    outer = cols["name"] == NAMES.index("cli.point")
    inner = ~outer
    if tracer.span_count != 2 * workers * spans or outer.sum() != workers * spans:
        raise AssertionError(f"tracer stress: {tracer.span_count} spans recorded")
    parents = cols["parent"][inner]
    if not (np.all(outer[parents]) and np.all(cols["self"] >= 0)
            and np.all(cols["end"] >= cols["start"])):
        raise AssertionError("tracer stress: inconsistent parents or times")
    if len(np.unique(parents)) != workers * spans:
        raise AssertionError("tracer stress: two inner spans share a parent")


def check_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "completion-solar", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        check_units(result_of(run(ROOT, workload, 0), f"{workload} untraced"),
                    bench["end_to_end"], f"{workload} untraced")
        traced = []
        for attempt in (1, 2):
            label = f"{workload} traced #{attempt}"
            metrics = result_of(run(ROOT, workload, 1), label)
            check_units(metrics, bench["per_layer"], label)
            if not metrics["solvers.iters"]["value"] > 0:
                raise AssertionError(f"{label}: no solver iterations were traced")
            traced.append(metrics)
        for name, m in traced[0].items():
            if (m["unit"] in EXACT_UNITS or name == "metrics.err") \
                    and m["value"] != traced[1][name]["value"]:
                raise AssertionError(f"{workload}: {name} differs between traced runs: "
                                     f"{m['value']!r} vs {traced[1][name]['value']!r}")
        print(f"ok  {workload}")
    check_tracer_threads()
    print("ok  tracer keeps every span under concurrent threads")
    check_bare_directory()
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
