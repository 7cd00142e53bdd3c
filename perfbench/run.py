#!/usr/bin/env python3
"""Benchmark of ``plr``: end-to-end solve metrics and per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload recovery-solar --seed 1 --seconds 45 --trace 0

One process runs one workload as a closed loop: the next operation starts
only after the previous one has ended.  The run sets its inputs up, runs an
untimed warm-up operation on each instance (the first is printed as
``warmup_s``), then runs timed operations for ``--seconds`` seconds,
checking every output.  It then sets its inputs up again several times
(``setup_s`` is the median set-up) and last runs any untimed diagnostic
checks the workload has.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from spans recorded
around calls into each ``plr`` module (see ``tracing.py``) and writes the
spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS threads are left
at the machine's default and recorded in the ``env`` line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "wall_s": "s",
    "wall_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "projections.svd.calls": "count",
    "projections.svd.s": "s",
    "projections.alt.calls": "count",
    "projections.alt.sweeps": "count",
    "projections.alt.s": "s",
    "projections.feasible.s": "s",
    "sensing.forward.calls": "count",
    "sensing.forward.s": "s",
    "sensing.adjoint.calls": "count",
    "sensing.adjoint.s": "s",
    "sensing.bytes_per_apply": "bytes_computed",
    "sensing.build.s": "s",
    "sensing.unpack.s": "s",
    "sensing.sample.s": "s",
    "objectives.value.calls": "count",
    "objectives.value.s": "s",
    "objectives.gradient.calls": "count",
    "objectives.gradient.s": "s",
    "objectives.qmodel.s": "s",
    "solvers.iters": "count",
    "solvers.trials": "count",
    "solvers.accept_ratio": "ratio",
    "solvers.self_s": "s",
    "solvers.aborts": "count",
    "synthdata.s": "s",
    "metrics.err": "normalized",
    "cli.points": "count",
    "cli.ground_truth.calls": "count",
    "cli.ground_truth.s": "s",
    "cli.point.s": "s",
    "cli.parallel_eff": "ratio",
    "cli.write.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# After the timed loop, set-up is repeated at least this often and for at
# least this long.  In a fresh process the first few dozen recovery-solar
# set-ups ran up to three times slower than later ones, so the run builds
# its inputs only once before the warm-up and times set-up once it is warm.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0

# Layers whose work is set-up work in some workloads and operation work in
# others; their times are reported per set-up plus per operation.
SETUP_LAYERS = ("sensing.build", "sensing.unpack", "sensing.sample", "synthdata")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-check")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads(numpy):
    """Threads the BLAS bundled with numpy will use, or None if not found."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class Run:
    """One workload's set-up, warm-up pass and timed closed loop."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.traced = tracer is not None
        self.instances = None
        self.setup_times = []
        self.reference = {}       # instance index -> digest of its first output
        self.ops = []             # (phase, seconds, CheckResult)

    def setup(self, repeats=1, seconds=0.0):
        """Build the inputs at least ``repeats`` times and for at least
        ``seconds``, each time replacing the last set-up's inputs.

        The old inputs are dropped first, so two set-ups never share memory.
        """
        times = []
        while len(times) < repeats or sum(times) < seconds:
            if self.traced:
                self.tracer.begin_op("setup", len(self.setup_times))
            self.instances = None
            start = time.perf_counter()
            self.instances = self.wl.setup()
            times.append(time.perf_counter() - start)
            self.setup_times.append(times[-1])
            if self.traced:
                self.tracer.end_op()

    def operation(self, phase, n):
        from workloads import CheckResult

        i = n % len(self.instances)
        inst = self.instances[i]
        if self.traced:
            self.tracer.begin_op(phase, n)
            run = lambda: self.tracer.call("op", self.wl.run, inst)
        else:
            run = lambda: self.wl.run(inst)
        start = time.perf_counter()
        error = None
        try:
            out = run()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        if self.traced:
            self.tracer.end_op()
        if error is not None:
            result = CheckResult(math.nan, [f"operation raised {error!r}"], None)
        else:
            result = self.wl.check(inst, out)
            first = self.reference.setdefault(i, result.digest)
            if result.digest != first:
                result.problems.append(
                    f"output of instance {i} differs from its first solve in this run")
        for problem in result.problems:
            print(f"FAILED {phase} {n}: {problem}", file=sys.stderr)
        self.ops.append((phase, seconds, result))

    def warm_up(self):
        for n in range(len(self.instances)):
            self.operation("warmup", n)

    def timed(self, phase, seconds):
        deadline = time.perf_counter() + seconds
        n = 0
        while n == 0 or time.perf_counter() < deadline:
            self.operation(phase, n)
            n += 1

    def times(self, phase):
        return [s for p, s, _ in self.ops if p == phase]

    def results(self, phase=None):
        return [r for p, _, r in self.ops if phase is None or p == phase]


def tail(values):
    """Highest percentile with at least 10 samples beyond it, as (value, pct).

    With 10 samples or fewer no such percentile exists and the maximum is
    reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run, attempted, failed, peak_rss_mb):
    op_times = run.times("op")
    tail_value, tail_pct = tail(op_times)
    metrics = {
        "wall_s": statistics.median(op_times),
        "wall_s.tail": tail_value,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = [f"wall_s over {len(op_times)} operations; wall_s.tail is p{tail_pct:.1f}",
             f"setup_s over {len(run.setup_times)} set-ups",
             f"warmup_s = {run.times('warmup')[0]!r} s (first operation; not bounded)"]
    return metrics, notes


def per_layer(run, tracer, untraced_median):
    """Per-layer metrics from the recorded spans.

    Counts are per operation over the warm-up pass (one operation per
    instance, so they repeat exactly for a seed).  Times are self times: the
    median over traced timed operations of what each layer spent per
    operation, plus, for SETUP_LAYERS, the median per set-up.
    """
    import numpy as np
    from tracing import ABORTED, NAMES

    cols = tracer.arrays()
    kinds = np.array([k for k, _ in tracer.ops] + ["none"])
    span_kind = kinds[cols["op"]]   # op == -1 maps to "none"
    name_of = {n: i for i, n in enumerate(NAMES)}

    def sel(phase, name):
        return (span_kind == phase) & (cols["name"] == name_of[name])

    def per_op(phase, name, column="self"):
        """Per-operation sums of ``column`` (span count if None) over ``name``."""
        ids = [i for i, (k, _) in enumerate(tracer.ops) if k == phase]
        mask = sel(phase, name)
        weights = None if column is None else cols[column][mask]
        sums = np.bincount(cols["op"][mask], weights=weights, minlength=len(tracer.ops))
        return sums[ids].astype(float)

    n_warm = len(run.times("warmup"))

    def warm_count(name):
        return int(sel("warmup", name).sum()) / n_warm

    def warm_attr(name):
        attrs = cols["attr"][sel("warmup", name)]
        return int(attrs[attrs > 0].sum()) / n_warm

    def op_time(name):
        return float(np.median(per_op("op", name)))

    def layer_time(name):
        value = op_time(name)
        if name in SETUP_LAYERS:
            value += float(np.median(per_op("setup", name)))
        return value

    iters = warm_attr("solvers.pmlsvt") + warm_attr("solvers.fixed_step")
    trials = warm_count("projections.svd") + warm_attr("solvers.fixed_step")
    aborts = sum(int((cols["attr"][sel("warmup", s)] == ABORTED).sum())
                 for s in ("solvers.pmlsvt", "solvers.fixed_step")) / n_warm
    applies = cols["attr"][sel("warmup", "sensing.forward") | sel("warmup", "sensing.adjoint")]

    op_dur = per_op("op", "op", "dur")
    point_dur = per_op("op", "cli.point", "dur")
    points = per_op("op", "cli.point", None)
    point_mean = point_dur / np.maximum(points, 1)
    parallel_eff = point_dur / (run.wl.threads * op_dur)

    traced_median = statistics.median(run.times("op"))
    return {
        "projections.svd.calls": warm_count("projections.svd"),
        "projections.svd.s": op_time("projections.svd"),
        "projections.alt.calls": warm_count("projections.alt"),
        "projections.alt.sweeps": warm_attr("projections.alt"),
        "projections.alt.s": op_time("projections.alt"),
        "projections.feasible.s": op_time("projections.feasible"),
        "sensing.forward.calls": warm_count("sensing.forward"),
        "sensing.forward.s": op_time("sensing.forward"),
        "sensing.adjoint.calls": warm_count("sensing.adjoint"),
        "sensing.adjoint.s": op_time("sensing.adjoint"),
        "sensing.bytes_per_apply": int(applies.max()) if applies.size else 0,
        "sensing.build.s": layer_time("sensing.build"),
        "sensing.unpack.s": layer_time("sensing.unpack"),
        "sensing.sample.s": layer_time("sensing.sample"),
        "objectives.value.calls": warm_count("objectives.value"),
        "objectives.value.s": op_time("objectives.value"),
        "objectives.gradient.calls": warm_count("objectives.gradient"),
        "objectives.gradient.s": op_time("objectives.gradient"),
        "objectives.qmodel.s": op_time("objectives.qmodel"),
        "solvers.iters": iters,
        "solvers.trials": trials,
        "solvers.accept_ratio": iters / trials if trials else 0.0,
        "solvers.self_s": op_time("solvers.pmlsvt") + op_time("solvers.fixed_step"),
        "solvers.aborts": aborts,
        "synthdata.s": layer_time("synthdata"),
        "metrics.err": statistics.fmean(r.err for r in run.results("warmup")),
        "cli.points": warm_count("cli.point"),
        "cli.ground_truth.calls": warm_count("cli.ground_truth"),
        "cli.ground_truth.s": op_time("cli.ground_truth"),
        "cli.point.s": float(np.median(point_mean)),
        "cli.parallel_eff": float(np.median(parallel_eff)),
        "cli.write.s": op_time("cli.write"),
        "trace.wall_s": traced_median,
        "trace.overhead_s": traced_median - untraced_median,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "plr", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "data", "solar48.pgm"))):
        print(f"perfbench: {ROOT} has no plr sources (src/plr) or fixtures (data/)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {wl.name}, seed {args.seed}, size {args.size}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run = Run(wl, tracer)
    run.setup()
    run.warm_up()

    if tracer:
        # half untraced, half traced: the difference is the tracing overhead
        tracer.uninstall()
        run.traced = False
        run.timed("untraced", args.seconds / 2)
        tracer.install()
        run.traced = True
        run.timed("op", args.seconds / 2)
    else:
        run.timed("op", args.seconds)
    # before the repeated set-ups, whose inputs land on a heap the operations
    # have fragmented and so would count the benchmark's memory too
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.setup(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
    if tracer:
        tracer.uninstall()
        run.traced = False

    # untimed checks of behaviour too slow to check on every operation
    diagnose = getattr(wl, "diagnostics", None)
    named = diagnose(run.instances) if diagnose else {}

    results = run.results()
    failed = sum(not r.ok for r in results)
    if tracer:
        metrics = per_layer(run, tracer, statistics.median(run.times("untraced")))
        units = PER_LAYER
        os.makedirs(workloads.OUT, exist_ok=True)
        spans = os.path.join(workloads.OUT, f"spans-{wl.name}-{args.seed}.npz")
        tracer.save(spans)
        notes = [f"{tracer.span_count} spans written to {os.path.relpath(spans, ROOT)}"]
    else:
        metrics, notes = end_to_end(run, len(results), failed, peak_rss_mb)
        units = END_TO_END

    notes.append(f"failed_frac = {failed}/{len(results)}")
    errs = [r.err for r in run.results("warmup")]
    notes.append(f"err = {statistics.fmean(errs)!r} (mean over the warm-up pass)")
    for check, value in {**results[0].named, **named}.items():
        notes.append(f"check {check} = {str(value).lower()}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
