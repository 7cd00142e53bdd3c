"""Span tracing of ``plr`` layers from outside the package.

The tracer replaces the module attributes that callers resolve at call time
(for example ``plr.solvers.svd_factors`` or ``plr.objectives.apply_forward``)
and a few class methods with wrappers that record one span per call.  No code
under ``src/`` is changed; :meth:`Tracer.uninstall` restores every original.

A span holds its name, start, end, parent span (the innermost open span of
the same thread) and the operation it belongs to.  Spans are kept in memory in
one flat array of doubles, six per span, so a million of them stay cheap, and
are written out once, by :meth:`Tracer.save`, at the end of the run.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

# Span names; index into this tuple is what the arrays store.
NAMES = (
    "op",
    "projections.svd", "projections.alt", "projections.feasible",
    "sensing.forward", "sensing.adjoint", "sensing.build", "sensing.unpack",
    "sensing.sample",
    "objectives.value", "objectives.gradient", "objectives.qmodel",
    "solvers.pmlsvt", "solvers.fixed_step",
    "synthdata",
    "cli.ground_truth", "cli.point", "cli.write",
)
_INDEX = {name: i for i, name in enumerate(NAMES)}

# Attribute value marking a solver span that ended in SolverAbort.
ABORTED = -1

# Fields of one span in the flat buffer; integers are stored exactly as doubles.
FIELDS = ("parent", "name", "op", "start", "end", "attr")
_WIDTH = len(FIELDS)
_END = FIELDS.index("end")
_ATTR = FIELDS.index("attr")


def _sweeps(args, outcome):
    """Sweeps an alternating projection ran."""
    return outcome[1] if isinstance(outcome, tuple) else 0


def _apply_bytes(args, outcome):
    """Bytes of the float64 indicator matrix a sensing apply streams."""
    ensemble = args[0]
    return ensemble.m * ensemble.d1 * ensemble.d2 * 8


def _iterations(args, outcome):
    """Iterations a solver ran, or ABORTED if it raised SolverAbort."""
    from plr.solvers import SolverAbort

    if isinstance(outcome, SolverAbort):
        return ABORTED
    return 0 if isinstance(outcome, BaseException) else outcome[1].iterations_run


class Tracer:
    """Thread-safe in-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # "attr" is per span: solver iterations (or ABORTED),
        # alternating-projection sweeps, or computed bytes per sensing apply
        self._buf = array("d")
        self.ops = []          # (kind, index) per operation id
        self.current_op = -1   # set by the main thread; one operation at a time
        self._patches = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, kind, index):
        self.ops.append((kind, index))
        self.current_op = len(self.ops) - 1

    def end_op(self):
        """Spans recorded from here on (output checks) belong to no operation."""
        self.current_op = -1

    @property
    def span_count(self):
        return len(self._buf) // _WIDTH

    def _open(self, name_ix):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            sid = len(self._buf) // _WIDTH
            self._buf.extend((parent, name_ix, self.current_op,
                              time.perf_counter(), 0.0, 0.0))
        stack.append(sid)
        return sid

    def _close(self, sid, attr=0):
        # Only this thread writes the slots of its own open span, and an item
        # store cannot interleave with another thread's extend under the GIL.
        end = time.perf_counter()
        self._buf[sid * _WIDTH + _END] = end
        self._buf[sid * _WIDTH + _ATTR] = attr
        self._local.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._open(_INDEX[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, attr_of=None, skip=None):
        """Record a span called ``name`` around every call of ``owner.attr``.

        ``attr_of(args, outcome)`` gives the span's attribute from the call's
        arguments and its result, or the exception it raised; ``skip(args)``
        true leaves a call unrecorded.
        """
        original = owner.__dict__[attr]
        name_ix = _INDEX[name]

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return original(*args, **kwargs)
            sid = self._open(name_ix)
            outcome = None
            try:
                outcome = original(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                self._close(sid, 0 if attr_of is None else attr_of(args, outcome))

        self._patch(owner, attr, wrapper)

    def install(self):
        """Wrap every layer boundary the benchmark measures."""
        from plr import cli, objectives, sensing, solvers, synthdata

        # projections, as the solvers resolve them
        self._wrap(solvers, "svd_factors", "projections.svd")
        self._wrap(solvers, "project_box", "projections.feasible")
        self._wrap(solvers, "positive_rescale", "projections.feasible")
        self._wrap(solvers, "_alternating_body", "projections.alt", _sweeps)
        self._wrap_generic_strategy(solvers)

        # sensing: matvecs wherever they are resolved, set-up work, unpacking
        for module in (objectives, sensing):
            self._wrap(module, "apply_forward", "sensing.forward", _apply_bytes)
        for module in (objectives, solvers):
            self._wrap(module, "apply_adjoint", "sensing.adjoint", _apply_bytes)
        for module in (sensing, cli):
            self._wrap(module, "build_sensing_ensemble", "sensing.build")
            self._wrap(module, "sample_compressive_counts", "sensing.sample")
        # only the call that unpacks; later calls return the cached matrix
        self._wrap(sensing.SensingEnsemble, "indicator_matrix", "sensing.unpack",
                   skip=lambda args: args[0]._dense is not None)

        # objectives: value/gradient methods and the quadratic model
        for cls in (objectives.CompletionObjective, objectives.RecoveryObjective):
            self._wrap(cls, "value", "objectives.value")
            self._wrap(cls, "gradient", "objectives.gradient")
        self._wrap(solvers, "quadratic_model", "objectives.qmodel")

        # solvers, under the names the CLI and the benchmark call
        for module in (solvers, cli):
            for attr in ("pmlsvt", "proximal_gradient", "accelerated_proximal_gradient"):
                name = "solvers.pmlsvt" if attr == "pmlsvt" else "solvers.fixed_step"
                self._wrap(module, attr, name, _iterations)

        # synthdata, under the names the CLI and the benchmark call
        for attr in ("read_pgm", "image_to_patch_matrix", "rank_l_approx",
                     "sample_completion_observations", "gen_exact_low_rank"):
            for module in (synthdata, cli):
                self._wrap(module, attr, "synthdata")

        # cli sweep internals
        self._wrap(cli, "build_ground_truth", "cli.ground_truth")
        self._wrap(cli, "_sweep_point", "cli.point")
        self._wrap(cli, "_atomic_write_text", "cli.write")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_generic_strategy(self, module):
        """The generic solvers build their feasibility map as a closure."""
        original = module.__dict__["_generic_strategy"]
        name_ix = _INDEX["projections.feasible"]

        def wrapper(*args, **kwargs):
            strategy = original(*args, **kwargs)

            def traced_strategy(X):
                sid = self._open(name_ix)
                try:
                    return strategy(X)
                finally:
                    self._close(sid)

            return traced_strategy

        self._patch(module, "_generic_strategy", wrapper)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """Columns as numpy arrays, plus inclusive duration and self time."""
        table = np.frombuffer(self._buf, dtype=np.float64).reshape(-1, _WIDTH)
        cols = {f: table[:, i].copy() for i, f in enumerate(FIELDS)}
        for f in ("parent", "name", "op", "attr"):
            cols[f] = cols[f].astype(np.int64)
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        cols["dur"] = dur
        cols["self"] = dur - child_time
        return cols

    def save(self, path):
        """Write every span and the operation table as one compressed .npz."""
        cols = self.arrays()
        np.savez_compressed(
            path, names=np.array(NAMES),
            op_kind=np.array([k for k, _ in self.ops]),
            op_index=np.array([i for _, i in self.ops], dtype=np.int64),
            **{f: cols[f] for f in FIELDS})
