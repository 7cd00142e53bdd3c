"""Command-line harness: build problems, run solves, sweep parameters.

Usage::

    plr synth --config experiment.cfg [--out DIR] [--seed N]
    plr solve --config experiment.cfg [--out DIR] [--seed N]
    plr sweep --config experiment.cfg [--out DIR] [--seed N] [--threads N]

Configs are flat ``key = value`` text files (``#`` starts a comment), one
experiment per file.  Every command is reproducible byte-for-byte from its
config and seeds, except the wall-time line of the metrics file.  Exit
status: 0 on success, 2 on a config or input error, 3 on a solver abort.

Each command checks, computes, then writes.  Before any work, ``main`` runs
``ExperimentConfig.validate``: each point config (the config itself, or one
per sweep value) against the tables of what each mode, source, solver and
command requires and never reads.  ``obs_file`` and ``ensemble_file`` have
rows too: each fixes what another key would otherwise set, so that key may
not be set beside it.  ``--out`` is made at the first write, once every
result is computed: an exit 2, or a sweep's exit 3, leaves no directory, and
an aborted solve writes only its partial ``trace.csv``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import (CompletionObservations, CompressiveObservations, FeasibleSet,
                   _numbered_lines, _parse, load_dense_csv, load_observations_csv,
                   save_dense_csv, save_observations_csv, seeded_rng)
# the cmd_* functions write their text files through this module-level name
from .core import _atomic_write as _atomic_write_text
from .metrics import hellinger_matrix, kl_matrix, squared_error
from .objectives import completion_objective, recovery_objective
from .projections import positive_rescale
from .sensing import (build_sensing_ensemble, load_ensemble,
                      sample_compressive_counts, save_ensemble)
from .solvers import (SolverAbort, SolverConfig, accelerated_proximal_gradient,
                      default_init, pmlsvt, proximal_gradient)
from .synthdata import (PatchLayout, gen_exact_low_rank, image_to_patch_matrix,
                        load_count_csv, rank_l_approx, read_pgm,
                        sample_completion_observations)

# Offset separating the ensemble stream from the measurement-noise stream
# when both derive from one experiment seed.
COUNT_SEED_OFFSET = 500_000_007

# config key -> its accepted spellings; _ALIASES maps the short ones to the full
_CHOICES = {"mode": ("completion", "recovery", "complete", "recover"),
            "source": ("synthetic", "matrix", "image", "counts"),
            "solver": ("pmlsvt", "proximal", "accelerated")}
_ALIASES = {"complete": "completion", "recover": "recovery"}
# sweep_axis -> the ExperimentConfig field a sweep point replaces
_AXIS_FIELDS = {"rho": "rho", "m": "m", "lambda": "penalty", "p_obs": "p_obs"}
_SINGLE = "a single experiment"  # the owner of the rules of synth and solve
# owner -> the ExperimentConfig fields it requires ("a or b": one of them)
_REQUIRES = {"synthetic": ("d1", "d2", "rank", "alpha", "beta"), "matrix": ("matrix_file",),
             "image": ("image_file", "patch_h", "patch_w"), "counts": ("counts_file",),
             "completion": ("alpha", "beta", "p_obs or obs_file"),
             "recovery": ("m or ensemble_file",)}
# owner -> the ExperimentConfig fields it never reads
_FIXED_STEP_UNREAD = ("penalty", "step_recip", "step_scale")
_UNREAD_KEYS = {"synthetic": ("matrix_file", "image_file", "patch_h", "patch_w", "trunc_rank",
                              "counts_file"),
                "matrix": ("d1", "d2", "rank", "image_file", "patch_h", "patch_w", "trunc_rank",
                           "counts_file"),
                "image": ("d1", "d2", "rank", "matrix_file", "counts_file"),
                "counts": ("d1", "d2", "rank", "matrix_file", "image_file", "patch_h", "patch_w",
                           "trunc_rank"),
                "recovery": ("p_obs", "obs_file"),
                "completion": ("m", "p", "total_intensity", "entry_floor", "y_file",
                               "ensemble_file"),
                "pmlsvt": ("tol",),
                "proximal": _FIXED_STEP_UNREAD, "accelerated": _FIXED_STEP_UNREAD,
                "obs_file": ("p_obs",), "ensemble_file": ("m", "p"),
                _SINGLE: ("sweep_axis", "sweep_values", "trials")}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def parse_config(path):
    """Read a flat key = value file into a dict of strings."""
    cfg = {}
    for lineno, line in _numbered_lines(path, "#"):
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"{path}: line {lineno}: empty key or value")
        if key in cfg:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        cfg[key] = val
    return cfg


def _finite(raw):
    """A config float: what ``float`` reads, except nan and +-inf."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


# One parser per declared field type (annotations are strings here, see the
# __future__ import); a list is comma-separated floats.
_PARSERS = {"int": int, "float": _finite, "str": str,
            "list": lambda raw: [_finite(v) for v in raw.split(",") if v.strip()]}
# Config keys spelt differently from their ExperimentConfig field.
_FIELD_KEYS = {"penalty": "lambda"}


@dataclass
class ExperimentConfig:
    """Resolved experiment description: problem source, observations, solver, sweep."""

    mode: str
    source: str
    seed: int = 0
    # problem source
    d1: int = None
    d2: int = None
    rank: int = None
    matrix_file: str = None
    image_file: str = None
    patch_h: int = None
    patch_w: int = None
    trunc_rank: int = None
    counts_file: str = None
    rho: float = 1.0
    # constraint set
    alpha: float = None
    beta: float = None
    rank_budget: int = None
    entry_floor: float = 1e-6
    total_intensity: float = None
    # observations
    m: float = None
    p_obs: float = None
    p: float = 0.5
    obs_seed: int = None
    obs_file: str = None
    y_file: str = None
    ensemble_file: str = None
    # solver
    solver: str = "pmlsvt"
    max_iter: int = 1000
    step_recip: float = 1e-4
    step_scale: float = 1.1
    penalty: float = None
    tol: float = 0.0
    # sweep
    sweep_axis: str = None
    sweep_values: list = field(default_factory=list)
    trials: int = 5

    @classmethod
    def from_file(cls, path, seed_override=None):
        """Parse a config file: one key per field (``lambda`` sets ``penalty``),
        read with the parser of the field's declared type; unknown keys are
        rejected and absent keys take the field's default."""
        cfg = parse_config(path)
        fields = {_FIELD_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
        for key in cfg:
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
        values = {}
        for key, f in fields.items():
            if key in cfg:
                try:
                    values[f.name] = _PARSERS[f.type](cfg[key])
                except ValueError as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from None
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing required config key {key!r}")
        ec = cls(**values)
        for key, choices in _CHOICES.items():
            value = getattr(ec, key).lower()
            if value not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
            setattr(ec, key, _ALIASES.get(value, value))
        if seed_override is not None:
            ec.seed = seed_override
        if ec.obs_seed is None:
            ec.obs_seed = ec.seed
        return ec

    def validate(self, need_sweep=False):
        """Reject a config no experiment runs: sweep rules, each point, files."""
        if need_sweep:
            if self.sweep_axis is None:
                raise ConfigError("sweep command requires sweep_axis")
            if self.sweep_axis not in _AXIS_FIELDS:
                raise ConfigError(f"sweep_axis must be one of {tuple(_AXIS_FIELDS)}")
            if not self.sweep_values:
                raise ConfigError("sweep requires a non-empty sweep_values list")
            repeated = [v for v, n in Counter(self.sweep_values).items() if n > 1]
            if repeated:
                raise ConfigError(f"sweep_values lists {repeated[0]!r} more than once")
            # fixed counts are one draw, through one mask set, of one truth
            if (self.obs_file or self.y_file) and (self.sweep_axis, self.trials) != ("lambda", 1):
                raise ConfigError("a sweep over obs_file or y_file may sweep only lambda, "
                                  "with trials = 1")
        for point in _point_configs(self, self.sweep_values) if need_sweep else [self]:
            point._check_point(single=not need_sweep)
        for key in [f.name for f in dataclasses.fields(self) if f.name.endswith("_file")]:
            path = getattr(self, key)
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{key} = {path!r} does not exist")

    def _check_point(self, single):
        """Reject what one point rules out: its owners' table rows, its values."""
        if self.mode == "recovery" and self.solver != "pmlsvt":
            # their fixed step 1/L uses the completion constant alpha/beta**2,
            # which with recovery's box leaves the iterate where it started
            raise ConfigError(f"solver = {self.solver} supports completion only; "
                              "use solver = pmlsvt for recovery")
        owners = [self.source, self.mode, self.solver]
        owners += [key for key in ("obs_file", "ensemble_file") if getattr(self, key) is not None]
        if single:
            owners.append(_SINGLE)
        for owner in owners:
            for name in _UNREAD_KEYS.get(owner, ()):
                if _is_set(self, name):
                    key = _FIELD_KEYS.get(name, name)
                    raise ConfigError(f"{owner} never reads config key {key!r}")
            for need in _REQUIRES.get(owner, ()):
                if all(getattr(self, name) is None for name in need.split(" or ")):
                    raise ConfigError(f"{owner} requires {need}")
        for keys, ok, need in _RANGES:
            for key in keys:
                value = getattr(self, key)
                if value is not None and not ok(value):
                    raise ConfigError(f"config key {key!r} must {need}, got {value!r}")
        if self.alpha is not None and self.beta is not None and self.beta >= self.alpha:
            raise ConfigError(f"config key 'beta' must lie below alpha = {self.alpha!r}, "
                              f"got {self.beta!r}")
        if self.m is not None and not float(self.m).is_integer():
            raise ConfigError(f"recovery m must be a whole number, got {self.m!r}")
        if self.mode == "completion" and self.source == "counts" and self.rho != 1.0:
            # the file's counts are the observations: rint(rho * counts) would
            # thin them deterministically rather than draw Poisson counts
            raise ConfigError("config key 'rho' must be 1 for completion from a counts "
                              f"file, whose counts are the observations; got {self.rho!r}")
        _solver_config(self)


# (config keys, test, what it requires) for the values no experiment can use
_RANGES = (
    (("seed", "obs_seed"), lambda v: v >= 0, "be >= 0"),
    (("d1", "d2", "rank", "patch_h", "patch_w", "trunc_rank", "rank_budget", "trials"),
     lambda v: v >= 1, "be >= 1"),
    (("rho", "alpha", "beta", "entry_floor", "total_intensity", "m"),
     lambda v: v > 0, "be positive"),
    (("p",), lambda v: 0 < v < 1, "lie in (0, 1)"),
    (("p_obs",), lambda v: 0 < v <= 1, "lie in (0, 1]"),
)


def _is_set(ec, name):
    """A key counts as set when its field differs from the dataclass default."""
    f = ExperimentConfig.__dataclass_fields__[name]
    default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
    return getattr(ec, name) != default


def _point_configs(ec, values):
    """One config per sweep value: ``ec`` with the swept field replaced."""
    return [dataclasses.replace(ec, **{_AXIS_FIELDS[ec.sweep_axis]: value}) for value in values]


def _solver_config(ec):
    """The SolverConfig of ``ec``; a value it rejects names its config key."""
    try:
        return SolverConfig(max_iter=ec.max_iter, step_recip=ec.step_recip,
                            step_scale=ec.step_scale, penalty=ec.penalty, tol=ec.tol)
    except ValueError as exc:
        name = str(exc).split()[0]  # each SolverConfig message starts with its field
        raise ConfigError(f"config key {_FIELD_KEYS.get(name, name)!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def build_ground_truth(ec, rho=None, source=None):
    """Materialize (M, observed_mask) from the configured source.

    ``rho`` scales the intensity; for completion the scaled matrix is clamped
    back into the entry box.  ``observed_mask`` is non-None only for the
    counts source, where M is a count realization rather than an intensity.
    ``source`` is :func:`ground_truth_source`'s result, read here if None.
    """
    rho = ec.rho if rho is None else rho
    M, mask = ground_truth_source(ec) if source is None else source
    if rho != 1.0:
        M = rho * M
    if ec.total_intensity is not None:
        M = positive_rescale(M, rho * ec.total_intensity)
    if ec.mode == "completion" and ec.source != "counts":
        M = np.clip(M, ec.beta, ec.alpha)
    return M, mask


def ground_truth_source(ec):
    """(M, observed_mask) as the configured source gives them, before any
    rho scaling, rescale or clamp; see :func:`build_ground_truth`."""
    mask = None
    if ec.source == "synthetic":
        M = gen_exact_low_rank(ec.d1, ec.d2, ec.rank,
                               FeasibleSet(alpha=ec.alpha, beta=ec.beta), ec.seed)
    elif ec.source == "matrix":
        M = load_dense_csv(ec.matrix_file)
    elif ec.source == "image":
        image = read_pgm(ec.image_file)
        layout = PatchLayout(image_shape=image.shape, patch_shape=(ec.patch_h, ec.patch_w))
        M = image_to_patch_matrix(image, layout)
        if ec.trunc_rank is not None:
            M = np.maximum(rank_l_approx(M, ec.trunc_rank), 0.0)
    else:  # counts
        M, mask = load_count_csv(ec.counts_file)
    return M, mask


def feasible_set_for(ec, M, m_value=None):
    """FeasibleSet for the solve, filling recovery defaults from the data."""
    total = float(np.abs(M).sum())
    alpha = ec.alpha
    beta = ec.beta
    if ec.mode == "recovery":
        if alpha is None:
            alpha = total
        if beta is None:
            beta = ec.entry_floor / (m_value or 1)
        if beta >= alpha:
            beta = alpha * 1e-9
    return FeasibleSet(alpha=alpha, beta=beta,
                       rank_budget=ec.rank_budget or ec.rank or ec.trunc_rank or 1,
                       total_intensity=total, entry_floor=ec.entry_floor)


def make_completion_observations(ec, M, mask, seed):
    """Sample (or subsample) the observed entries for a completion problem."""
    d1, d2 = M.shape
    if ec.obs_file is not None:
        return load_observations_csv(ec.obs_file, (d1, d2))
    m_expected = ec.p_obs * d1 * d2
    if mask is None:  # an intensity: draw Poisson counts of it
        return sample_completion_observations(M, m_expected, seed)
    # Counts are already a Poisson realization: Bernoulli-subsample the cells
    # present in the file and take their values as the observations.
    rng = seeded_rng(seed)
    keep = (rng.random(M.shape) < m_expected / (d1 * d2)) & mask
    rows, cols = np.nonzero(keep)
    return CompletionObservations(rows=rows, cols=cols, dims=(d1, d2), counts=M[rows, cols])


def make_recovery_observations(ec, M, seed, ensemble=None):
    """(masks, counts) of ``M``: the masks are ``ensemble``, else those of
    :func:`recovery_ensemble`; the counts are read from y_file, else drawn
    with seed ``seed + COUNT_SEED_OFFSET``.  A negative ``M`` raises
    ValueError on either path."""
    if M.min() < 0:
        raise ValueError("intensity matrix must be nonnegative")
    if ensemble is None:
        ensemble = recovery_ensemble(ec, *M.shape, seed)
    if ensemble.shape != M.shape:
        raise ConfigError(f"ensemble shape {ensemble.shape} != matrix {M.shape}")
    if ec.y_file is None:
        return ensemble, sample_compressive_counts(ensemble, M, seed + COUNT_SEED_OFFSET)
    y = CompressiveObservations(counts=_load_y_file(ec.y_file))
    if len(y) != ensemble.m:
        raise ConfigError(f"{ec.y_file}: {len(y)} counts, but the ensemble has m={ensemble.m}")
    return ensemble, y


def recovery_ensemble(ec, d1, d2, seed):
    """The sensing masks: read from ensemble_file (which fixes m and p, see
    validate), else drawn with the config's m and p from ``seed``."""
    if ec.ensemble_file is not None:
        return load_ensemble(ec.ensemble_file)
    return build_sensing_ensemble(d1, d2, int(ec.m), ec.p, seed)


def _load_y_file(path):
    """The counts of a y_file, one integer per line; blank lines and ``#``
    comments are skipped.  A bad line raises ValueError naming it (1-based)."""
    counts = []
    for lineno, line in _numbered_lines(path, "#"):
        y = _parse(int, line, path, lineno)
        if not 0 <= y < 2**63:
            raise ValueError(f"{path}: line {lineno}: count {y} outside [0, 2**63)")
        counts.append(y)
    return np.array(counts, dtype=np.int64)


# ---------------------------------------------------------------------------
# Solving and metrics
# ---------------------------------------------------------------------------

def run_single_solve(ec, M, mask, seed, ensemble=None):
    """Observe + solve one instance; returns (Mhat, trace, fset).  A recovery
    solve observes through ``ensemble`` if given, else through masks of its own."""
    if ec.mode == "completion":
        obs = make_completion_observations(ec, M, mask, seed)
        fset = feasible_set_for(ec, M)
        obj = completion_objective(obs, fset)
    else:
        ensemble, y = make_recovery_observations(ec, M, seed, ensemble)
        fset = feasible_set_for(ec, M, m_value=ensemble.m)
        obj = recovery_objective(ensemble, y.counts, fset)

    solver = {"pmlsvt": pmlsvt, "proximal": proximal_gradient,
              "accelerated": accelerated_proximal_gradient}[ec.solver]
    Mhat, trace = solver(obj, fset, default_init(obj, fset), _solver_config(ec))
    return Mhat, trace, fset


def normalized_error(ec, M, Mhat, fset):
    """R/I^2 for recovery, R/(d1*d2) for completion."""
    R = squared_error(M, Mhat)
    if ec.mode == "recovery":
        return R / fset.total_intensity**2
    return R / (M.shape[0] * M.shape[1])


def metrics_lines(ec, M, mask, Mhat, fset, trace, wall_time):
    lines = [f"mode={ec.mode}", f"d1={M.shape[0]}", f"d2={M.shape[1]}",
             f"R={squared_error(M, Mhat)!r}",
             f"normalized_error={normalized_error(ec, M, Mhat, fset)!r}",
             "normalization=I^2" if ec.mode == "recovery" else "normalization=d1*d2"]
    if ec.source == "counts":
        # no intensity ground truth: report the data fit on observed cells
        resid = float(np.sum(((M - Mhat) * mask) ** 2))
        lines.append(f"R_observed={resid!r}")
        lines.append("kl=nan")
        lines.append("hellinger=nan")
    else:
        if M.min() > 0 and Mhat.min() > 0:
            lines.append(f"kl={kl_matrix(M, Mhat)!r}")
        else:
            lines.append("kl=inf")
        lines.append(f"hellinger={hellinger_matrix(np.maximum(M, 0), np.maximum(Mhat, 0))!r}")
    lines.append(f"iterations={trace.iterations_run}")
    lines.append(f"terminated_by={trace.terminated_by}")
    lines.append(f"final_objective={trace.objective_values[-1]!r}")
    lines.append(f"wall_time_s={wall_time:.6f}")
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out(out_dir, name):
    """The path of output file ``name``; ``out_dir`` is made here, so it
    exists only once a command has something to write."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_synth(ec, out_dir):
    """Write ground truth and observations of the validated ``ec``: M.csv
    plus obs.csv, or plus y.csv and ensemble.bin, once all are built."""
    M, mask = build_ground_truth(ec)
    if ec.mode == "completion":
        obs = make_completion_observations(ec, M, mask, ec.obs_seed)
        save_dense_csv(_out(out_dir, "M.csv"), M)
        save_observations_csv(_out(out_dir, "obs.csv"), obs)
        return 0
    ensemble, y = make_recovery_observations(ec, M, ec.obs_seed)
    save_dense_csv(_out(out_dir, "M.csv"), M)
    _atomic_write_text(_out(out_dir, "y.csv"), "\n".join(str(v) for v in y.counts) + "\n")
    save_ensemble(_out(out_dir, "ensemble.bin"), ensemble)
    return 0


def cmd_solve(ec, out_dir):
    """Run one solve of the validated ``ec``; then write Mhat.csv, trace.csv
    and a flat metrics file, or on an abort only the partial trace.csv."""
    M, mask = build_ground_truth(ec)
    start = time.perf_counter()
    try:
        Mhat, trace, fset = run_single_solve(ec, M, mask, ec.obs_seed)
    except SolverAbort as exc:
        exc.trace.to_csv(_out(out_dir, "trace.csv"))
        print(f"plr solve: aborted: {exc}", file=sys.stderr)
        return 3
    lines = metrics_lines(ec, M, mask, Mhat, fset, trace, time.perf_counter() - start)
    save_dense_csv(_out(out_dir, "Mhat.csv"), Mhat)
    trace.to_csv(_out(out_dir, "trace.csv"))
    _atomic_write_text(_out(out_dir, "metrics.txt"), "\n".join(lines) + "\n")
    return 0


def _sweep_point(ec, value, trial, truths, ensemble):
    """One (sweep value, trial) cell; returns the normalized error.

    ``ec`` is the point's config, ``truths`` holds the sweep's ground truth
    per rho and ``ensemble`` is the trial's shared sensing masks, or None
    when the point draws its own (completion, or an m sweep).
    """
    seed = ec.obs_seed + trial
    M, mask = truths[ec.rho]
    try:
        Mhat, _, fset = run_single_solve(ec, M, mask, seed, ensemble=ensemble)
    except SolverAbort as exc:
        raise SolverAbort(f"at value={value!r}, trial={trial}: {exc}",
                          exc.matrix, exc.trace) from exc
    return normalized_error(ec, M, Mhat, fset)


def _read_only(*arrays):
    """Mark the given arrays (None skipped) read-only; returns them."""
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return arrays


def cmd_sweep(ec, out_dir):
    """Run trials at every sweep value of the validated ``ec``; then write
    value,mean,std rows sorted by value.

    The source matrix is read once and a read-only ground truth is built from
    it per distinct rho, before the points run.  Points run trial by trial,
    in order on this thread.  A recovery trial's points share one mask set,
    drawn and unpacked before they start and dropped before the next trial's;
    an m sweep's points draw their own, and a fixed ensemble_file is read once
    for the sweep.
    """
    values = sorted(ec.sweep_values)
    configs = _point_configs(ec, values)
    source = ground_truth_source(ec)
    truths = {}
    for pc in configs:
        if pc.rho not in truths:
            truths[pc.rho] = _read_only(*build_ground_truth(ec, pc.rho, source))
    del source
    shape = truths[configs[0].rho][0].shape
    fixed = recovery_ensemble(ec, *shape, ec.obs_seed) if ec.ensemble_file else None
    errs = []
    for trial in range(ec.trials):
        ensemble = fixed
        if ensemble is None and ec.mode == "recovery" and ec.sweep_axis != "m":
            ensemble = recovery_ensemble(ec, *shape, ec.obs_seed + trial)
        if ensemble is not None:
            ensemble.indicator_matrix()  # every point applies it: unpack before the first
        errs.append([_sweep_point(pc, value, trial, truths, ensemble)
                     for pc, value in zip(configs, values)])
        del ensemble  # before the next trial's masks are drawn
    errs = np.array(errs)
    lines = ["value,mean,std"]
    for value, chunk in zip(values, errs.T):
        lines.append(f"{value!r},{float(chunk.mean())!r},{float(chunk.std(ddof=0))!r}")
    _atomic_write_text(_out(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plr",
        description="Poisson low-rank matrix recovery and completion experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("synth", "write ground truth and observations"),
                           ("solve", "run one solve and write metrics"),
                           ("sweep", "sweep one parameter axis")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="flat key=value experiment file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "sweep":
            sp.add_argument("--threads", type=int, default=None,
                            help="checked to be >= 1, then unused: sweep points run "
                                 "in order on one thread")
    args = parser.parse_args(argv)

    try:
        ec = ExperimentConfig.from_file(args.config, seed_override=args.seed)
        ec.validate(need_sweep=args.command == "sweep")
        if args.command == "synth":
            return cmd_synth(ec, args.out)
        if args.command == "solve":
            return cmd_solve(ec, args.out)
        # checked, though no sweep reads it: points run in order on one thread
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be a positive integer, got {args.threads}")
        return cmd_sweep(ec, args.out)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"plr {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except SolverAbort as exc:
        print(f"plr {args.command}: aborted {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
