"""The benchmark's workloads.

Each workload turns the workload seed into inputs (``setup``), runs one
operation on one instance (``run``) and checks that operation's output
(``check``).  Library calls go through module attributes (``solvers.pmlsvt``,
``synthdata.read_pgm``...) looked up at call time, so the tracer's wrappers
see them.

A workload has ``threads`` (sweep workers, for ``cli.parallel_eff``) and a
``tiny`` size used only by the self-check.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from plr import cli, core, metrics, objectives, projections, sensing, solvers, synthdata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLAR = os.path.join(ROOT, "data", "solar48.pgm")
OUT = os.path.join(ROOT, "perfbench", "out")


class CheckResult:
    """Outcome of one operation's output checks."""

    def __init__(self, err, problems, digest, named=None):
        self.err = err
        self.problems = problems      # list of failed-check descriptions
        self.digest = digest          # bytes compared across repeated solves
        self.named = named or {}      # reported checks that do not fail the op

    @property
    def ok(self):
        return not self.problems


def _membership(X, fset, which, label="output"):
    report = core.validate_membership(X, fset, which)
    return [] if report else [f"{label} not in {which}: {report.violations}"]


def _solar_patches():
    image = synthdata.read_pgm(SOLAR)
    layout = synthdata.PatchLayout(image_shape=image.shape, patch_shape=(8, 8))
    return synthdata.image_to_patch_matrix(image, layout)


class _PmlsvtSolve:
    """One pmlsvt solve per operation, checked against its starting point."""

    threads = 1
    membership = None   # constraint set the output must lie in

    def run(self, inst):
        return solvers.pmlsvt(inst["obj"], inst["fset"], config=self.config)[0]

    def check(self, inst, Mhat):
        err = metrics.squared_error(inst["M"], Mhat) / inst["scale"]
        if "err0" not in inst:
            X0 = solvers.default_init(inst["obj"], inst["fset"])
            inst["err0"] = metrics.squared_error(inst["M"], X0) / inst["scale"]
        err0 = inst["err0"]
        problems = _membership(Mhat, inst["fset"], self.membership)
        if not math.isfinite(err):
            problems.append(f"err {err!r} is not finite")
        elif not err < err0:
            problems.append(f"err {err!r} is not below the default_init err {err0!r}")
        return CheckResult(err, problems, Mhat.tobytes())


class CompletionSolar(_PmlsvtSolve):
    """Demo 01 at p = 0.5: 64x36 solar patch matrix, pmlsvt, lambda = 0.1.

    Every seed runs to max_iter (2000), so the iteration count is fixed, but
    the SVD's cost depends on the iterates: one draw of the observations can
    cost 12% more per solve than another.  The workload seed therefore draws
    ``draws`` observation sets, which operations cycle through.
    """

    name = "completion-solar"
    membership = "Gamma1"
    draws = 4

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.config = solvers.SolverConfig(
            max_iter=40 if tiny else 2000, step_recip=1e-4, step_scale=1.1,
            penalty=0.1, mode="completion")

    def setup(self):
        fset = core.FeasibleSet(alpha=200.0, beta=1.0, rank_budget=10)
        M = np.clip(_solar_patches(), fset.beta, fset.alpha)
        instances = []
        for i in range(self.draws):
            obs = synthdata.sample_completion_observations(
                M, 0.5 * M.size, self.draws * self.seed + i)
            instances.append({"M": M, "fset": fset, "scale": M.size,
                              "obj": objectives.completion_objective(obs, fset)})
        return instances


class RecoverySolar(_PmlsvtSolve):
    """Demo 02 at rho = 4: rank-10 solar truncation, I = 3.27e6 * rho, m = 1000,
    p = 0.5, pmlsvt with lambda = 0.002.

    An operation runs max_iter = 120 iterations, which every seed reaches, so
    its work is fixed and a run holds over a hundred operations; demo 02's cap
    of 2500 lets the stopping rule end solves anywhere between 737 and 2500
    iterations depending on the seed.  Demo 02's own solve is run once per run,
    untimed, for the named check ``pmlsvt_descent`` (see ``diagnostics``).
    """

    name = "recovery-solar"
    membership = "Gamma0"
    rho = 4.0
    intensity = 3.27e6

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.m = 100 if tiny else 1000
        self.config = self._config(30 if tiny else 120)
        self.demo_config = self._config(60 if tiny else 2500)

    @staticmethod
    def _config(max_iter):
        return solvers.SolverConfig(max_iter=max_iter, step_recip=1e-5, step_scale=1.1,
                                    penalty=0.002, mode="recovery")

    def setup(self):
        truncated = np.maximum(synthdata.rank_l_approx(_solar_patches(), 10), 0.0)
        M = self.rho * projections.positive_rescale(truncated, self.intensity)
        total = float(M.sum())
        fset = core.FeasibleSet(alpha=total, beta=1e-9 * total, rank_budget=10,
                                total_intensity=total, entry_floor=1e-6)
        ensemble = sensing.build_sensing_ensemble(*M.shape, self.m, 0.5, self.seed)
        y = sensing.sample_compressive_counts(ensemble, M, self.seed + 1)
        return [{"M": M, "fset": fset, "scale": total ** 2,
                 "obj": objectives.recovery_objective(ensemble, y.counts, fset)}]

    def diagnostics(self, instances):
        """Named check ``pmlsvt_descent``: demo 02's solve (max_iter = 2500)
        ends with its penalized objective, nll + lambda * ||X||_*, no higher
        than at its start, default_init.  It does not fail operations: it
        reports a known defect that shows at some seeds only."""
        inst = instances[0]
        obj, fset = inst["obj"], inst["fset"]
        lam = self.demo_config.penalty

        def penalized(X):
            return obj.value(X) + lam * float(np.linalg.svd(X, compute_uv=False).sum())

        X = solvers.pmlsvt(obj, fset, config=self.demo_config)[0]
        return {"pmlsvt_descent": penalized(X) <= penalized(solvers.default_init(obj, fset))}


class GenericSmall:
    """Acceptance criterion 04's 6x6 completion problem (alpha = 20, beta = 1,
    rank 2, ground-truth seed 42, counts seed 43, every entry observed) solved
    by accelerated_proximal_gradient and then proximal_gradient, 2000 fixed
    iterations each (tol = 0).

    The problem is criterion 04's; the workload seed draws ``starts`` starting
    points uniformly in the box, which operations cycle through.  The cost of
    an operation depends on the alternating projection's sweep count, which
    varies with the Poisson draw far more than with the start.
    """

    name = "generic-small"
    threads = 1
    starts = 4

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.config = solvers.SolverConfig(
            max_iter=100 if tiny else 2000, tol=0.0, mode="completion")

    def setup(self):
        fset = core.FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
        M = synthdata.gen_exact_low_rank(6, 6, 2, fset, 42)
        obs = synthdata.sample_completion_observations(M, float(M.size), 43)
        obj = objectives.completion_objective(obs, fset)
        rng = core.seeded_rng(self.seed)
        return [{"M": M, "fset": fset, "obj": obj,
                 "X0": rng.uniform(fset.beta, fset.alpha, M.shape)}
                for _ in range(self.starts)]

    def run(self, inst):
        obj, fset, X0 = inst["obj"], inst["fset"], inst["X0"]
        Xa = solvers.accelerated_proximal_gradient(obj, fset, X0, self.config)[0]
        Xp = solvers.proximal_gradient(obj, fset, X0, self.config)[0]
        return Xa, Xp

    def check(self, inst, out):
        M, fset, obj, X0 = inst["M"], inst["fset"], inst["obj"], inst["X0"]
        f0 = obj.value(X0)
        problems = []
        errs = []
        for label, X in zip(("accelerated", "proximal"), out):
            problems += _membership(X, fset, "Gamma1", label)
            f = obj.value(X)
            if not f < f0:
                problems.append(f"{label} objective {f!r} is not below its start {f0!r}")
            errs.append(metrics.squared_error(M, X) / M.size)
        err = float(np.mean(errs))
        if not math.isfinite(err):
            problems.append(f"err {err!r} is not finite")
        return CheckResult(err, problems, b"".join(X.tobytes() for X in out))


_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


class SweepRho:
    """``plr sweep`` through ``plr.cli.main`` on the solar recovery problem:
    m = 500, rho in {1, 2, 4, 8}, 2 trials, max_iter = 10, 2 threads.

    One operation is one sweep command: 8 points, each rebuilding its ground
    truth and a fresh sensing ensemble and applying it for 10 iterations, so
    building and unpacking ensembles is most of its work.  The cap keeps the
    work fixed; caps of 100 and more let the stopping rule end some points
    early, by an amount that depends on the seed.

    Set-up parses the config and, for the output check, computes the error of
    default_init at every sweep point the way the sweep observes it: ground
    truth, sensing ensemble, counts.  A sweep's mean error must be below it.
    """

    name = "sweep-rho"
    threads = 2

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.out = os.path.join(OUT, f"sweep-{seed}")
        self.cfg_path = self.out + ".cfg"

    def _config_text(self):
        lines = {
            "mode": "recover", "source": "image", "image_file": SOLAR,
            "patch_h": 8, "patch_w": 8, "trunc_rank": 10,
            "total_intensity": 3.27e6, "m": 100 if self.tiny else 500, "p": 0.5,
            "seed": self.seed, "solver": "pmlsvt",
            "max_iter": 5 if self.tiny else 10,
            "step_recip": 1e-5, "step_scale": 1.1, "lambda": 0.002,
            "sweep_axis": "rho", "sweep_values": "1,2" if self.tiny else "1,2,4,8",
            "trials": 1 if self.tiny else 2,
        }
        return "".join(f"{k} = {v}\n" for k, v in lines.items())

    def setup(self):
        os.makedirs(OUT, exist_ok=True)
        with open(self.cfg_path, "w") as fh:
            fh.write(self._config_text())
        ec = cli.ExperimentConfig.from_file(self.cfg_path)
        ec.validate(need_sweep=True)
        err0 = {}
        for value in ec.sweep_values:
            M = cli.build_ground_truth(ec, rho=value)[0]
            errs = []
            for trial in range(ec.trials):
                ensemble, y = cli.make_recovery_observations(ec, M, ec.obs_seed + trial)
                fset = cli.feasible_set_for(ec, M, m_value=ensemble.m)
                obj = objectives.recovery_objective(ensemble, y.counts, fset)
                X0 = solvers.default_init(obj, fset)
                errs.append(cli.normalized_error(ec, M, X0, fset))
            err0[value] = float(np.mean(errs))
        return [{"err0": err0}]

    def run(self, inst):
        argv = ["sweep", "--config", self.cfg_path, "--out", self.out,
                "--threads", str(self.threads)]
        code = cli.main(argv)
        with open(os.path.join(self.out, "sweep.csv"), "rb") as fh:
            return code, fh.read()

    def check(self, inst, out):
        code, data = out
        problems = [] if code == 0 else [f"plr sweep exited with {code}"]
        rows = data.decode().splitlines()
        if not rows or rows[0] != "value,mean,std":
            problems.append(f"unexpected sweep.csv header {rows[:1]!r}")
        plain = True
        means = []
        for row in rows[1:]:
            fields = row.split(",")
            if len(fields) != 3:
                problems.append(f"malformed sweep.csv row {row!r}")
                continue
            values = []
            for field in fields:
                try:
                    values.append(float(field))
                except ValueError:
                    plain = False
                    wrapped = _NP_FLOAT.match(field)
                    values.append(float(wrapped.group(1)) if wrapped else math.nan)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite field in sweep.csv row {row!r}")
            elif not values[1] < inst["err0"].get(values[0], math.nan):
                problems.append(f"sweep.csv row {row!r}: mean err is not below the "
                                f"default_init err {inst['err0'].get(values[0])!r}")
            means.append(values[1])
        err = float(np.mean(means)) if means else math.nan
        if not means:
            problems.append("sweep.csv has no rows")
        return CheckResult(err, problems, data, named={"sweep_csv_plain": plain})


WORKLOADS = {cls.name: cls for cls in (CompletionSolar, RecoverySolar, GenericSmall, SweepRho)}
