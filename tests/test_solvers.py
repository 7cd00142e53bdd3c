import numpy as np
import pytest

import plr.solvers
from plr.core import CompletionObservations, FeasibleSet, RateFloorError, seeded_rng
from plr.objectives import (CompletionObjective, RecoveryObjective, completion_objective,
                            recovery_objective)
from plr.projections import positive_rescale, project_box, svt
from plr.sensing import apply_adjoint, build_sensing_ensemble, sample_compressive_counts
from plr.solvers import (SolverAbort, SolverConfig, accelerated_proximal_gradient,
                         default_init, pmlsvt, proximal_gradient, select_lambda_default)
from plr.synthdata import gen_exact_low_rank, sample_completion_observations
from test_objectives import count_calls


def full_observation(M, seed):
    d1, d2 = M.shape
    rows, cols = np.nonzero(np.ones(M.shape, dtype=bool))
    counts = seeded_rng(seed).poisson(M[rows, cols])
    return CompletionObservations(rows=rows, cols=cols, counts=counts, dims=(d1, d2))


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(max_iter=0),
        dict(step_recip=0.0),
        dict(step_scale=1.0),
        dict(penalty=-1.0),
        dict(tol=-1e-3),
        dict(mode="both"),
        *[{name: value} for name in ("step_recip", "step_scale", "penalty", "tol")
          for value in (np.nan, np.inf, -np.inf)],
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSelectLambdaDefault:
    def test_examples(self):
        assert select_lambda_default(FeasibleSet(alpha=1.0, beta=0.5), 1, 1) == 1.0
        fs = FeasibleSet(alpha=2.0, beta=0.5, rank_budget=4)
        assert select_lambda_default(fs, 4, 4) == pytest.approx(1.0 / 16.0)

    def test_halves_when_alpha_doubles(self):
        fs1 = FeasibleSet(alpha=3.0, beta=0.5, rank_budget=2)
        fs2 = FeasibleSet(alpha=6.0, beta=0.5, rank_budget=2)
        assert select_lambda_default(fs2, 5, 7) == pytest.approx(
            0.5 * select_lambda_default(fs1, 5, 7))


class TestProximalGradient:
    def test_fixed_point_at_matched_count(self):
        fset = FeasibleSet(alpha=10.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0], cols=[0], counts=[5], dims=(1, 1))
        obj = completion_objective(obs, fset)
        X, trace = proximal_gradient(obj, fset, np.array([[5.0]]),
                                     SolverConfig(max_iter=25, mode="completion"))
        assert X[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert trace.iterations_run == 25

    def test_zero_count_converges_to_lower_clamp(self):
        fset = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0], cols=[0], counts=[0], dims=(1, 1))
        obj = completion_objective(obs, fset)
        X, _ = proximal_gradient(obj, fset, np.array([[100.0]]),
                                 SolverConfig(max_iter=25_000, mode="completion"))
        assert X[0, 0] == pytest.approx(1.0, abs=1e-9)
        # 1-d grid oracle: the objective x - 0*log(x) = x is minimized at beta
        grid = np.linspace(1.0, 200.0, 4000)
        assert grid[np.argmin(grid)] == 1.0

    def test_trace_monotone_nonincreasing(self):
        rng = seeded_rng(1)
        fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
        M = rng.uniform(2.0, 18.0, (5, 5))
        obj = completion_objective(full_observation(M, 2), fset)
        _, trace = proximal_gradient(obj, fset, np.full((5, 5), 10.5),
                                     SolverConfig(max_iter=400, mode="completion"))
        f = np.array(trace.objective_values)
        assert np.all(np.diff(f) <= 1e-10)
        assert len(f) == trace.iterations_run == 400
        assert all(t == fset.lipschitz() for t in trace.step_control)

    def test_tolerance_termination_flag(self):
        fset = FeasibleSet(alpha=10.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0], cols=[0], counts=[5], dims=(1, 1))
        obj = completion_objective(obs, fset)
        _, trace = proximal_gradient(obj, fset, np.array([[5.0]]),
                                     SolverConfig(max_iter=50, tol=1e-12, mode="completion"))
        assert trace.terminated_by == "tolerance"
        assert trace.iterations_run < 50


class TestAcceleratedProximalGradient:
    def setup_method(self):
        rng = seeded_rng(3)
        self.fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
        self.M = rng.uniform(2.0, 18.0, (6, 6))
        self.obj = completion_objective(full_observation(self.M, 4), self.fset)
        self.X0 = np.full((6, 6), 10.5)

    def test_first_iterate_matches_proximal_gradient(self):
        cfg = SolverConfig(max_iter=1, mode="completion")
        X_pg, _ = proximal_gradient(self.obj, self.fset, self.X0, cfg)
        X_acc, _ = accelerated_proximal_gradient(self.obj, self.fset, self.X0, cfg)
        assert np.allclose(X_pg, X_acc, atol=1e-14)

    def test_fixed_point_stays_constant(self):
        fset = FeasibleSet(alpha=10.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0], cols=[0], counts=[5], dims=(1, 1))
        obj = completion_objective(obs, fset)
        X, trace = accelerated_proximal_gradient(
            obj, fset, np.array([[5.0]]), SolverConfig(max_iter=60, mode="completion"))
        assert X[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert np.ptp(trace.objective_values) <= 1e-12

    def test_reaches_target_faster_than_proximal_gradient(self):
        # every entry is observed and clip(Y) lies inside the nuclear ball,
        # so clip(Y) is the constrained minimizer (as in criterion 04)
        obs = self.obj.obs
        assert len(obs) == self.M.size
        Y = np.zeros(obs.dims)
        Y[obs.rows, obs.cols] = obs.counts
        Xstar = np.clip(Y, self.fset.beta, self.fset.alpha)
        assert np.linalg.svd(Xstar, compute_uv=False).sum() < self.fset.nuclear_radius(6, 6)
        target = self.obj.value(Xstar) + 1e-6
        cfg = SolverConfig(max_iter=4000, mode="completion")
        _, tr_pg = proximal_gradient(self.obj, self.fset, self.X0, cfg)
        _, tr_acc = accelerated_proximal_gradient(self.obj, self.fset, self.X0, cfg)

        def first_below(trace):
            f = np.array(trace.objective_values)
            hits = np.nonzero(f <= target)[0]
            return hits[0] + 1 if hits.size else np.inf

        assert first_below(tr_acc) < first_below(tr_pg)


def test_inactive_nuclear_ball_costs_no_svd(monkeypatch):
    # the acceptance suite's convergence-envelope problem: the iterates'
    # Frobenius norm proves them inside the nuclear ball at every sweep
    fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
    M = gen_exact_low_rank(6, 6, 2, fset, seed=42)
    obj = completion_objective(sample_completion_observations(M, 36.0, seed=43), fset)
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    accelerated_proximal_gradient(obj, fset, np.full((6, 6), 10.5),
                                  SolverConfig(max_iter=200, mode="completion"))
    assert calls == []


class FailingGradient(CompletionObjective):
    """Completion objective whose gradient raises on call ``fail_at``, counted
    across the handles :meth:`with_rate_floor` derives."""

    def __init__(self, obs, rate_floor, fail_at, calls=None):
        super().__init__(obs, rate_floor)
        self.fail_at = fail_at
        self.calls = [] if calls is None else calls

    def gradient(self, X):
        self.calls.append(None)
        if len(self.calls) == self.fail_at:
            raise RateFloorError("injected gradient failure", index=(0, 0))
        return super().gradient(X)

    def with_rate_floor(self, rate_floor):
        return FailingGradient(self.obs, rate_floor, self.fail_at, self.calls)


def small_completion():
    fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
    M = seeded_rng(3).uniform(2.0, 18.0, (6, 6))
    return fset, completion_objective(full_observation(M, 4), fset), np.full((6, 6), 10.5)


@pytest.mark.parametrize("solver", [proximal_gradient, accelerated_proximal_gradient])
class TestFixedStep:
    def test_abort_carries_last_accepted_iterate(self, solver):
        fset, obj, X0 = small_completion()
        k = 7
        X_k, _ = solver(obj, fset, X0, SolverConfig(max_iter=k, mode="completion"))
        failing = FailingGradient(obj.obs, obj.rate_floor, fail_at=k + 1)
        with pytest.raises(SolverAbort, match="objective domain error") as err:
            solver(failing, fset, X0, SolverConfig(max_iter=50, mode="completion"))
        assert err.value.trace.iterations_run == k
        assert err.value.trace.terminated_by == "aborted"
        assert err.value.matrix.tobytes() == X_k.tobytes()

    def test_each_feasibility_map_is_one_alternating_projection(self, solver, monkeypatch):
        # plr.solvers._alternating_body is the hook of perfbench's
        # projections.alt spans: one call for the start, one per iteration
        fset, obj, X0 = small_completion()
        calls = count_calls(monkeypatch, plr.solvers, "_alternating_body")
        _, trace = solver(obj, fset, X0, SolverConfig(max_iter=7, mode="completion"))
        assert len(calls) == trace.iterations_run + 1 == 8

    def test_rejects_recovery(self, solver):
        M = seeded_rng(9).uniform(1.0, 5.0, (5, 4))
        fset = FeasibleSet(alpha=M.sum(), beta=1e-6, rank_budget=2,
                           total_intensity=M.sum(), entry_floor=1e-6)
        ens = build_sensing_ensemble(5, 4, 30, 0.5, seed=10)
        obj = recovery_objective(ens, sample_compressive_counts(ens, M, seed=11).counts, fset)
        with pytest.raises(ValueError, match="completion only; use pmlsvt"):
            solver(obj, fset, default_init(obj, fset), SolverConfig(max_iter=5))


class ValueFailsAfter(CompletionObjective):
    """Completion objective whose value raises after ``ok_calls`` calls."""

    def __init__(self, obs, rate_floor, ok_calls):
        super().__init__(obs, rate_floor)
        self.ok_calls = ok_calls

    def value(self, X):
        self.ok_calls -= 1
        if self.ok_calls < 0:
            raise RateFloorError("injected value failure", index=(0, 0))
        return super().value(X)


class TestPmlsvt:
    def test_abort_when_backtracking_diverges(self):
        # t = 10 L accepts each first trial, so the start and k iterations
        # take k + 1 value calls; every later trial is rejected
        fset, obj, X0 = small_completion()
        k = 5
        rejecting = ValueFailsAfter(obj.obs, obj.rate_floor, ok_calls=1 + k)
        cfg = SolverConfig(max_iter=50, step_recip=10.0 * fset.lipschitz(),
                           step_scale=10.0, penalty=0.0, mode="completion")
        with pytest.raises(SolverAbort, match="backtracking diverged") as err:
            pmlsvt(rejecting, fset, X0=X0, config=cfg)
        assert err.value.trace.iterations_run == k
        assert err.value.trace.step_control == [cfg.step_recip] * k
        assert err.value.trace.terminated_by == "aborted"


    @staticmethod
    def _counts_above_the_box():
        """A 4x4 completion whose counts mostly exceed alpha = 20, started
        on the box's upper face: a gradient step leaves the box there, so a
        step that is not clamped shows."""
        fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
        M = seeded_rng(5).uniform(15.0, 30.0, (4, 4))
        obj = completion_objective(full_observation(M, 6), fset)
        return fset, obj, np.full((4, 4), fset.alpha)

    def test_identity_strategy_single_step_is_projected_gradient(self, monkeypatch):
        # lambda = 0 and t >= L: one iteration reduces to X0 - (1/t) grad
        monkeypatch.setattr(plr.solvers, "project_box", lambda Z, alpha, beta: Z)
        fset, obj, X0 = self._counts_above_the_box()
        t = 2.0 * fset.lipschitz()
        cfg = SolverConfig(max_iter=1, step_recip=t, penalty=0.0, mode="completion")
        X, trace = pmlsvt(obj, fset, X0=X0, config=cfg)
        want = X0 - obj.gradient(X0) / t
        assert want.max() > fset.alpha  # the clamp would have changed the step
        assert np.allclose(X, want, atol=1e-10)
        assert trace.step_control == [t]

    def test_single_step_is_svt_of_the_gradient_step(self, monkeypatch):
        # the shrink pmlsvt takes is the svt that the acceptance suite checks,
        # at whatever t backtracking settled on
        monkeypatch.setattr(plr.solvers, "project_box", lambda Z, alpha, beta: Z)
        fset, obj, X0 = self._counts_above_the_box()
        cfg = SolverConfig(max_iter=1, step_recip=1e-2, penalty=0.5, mode="completion")
        X, trace = pmlsvt(obj, fset, X0=X0, config=cfg)
        t = trace.step_control[0]
        want = svt(X0 - obj.gradient(X0) / t, cfg.penalty / t)
        assert want.max() > fset.alpha  # the clamp would have changed the step
        assert X.tobytes() == want.tobytes()
        assert t > cfg.step_recip and np.linalg.matrix_rank(X) < 4

    def test_rank_one_noiseless_completion(self):
        # integer-valued rank-1 truth observed everywhere without noise
        fset = FeasibleSet(alpha=4000.0, beta=500.0, rank_budget=1)
        M = np.outer([20.0, 30.0, 40.0, 50.0], [30.0, 40.0, 50.0, 60.0])
        rows, cols = np.nonzero(np.ones((4, 4), dtype=bool))
        obs = CompletionObservations(rows=rows, cols=cols,
                                     counts=M[rows, cols].astype(np.int64), dims=(4, 4))
        obj = completion_objective(obs, fset)
        cfg = SolverConfig(max_iter=500, step_recip=1e-4, step_scale=1.1,
                           penalty=1e-6, mode="completion")
        X0 = np.full((4, 4), 0.5 * (fset.alpha + fset.beta))
        Xp, trace = pmlsvt(obj, fset, X0=X0, config=cfg)
        Xa, _ = accelerated_proximal_gradient(
            obj, fset, X0, SolverConfig(max_iter=100_000, mode="completion"))
        assert np.linalg.norm(Xp - Xa) / np.linalg.norm(Xa) <= 1e-3
        assert trace.iterations_run <= 500
        # the noiseless constrained MLE is the truth itself
        assert np.linalg.norm(Xa - M) / np.linalg.norm(M) <= 1e-9

    def test_completion_iterates_stay_in_box(self, monkeypatch):
        rng = seeded_rng(7)
        fset = FeasibleSet(alpha=15.0, beta=1.0, rank_budget=2)
        M = rng.uniform(2.0, 14.0, (6, 5))
        obj = completion_objective(full_observation(M, 8), fset)
        seen = []

        def recording_map(Z, alpha, beta):
            out = project_box(Z, alpha, beta)
            seen.append(out)
            return out

        monkeypatch.setattr(plr.solvers, "project_box", recording_map)
        cfg = SolverConfig(max_iter=50, step_recip=1e-3, penalty=0.01, mode="completion")
        pmlsvt(obj, fset, config=cfg)
        assert seen
        for X in seen:
            assert X.min() >= fset.beta and X.max() <= fset.alpha

    def test_recovery_iterates_keep_total_intensity(self):
        rng = seeded_rng(9)
        M = rng.uniform(1.0, 5.0, (5, 4))
        total = M.sum()
        fset = FeasibleSet(alpha=total, beta=1e-6, rank_budget=2,
                           total_intensity=total, entry_floor=1e-6)
        ens = build_sensing_ensemble(5, 4, 30, 0.5, seed=10)
        y = sample_compressive_counts(ens, M, seed=11)
        obj = recovery_objective(ens, y.counts, fset)
        cfg = SolverConfig(max_iter=60, step_recip=1e-4, penalty=0.01, mode="recovery")
        X, _ = pmlsvt(obj, fset, config=cfg)
        assert X.min() >= 0.0
        assert X.sum() == pytest.approx(total, rel=1e-12)

    def test_default_inits(self):
        rng = seeded_rng(12)
        M = rng.uniform(1.0, 5.0, (4, 4))
        total = M.sum()
        fset = FeasibleSet(alpha=total, beta=1e-6, rank_budget=1, total_intensity=total)
        ens = build_sensing_ensemble(4, 4, 10, 0.5, seed=13)
        y = sample_compressive_counts(ens, M, seed=14)
        obj = recovery_objective(ens, y.counts, fset)
        want = positive_rescale(apply_adjoint(ens, y.counts.astype(float)), total)
        assert np.allclose(default_init(obj, fset), want)

        cfs = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0, 1], cols=[0, 1], counts=[0, 50], dims=(2, 2))
        cobj = completion_objective(obs, cfs)
        X0 = default_init(cobj, cfs)
        assert X0[0, 0] == 1.0      # count 0 clamped up to beta
        assert X0[1, 1] == 20.0     # count 50 clamped down to alpha
        assert X0[0, 1] == X0[1, 0] == 10.5

    def test_backtracking_step_control_is_bounded(self):
        # t rises at most one eta-factor past the Lipschitz constant
        rng = seeded_rng(15)
        fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
        M = rng.uniform(2.0, 18.0, (5, 5))
        obj = completion_objective(full_observation(M, 16), fset)
        cfg = SolverConfig(max_iter=200, step_recip=1e-6, step_scale=1.5,
                           penalty=0.0, mode="completion")
        _, trace = pmlsvt(obj, fset, config=cfg)
        assert np.all(np.diff(trace.step_control) >= 0)
        assert max(trace.step_control) <= fset.lipschitz() * cfg.step_scale

    def test_abort_on_infeasible_start_carries_trace(self):
        fset = FeasibleSet(alpha=10.0, beta=1e-9, rank_budget=1,
                           total_intensity=4.0, entry_floor=1e-6)
        ens = build_sensing_ensemble(2, 2, 4, 0.5, seed=17)
        y = np.array([3, 0, 2, 1], dtype=np.int64)
        obj = recovery_objective(ens, y, fset)
        X0 = np.zeros((2, 2))  # every rate is zero but some counts are positive
        with pytest.raises(SolverAbort) as err:
            pmlsvt(obj, fset, X0=X0, config=SolverConfig(max_iter=5, mode="recovery"))
        assert err.value.trace.iterations_run == 0
        assert err.value.trace.terminated_by == "aborted"

    def test_mode_inferred_from_objective(self):
        fset = FeasibleSet(alpha=10.0, beta=1.0, rank_budget=1)
        obs = CompletionObservations(rows=[0], cols=[0], counts=[5], dims=(1, 1))
        obj = completion_objective(obs, fset)
        X, _ = pmlsvt(obj, fset, config=SolverConfig(max_iter=5, step_recip=50.0))
        assert 1.0 <= X[0, 0] <= 10.0

    def test_configured_mode_must_match_the_objective(self):
        M = seeded_rng(9).uniform(1.0, 5.0, (5, 4))
        fset = FeasibleSet(alpha=M.sum(), beta=1e-6, rank_budget=2,
                           total_intensity=M.sum(), entry_floor=1e-6)
        ens = build_sensing_ensemble(5, 4, 30, 0.5, seed=10)
        obj = recovery_objective(ens, sample_compressive_counts(ens, M, seed=11).counts, fset)
        # the completion box clamp would take the iterates out of Gamma0
        with pytest.raises(ValueError, match="'completion' contradicts the recovery objective"):
            pmlsvt(obj, fset, config=SolverConfig(max_iter=5, mode="completion"))


class UncachedRecovery:
    """Recovery objective that applies the forward map on every call."""

    kind = "recovery"

    def __init__(self, obj):
        self.ensemble, self.y, self.rate_floor = obj.ensemble, obj.y, obj.rate_floor

    def value(self, X):
        return RecoveryObjective(self.ensemble, self.y, self.rate_floor).value(X)

    def gradient(self, X):
        return RecoveryObjective(self.ensemble, self.y, self.rate_floor).gradient(X)


def test_recovery_rate_cache_leaves_pmlsvt_results_unchanged():
    rng = seeded_rng(18)
    M = rng.uniform(1.0, 5.0, (6, 5))
    total = M.sum()
    fset = FeasibleSet(alpha=total, beta=1e-6, rank_budget=2,
                       total_intensity=total, entry_floor=1e-6)
    ens = build_sensing_ensemble(6, 5, 40, 0.5, seed=19)
    y = sample_compressive_counts(ens, M, seed=20)
    obj = recovery_objective(ens, y.counts, fset)
    cfg = SolverConfig(max_iter=80, step_recip=1e-4, penalty=0.01, mode="recovery")
    X_cached, tr_cached = pmlsvt(obj, fset, config=cfg)
    X_plain, tr_plain = pmlsvt(UncachedRecovery(obj), fset, config=cfg)
    assert X_cached.tobytes() == X_plain.tobytes()
    assert tr_cached.objective_values == tr_plain.objective_values
    assert tr_cached.step_control == tr_plain.step_control
    assert tr_cached.iterations_run == tr_plain.iterations_run
