import numpy as np
import pytest

import plr.objectives
import plr.solvers
from oracles import finite_difference_gradient
from plr.core import (CompletionObservations, FeasibleSet, RateFloorError, ShapeMismatchError,
                      seeded_rng)
from plr.objectives import (MIN_RATE_FLOOR, CompletionObjective, RecoveryObjective,
                            completion_objective, quadratic_model, recovery_objective)
from plr.sensing import (SensingEnsemble, apply_forward, build_sensing_ensemble,
                         sample_compressive_counts)
from plr.solvers import SolverConfig, pmlsvt


def single_obs(count, dims=(1, 1)):
    return CompletionObservations(rows=[0], cols=[0], counts=[count], dims=dims)


def all_ones_ensemble(d1, d2):
    packed = np.packbits(np.ones((1, d1 * d2), dtype=np.uint8), axis=1)
    return SensingEnsemble(d1=d1, d2=d2, m=1, p=0.01, seed=0, packed=packed)


class TestNllCompletion:
    def test_arithmetic_examples(self):
        X = np.array([[1.0]])
        for count in (1, 2):
            f = CompletionObjective(single_obs(count), MIN_RATE_FLOOR)
            assert f.value(X) == pytest.approx(1.0)

    def test_empty_sum(self):
        obs = CompletionObservations(rows=[], cols=[], counts=[], dims=(2, 2))
        assert CompletionObjective(obs, MIN_RATE_FLOOR).value(np.ones((2, 2))) == 0.0

    def test_rate_floor_names_entry(self):
        obs = CompletionObservations(rows=[0, 1], cols=[0, 1], counts=[1, 1], dims=(2, 2))
        X = np.ones((2, 2))
        X[1, 1] = 0.5
        with pytest.raises(RateFloorError) as err:
            CompletionObjective(obs, 1.0).value(X)
        assert err.value.index == (1, 1)
        assert str(err.value) == "entry (1, 1) = 0.5 is below the rate floor 1.0"

    @pytest.mark.parametrize("method", ["value", "gradient"])
    def test_wrong_shape_is_rejected(self, method):
        f = CompletionObjective(single_obs(3, dims=(2, 3)), MIN_RATE_FLOOR)
        with pytest.raises(ShapeMismatchError, match=r"\(3, 2\) does not match \(2, 3\)"):
            getattr(f, method)(np.ones((3, 2)))

    @pytest.mark.parametrize("cell", [(0, 0), (1, 2)], ids=["observed", "unobserved"])
    @pytest.mark.parametrize("method", ["value", "gradient"])
    def test_nan_is_rejected(self, method, cell):
        # a NaN is neither below the rate floor nor skipped when unobserved
        f = CompletionObjective(single_obs(3, dims=(2, 3)), MIN_RATE_FLOOR)
        X = np.ones((2, 3))
        X[cell] = np.nan
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            getattr(f, method)(X)

    def test_convexity_probe(self):
        rng = seeded_rng(1)
        fset = FeasibleSet(alpha=30.0, beta=1.0)
        obs = CompletionObservations(rows=[0, 0, 1, 2], cols=[0, 2, 1, 0],
                                     counts=[4, 0, 9, 2], dims=(3, 3))
        f = CompletionObjective(obs, MIN_RATE_FLOOR)
        for _ in range(50):
            U = rng.uniform(fset.beta, fset.alpha, (3, 3))
            V = rng.uniform(fset.beta, fset.alpha, (3, 3))
            mid = f.value(0.5 * (U + V))
            avg = 0.5 * (f.value(U) + f.value(V))
            assert mid <= avg + 1e-10 * max(abs(avg), 1.0)


class TestGradCompletion:
    def test_matched_rate_is_stationary(self):
        obs = single_obs(5)
        assert CompletionObjective(obs, MIN_RATE_FLOOR).gradient(np.array([[5.0]]))[0, 0] == 0.0

    def test_zero_count_gradient_is_one(self):
        obs = single_obs(0)
        assert CompletionObjective(obs, MIN_RATE_FLOOR).gradient(np.array([[1.0]]))[0, 0] == 1.0

    def test_zero_off_support(self):
        obs = CompletionObservations(rows=[0], cols=[1], counts=[3], dims=(2, 3))
        G = CompletionObjective(obs, MIN_RATE_FLOOR).gradient(np.full((2, 3), 2.0))
        assert G[0, 1] != 0 and np.count_nonzero(G) == 1

    def test_matches_finite_differences(self):
        rng = seeded_rng(2)
        fset = FeasibleSet(alpha=25.0, beta=1.0)
        mask = rng.random((6, 5)) < 0.7
        rows, cols = np.nonzero(mask)
        obs = CompletionObservations(rows=rows, cols=cols,
                                     counts=rng.poisson(8.0, rows.size),
                                     dims=(6, 5))
        X = rng.uniform(2.0, 20.0, (6, 5))
        f = CompletionObjective(obs, MIN_RATE_FLOOR)
        G = f.gradient(X)
        Gfd = finite_difference_gradient(f.value, X)
        assert np.linalg.norm(G - Gfd) <= 1e-5 * max(np.linalg.norm(G), 1.0)


class TestNllRecovery:
    def test_arithmetic_example(self):
        # single all-ones mask (m=1), sum(X) = 2, y = 3: f = 2 - 3*log(2)
        ens = all_ones_ensemble(1, 2)
        X = np.array([[0.5, 1.5]])
        got = RecoveryObjective(ens, np.array([3.0]), MIN_RATE_FLOOR).value(X)
        assert got == pytest.approx(2.0 - 3.0 * np.log(2.0))

    def test_zero_counts_leave_linear_term(self):
        ens = build_sensing_ensemble(3, 3, 5, 0.5, seed=3)
        X = seeded_rng(4).uniform(0.5, 2.0, (3, 3))
        got = RecoveryObjective(ens, np.zeros(5), MIN_RATE_FLOOR).value(X)
        assert got == pytest.approx(apply_forward(ens, X).sum())

    def test_zero_rate_zero_count_contributes_nothing(self):
        packed = np.zeros((1, 1), dtype=np.uint8)
        ens = SensingEnsemble(d1=2, d2=2, m=1, p=0.5, seed=0, packed=packed)
        f = RecoveryObjective(ens, np.array([0.0]), MIN_RATE_FLOOR)
        assert f.value(np.ones((2, 2))) == 0.0

    def test_positive_count_below_floor_raises(self):
        packed = np.zeros((2, 1), dtype=np.uint8)
        packed[0] = np.packbits(np.array([1, 1, 1, 1], dtype=np.uint8))[0]
        ens = SensingEnsemble(d1=2, d2=2, m=2, p=0.5, seed=0, packed=packed)
        with pytest.raises(RateFloorError) as err:
            RecoveryObjective(ens, np.array([1.0, 2.0]), 1e-9).value(np.ones((2, 2)))
        assert err.value.index == 1
        assert str(err.value) == "measurement 1 has count 2.0 but rate 0.0 below the floor 1e-09"

    def test_count_vector_of_another_length_raises_at_construction(self):
        ens = build_sensing_ensemble(2, 2, 3, 0.5, seed=0)
        with pytest.raises(ShapeMismatchError, match=r"\(4,\) does not match ensemble size m=3"):
            RecoveryObjective(ens, np.ones(ens.m + 1), 1e-9)

    @pytest.mark.parametrize("bad,shown", [(-7.0, "-7.0"), (np.nan, "nan"), (np.inf, "inf")])
    def test_negative_or_non_finite_count_raises_at_construction(self, bad, shown):
        # if accepted, each gives a zero count's value, or -inf and a NaN gradient
        ens = build_sensing_ensemble(4, 5, 6, 0.5, seed=0)
        y = np.array([3.0, 0.0, 1.5, 2.0, 0.0, 4.0])
        RecoveryObjective(ens, y, 1e-9)  # real-valued counts >= 0 are allowed
        y[2] = bad
        with pytest.raises(ValueError, match=rf"count {shown} must be finite and nonnegative"):
            RecoveryObjective(ens, y, 1e-9)

    def test_convexity_probe(self):
        rng = seeded_rng(30)
        ens = build_sensing_ensemble(4, 4, 8, 0.5, seed=31)
        M = rng.uniform(1.0, 8.0, (4, 4))
        y = rng.poisson(apply_forward(ens, M)).astype(float)
        f = RecoveryObjective(ens, y, MIN_RATE_FLOOR)
        for _ in range(50):
            U = rng.uniform(0.5, 8.0, (4, 4))
            V = rng.uniform(0.5, 8.0, (4, 4))
            mid = f.value(0.5 * (U + V))
            avg = 0.5 * (f.value(U) + f.value(V))
            assert mid <= avg + 1e-10 * max(abs(avg), 1.0)


class TestGradRecovery:
    def test_matched_rates_zero_gradient(self):
        ens = build_sensing_ensemble(3, 4, 6, 0.5, seed=5)
        X = seeded_rng(6).uniform(1.0, 3.0, (3, 4))
        y = apply_forward(ens, X)
        G = RecoveryObjective(ens, y, MIN_RATE_FLOOR).gradient(X)
        assert np.allclose(G, 0.0, atol=1e-12)

    def test_zero_counts_give_mask_sum(self):
        ens = build_sensing_ensemble(3, 4, 6, 0.5, seed=7)
        X = np.ones((3, 4))
        want = sum(ens.mask_dense(i) for i in range(ens.m))
        G = RecoveryObjective(ens, np.zeros(6), MIN_RATE_FLOOR).gradient(X)
        assert np.allclose(G, want)

    def test_matches_finite_differences(self):
        rng = seeded_rng(8)
        ens = build_sensing_ensemble(4, 4, 6, 0.5, seed=9)
        M = rng.uniform(2.0, 10.0, (4, 4))
        y = rng.poisson(apply_forward(ens, M)).astype(float)
        X = rng.uniform(2.0, 10.0, (4, 4))
        f = RecoveryObjective(ens, y, MIN_RATE_FLOOR)
        G = f.gradient(X)
        Gfd = finite_difference_gradient(f.value, X)
        assert np.linalg.norm(G - Gfd) <= 1e-5 * max(np.linalg.norm(G), 1.0)


class TestLipschitz:
    def test_empirical_gradient_lipschitz(self):
        # counts capped at alpha so the Hessian bound alpha/beta^2 applies
        rng = seeded_rng(10)
        fset = FeasibleSet(alpha=20.0, beta=1.0)
        L = fset.lipschitz()
        rows, cols = np.nonzero(np.ones((4, 4), dtype=bool))
        counts = np.minimum(rng.poisson(6.0, rows.size), int(fset.alpha))
        obs = CompletionObservations(rows=rows, cols=cols, counts=counts, dims=(4, 4))
        f = CompletionObjective(obs, MIN_RATE_FLOOR)
        for _ in range(100):
            U = rng.uniform(fset.beta, fset.alpha, (4, 4))
            V = rng.uniform(fset.beta, fset.alpha, (4, 4))
            dG = np.linalg.norm(f.gradient(U) - f.gradient(V))
            assert dG <= L * np.linalg.norm(U - V) + 1e-9


class TestQuadraticModel:
    def test_zero_displacement(self):
        X = np.ones((2, 2))
        assert quadratic_model(4.2, np.zeros((2, 2)), X, X, 3.0) == pytest.approx(4.2)

    def test_pure_quadratic(self):
        X_prev = np.zeros((2, 2))
        X = np.array([[1.0, 0.0], [0.0, 0.0]])  # ||X - X_prev||_F = 1
        assert quadratic_model(1.0, np.zeros((2, 2)), X, X_prev, 2.0) == pytest.approx(2.0)

    def test_rejects_nonpositive_t(self):
        X = np.ones((2, 2))
        with pytest.raises(ValueError):
            quadratic_model(0.0, X, X, X, 0.0)

    def test_descent_lemma_majorization(self):
        # t >= L makes Q_t an upper model of f on the box
        rng = seeded_rng(11)
        fset = FeasibleSet(alpha=20.0, beta=1.0)
        L = fset.lipschitz()
        rows, cols = np.nonzero(np.ones((4, 4), dtype=bool))
        counts = np.minimum(rng.poisson(5.0, rows.size), int(fset.alpha))
        obs = CompletionObservations(rows=rows, cols=cols, counts=counts, dims=(4, 4))
        f = CompletionObjective(obs, MIN_RATE_FLOOR)
        for _ in range(100):
            Xp = rng.uniform(fset.beta, fset.alpha, (4, 4))
            X = rng.uniform(fset.beta, fset.alpha, (4, 4))
            Q = quadratic_model(f.value(Xp), f.gradient(Xp), X, Xp, L)
            assert f.value(X) <= Q + 1e-9


class TestHandles:
    def test_completion_floor_is_beta(self):
        fset = FeasibleSet(alpha=9.0, beta=2.0)
        obj = completion_objective(single_obs(3), fset)
        assert obj.rate_floor == 2.0
        assert obj.kind == "completion"

    def test_recovery_floor_is_c_over_m(self):
        fset = FeasibleSet(alpha=9.0, beta=2.0, entry_floor=0.4)
        ens = build_sensing_ensemble(2, 2, 8, 0.5, seed=0)
        obj = recovery_objective(ens, np.zeros(8), fset)
        assert obj.rate_floor == pytest.approx(0.4 / 8)
        assert obj.kind == "recovery"

    def test_value_gradient_delegate(self):
        # both methods of a factory handle enforce its floor beta
        fset = FeasibleSet(alpha=9.0, beta=2.0)
        obj = completion_objective(single_obs(4, dims=(2, 2)), fset)
        for method in (obj.value, obj.gradient):
            method(np.full((2, 2), 2.0))  # at the floor: accepted
            with pytest.raises(RateFloorError) as err:
                method(np.full((2, 2), 1.5))
            assert err.value.index == (0, 0)


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that calls are counted; returns the counter list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRecoveryRateCache:
    @staticmethod
    def problem():
        rng = seeded_rng(40)
        M = rng.uniform(1.0, 5.0, (5, 4))
        total = M.sum()
        fset = FeasibleSet(alpha=total, beta=1e-6, rank_budget=2,
                           total_intensity=total, entry_floor=1e-6)
        ens = build_sensing_ensemble(5, 4, 30, 0.5, seed=41)
        y = sample_compressive_counts(ens, M, seed=42).counts
        return ens, y.astype(float), fset, rng.uniform(1.0, 5.0, (5, 4))

    def test_pmlsvt_applies_forward_once_per_trial(self, monkeypatch):
        ens, y, fset, _ = self.problem()
        obj = recovery_objective(ens, y, fset)
        forward = count_calls(monkeypatch, plr.objectives, "apply_forward")
        trials = count_calls(monkeypatch, plr.solvers, "svd_factors")
        cfg = SolverConfig(max_iter=40, step_recip=1e-4, penalty=0.01, mode="recovery")
        _, trace = pmlsvt(obj, fset, config=cfg)
        assert len(trials) > trace.iterations_run  # some trials were rejected
        assert len(forward) == len(trials) + 1

    def test_gradient_after_value_is_bitwise_uncached(self):
        ens, y, fset, X = self.problem()
        obj = recovery_objective(ens, y, fset)
        assert obj.value(X) == RecoveryObjective(ens, y, obj.rate_floor).value(X)
        G = obj.gradient(X)
        want = RecoveryObjective(ens, y, obj.rate_floor).gradient(X)
        assert G.tobytes() == want.tobytes()

    def test_in_place_change_is_not_served_stale_rates(self):
        ens, y, fset, X = self.problem()
        obj = recovery_objective(ens, y, fset)
        G_old = obj.gradient(X.copy())
        obj.value(X)
        X[2, 1] += 0.5
        G = obj.gradient(X)
        want = RecoveryObjective(ens, y, obj.rate_floor).gradient(X)
        assert G.tobytes() == want.tobytes()
        assert not np.array_equal(G, G_old)

    @pytest.mark.parametrize("first", ["value", "gradient"])
    def test_rate_floor_raises_on_cached_and_uncached_path(self, monkeypatch, first):
        packed = np.zeros((2, 1), dtype=np.uint8)
        packed[0] = np.packbits(np.array([1, 1, 1, 1], dtype=np.uint8))[0]
        ens = SensingEnsemble(d1=2, d2=2, m=2, p=0.5, seed=0, packed=packed)
        obj = RecoveryObjective(ens, np.array([1.0, 2.0]), 1e-9)
        forward = count_calls(monkeypatch, plr.objectives, "apply_forward")
        X = np.ones((2, 2))
        for method in (first, "value", "gradient"):
            with pytest.raises(RateFloorError) as err:
                getattr(obj, method)(X)
            assert err.value.index == 1
        assert len(forward) == 1  # the later calls reused the rates and re-checked them

    def test_non_finite_point_still_rejected(self):
        ens, y, fset, X = self.problem()
        obj = recovery_objective(ens, y, fset)
        obj.value(X)
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            obj.gradient(X)
