import numpy as np
import pytest

from oracles import exact_projection_oracle, g_nuclear, l1_ball_qp_oracle, nuclear_prox_oracle
from plr.core import DegenerateInputError, FeasibleSet, seeded_rng
from plr.projections import (alternating_project, positive_rescale, project_box,
                             project_l1_ball, project_nuclear_ball, svd_factors, svt)


class TestProjectBox:
    def test_lower_clamp(self):
        assert project_box(np.array([[0.5]]), 200.0, 1.0)[0, 0] == 1.0

    def test_upper_clamp(self):
        assert project_box(np.array([[300.0]]), 200.0, 1.0)[0, 0] == 200.0

    def test_idempotent_inside(self):
        X = seeded_rng(0).uniform(1.0, 200.0, (5, 4))
        assert np.array_equal(project_box(X, 200.0, 1.0), X)

    def test_nonexpansive(self):
        rng = seeded_rng(1)
        for _ in range(50):
            X = rng.uniform(-5, 10, (4, 6))
            Y = rng.uniform(-5, 10, (4, 6))
            dproj = np.linalg.norm(project_box(X, 8.0, 0.5) - project_box(Y, 8.0, 0.5))
            assert dproj <= np.linalg.norm(X - Y) + 1e-12


class TestProjectL1Ball:
    def test_pinned_examples(self):
        assert np.allclose(project_l1_ball(np.array([3.0, 1.0]), 2.0), [2.0, 0.0])
        assert np.allclose(project_l1_ball(np.array([2.0, 2.0]), 2.0), [1.0, 1.0])

    def test_inside_unchanged(self):
        v = np.array([1.0, 0.5])
        assert np.array_equal(project_l1_ball(v, 2.0), v)

    def test_matches_qp_oracle(self):
        rng = seeded_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            v = rng.uniform(0, 3, n)
            radius = float(rng.uniform(0.1, 4.0))
            got = project_l1_ball(v, radius)
            want = l1_ball_qp_oracle(v, radius)
            assert np.linalg.norm(got - want) <= 1e-8
            assert got.sum() <= radius + 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0, -0.1]), 1.0)
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0]), 0.0)


class TestProjectNuclearBall:
    def test_diagonal_example(self):
        got = project_nuclear_ball(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-12)

    def test_identity_inside_ball(self):
        X = seeded_rng(2).uniform(0, 1, (3, 4))
        radius = np.linalg.svd(X, compute_uv=False).sum() + 1.0
        assert np.array_equal(project_nuclear_ball(X, radius), X)

    def test_rank_one_rescales(self):
        rng = seeded_rng(3)
        u = rng.standard_normal(5)
        v = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        got = project_nuclear_ball(5.0 * np.outer(u, v), 2.0)
        assert np.allclose(got, 2.0 * np.outer(u, v), atol=1e-10)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_rejects_nonpositive_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            project_nuclear_ball(np.eye(2), radius)

    def test_nonexpansive_and_idempotent(self):
        rng = seeded_rng(4)
        for _ in range(30):
            X = rng.standard_normal((5, 4)) * 3
            Y = rng.standard_normal((5, 4)) * 3
            PX = project_nuclear_ball(X, 4.0)
            PY = project_nuclear_ball(Y, 4.0)
            assert np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-10
            assert np.linalg.norm(project_nuclear_ball(PX, 4.0) - PX) <= 1e-10


class TestPositiveRescale:
    def test_pinned_example(self):
        Z = np.array([[2.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(positive_rescale(Z, 6.0), [[4.0, 0.0], [2.0, 0.0]])

    def test_identity_when_already_scaled(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(positive_rescale(Z, 10.0), Z)
        ones = np.ones((3, 5))
        assert np.allclose(positive_rescale(ones, 15.0), ones)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            positive_rescale(-np.ones((2, 2)), 1.0)


class TestSvt:
    def test_diagonal_shrinkage(self):
        assert np.allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_tau_zero_identity(self):
        Z = seeded_rng(5).standard_normal((4, 3))
        assert np.array_equal(svt(Z, 0.0), Z)
        with pytest.raises(ValueError):
            svt(Z, -0.5)

    def test_antidiagonal_example_vs_oracle(self):
        Z = np.array([[0.0, 2.0], [1.0, 0.0]])
        got = svt(Z, 1.0)
        assert np.allclose(got, [[0.0, 1.0], [0.0, 0.0]], atol=1e-10)
        assert np.linalg.norm(got - nuclear_prox_oracle(Z, 1.0)) <= 1e-8

    def test_fixed_points(self):
        Z = seeded_rng(6).standard_normal((3, 3))
        assert np.array_equal(svt(Z, 0.0), Z)
        assert np.allclose(svt(np.zeros((3, 3)), 1.0), 0.0)

    def test_first_order_optimality_spot_check(self):
        rng = seeded_rng(7)
        for _ in range(5):
            Z = rng.standard_normal((4, 4)) * 2
            tau = float(rng.uniform(0.1, 3.0))
            X = svt(Z, tau)
            base = g_nuclear(X, Z, tau)
            for _ in range(100):
                delta = rng.standard_normal((4, 4))
                delta *= rng.uniform(1e-4, 1e-1) / np.linalg.norm(delta)
                assert g_nuclear(X + delta, Z, tau) >= base - 1e-12


class TestSvdFactors:
    def test_orthonormal_sorted_signed(self):
        rng = seeded_rng(8)
        X = rng.standard_normal((6, 4)) * 3
        U, s, Vt = svd_factors(X)
        d = s.size
        assert np.allclose(U.T @ U, np.eye(d), atol=1e-10)
        assert np.allclose(Vt @ Vt.T, np.eye(d), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.allclose((U * s) @ Vt, X, atol=1e-10)


class TestAlternatingProject:
    def setup_method(self):
        self.fs = FeasibleSet(alpha=10.0, beta=1.0, rank_budget=1)

    def test_fixed_point(self):
        X = np.full((4, 4), 2.0)  # nuclear norm 8 << radius 40
        res = alternating_project(X, self.fs)
        assert res.converged and np.array_equal(res.matrix, X)

    def test_box_only_violation(self):
        X = np.full((4, 4), 2.0)
        X[0, 0] = 12.0
        res = alternating_project(X, self.fs)
        assert res.converged
        assert np.array_equal(res.matrix, np.clip(X, 1.0, 10.0))

    def test_output_always_in_box(self):
        rng = seeded_rng(9)
        for _ in range(20):
            U0 = rng.uniform(-5, 20, (6, 5))
            res = alternating_project(U0, self.fs)
            assert res.matrix.min() >= 1.0 - 1e-12
            assert res.matrix.max() <= 10.0 + 1e-12
            radius = self.fs.nuclear_radius(6, 5)
            nuc = np.linalg.svd(res.matrix, compute_uv=False).sum()
            assert nuc <= radius + max(res.gap, 1e-8) + 1e-9

    def test_near_cases_match_exact_projection(self):
        # plain alternating projection finds a point of the intersection, not
        # the nearest one in general; for mild violations it coincides with
        # the exact projection to high accuracy
        rng = seeded_rng(10)
        base = rng.uniform(self.fs.beta, self.fs.alpha, (10, 8))
        radius = self.fs.nuclear_radius(10, 8)
        base = np.clip(project_nuclear_ball(base, radius), self.fs.beta, self.fs.alpha)
        for eps in (1e-3, 1e-2, 1e-1):
            U0 = base + eps * np.abs(rng.standard_normal((10, 8)))
            got = alternating_project(U0, self.fs, tol=1e-10).matrix
            want = exact_projection_oracle(U0, self.fs)
            assert np.linalg.norm(got - want) <= 1e-6

    def test_nonconvergence_is_flagged_not_raised(self):
        # box violation needs a second sweep to certify the gap
        X = np.full((4, 4), 2.0)
        X[0, 0] = 12.0
        res = alternating_project(X, self.fs, tol=1e-12, max_iter=1)
        assert not res.converged and res.iterations == 1 and res.gap > 1e-12

    def test_one_sweep_is_the_clamped_nuclear_projection(self):
        X = seeded_rng(11).uniform(0.0, 30.0, (6, 5))
        radius = self.fs.nuclear_radius(6, 5)
        assert np.linalg.svd(X, compute_uv=False).sum() > radius  # the ball binds
        got = alternating_project(X, self.fs, max_iter=1).matrix
        want = np.clip(project_nuclear_ball(X, radius), self.fs.beta, self.fs.alpha)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kwargs,message", [
        (dict(max_iter=0), "max_iter must be >= 1, got 0"),
        (dict(tol=0.0), "tol must be positive, got 0.0")], ids=["max_iter", "tol"])
    def test_rejects_bad_loop_settings(self, kwargs, message):
        # a 3x3 matrix of 50s lies outside the box [1, 10]: no sweep may be skipped
        with pytest.raises(ValueError, match=message):
            alternating_project(np.full((3, 3), 50.0), self.fs, **kwargs)
