import math

import numpy as np
import pytest

from plr.core import FeasibleSet, ShapeMismatchError, seeded_rng
from plr.metrics import (BoundConstants, completion_upper_bound,
                         hellinger_lower_bound_factor, hellinger_matrix,
                         hellinger_poisson, kl_matrix, kl_poisson,
                         recovery_bound_bracket, recovery_bound_factors,
                         squared_error)


class TestSquaredError:
    def test_zero_iff_equal(self):
        M = seeded_rng(0).uniform(0, 5, (3, 4))
        assert squared_error(M, M) == 0.0
        assert squared_error(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 5.0

    def test_quadratic_scaling(self):
        rng = seeded_rng(1)
        M, N = rng.uniform(0, 3, (4, 4)), rng.uniform(0, 3, (4, 4))
        assert squared_error(3 * M, 3 * N) == pytest.approx(9 * squared_error(M, N))

    def test_shape_mismatch(self):
        for metric in (squared_error, kl_matrix, hellinger_matrix):
            with pytest.raises(ShapeMismatchError):
                metric(np.ones((2, 2)), np.ones((2, 3)))


class TestKl:
    def test_zero_at_equal(self):
        assert kl_poisson(3.7, 3.7) == 0.0

    def test_arithmetic_example(self):
        assert kl_poisson(1.0, 2.0) == pytest.approx(1.0 - math.log(2.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kl_poisson(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_poisson(1.0, -2.0)

    def test_quadratic_over_y_upper_bound(self):
        # D(x||y) <= (y-x)^2 / y on positive pairs
        rng = seeded_rng(2)
        x = rng.uniform(0.01, 50, 10**4)
        y = rng.uniform(0.01, 50, 10**4)
        assert np.all(kl_poisson(x, y) <= (y - x) ** 2 / y + 1e-12)

    def test_matrix_form_is_entry_average(self):
        rng = seeded_rng(3)
        P = rng.uniform(0.5, 9, (5, 4))
        Q = rng.uniform(0.5, 9, (5, 4))
        want = np.mean([kl_poisson(p, q) for p, q in zip(P.ravel(), Q.ravel())])
        assert kl_matrix(P, Q) == pytest.approx(want)


class TestHellinger:
    def test_zero_at_equal(self):
        assert hellinger_poisson(2.5, 2.5) == 0.0

    def test_arithmetic_example(self):
        assert hellinger_poisson(1.0, 4.0) == pytest.approx(2.0 - 2.0 * math.exp(-0.5))

    def test_symmetry_and_range(self):
        rng = seeded_rng(4)
        p = rng.uniform(0, 30, 1000)
        q = rng.uniform(0, 30, 1000)
        d = hellinger_poisson(p, q)
        assert np.allclose(d, hellinger_poisson(q, p))
        assert np.all((0 <= d) & (d < 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hellinger_poisson(-0.1, 1.0)

    def test_matrix_form_is_entry_average(self):
        rng = seeded_rng(5)
        P = rng.uniform(0.5, 9, (3, 6))
        Q = rng.uniform(0.5, 9, (3, 6))
        want = np.mean([hellinger_poisson(p, q) for p, q in zip(P.ravel(), Q.ravel())])
        assert hellinger_matrix(P, Q) == pytest.approx(want)

    def test_dominated_by_kl(self):
        rng = seeded_rng(6)
        p = rng.uniform(1e-3, 100, 10**4)
        q = rng.uniform(1e-3, 100, 10**4)
        assert np.all(hellinger_poisson(p, q) <= kl_poisson(p, q) + 1e-12)


class TestHellingerLowerBoundFactor:
    def test_arithmetic_example(self):
        # alpha = 2*beta, beta = 1: T = 1/8, factor = (1 - e^-T)/(4*2*T)
        factor = hellinger_lower_bound_factor(FeasibleSet(alpha=2.0, beta=1.0))
        assert factor == pytest.approx((1 - math.exp(-0.125)) / 1.0, rel=1e-12)
        assert factor == pytest.approx(0.117503, abs=5e-7)

    def test_limit_as_alpha_meets_beta(self):
        factor = hellinger_lower_bound_factor(FeasibleSet(alpha=3.0 + 1e-9, beta=3.0))
        assert factor == pytest.approx(1.0 / 12.0, rel=1e-8)

    def test_inequality_on_random_box_pairs(self):
        fset = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=3)
        factor = hellinger_lower_bound_factor(fset)
        rng = seeded_rng(7)
        for _ in range(200):
            P = rng.uniform(fset.beta, fset.alpha, (6, 5))
            Q = rng.uniform(fset.beta, fset.alpha, (6, 5))
            lhs = hellinger_matrix(P, Q)
            rhs = factor * squared_error(P, Q) / P.size
            assert lhs >= rhs - 1e-12


class TestCompletionUpperBound:
    def test_pinned_regression_value(self):
        # frozen from the explicit arithmetic of the simplified bound
        fs = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=10)
        assert completion_upper_bound(fs, 64, 36, 1152) == pytest.approx(
            2298038913078.17, rel=1e-12)

    def test_sqrt_m_scaling_in_simplified_regime(self):
        fs = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=10)
        b1 = completion_upper_bound(fs, 64, 36, 1152)
        b2 = completion_upper_bound(fs, 64, 36, 2304)
        assert b1 == pytest.approx(math.sqrt(2) * b2)

    def test_small_m_keeps_extra_bracket(self):
        fs = FeasibleSet(alpha=4.0, beta=1.0, rank_budget=2)
        d1 = d2 = 16
        m = 40  # below (d1+d2)*log(d1*d2)
        base = (8 * 4.0 * ((4 - 1) ** 2 / 8.0) / (1 - math.exp(-(4 - 1) ** 2 / 8.0))
                * (4.0 * math.sqrt(2)) * (4.0 * (math.e**2 - 2) + 3 * math.log(256.0))
                * math.sqrt(32 / 40.0))
        want = base * math.sqrt(1 + 32 * math.log(256.0) / 40.0)
        assert completion_upper_bound(fs, d1, d2, m) == pytest.approx(want)

    def test_vanishing_t_limit(self):
        # 8*alpha*T/(1 - e^-T) -> 8*alpha as alpha -> beta
        fs = FeasibleSet(alpha=1.0 + 1e-10, beta=1.0, rank_budget=1)
        want = math.sqrt(2) * 8.0 * (math.e**2 - 2 + 3 * math.log(64.0)) * math.sqrt(16 / 400.0)
        assert completion_upper_bound(fs, 8, 8, 400) == pytest.approx(want, rel=1e-6)


class TestRecoveryBoundFactors:
    def test_bracket_at_one(self):
        c = BoundConstants()
        approx, penalty = recovery_bound_bracket(1.0, 64, 36, 1e6, 0.01, c)
        assert approx == pytest.approx(c.c0 * c.rho**2)
        assert penalty == pytest.approx(0.01 * 104 * math.log2(36) / 2e6)

    def test_huge_lambda_clips_to_one(self):
        out = recovery_bound_factors(64, 36, 1152, 1e6, 1e12)
        assert out.ell_min == 1.0

    def test_interior_matches_integer_grid(self):
        c = BoundConstants()
        out = recovery_bound_factors(64, 36, 10**6, 1e6, 0.01, c)
        assert 1.0 < out.ell_min < out.ell_star
        grid = np.arange(1, int(out.ell_star) + 1)
        vals = [sum(recovery_bound_bracket(l, 64, 36, 1e6, 0.01, c)) for l in grid]
        best = grid[int(np.argmin(vals))]
        # continuous minimizer sits within one grid step of the integer argmin
        assert abs(out.ell_min - best) <= 1.0
        assert out.bracket <= min(vals) + 1e-15

    def test_capped_at_ell_star(self):
        out = recovery_bound_factors(64, 36, 1152, 1e6, 0.01)
        assert out.ell_min == pytest.approx(out.ell_star)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            BoundConstants(q=1.0)
        with pytest.raises(ValueError):
            BoundConstants(c0=-1.0)
        assert BoundConstants(q=0.5).alpha_prime == pytest.approx(1.5)
        assert BoundConstants().xi_p == 1.0
