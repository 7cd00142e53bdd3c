"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import os
import time

import numpy as np
import pytest

from oracles import finite_difference_gradient, l1_ball_qp_oracle, nuclear_prox_oracle
from plr.cli import main as cli_main
from plr.core import (CompletionObservations, FeasibleSet, load_dense_csv, seeded_rng)
from plr.metrics import (hellinger_lower_bound_factor, hellinger_matrix,
                         hellinger_poisson, kl_poisson, squared_error)
from plr.objectives import (MIN_RATE_FLOOR, CompletionObjective, RecoveryObjective,
                            completion_objective, recovery_objective)
from plr.projections import positive_rescale, project_l1_ball, svt
from plr.sensing import (apply_adjoint, apply_forward, build_sensing_ensemble,
                         sample_compressive_counts)
from plr.solvers import (SolverConfig, accelerated_proximal_gradient, pmlsvt,
                         proximal_gradient)
from plr.synthdata import (PatchLayout, gen_exact_low_rank, image_to_patch_matrix,
                           patch_matrix_to_image, rank_l_approx, read_pgm,
                           sample_completion_observations)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def report(num, name, elapsed, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {num} ({name}): PASS in {elapsed:.1f}s{extra}")


def test_criterion_01_svt_matches_subgradient_oracle():
    start = time.perf_counter()
    rng = seeded_rng(1001)
    worst = 0.0
    for _ in range(50):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 6))
        Z = rng.standard_normal((d1, d2)) * float(rng.uniform(0.5, 3.0))
        sigma1 = float(np.linalg.svd(Z, compute_uv=False)[0])
        for tau in (0.0, 0.5, sigma1 / 2.0, 2.0 * sigma1):
            err = float(np.linalg.norm(svt(Z, tau) - nuclear_prox_oracle(Z, tau)))
            worst = max(worst, err)
            assert err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, "svt oracle equivalence", elapsed, f"worst gap {worst:.2e}")


def test_criterion_02_l1_ball_matches_qp_oracle():
    start = time.perf_counter()
    assert np.allclose(project_l1_ball(np.array([3.0, 1.0]), 2.0), [2.0, 0.0])
    assert np.allclose(project_l1_ball(np.array([2.0, 2.0]), 2.0), [1.0, 1.0])
    rng = seeded_rng(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        v = rng.uniform(0.0, 3.0, n)
        radius = float(rng.uniform(0.05, 4.0))
        err = float(np.linalg.norm(project_l1_ball(v, radius) - l1_ball_qp_oracle(v, radius)))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "l1-ball projection oracle", elapsed, f"worst gap {worst:.2e}")


def test_criterion_03_gradient_finite_difference_agreement():
    start = time.perf_counter()
    rng = seeded_rng(1003)
    for _ in range(20):
        d1 = int(rng.integers(2, 9))
        d2 = int(rng.integers(2, 9))
        mask = rng.random((d1, d2)) < 0.7
        if not mask.any():
            mask[0, 0] = True
        rows, cols = np.nonzero(mask)
        obs = CompletionObservations(rows=rows, cols=cols,
                                     counts=rng.poisson(6.0, rows.size), dims=(d1, d2))
        X = rng.uniform(2.0, 20.0, (d1, d2))
        f = CompletionObjective(obs, MIN_RATE_FLOOR)
        G = f.gradient(X)
        Gfd = finite_difference_gradient(f.value, X)
        assert np.linalg.norm(G - Gfd) <= 1e-5 * max(np.linalg.norm(G), 1.0)
    for _ in range(20):
        d1 = int(rng.integers(2, 9))
        d2 = int(rng.integers(2, 9))
        m = int(rng.integers(2, 21))
        ens = build_sensing_ensemble(d1, d2, m, 0.5, seed=int(rng.integers(2**31)))
        M = rng.uniform(2.0, 12.0, (d1, d2))
        y = rng.poisson(np.maximum(apply_forward(ens, M), 0.0)).astype(float)
        X = rng.uniform(2.0, 12.0, (d1, d2))
        f = RecoveryObjective(ens, y, MIN_RATE_FLOOR)
        G = f.gradient(X)
        Gfd = finite_difference_gradient(f.value, X)
        assert np.linalg.norm(G - Gfd) <= 1e-5 * max(np.linalg.norm(G), 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "gradient checks", elapsed)


def test_criterion_04_convergence_envelopes():
    start = time.perf_counter()
    fset = FeasibleSet(alpha=20.0, beta=1.0, rank_budget=2)
    M = gen_exact_low_rank(6, 6, 2, fset, seed=42)
    obs = sample_completion_observations(M, 36.0, seed=43)
    obj = completion_objective(obs, fset)
    X0 = np.full((6, 6), 0.5 * (fset.alpha + fset.beta))
    L = fset.lipschitz()

    # With every entry observed the objective separates into x - y log x per
    # entry, minimized over [beta, alpha] at clip(y); that point lies inside
    # the nuclear ball, so it is the constrained minimizer.
    assert len(obs) == 36
    Y = np.zeros((6, 6))
    Y[obs.rows, obs.cols] = obs.counts
    Xstar = np.clip(Y, fset.beta, fset.alpha)
    assert np.linalg.svd(Xstar, compute_uv=False).sum() < fset.nuclear_radius(6, 6)
    fstar = obj.value(Xstar)
    D0 = squared_error(X0, Xstar)

    _, tr_pg = proximal_gradient(obj, fset, X0,
                                 SolverConfig(max_iter=10**4, mode="completion"))
    _, tr_acc = accelerated_proximal_gradient(
        obj, fset, X0, SolverConfig(max_iter=10**4, mode="completion"))

    ks = np.arange(1, 10**4 + 1)
    gap_pg = np.array(tr_pg.objective_values) - fstar
    assert np.all(gap_pg <= L * D0 / (2.0 * ks) + 1e-9)
    gap_acc = np.array(tr_acc.objective_values) - fstar
    assert np.all(gap_acc <= 2.0 * L * D0 / (ks + 1.0) ** 2 + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    margin_pg = float(np.min(L * D0 / (2.0 * ks) - gap_pg))
    margin_acc = float(np.min(2.0 * L * D0 / (ks + 1.0) ** 2 - gap_acc))
    report(4, "convergence envelopes", elapsed,
           f"min slack pg {margin_pg:.2e}, acc {margin_acc:.2e}")


def test_criterion_05_metric_identities():
    start = time.perf_counter()
    rng = seeded_rng(1005)
    p = rng.uniform(1e-3, 100.0, 10**4)
    q = rng.uniform(1e-3, 100.0, 10**4)
    assert np.all(hellinger_poisson(p, q) <= kl_poisson(p, q) + 1e-12)
    assert np.all(kl_poisson(p, q) <= (q - p) ** 2 / q + 1e-12)

    fset = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=5)
    factor = hellinger_lower_bound_factor(fset)
    for _ in range(1000):
        P = rng.uniform(fset.beta, fset.alpha, (5, 4))
        Q = rng.uniform(fset.beta, fset.alpha, (5, 4))
        lhs = hellinger_matrix(P, Q)
        rhs = factor * squared_error(P, Q) / P.size
        assert lhs >= rhs - 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "metric identities", elapsed, f"hellinger factor {factor:.3e}")


def test_criterion_06_sensing_invariants_and_poisson_tail():
    start = time.perf_counter()
    rng = seeded_rng(1006)
    for k in range(100):
        d1 = int(rng.integers(2, 17))
        d2 = int(rng.integers(2, 17))
        m = int(rng.integers(1, 65))
        ens = build_sensing_ensemble(d1, d2, m, 0.5, seed=k)
        vals = np.unique(ens.indicator_matrix())
        assert set(vals.tolist()) <= {0.0, 1.0}
        for _ in range(100):
            X = rng.uniform(0.0, 5.0, (d1, d2))
            out = apply_forward(ens, X)
            assert out.min() >= 0.0
            assert out.sum() <= X.sum() * (1.0 + 1e-12)
        for _ in range(3):
            X = rng.standard_normal((d1, d2))
            v = rng.standard_normal(m)
            lhs = float(np.dot(apply_forward(ens, X), v))
            rhs = float(np.vdot(X, apply_adjoint(ens, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    alpha = 5.0
    t = alpha * (np.e**2 - 3.0)
    n = 10**6
    draws = seeded_rng(60601).poisson(alpha, size=n)
    freq = float(np.mean(draws - alpha >= t))
    bound = float(np.exp(-t) + 3.0 * np.sqrt(np.exp(-t) / n))
    assert freq <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "sensing invariants + Poisson tail", elapsed,
           f"tail freq {freq:.1e} <= {bound:.1e}")


# ---------------------------------------------------------------------------
# desk-scale trend reproduction
# ---------------------------------------------------------------------------

def desk_phantom():
    """16x12 near-rank-3 phantom with total intensity 1e5."""
    img = read_pgm(os.path.join(DATA, "phantom16.pgm"))
    layout = PatchLayout(image_shape=(16, 12), patch_shape=(4, 4))
    M = image_to_patch_matrix(img[:, :12], layout)
    return positive_rescale(np.maximum(rank_l_approx(M, 3), 0.0), 1e5)


def recover_error(M, rho, m, lam, seed):
    """One PMLSVT recovery solve; returns the normalized error R/I^2."""
    Mr = rho * M
    total = Mr.sum()
    fset = FeasibleSet(alpha=total, beta=1e-9 * total, rank_budget=3,
                       total_intensity=total, entry_floor=1e-6)
    ens = build_sensing_ensemble(*Mr.shape, m, 0.5, seed)
    y = sample_compressive_counts(ens, Mr, seed + 500_000_007)
    obj = recovery_objective(ens, y.counts, fset)
    cfg = SolverConfig(max_iter=2500, step_recip=1e-5, step_scale=1.1,
                       penalty=lam, mode="recovery")
    Mhat, _ = pmlsvt(obj, fset, config=cfg)
    return squared_error(Mr, Mhat) / total**2


def test_criterion_07_trend_reproduction():
    start = time.perf_counter()
    M = desk_phantom()
    seeds = range(5)

    err_rho = {rho: np.mean([recover_error(M, rho, 400, 0.002, s) for s in seeds])
               for rho in (1.0, 4.0)}
    assert err_rho[4.0] < err_rho[1.0]

    err_m = {m: np.mean([recover_error(M, 4.0, m, 0.002, s) for s in seeds])
             for m in (200, 800)}
    assert err_m[800] < err_m[200]

    lam_grid = np.logspace(-3, 3, 7)
    lam_err = [np.mean([recover_error(M, 4.0, 400, lam, s) for s in seeds])
               for lam in lam_grid]
    best = int(np.argmin(lam_err))
    assert 0 < best < len(lam_grid) - 1, f"lambda minimum at endpoint: {lam_err}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, "trend reproduction", elapsed,
           f"rho {err_rho[1.0]:.2e}->{err_rho[4.0]:.2e}, "
           f"m {err_m[200]:.2e}->{err_m[800]:.2e}, best lambda {lam_grid[best]:g}")


def test_criterion_08_pmlsvt_tracks_exact_solver():
    start = time.perf_counter()
    fset = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=2)
    M = gen_exact_low_rank(20, 20, 2, fset, seed=808)
    obs = sample_completion_observations(M, 0.8 * 400, seed=809)
    obj = completion_objective(obs, fset)

    X_acc, _ = accelerated_proximal_gradient(
        obj, fset, np.full((20, 20), 100.5),
        SolverConfig(max_iter=20_000, mode="completion"))
    cfg = SolverConfig(max_iter=3000, step_recip=1e-4, step_scale=1.1,
                       penalty=1.0 / fset.nuclear_radius(20, 20), mode="completion")
    X_pml, _ = pmlsvt(obj, fset, config=cfg)

    rmse_acc = float(np.sqrt(np.mean((X_acc - M) ** 2)))
    rmse_pml = float(np.sqrt(np.mean((X_pml - M) ** 2)))
    assert rmse_pml <= 1.05 * rmse_acc
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, "pmlsvt tracks exact solver", elapsed,
           f"rmse ratio {rmse_pml / rmse_acc:.4f}")


def test_criterion_09_pipeline_reproducibility(tmp_path):
    start = time.perf_counter()
    cfg_text = (
        "mode = complete\nsource = synthetic\n"
        "d1 = 10\nd2 = 8\nrank = 2\nalpha = 50\nbeta = 1\np_obs = 0.75\nseed = 12\n"
        "solver = pmlsvt\nmax_iter = 300\nstep_recip = 1e-3\nlambda = 0.05\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(cfg_text)

    for out in ("a", "b"):
        assert cli_main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path / f"synth_{out}")]) == 0
    for name in ("M.csv", "obs.csv"):
        assert (tmp_path / "synth_a" / name).read_bytes() == \
            (tmp_path / "synth_b" / name).read_bytes()

    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text(
        "mode = complete\nsource = matrix\n"
        f"matrix_file = {tmp_path / 'synth_a' / 'M.csv'}\n"
        f"obs_file = {tmp_path / 'synth_a' / 'obs.csv'}\n"
        "alpha = 50\nbeta = 1\nrank_budget = 2\nseed = 12\n"
        "solver = pmlsvt\nmax_iter = 300\nstep_recip = 1e-3\nlambda = 0.05\n")
    for out in ("a", "b"):
        assert cli_main(["solve", "--config", str(solve_cfg),
                         "--out", str(tmp_path / f"run_{out}")]) == 0
    for name in ("Mhat.csv", "trace.csv"):
        assert (tmp_path / "run_a" / name).read_bytes() == \
            (tmp_path / "run_b" / name).read_bytes()
    strip = lambda p: b"\n".join(l for l in p.read_bytes().splitlines()
                                 if not l.startswith(b"wall_time_s="))
    assert strip(tmp_path / "run_a" / "metrics.txt") == \
        strip(tmp_path / "run_b" / "metrics.txt")

    img = read_pgm(os.path.join(DATA, "solar48.pgm"))
    layout = PatchLayout(image_shape=(48, 48), patch_shape=(8, 8))
    mat = image_to_patch_matrix(img, layout)
    assert mat.shape == (64, 36)
    assert np.array_equal(patch_matrix_to_image(mat, layout), img)
    elapsed = time.perf_counter() - start
    report(9, "pipeline reproducibility", elapsed)
