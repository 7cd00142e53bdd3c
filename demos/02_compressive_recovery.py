"""Recover a near-rank-10 intensity matrix from compressive Poisson counts.

The 48x48 fixture becomes a 64x36 patch matrix; its rank-10 truncation
(positive part, rescaled to a total intensity of 3.27e6) is the ground
truth.  Measurements are traces against m random {0, 1/m} masks, each count
Poisson-distributed.  Two experiments:

  * scale the intensity by rho = 1..9 at m = 1000 and watch the normalized
    error R/I^2 fall as the photon budget grows;
  * sweep the nuclear penalty over a log grid at rho = 4 and print, per
    seed, the estimate's numerical rank (singular values above 1) and the
    iterations run.  It shows no interior optimum.  Below lambda = 0.01 the
    estimate keeps 30 to 36 of its 36 singular values.  From 0.01 on it is
    rank 1, and up to lambda = 1 its error does not move: each iterate is
    rescaled to the total intensity, which undoes the shrink of any rank-1
    matrix.  No penalty on the grid gives the truth's rank 10.

Pass ``quick`` as an argument to run a reduced rho grid.
"""

import os
import sys
import time

import numpy as np

from plr import (FeasibleSet, PatchLayout, SolverConfig, build_sensing_ensemble,
                 image_to_patch_matrix, pmlsvt, positive_rescale, rank_l_approx,
                 read_pgm, recovery_objective, sample_compressive_counts,
                 squared_error)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def ground_truth():
    image = read_pgm(os.path.join(DATA, "solar48.pgm"))
    layout = PatchLayout(image_shape=(48, 48), patch_shape=(8, 8))
    M0 = image_to_patch_matrix(image, layout)
    # rescaled to the total intensity the solver parameters were tuned for
    return positive_rescale(np.maximum(rank_l_approx(M0, 10), 0.0), 3.27e6)


def recover(M, m, lam, seed=7):
    total = M.sum()
    fset = FeasibleSet(alpha=total, beta=1e-9 * total, rank_budget=10,
                       total_intensity=total, entry_floor=1e-6)
    ensemble = build_sensing_ensemble(*M.shape, m, 0.5, seed)
    y = sample_compressive_counts(ensemble, M, seed + 1)
    obj = recovery_objective(ensemble, y.counts, fset)
    config = SolverConfig(max_iter=2500, step_recip=1e-5, step_scale=1.1,
                          penalty=lam, mode="recovery")
    Mhat, trace = pmlsvt(obj, fset, config=config)
    rank = int(np.sum(np.linalg.svd(Mhat, compute_uv=False) > 1.0))
    return squared_error(M, Mhat) / total**2, trace.iterations_run, rank


def main():
    quick = "quick" in sys.argv[1:]
    Mbar = ground_truth()
    print(f"ground truth: 64x36, I = {Mbar.sum():.3g}")

    rhos = (1, 3, 7) if quick else range(1, 10)
    seeds = (7, 8, 9)
    print(f"\nintensity scaling (m = 1000, lambda = 0.002, {len(seeds)} seeds):")
    for rho in rhos:
        start = time.perf_counter()
        errs = [recover(rho * Mbar, 1000, 0.002, seed=s)[0] for s in seeds]
        print(f"  rho = {rho}: R/I^2 = {np.mean(errs):.3e} +- {np.std(errs):.1e}  "
              f"({time.perf_counter() - start:.1f}s)")

    print("\npenalty sweep (rho = 4, m = 1000; numerical rank = singular values above 1,"
          " per seed):")
    for lam in np.logspace(-4, 2, 7):
        errs, iters, ranks = zip(*(recover(4.0 * Mbar, 1000, lam, seed=s) for s in seeds))
        print(f"  lambda = {lam:8.4g}: R/I^2 = {np.mean(errs):.3e}  "
              f"rank {'/'.join(map(str, ranks))}  iterations {'/'.join(map(str, iters))}")


if __name__ == "__main__":
    main()
