"""Denoise and complete hourly ride counts with half the cells missing.

The fixture holds 24 hours x 8 days of counts built from two daily profiles:
commute peaks on weekdays, a broad midday bump on days 6 and 7.  Each cell is
kept with probability 0.5; the observed counts are treated as Poisson draws
of an unknown intensity matrix, which the thresholding solver estimates.
There is no ground-truth intensity for observed data, so the script reports
the fit on held-out cells and checks that the recovered matrix separates the
weekend pattern from the weekday one.

The nuclear penalty follows the toy size (a 24x105 matrix of full-year data
supports a much larger penalty than these 8 days).
"""

import os

import numpy as np

from plr import (CompletionObservations, FeasibleSet, SolverConfig,
                 completion_objective, load_count_csv, pmlsvt, seeded_rng)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def main():
    counts, present = load_count_csv(os.path.join(DATA, "bike_toy.csv"))
    d1, d2 = counts.shape
    keep = (seeded_rng(11).random(counts.shape) < 0.5) & present
    rows, cols = np.nonzero(keep)
    obs = CompletionObservations(rows=rows, cols=cols,
                                 counts=counts[rows, cols].astype(np.int64),
                                 dims=(d1, d2))
    print(f"{len(obs)} of {d1 * d2} cells observed, counts up to {counts.max():.0f}")

    fset = FeasibleSet(alpha=1000.0, beta=1.0, rank_budget=2)
    config = SolverConfig(max_iter=4000, step_recip=1e-4, step_scale=1.1,
                          penalty=2.0, mode="completion")
    Mhat, trace = pmlsvt(completion_objective(obs, fset), fset, config=config)
    rank = int(np.sum(np.linalg.svd(Mhat, compute_uv=False) > 1.0))
    print(f"solved in {trace.iterations_run} iterations ({trace.terminated_by}), "
          f"numerical rank {rank}")

    held = present & ~keep
    rmse = np.sqrt(np.mean((counts[held] - Mhat[held]) ** 2))
    print(f"held-out RMSE vs raw counts: {rmse:.1f} "
          f"(vs {counts[held].std():.1f} for a constant predictor)")

    # weekend days ride midday, weekdays at the evening commute
    profile = Mhat / Mhat.mean(axis=0, keepdims=True)
    ratio = profile[13] / profile[17]  # 2pm vs 6pm
    print("\nmidday-to-evening ratio per day (weekend days 6-7 ride midday):")
    for d in range(d2):
        tag = "weekend" if ratio[d] > 0.65 else "weekday"
        print(f"  day {d + 1}: {ratio[d]:.2f}  -> {tag}")


if __name__ == "__main__":
    main()
