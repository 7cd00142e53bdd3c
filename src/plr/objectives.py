"""Poisson negative log-likelihoods, their gradients, and the local quadratic
model used by the thresholding solver.

Conventions: 0*log(0) counts as 0, so observations with zero counts are
compatible with zero rates.  Rates carrying a positive count must stay above
a small floor; violations raise :class:`~plr.core.RateFloorError` naming the
offending index.
"""

from __future__ import annotations

import numpy as np

from .core import RateFloorError, ShapeMismatchError, as_matrix
from .sensing import apply_adjoint, apply_forward

# Fallback floor for rates that the model cannot bound away from zero.
MIN_RATE_FLOOR = 1e-12


def completion_rate_floor(fset):
    """Completion rates live on box entries, which are at least beta."""
    return fset.beta


def recovery_rate_floor(fset, m):
    """Nonempty masks guarantee rates >= c/m; the epsilon absorbs empty masks."""
    return max(fset.entry_floor / m, MIN_RATE_FLOOR)


def _observed_values(obs, X, rate_floor):
    X = np.asarray(X, dtype=np.float64)
    if X.shape != tuple(obs.dims):
        raise ShapeMismatchError(
            f"matrix shape {X.shape} does not match observation dims {obs.dims}")
    vals = X[obs.rows, obs.cols]
    if vals.size and not vals.min() >= rate_floor:
        k = int(np.argmin(vals))
        raise RateFloorError(
            f"entry ({obs.rows[k]}, {obs.cols[k]}) = {vals[k]!r} is below the "
            f"rate floor {rate_floor!r}", index=(int(obs.rows[k]), int(obs.cols[k])))
    return vals


def nll_completion(obs, X, rate_floor=MIN_RATE_FLOOR):
    """Negative Poisson log-likelihood of the observed entries.

    f(X) = sum over observed (i,j) of X_ij - Y_ij * log X_ij.
    """
    vals = _observed_values(obs, X, rate_floor)
    if vals.size == 0:
        return 0.0
    return float(vals.sum() - (obs.counts * np.log(vals)).sum())


def grad_nll_completion(obs, X, rate_floor=MIN_RATE_FLOOR):
    """Gradient of :func:`nll_completion`: 1 - Y_ij/X_ij on the observed set, 0 off it."""
    vals = _observed_values(obs, X, rate_floor)
    G = np.zeros(obs.dims)
    G[obs.rows, obs.cols] = 1.0 - obs.counts / vals
    return G


def _check_recovery_rates(y, rates, rate_floor):
    """Validate the rates of a point against the counts; returns the mask y > 0."""
    if y.shape != rates.shape:
        raise ShapeMismatchError(f"count vector length {y.shape} != m={rates.shape}")
    pos = y > 0
    if pos.any() and rates[pos].min() < rate_floor:
        k = int(np.nonzero(pos)[0][np.argmin(rates[pos])])
        raise RateFloorError(
            f"measurement {k} has count {y[k]} but rate {rates[k]!r} below the "
            f"floor {rate_floor!r}", index=k)
    return pos


def _nll_from_rates(y, rates, rate_floor):
    pos = _check_recovery_rates(y, rates, rate_floor)
    return float(rates.sum() - (y[pos] * np.log(rates[pos])).sum())


def _grad_from_rates(ensemble, y, rates, rate_floor):
    pos = _check_recovery_rates(y, rates, rate_floor)
    coeff = np.ones_like(rates)
    coeff[pos] = 1.0 - y[pos] / rates[pos]
    return apply_adjoint(ensemble, coeff)


def nll_recovery(ensemble, y, X, rate_floor=MIN_RATE_FLOOR):
    """Negative Poisson log-likelihood of compressive measurements.

    f(X) = sum_i [AX]_i - y_i * log [AX]_i, with zero-count terms
    contributing only their rate.
    """
    return _nll_from_rates(np.asarray(y, dtype=np.float64),
                           apply_forward(ensemble, X), rate_floor)


def grad_nll_recovery(ensemble, y, X, rate_floor=MIN_RATE_FLOOR):
    """Gradient of :func:`nll_recovery` via the adjoint: sum_i (1 - y_i/[AX]_i) A_i."""
    return _grad_from_rates(ensemble, np.asarray(y, dtype=np.float64),
                            apply_forward(ensemble, X), rate_floor)


def quadratic_model(f_val, grad, X, X_prev, t):
    """Local quadratic model around X_prev with curvature t:

    Q_t(X, X_prev) = f(X_prev) + <X - X_prev, grad> + (t/2) ||X - X_prev||_F^2.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    X = as_matrix(X)
    X_prev = as_matrix(X_prev)
    if X.shape != X_prev.shape or X.shape != np.shape(grad):
        raise ShapeMismatchError("quadratic model operands must share one shape")
    D = X - X_prev
    return float(f_val + np.vdot(grad, D) + 0.5 * t * np.sum(D * D))


class CompletionObjective:
    """Handle bundling completion data with its rate floor."""

    kind = "completion"

    def __init__(self, obs, rate_floor):
        self.obs = obs
        self.rate_floor = rate_floor

    def value(self, X):
        return nll_completion(self.obs, X, self.rate_floor)

    def gradient(self, X):
        return grad_nll_completion(self.obs, X, self.rate_floor)

    def with_rate_floor(self, rate_floor):
        return CompletionObjective(self.obs, rate_floor)


class RecoveryObjective:
    """Handle bundling an ensemble and its counts with the rate floor.

    ``value`` and ``gradient`` share the forward rates [AX]_i of the last
    point either was called at, so a solver that evaluates both at one
    iterate applies the sensing operator once.  The cache is keyed on a
    private copy of the point's contents, not on its identity, so changing
    an array in place between calls never reuses stale rates.
    """

    kind = "recovery"

    def __init__(self, ensemble, y, rate_floor):
        self.ensemble = ensemble
        self.y = np.asarray(y, dtype=np.float64)
        self.rate_floor = rate_floor
        self._last = None  # (copy of X, apply_forward(ensemble, X))

    def _rates(self, X):
        last = self._last
        if last is not None and np.array_equal(X, last[0]):
            return last[1]
        rates = apply_forward(self.ensemble, X)
        self._last = (np.array(X, dtype=np.float64), rates)
        return rates

    def value(self, X):
        return _nll_from_rates(self.y, self._rates(X), self.rate_floor)

    def gradient(self, X):
        return _grad_from_rates(self.ensemble, self.y, self._rates(X), self.rate_floor)


def completion_objective(obs, fset):
    """Completion handle with the box lower bound as rate floor."""
    return CompletionObjective(obs, completion_rate_floor(fset))


def recovery_objective(ensemble, y, fset):
    """Recovery handle with floor max(c/m, eps)."""
    return RecoveryObjective(ensemble, y, recovery_rate_floor(fset, ensemble.m))
