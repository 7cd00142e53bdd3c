"""Poisson negative log-likelihoods, their gradients, and the local quadratic
model used by the thresholding solver.

Each likelihood is an objective handle exposing ``kind``, ``value(X)`` and
``gradient(X)``; the fixed-step solvers also use ``rate_floor`` and
``with_rate_floor``.  Conventions: 0*log(0) counts as 0, so observations with
zero counts are compatible with zero rates.  Rates carrying a positive count
must stay above the handle's floor; violations raise
:class:`~plr.core.RateFloorError` naming the offending index.
"""

from __future__ import annotations

import numpy as np

from .core import RateFloorError, ShapeMismatchError, as_matrix
from .sensing import apply_adjoint, apply_forward

# Fallback floor for rates that the model cannot bound away from zero.
MIN_RATE_FLOOR = 1e-12


def quadratic_model(f_val, grad, X, X_prev, t):
    """Local quadratic model around X_prev with curvature t:

    Q_t(X, X_prev) = f(X_prev) + <X - X_prev, grad> + (t/2) ||X - X_prev||_F^2.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    X_prev = as_matrix(X_prev)
    X = as_matrix(X, X_prev.shape)
    if np.shape(grad) != X.shape:
        raise ShapeMismatchError(f"gradient shape {np.shape(grad)} does not match {X.shape}")
    D = X - X_prev
    return float(f_val + np.vdot(grad, D) + 0.5 * t * np.sum(D * D))


class CompletionObjective:
    """Negative Poisson log-likelihood of the observed entries, with the
    rate floor below which an observed entry is rejected."""

    kind = "completion"

    def __init__(self, obs, rate_floor):
        self.obs = obs
        self.rate_floor = rate_floor

    def _observed_values(self, X):
        obs = self.obs
        vals = as_matrix(X, obs.dims)[obs.rows, obs.cols]
        if vals.size and not vals.min() >= self.rate_floor:
            k = int(np.argmin(vals))
            raise RateFloorError(
                f"entry ({obs.rows[k]}, {obs.cols[k]}) = {float(vals[k])!r} is below the "
                f"rate floor {self.rate_floor!r}", index=(int(obs.rows[k]), int(obs.cols[k])))
        return vals

    def value(self, X):
        """f(X) = sum over observed (i,j) of X_ij - Y_ij * log X_ij."""
        vals = self._observed_values(X)
        return float(vals.sum() - (self.obs.counts * np.log(vals)).sum())

    def gradient(self, X):
        """1 - Y_ij/X_ij on the observed set, 0 off it."""
        vals = self._observed_values(X)
        G = np.zeros(self.obs.dims)
        G[self.obs.rows, self.obs.cols] = 1.0 - self.obs.counts / vals
        return G

    def with_rate_floor(self, rate_floor):
        return CompletionObjective(self.obs, rate_floor)


class RecoveryObjective:
    """Negative Poisson log-likelihood of compressive measurements, with the
    rate floor below which a measurement with a positive count is rejected.

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
        if self.y.shape != (ensemble.m,):
            raise ShapeMismatchError(
                f"count vector shape {self.y.shape} does not match ensemble size m={ensemble.m}")
        ok = (self.y >= 0) & (self.y < np.inf)  # real-valued counts are allowed
        if not ok.all():
            raise ValueError(f"count {float(self.y[~ok][0])!r} must be finite and nonnegative")
        self.rate_floor = rate_floor
        self._pos = self.y > 0
        self._y_pos = self.y[self._pos]
        self._last = None  # (copy of X, apply_forward(ensemble, X))

    def _rates(self, X):
        """The rates [AX]_i, and those of the positive counts, checked
        against the floor."""
        last = self._last
        if last is not None and np.array_equal(X, last[0]):
            rates = last[1]
        else:
            rates = apply_forward(self.ensemble, X)
            self._last = (np.array(X, dtype=np.float64), rates)
        pos_rates = rates[self._pos]
        if pos_rates.size and pos_rates.min() < self.rate_floor:
            k = int(np.nonzero(self._pos)[0][np.argmin(pos_rates)])
            raise RateFloorError(
                f"measurement {k} has count {self.y[k]} but rate {float(rates[k])!r} below the "
                f"floor {self.rate_floor!r}", index=k)
        return rates, pos_rates

    def value(self, X):
        """f(X) = sum_i [AX]_i - y_i * log [AX]_i, with zero-count terms
        contributing only their rate."""
        rates, pos_rates = self._rates(X)
        return float(rates.sum() - (self._y_pos * np.log(pos_rates)).sum())

    def gradient(self, X):
        """The adjoint sum_i (1 - y_i/[AX]_i) A_i."""
        rates, pos_rates = self._rates(X)
        coeff = np.ones_like(rates)
        coeff[self._pos] = 1.0 - self._y_pos / pos_rates
        return apply_adjoint(self.ensemble, coeff)


def completion_objective(obs, fset):
    """Completion handle whose rate floor is beta: box entries are at least beta."""
    return CompletionObjective(obs, fset.beta)


def recovery_objective(ensemble, y, fset):
    """Recovery handle with floor max(c/m, eps): nonempty masks guarantee
    rates >= c/m, and the epsilon absorbs empty masks."""
    return RecoveryObjective(ensemble, y, max(fset.entry_floor / ensemble.m, MIN_RATE_FLOOR))
