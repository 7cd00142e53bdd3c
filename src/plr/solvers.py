"""Optimization drivers: proximal gradient and its accelerated variant (one
fixed-step loop, for completion), and the penalized maximum-likelihood
singular value thresholding loop (PMLSVT).

All solvers are deterministic given their inputs.  Completion iterates stay
inside the entry box; recovery iterates are nonnegative with fixed total
intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegenerateInputError, RateFloorError, SolverTrace, as_matrix
from .objectives import MIN_RATE_FLOOR, quadratic_model
from .projections import (_alternating_body, _shrink, positive_rescale,
                          project_box, svd_factors)
from .sensing import apply_adjoint

# Backtracking gives up once the curvature estimate exceeds this; with a
# geometric step scale that only happens on a defective objective.
MAX_STEP_RECIP = 1e30


class SolverAbort(RuntimeError):
    """Solve aborted (objective domain error); carries the partial result,
    whose trace ends ``"aborted"``."""

    def __init__(self, message, matrix, trace):
        super().__init__(message)
        self.matrix = matrix
        self.trace = trace
        trace.terminated_by = "aborted"


@dataclass
class SolverConfig:
    """Knobs shared by the solvers.

    ``step_recip`` is the reciprocal step size: the generic solvers pin it at
    the Lipschitz constant, PMLSVT starts there and only scales it up by
    ``step_scale`` when backtracking.  ``penalty`` is the nuclear-norm weight
    used by PMLSVT.  ``tol = 0`` disables early termination.  ``mode`` is
    inferred from the objective when left as None, and must match its
    ``kind`` when set.
    """

    max_iter: int = 1000
    step_recip: float = 1.0
    step_scale: float = 1.1
    penalty: float = None
    tol: float = 0.0
    mode: str = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        # each test is false for nan, so a nan fails it as +-inf does
        if not 0 < self.step_recip < math.inf:
            raise ValueError(f"step_recip must be positive and finite, got {self.step_recip}")
        if not 1 < self.step_scale < math.inf:
            raise ValueError(f"step_scale must exceed 1 and be finite, got {self.step_scale}")
        if self.penalty is not None and not 0 <= self.penalty < math.inf:
            raise ValueError(f"penalty must be nonnegative and finite, got {self.penalty}")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")
        if self.mode not in (None, "completion", "recovery"):
            raise ValueError(f"unknown mode {self.mode!r}")


def select_lambda_default(fset, d1, d2):
    """Default nuclear penalty 1 / (alpha * sqrt(r * d1 * d2)).

    The constrained and penalized formulations are dual for a suitable
    multiplier; this reciprocal of the nuclear radius is the documented
    starting point, and experiments routinely override it.
    """
    return 1.0 / fset.nuclear_radius(d1, d2)


def _resolve_mode(obj, config):
    if config.mode not in (None, obj.kind):
        raise ValueError(
            f"SolverConfig.mode = {config.mode!r} contradicts the {obj.kind} objective")
    return obj.kind


def _generic_strategy(fset):
    """Feasibility map of the fixed-step solvers: alternating projection onto
    the box/nuclear intersection (the final half-sweep is the box clamp)."""
    def onto_intersection(X):
        radius = fset.nuclear_radius(*X.shape)
        return _alternating_body(X, fset.alpha, fset.beta, radius, 1e-8, 10_000).matrix

    return onto_intersection


def default_init(obj, fset):
    """Default starting points.

    Recovery: positive-rescaled adjoint of the counts (a back-projection).
    Completion: observed counts clamped into the box, midpoint elsewhere.
    """
    if obj.kind == "recovery":
        return positive_rescale(apply_adjoint(obj.ensemble, obj.y), fset.total_intensity)
    obs = obj.obs
    X0 = np.full(obs.dims, 0.5 * (fset.alpha + fset.beta))
    X0[obs.rows, obs.cols] = np.clip(obs.counts, fset.beta, fset.alpha)
    return X0


def _fixed_step(obj, fset, X0, config, momentum):
    """Completion loop of both fixed-step solvers: X_k = Pi_S(Z - grad f(Z) / L)
    at Z = X_{k-1}, or at its Nesterov extrapolation with ``momentum``.  An
    abort carries the last accepted iterate X_{k-1}."""
    if _resolve_mode(obj, config) != "completion":
        # the completion step beta**2/alpha leaves a recovery iterate in place
        raise ValueError("the fixed-step solvers support completion only; use pmlsvt for recovery")
    strategy = _generic_strategy(fset)
    L = fset.lipschitz()
    # The extrapolated point Z can leave the entry box, where the objective
    # is still defined as long as rates stay positive; only positivity is
    # enforced when differentiating there.
    grad_obj = obj.with_rate_floor(min(obj.rate_floor, MIN_RATE_FLOOR))
    X = Z = strategy(as_matrix(X0))
    trace = SolverTrace()
    f_prev = None
    for k in range(1, config.max_iter + 1):
        try:
            X_new = strategy(Z - grad_obj.gradient(Z) / L)
            f = obj.value(X_new)
        except RateFloorError as exc:
            raise SolverAbort(f"objective domain error: {exc}", X, trace) from exc
        X_prev, X = X, X_new
        Z = X + ((k - 1.0) / (k + 2.0)) * (X - X_prev) if momentum else X
        trace.record(f, L)
        if f_prev is not None and config.tol > 0 and abs(f - f_prev) < config.tol:
            trace.terminated_by = "tolerance"
            return X, trace
        f_prev = f
    return X, trace


def proximal_gradient(obj, fset, X0, config):
    """Projected gradient descent with the fixed step 1/L.

    Iterates X_k = Pi_S(X_{k-1} - (1/L) grad f(X_{k-1})); the objective is
    non-increasing along the trace.  Stops after ``max_iter`` iterations or
    when the objective change drops below ``tol``.
    """
    return _fixed_step(obj, fset, X0, config, momentum=False)


def accelerated_proximal_gradient(obj, fset, X0, config):
    """Nesterov-accelerated projected gradient.

    The gradient step is taken at the extrapolated point
    Z_k = X_k + ((k-1)/(k+2)) (X_k - X_{k-1}); the first iteration coincides
    with a plain proximal-gradient step.  Monotone descent is not guaranteed.
    """
    return _fixed_step(obj, fset, X0, config, momentum=True)


def pmlsvt(obj, fset, X0=None, config=None):
    """Penalized maximum-likelihood singular value thresholding.

    Each iteration takes a gradient step from the current iterate, shrinks
    the singular values by penalty/t, and applies the feasibility map (the
    positive rescale for recovery, the box clamp for completion).  Whenever
    the new objective exceeds the local quadratic model Q_t the step is
    rejected: the iterate reverts to the recorded previous point, t is scaled
    up by ``step_scale``, and the step is recomputed.  The loop exits when
    |f(X_new) - Q_t(X_new, X_old)| < 0.5/max_iter.

    A ``None`` penalty falls back to :func:`select_lambda_default`.
    """
    if config is None:
        config = SolverConfig()
    if _resolve_mode(obj, config) == "recovery":
        to_feasible = lambda Z: positive_rescale(Z, fset.total_intensity)
    else:
        to_feasible = lambda Z: project_box(Z, fset.alpha, fset.beta)

    X = default_init(obj, fset) if X0 is None else as_matrix(X0).copy()
    trace = SolverTrace()
    t = config.step_recip
    lam = config.penalty
    if lam is None:
        lam = select_lambda_default(fset, *X.shape)
    threshold = 0.5 / config.max_iter

    try:
        f_cur = obj.value(X)
    except RateFloorError as exc:
        raise SolverAbort(f"infeasible starting point: {exc}", X, trace) from exc

    for _ in range(config.max_iter):
        G = obj.gradient(X)  # at a point whose value passed the same rate-floor check
        while True:
            C = X - G / t
            U, s, Vt = svd_factors(C)
            try:
                X_new = to_feasible(_shrink(U, s, Vt, lam / t))
                f_new = obj.value(X_new)
                Q = quadratic_model(f_cur, G, X_new, X, t)
            except (RateFloorError, DegenerateInputError):
                # infeasible trial step: treat as a rejected backtracking step
                f_new, Q = math.inf, -math.inf
            if f_new <= Q:
                break
            t *= config.step_scale
            if t > MAX_STEP_RECIP:
                raise SolverAbort(
                    f"backtracking diverged (t > {MAX_STEP_RECIP:g})", X, trace)
        trace.record(f_new, t)
        X, f_cur = X_new, f_new
        if abs(f_new - Q) < threshold:
            trace.terminated_by = "tolerance"
            return X, trace
    return X, trace
