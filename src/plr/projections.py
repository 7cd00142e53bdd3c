"""Constraint-set maps: box clamp, positive rescale, and the nuclear-norm maps.

Every nuclear-norm map takes one spectral step: a thin SVD, then a shrink of
the singular values by a common threshold, floored at 0.  Singular value
thresholding (:func:`svt`, and PMLSVT's inner step) shrinks by a given
``tau``; the nuclear-ball projection (:func:`project_nuclear_ball`, and each
sweep of the alternating projection onto the box/nuclear intersection)
shrinks by the threshold that lands the singular values' sum on the radius.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import DegenerateInputError, as_matrix


def svd_factors(X):
    """Thin SVD ``(U, s, Vt)`` of ``X``, singular values ``s`` nonincreasing;
    a failure names the matrix's shape and largest entry."""
    X = as_matrix(X)
    try:
        return np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on a {X.shape[0]}x{X.shape[1]} matrix "
            f"(|X|_max={np.abs(X).max():.3e}): {exc}") from exc


def _shrink(U, s, Vt, tau):
    """Recompose the factors with every singular value shrunk by ``tau``,
    floored at 0."""
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _ball_threshold(s, radius):
    """Threshold that shrinks a nonincreasing nonnegative vector with
    sum > radius onto the l1 ball of that radius."""
    cumsum = np.cumsum(s)
    js = np.arange(1, s.size + 1)
    # Largest index with s_j > (cumsum_j - radius)/j; ties resolve to it.
    valid = s * js > cumsum - radius
    rho = int(np.nonzero(valid)[0].max()) + 1
    return (cumsum[rho - 1] - radius) / rho


def _nuclear_step(X, radius):
    """Nuclear-ball projection of a validated matrix; ``X`` itself when inside.

    Since ||X||_* <= sqrt(min(d1, d2)) * ||X||_F, a matrix whose Frobenius
    norm is within ``radius / sqrt(min(d1, d2))`` is inside the ball and
    costs no SVD.
    """
    if np.linalg.norm(X) <= radius / math.sqrt(min(X.shape)):
        return X
    U, s, Vt = svd_factors(X)
    if s.sum() <= radius:
        return X
    return _shrink(U, s, Vt, _ball_threshold(s, radius))


def project_box(X, alpha, beta):
    """Entry-wise clamp onto the box [beta, alpha]."""
    if not beta < alpha:
        raise ValueError(f"need beta < alpha, got beta={beta}, alpha={alpha}")
    return np.clip(as_matrix(X), beta, alpha)


def project_l1_ball(v, radius):
    """Euclidean projection of a nonnegative vector onto the l1 ball.

    Sort-based soft threshold: inside the ball the vector is returned
    unchanged, otherwise entries are shrunk by the common threshold that
    lands the sum exactly on ``radius``.  Order is preserved.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = np.asarray(v, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("expected nonnegative entries (singular values)")
    if v.sum() <= radius:
        return v.copy()
    return np.maximum(v - _ball_threshold(np.sort(v)[::-1], radius), 0.0)


def project_nuclear_ball(X, radius):
    """Projection onto the nuclear-norm ball of the given radius.

    Shrinks the singular values onto the l1 ball and recomposes; a matrix
    already inside the ball comes back as an unchanged copy.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return _nuclear_step(as_matrix(X), radius).copy()


def positive_rescale(Z, total_intensity):
    """Positive part of ``Z`` rescaled to total intensity ``I``.

    Returns I * (Z)+ / ||(Z)+||_{1,1}; ratios between positive entries are
    preserved.  Raises if ``Z`` has no positive part.
    """
    Z = as_matrix(Z)
    pos = np.maximum(Z, 0.0)
    norm = pos.sum()
    if norm <= 0.0:
        raise DegenerateInputError("matrix has no positive entries to rescale")
    return (total_intensity / norm) * pos


def svt(Z, tau):
    """Singular value thresholding: shrink singular values by ``tau``, floor at 0.

    This is the exact minimizer of 0.5*||X - Z||_F^2 + tau*||X||_*; tau = 0
    returns ``Z`` unchanged.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    Z = as_matrix(Z)
    if tau == 0:
        return Z.copy()
    return _shrink(*svd_factors(Z), tau)


class AlternatingProjectResult(NamedTuple):
    """Output of :func:`alternating_project`."""

    matrix: np.ndarray
    iterations: int
    gap: float
    converged: bool


def _alternating_body(U, alpha, beta, radius, tol, max_iter):
    """Unvalidated alternating-projection loop shared with the solvers."""
    gap = np.inf
    for it in range(1, max_iter + 1):
        V = _nuclear_step(U, radius)
        U = np.clip(V, beta, alpha)
        gap = float(np.linalg.norm(V - U))
        if gap <= tol:
            return AlternatingProjectResult(U, it, gap, True)
    return AlternatingProjectResult(U, max_iter, gap, False)


def alternating_project(U0, fset, tol=1e-8, max_iter=10_000):
    """Alternate nuclear-ball and box projections until the sweep gap closes.

    Each sweep applies the nuclear projection then the box clamp; the loop
    stops once the Frobenius gap between the two half-steps is below ``tol``
    (or flags non-convergence after ``max_iter`` sweeps).  The output always
    satisfies the box constraint exactly and the nuclear constraint up to the
    sweep gap.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    U = as_matrix(U0)
    return _alternating_body(U, fset.alpha, fset.beta, fset.nuclear_radius(*U.shape),
                             tol, max_iter)
