"""Constraint-set maps: box clamp, nuclear-ball projection, positive rescale,
alternating projection onto the box/nuclear intersection, and singular value
thresholding."""

from __future__ import annotations

from dataclasses import dataclass

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


def project_box(X, alpha, beta):
    """Entry-wise clamp onto the box [beta, alpha]."""
    if not beta < alpha:
        raise ValueError(f"need beta < alpha, got beta={beta}, alpha={alpha}")
    return np.clip(as_matrix(X), beta, alpha)


def _l1_threshold_sorted(u, radius):
    """Soft threshold for a nonincreasing nonnegative vector with sum > radius."""
    cumsum = np.cumsum(u)
    js = np.arange(1, u.size + 1)
    # Largest index with u_j > (cumsum_j - radius)/j; ties resolve to it.
    valid = u * js > cumsum - radius
    rho = int(np.nonzero(valid)[0].max()) + 1
    theta = (cumsum[rho - 1] - radius) / rho
    return np.maximum(u - theta, 0.0)


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
    order = np.argsort(v)[::-1]
    out = np.empty_like(v)
    out[order] = _l1_threshold_sorted(v[order], radius)
    return out


def project_nuclear_ball(X, radius):
    """Projection onto the nuclear-norm ball of the given radius.

    Projects the singular values onto the l1 ball and recomposes; returns
    ``X`` itself when it is already inside the ball.
    """
    X = as_matrix(X)
    U, s, Vt = svd_factors(X)
    if s.sum() <= radius:
        return X.copy()
    return (U * project_l1_ball(s, radius)) @ Vt


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
    U, s, Vt = svd_factors(Z)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


@dataclass
class AlternatingProjectResult:
    """Output of :func:`alternating_project`."""

    matrix: np.ndarray
    iterations: int
    gap: float
    converged: bool


def _alternating_body(U, alpha, beta, radius, tol, max_iter):
    """Unvalidated alternating-projection loop shared with the solvers.

    Since ||U||_* <= sqrt(min(d1, d2)) * ||U||_F, a sweep whose Frobenius
    norm is within ``radius / sqrt(min(d1, d2))`` is inside the nuclear ball
    and skips the SVD.
    """
    inside = radius / np.sqrt(min(U.shape))
    gap = np.inf
    for it in range(1, max_iter + 1):
        if np.linalg.norm(U) <= inside:
            V = U
        else:
            Un, s, Vt = np.linalg.svd(U, full_matrices=False)
            V = (Un * _l1_threshold_sorted(s, radius)) @ Vt if s.sum() > radius else U
        U = np.clip(V, beta, alpha)
        gap = float(np.linalg.norm(V - U))
        if gap <= tol:
            return U, it, gap, True
    return U, max_iter, gap, False


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
    U = as_matrix(U0)
    radius = fset.nuclear_radius(*U.shape)
    U, it, gap, converged = _alternating_body(U, fset.alpha, fset.beta, radius,
                                              tol, max_iter)
    return AlternatingProjectResult(matrix=U, iterations=it, gap=gap, converged=converged)
