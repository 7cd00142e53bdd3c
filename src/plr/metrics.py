"""Error metrics, Poisson divergences, and structural bound diagnostics.

The bound evaluators instantiate every unspecified absolute constant at 1 by
default, so their outputs are structural diagnostics for comparing scaling
regimes, not certified error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .sensing import xi_p_value

# Below this the exact ratio T / (1 - e^{-T}) is evaluated by series.
_SERIES_CUTOFF = 1e-8


def squared_error(M, Mhat):
    """Squared Frobenius error ||M - Mhat||_F^2."""
    M = as_matrix(M)
    Mhat = as_matrix(Mhat, M.shape)
    D = M - Mhat
    return float(np.sum(D * D))


def kl_poisson(p, q):
    """KL divergence between Poisson distributions: p*log(p/q) - (p - q)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("KL divergence requires positive rates")
    out = p * np.log(p / q) - (p - q)
    return float(out) if out.ndim == 0 else out


def kl_matrix(P, Q):
    """Entry-wise Poisson KL divergence averaged over the d1*d2 entries."""
    P = as_matrix(P)
    Q = as_matrix(Q, P.shape)
    return float(np.mean(kl_poisson(P, Q)))


def hellinger_poisson(p, q):
    """Squared Hellinger distance between Poisson distributions:

    2 - 2*exp(-(sqrt(p) - sqrt(q))^2 / 2).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("Hellinger distance requires nonnegative rates")
    out = 2.0 - 2.0 * np.exp(-0.5 * (np.sqrt(p) - np.sqrt(q)) ** 2)
    return float(out) if out.ndim == 0 else out


def hellinger_matrix(P, Q):
    """Entry-wise squared Hellinger distance averaged over the d1*d2 entries."""
    P = as_matrix(P)
    Q = as_matrix(Q, P.shape)
    return float(np.mean(hellinger_poisson(P, Q)))


def _t_over_expm1(T):
    """T / (1 - e^{-T}) with the removable singularity at T = 0 handled."""
    if T < _SERIES_CUTOFF:
        return 1.0 + T / 2.0 + T * T / 12.0
    return T / -math.expm1(-T)


def hellinger_lower_bound_factor(fset):
    """Factor relating squared Hellinger distance to per-entry squared error.

    Returns (1 - e^{-T}) / (4*alpha*T) with T = (alpha - beta)^2 / (8*beta);
    for any two matrices with entries in [beta, alpha],

        dH^2(P, Q) >= factor * ||P - Q||_F^2 / (d1*d2).
    """
    T = (fset.alpha - fset.beta) ** 2 / (8.0 * fset.beta)
    return 1.0 / (4.0 * fset.alpha * _t_over_expm1(T))


@dataclass(frozen=True)
class BoundConstants:
    """Unspecified absolute constants entering the bound diagnostics.

    All default to 1 (the analysis never instantiates them), except the decay
    exponent q of the nearly-low-rank class, which must lie in (0, 1).
    """

    C_prime: float = 1.0
    c0: float = 1.0
    c4: float = 1.0
    rho: float = 1.0
    q: float = 0.5
    p: float = 0.5

    def __post_init__(self):
        for name in ("C_prime", "c0", "c4", "rho", "p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.q < 1:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")

    @property
    def alpha_prime(self):
        return 1.0 / self.q - 0.5

    @property
    def xi_p(self):
        return xi_p_value(self.p)


def completion_upper_bound(fset, d1, d2, m, constants=None):
    """Structural per-entry mean-squared-error bound for completion.

    Uses the simplified form when m >= (d1+d2)*log(d1*d2) and otherwise keeps
    the extra sampling bracket.  Scales like sqrt((d1+d2)/m); absolute
    constants default to 1.
    """
    if constants is None:
        constants = BoundConstants()
    T = (fset.alpha - fset.beta) ** 2 / (8.0 * fset.beta)
    hellinger_term = 8.0 * fset.alpha * _t_over_expm1(T)
    rank_term = fset.alpha * math.sqrt(fset.rank_budget) / fset.beta
    log_term = fset.alpha * (math.e**2 - 2.0) + 3.0 * math.log(d1 * d2)
    sampling = math.sqrt((d1 + d2) / m)
    base = constants.C_prime * hellinger_term * rank_term * log_term * sampling
    if m >= (d1 + d2) * math.log(d1 * d2):
        return math.sqrt(2.0) * base
    return base * math.sqrt(1.0 + (d1 + d2) * math.log(d1 * d2) / m)


@dataclass(frozen=True)
class RecoveryBoundFactors:
    """Pieces of the nearly-low-rank recovery regret bracket."""

    ell_star: float
    ell_min: float
    approx_term: float
    penalty_term: float
    bracket: float


def recovery_bound_bracket(ell, d1, d2, total_intensity, lam, constants):
    """The bracket c0*rho^2*ell^(-2a') + lam*ell*(d1+d2+4)*log2(d)/(2I) at a given ell."""
    d = min(d1, d2)
    approx = constants.c0 * constants.rho**2 * ell ** (-2.0 * constants.alpha_prime)
    penalty = lam * ell * (d1 + d2 + 4.0) * math.log2(d) / (2.0 * total_intensity)
    return approx, penalty


def recovery_bound_factors(d1, d2, m, total_intensity, lam, constants=None):
    """Evaluate the minimized recovery regret bracket and its minimizer.

    ell_star caps the admissible rank through the measurement budget; the
    interior minimizer balances the approximation and penalty terms and is
    clipped into [1, ell_star].  Informational diagnostic.
    """
    if constants is None:
        constants = BoundConstants()
    if total_intensity <= 0:
        raise ValueError("total_intensity must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    d = min(d1, d2)
    if d < 2:
        raise ValueError("bound requires min(d1, d2) >= 2")
    a = constants.alpha_prime
    denom = constants.c4 * constants.xi_p**4 * (d1 + d2 + 4.0) * math.log2(d)
    ell_star = 2.0 * m / denom
    interior = (4.0 * constants.c0 * constants.rho**2 * a * total_intensity
                / (lam * (d1 + d2 + 4.0) * math.log2(d))) ** (1.0 / (2.0 * a + 1.0))
    ell_min = max(1.0, min(interior, ell_star))
    approx, penalty = recovery_bound_bracket(ell_min, d1, d2, total_intensity, lam, constants)
    return RecoveryBoundFactors(ell_star=ell_star, ell_min=ell_min, approx_term=approx,
                                penalty_term=penalty, bracket=approx + penalty)
