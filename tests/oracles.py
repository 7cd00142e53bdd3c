"""Independent numerical oracles used by the test suite.

Each oracle solves its problem by a route unrelated to the production code
path it checks: subgradient descent for the nuclear proximal map, KKT subset
enumeration for the l1-ball projection, an exact-penalty subgradient method
for the intersection projection, central finite differences for gradients,
and an entry-by-entry loop in exact rational arithmetic for the sensing
mask draw.
"""

from fractions import Fraction

import numpy as np

from plr.core import seeded_rng


def g_nuclear(X, Z, tau):
    """Objective 0.5*||X - Z||_F^2 + tau*||X||_*."""
    return 0.5 * np.sum((X - Z) ** 2) + tau * np.linalg.svd(X, compute_uv=False).sum()


def _subgradient_phase(Z, tau, iters=1500):
    """Polyak-target subgradient descent with adaptive target refinement."""
    X = Z.copy()
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    g = 0.5 * np.sum((X - Z) ** 2) + tau * sig.sum()
    best_g, best_X = g, X.copy()
    scale = max(g, 1.0)
    delta = 0.25 * scale + 1e-12
    since_improve = 0
    for _ in range(iters):
        supp = sig > 1e-14
        sub = (X - Z) + tau * (U[:, supp] @ Vt[supp])
        n2 = float(np.sum(sub * sub))
        if n2 < 1e-24:
            break
        X = X - ((g - (best_g - delta)) / n2) * sub
        U, sig, Vt = np.linalg.svd(X, full_matrices=False)
        g = 0.5 * np.sum((X - Z) ** 2) + tau * sig.sum()
        if g < best_g - 1e-14 * scale:
            best_g, best_X = g, X.copy()
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= 20:
            delta *= 0.5
            X = best_X.copy()
            U, sig, Vt = np.linalg.svd(X, full_matrices=False)
            g = best_g
            since_improve = 0
            if delta < 1e-16 * scale:
                break
    return best_X, best_g


def _trunc(X, r):
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    sig = sig.copy()
    sig[r:] = 0.0
    return (U * sig) @ Vt


def _rank_polish(Z, tau, X0, rank, iters=200):
    """Riemannian gradient descent with Armijo backtracking on the rank manifold.

    The subgradient phase stalls when a singular value of Z sits near tau (a
    shallow kink); restricted to a fixed-rank manifold the objective is
    smooth, so a tangent-space descent converges to high accuracy.  Trying
    every candidate rank removes the identification risk.
    """
    if rank == 0:
        X = np.zeros_like(Z)
        return X, g_nuclear(X, Z, tau)
    X = _trunc(X0, rank)
    g = g_nuclear(X, Z, tau)
    best_g, best_X = g, X.copy()
    eta = 1.0
    for _ in range(iters):
        U, sig, Vt = np.linalg.svd(X, full_matrices=False)
        Ur, Vr = U[:, :rank], Vt[:rank].T
        G = (X - Z) + tau * (Ur @ Vr.T)
        PuG = Ur @ (Ur.T @ G)
        Gt = PuG + (G @ Vr) @ Vr.T - Ur @ (Ur.T @ G @ Vr) @ Vr.T
        n2 = float(np.sum(Gt * Gt))
        if n2 < 1e-28:
            break
        eta = min(eta * 2.0, 1.0)
        accepted = False
        for _ in range(40):
            Xn = _trunc(X - eta * Gt, rank)
            gn = g_nuclear(Xn, Z, tau)
            if gn <= g - 0.25 * eta * n2:
                X, g, accepted = Xn, gn, True
                break
            eta *= 0.5
        if not accepted:
            break
        if g < best_g:
            best_g, best_X = g, X.copy()
    return best_X, best_g


def nuclear_prox_oracle(Z, tau):
    """Numerical minimizer of 0.5*||X - Z||_F^2 + tau*||X||_*.

    Subgradient descent followed by a fixed-rank polish over all candidate
    ranks; the best objective value wins.  Accurate to well below 1e-7 in
    Frobenius norm on the instance sizes used in the tests.
    """
    if tau == 0.0:
        return Z.copy()
    X1, g1 = _subgradient_phase(Z, tau)
    best_X, best_g = X1, g1
    for r in range(0, min(Z.shape) + 1):
        Xr, gr = _rank_polish(Z, tau, X1, r)
        if gr < best_g:
            best_g, best_X = gr, Xr
    return best_X


def l1_ball_qp_oracle(v, radius):
    """Exact projection onto {x >= 0, sum(x) <= radius} by KKT enumeration.

    For every support set the stationarity system has a closed-form
    candidate; the feasible candidate with the smallest objective is the
    projection.  Exponential in len(v), intended for len(v) <= ~12.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if v.sum() <= radius:
        return v.copy()
    best_x, best_obj = None, np.inf
    for mask_bits in range(1, 2**n):
        support = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        k = support.sum()
        theta = (v[support].sum() - radius) / k
        x = np.zeros(n)
        x[support] = v[support] - theta
        if x.min() < -1e-12 or x.sum() > radius + 1e-9:
            continue
        obj = 0.5 * np.sum((x - v) ** 2)
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x


def exact_projection_oracle(U0, fset, iters=6000):
    """Projection onto the box/nuclear intersection via an exact penalty.

    Minimizes 0.5*||X - U0||^2 + kappa * (box violation + nuclear excess) by
    the same Polyak-target subgradient scheme as the nuclear oracle; for
    kappa above the multiplier scale the penalized minimizer is the true
    projection.
    """
    d1, d2 = U0.shape
    radius = fset.nuclear_radius(d1, d2)
    kappa = 4.0 * (np.linalg.norm(U0) + radius)

    def parts(X):
        low = np.maximum(fset.beta - X, 0.0)
        high = np.maximum(X - fset.alpha, 0.0)
        U, sig, Vt = np.linalg.svd(X, full_matrices=False)
        excess = max(sig.sum() - radius, 0.0)
        val = 0.5 * np.sum((X - U0) ** 2) + kappa * (low.sum() + high.sum() + excess)
        sub = (X - U0) + kappa * ((X > fset.alpha).astype(float)
                                  - (X < fset.beta).astype(float))
        if excess > 0:
            supp = sig > 1e-14
            sub = sub + kappa * (U[:, supp] @ Vt[supp])
        return val, sub

    X = np.clip(U0, fset.beta, fset.alpha)
    g, sub = parts(X)
    best_g, best_X = g, X.copy()
    scale = max(g, 1.0)
    delta = 0.25 * scale + 1e-12
    since = 0
    for _ in range(iters):
        n2 = float(np.sum(sub * sub))
        if n2 < 1e-26:
            break
        X = X - ((g - (best_g - delta)) / n2) * sub
        g, sub = parts(X)
        if g < best_g - 1e-15 * scale:
            best_g, best_X = g, X.copy()
            since = 0
        else:
            since += 1
        if since >= 25:
            delta *= 0.5
            X = best_X.copy()
            g, sub = parts(X)
            since = 0
            if delta < 1e-16 * scale:
                break
    return best_X


def finite_difference_gradient(f, X, rel_step=1e-6):
    """Central finite-difference gradient with per-entry relative steps."""
    X = np.asarray(X, dtype=np.float64)
    G = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        h = rel_step * max(abs(X[idx]), 1.0)
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        G[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def sensing_masks_oracle(d1, d2, m, p, seed):
    """Packed masks of ``build_sensing_ensemble(d1, d2, m, p, seed)``, one entry
    at a time: entry j (row-major) is set iff (k_j + v_j)/256 >= p, where k_j is
    byte j of the seed's raw 64-bit words read little-endian, and v_j is a
    uniform double drawn, after all the bytes, only for the entries whose
    outcome it decides (k_j/256 <= p < (k_j + 1)/256)."""
    n = d1 * d2
    rng = seeded_rng(seed)
    stream = b"".join(int(w).to_bytes(8, "little")
                      for w in rng.bit_generator.random_raw((m * n + 7) // 8))
    p = Fraction(p)
    ties = [j for j in range(m * n) if Fraction(stream[j], 256) <= p < Fraction(stream[j] + 1, 256)]
    tie_v = {j: Fraction(rng.random()) for j in ties}
    packed = [[0] * ((n + 7) // 8) for _ in range(m)]
    for j in range(m * n):
        if (stream[j] + tie_v.get(j, Fraction(0))) / 256 >= p:
            i, c = divmod(j, n)
            packed[i][c // 8] |= 0x80 >> (c % 8)
    return packed
