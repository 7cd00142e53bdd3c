"""Ground-truth generators, observation samplers, patch transforms, and
count-data ingestion."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (CompletionObservations, _atomic_write, _numbered_lines, _parse,
                   _read_triplets, as_matrix, seeded_rng)
from .projections import positive_rescale, svd_factors


@dataclass(frozen=True)
class WeakLqSpec:
    """Nearly-low-rank target: singular values theta_j = rho * I * j^(-1/q).

    ``entry_floor`` is the entry-wise floor requested after the positive
    rescale; None derives a mild floor from the total intensity.
    """

    q: float
    rho: float
    total_intensity: float
    dims: tuple
    entry_floor: float = None

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")
        if self.rho <= 0 or self.total_intensity <= 0:
            raise ValueError("rho and total_intensity must be positive")

    def singular_values(self):
        d = min(self.dims)
        j = np.arange(1, d + 1, dtype=np.float64)
        return self.rho * self.total_intensity * j ** (-1.0 / self.q)


@dataclass(frozen=True)
class PatchLayout:
    """Tiling of an H x W image into h x w patches.

    Column k of the patch matrix is the row-major vectorization of the k-th
    patch, patches enumerated in row-major order; the resulting matrix is
    (h*w) x ((H/h)*(W/w)) and the transform is an exact bijection.
    """

    image_shape: tuple
    patch_shape: tuple

    def __post_init__(self):
        H, W = self.image_shape
        h, w = self.patch_shape
        if H % h or W % w:
            raise ValueError(
                f"patch shape {self.patch_shape} must divide image shape {self.image_shape}")

    @property
    def matrix_shape(self):
        H, W = self.image_shape
        h, w = self.patch_shape
        return (h * w, (H // h) * (W // w))


def gen_exact_low_rank(d1, d2, rank, fset, seed):
    """Random matrix of the given rank with entries inside [beta, alpha].

    The product U V' of factors drawn uniformly from
    [sqrt(beta/rank), sqrt(alpha/rank)) has every entry in [beta, alpha], so
    one draw suffices; the box clamp only absorbs rounding.
    """
    d = min(d1, d2)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = seeded_rng(seed)
    lo = math.sqrt(fset.beta / rank)
    hi = math.sqrt(fset.alpha / rank)
    U = rng.uniform(lo, hi, size=(d1, rank))
    V = rng.uniform(lo, hi, size=(d2, rank))
    return np.clip(U @ V.T, fset.beta, fset.alpha)


def gen_weak_lq(spec, seed):
    """Positive matrix with a prescribed power-law singular-value profile.

    Starts from random orthogonal factors with the exact boundary spectrum,
    then shifts and positively rescales so that entries clear the floor and
    the total intensity is exact.  The rescale perturbs the spectrum, so the
    decay is re-verified within a factor of 2 and violations are reported as
    warnings.
    """
    d1, d2 = spec.dims
    d = min(d1, d2)
    theta = spec.singular_values()
    rng = seeded_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d1, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d2, d)))
    X = (U * theta) @ V.T

    I = spec.total_intensity
    n = d1 * d2
    floor = spec.entry_floor if spec.entry_floor is not None else 1e-3 * I / n
    if floor * n >= I:
        raise ValueError(f"entry floor {floor} infeasible for total intensity {I}")
    target = min(2.0 * floor, 0.5 * (floor + I / n))
    shifted = X - X.min()
    delta = target * shifted.sum() / (I - target * n)
    M = positive_rescale(shifted + delta, I)

    sigma = np.linalg.svd(M, compute_uv=False)
    bound = 2.0 * spec.rho * I * np.arange(1, d + 1) ** (-1.0 / spec.q)
    if np.any(sigma > bound):
        j = int(np.argmax(sigma > bound))
        warnings.warn(
            f"weak-lq decay violated after rescale: sigma_{j + 1} = {sigma[j]:.4g} "
            f"> {bound[j]:.4g} (slack 2.0)", stacklevel=2)
    return M


def rank_l_approx(X, ell):
    """Best rank-ell approximation via truncated SVD."""
    X = as_matrix(X)
    d = min(X.shape)
    if not 1 <= ell <= d:
        raise ValueError(f"ell must lie in [1, {d}], got {ell}")
    U, s, Vt = svd_factors(X)
    s[ell:] = 0.0
    return (U * s) @ Vt


def sample_completion_observations(M, m_expected, seed):
    """Bernoulli-sample entries of ``M`` and draw Poisson counts on them.

    Each index is included independently with probability m/(d1*d2); no entry
    is observed twice.  Included entries carry Y_ij ~ Poisson(M_ij).
    """
    M = as_matrix(M)
    d1, d2 = M.shape
    if not 0 < m_expected <= d1 * d2:
        raise ValueError(f"m_expected must lie in (0, {d1 * d2}], got {m_expected}")
    if M.min() < 0:
        raise ValueError("intensity matrix must be nonnegative")
    rng = seeded_rng(seed)
    rows, cols = np.nonzero(rng.random((d1, d2)) < m_expected / (d1 * d2))
    counts = rng.poisson(M[rows, cols])
    return CompletionObservations(rows=rows, cols=cols, counts=counts, dims=(d1, d2))


def image_to_patch_matrix(image, layout):
    """Collect vectorized patches of ``image`` into the columns of a matrix."""
    image = as_matrix(image, layout.image_shape)
    H, W = layout.image_shape
    h, w = layout.patch_shape
    blocks = image.reshape(H // h, h, W // w, w)
    return blocks.transpose(1, 3, 0, 2).reshape(h * w, (H // h) * (W // w))


def patch_matrix_to_image(matrix, layout):
    """Exact inverse of :func:`image_to_patch_matrix`."""
    matrix = as_matrix(matrix, layout.matrix_shape)
    H, W = layout.image_shape
    h, w = layout.patch_shape
    blocks = matrix.reshape(h, w, H // h, W // w)
    return blocks.transpose(2, 0, 3, 1).reshape(H, W)


def load_count_csv(path):
    """Load (hour, day, count) CSV rows into a dense hours-by-days matrix.

    Indices are 1-based; an optional non-numeric header line is skipped.
    Returns (matrix, observed_mask): cells never mentioned in the file are
    zero in the matrix and False in the mask.  Duplicate (hour, day) rows and
    malformed lines raise with the offending line number.
    """
    hours, days, counts, _ = _read_triplets(path)
    if not hours.size:
        raise ValueError(f"{path}: no count rows")
    dims = (int(hours.max()) + 1, int(days.max()) + 1)
    try:
        M = np.zeros(dims)
        observed = np.zeros(dims, dtype=bool)
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise ValueError(f"{path}: the {dims[0]} x {dims[1]} hours-by-days matrix "
                         "is too big to allocate") from None
    M[hours, days] = counts
    observed[hours, days] = True
    return M, observed


def _pgm_integers(tokens):
    """The integers ``tokens`` spell; a token that is not one raises ValueError."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"expected an integer, got {tok!r}") from None
    return values


def read_pgm(path):
    """Read an ASCII (P2) PGM image as a float matrix."""
    magic, values, linenos = None, [], []  # the integers after the magic number
    for lineno, line in _numbered_lines(path, "#"):
        tokens = line.split()
        if magic is None:
            magic, tokens = tokens[0], tokens[1:]
            if magic != "P2":
                break
        values += _parse(_pgm_integers, tokens, path, lineno)
        linenos += [lineno] * (len(values) - len(linenos))
    if magic != "P2":
        raise ValueError(f"{path}: not an ASCII PGM (P2) file")
    if len(values) < 3:
        raise ValueError(f"{path}: truncated PGM header")
    width, height, maxval = values[:3]
    pixels = np.array(values[3:], dtype=np.float64)
    if pixels.size != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {pixels.size}")
    outside = (pixels < 0) | (pixels > maxval)
    if outside.any():
        k = 3 + int(np.argmax(outside))
        raise ValueError(f"{path}: line {linenos[k]}: pixel {values[k]} outside [0, {maxval}]")
    return pixels.reshape(height, width)


def write_pgm(path, image):
    """Write a matrix of integers in [0, 255] as an ASCII (P2) PGM image."""
    image = as_matrix(image)
    vals = np.rint(image).astype(np.int64)
    if vals.min() < 0 or vals.max() > 255:
        raise ValueError("pixels must lie in [0, 255]")
    height, width = vals.shape
    lines = ["P2", f"{width} {height}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in vals)
    _atomic_write(path, "\n".join(lines) + "\n")
