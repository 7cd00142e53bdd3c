"""Structured random compressive sensing ensemble and its Poisson measurements.

Each mask has entries in {0, 1/m}: an entry is 0 with probability p and 1/m
with probability 1-p.  Masks are stored as packed bit-sets with the implicit
scale 1/m, so forward and adjoint applications reduce to masked sums.
Drawing and unpacking work through the masks ``_BLOCK_ROWS`` rows at a time,
so their scratch memory is a block, not a whole mask set.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import (CompressiveObservations, ShapeMismatchError, _atomic_write, as_matrix,
                   seeded_rng)

_HEADER = struct.Struct("<QQQdQ")  # d1, d2, m, p, seed
_BLOCK_ROWS = 64  # masks drawn or unpacked at a time


def xi_p_value(p):
    """RIP scale factor: sqrt(3 / (2 p (1-p))) for p != 1/2, else 1."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 1.0
    return math.sqrt(3.0 / (2.0 * p * (1.0 - p)))


@dataclass
class SensingEnsemble:
    """m random masks of shape d1 x d2 with entries in {0, 1/m}.

    ``packed`` holds one bit per mask entry (bit set = entry 1/m), one
    bit-packed row per mask.  Immutable after construction; the unpacked
    0/1 matrix is cached on first use.
    """

    d1: int
    d2: int
    m: int
    p: float
    seed: int
    packed: np.ndarray
    _dense: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"need at least one matrix entry, got {self.d1}x{self.d2}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        rows = (self.m, (self.d1 * self.d2 + 7) // 8)
        if self.packed.shape != rows:
            raise ShapeMismatchError(f"packed masks have shape {self.packed.shape}, "
                                     f"expected {rows}")

    @property
    def shape(self):
        return (self.d1, self.d2)

    def indicator_matrix(self):
        """Unpacked 0/1 float matrix of shape (m, d1*d2), cached."""
        if self._dense is None:
            n = self.d1 * self.d2
            dense = np.empty((self.m, n))
            for r0 in range(0, self.m, _BLOCK_ROWS):
                block = self.packed[r0:r0 + _BLOCK_ROWS]
                dense[r0:r0 + _BLOCK_ROWS] = np.unpackbits(block, axis=1, count=n)
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    def mask_dense(self, i):
        """The i-th mask A_i as a dense d1 x d2 matrix (entries 0 or 1/m)."""
        row = np.unpackbits(self.packed[i], count=self.d1 * self.d2)
        return (row / self.m).reshape(self.d1, self.d2)


def build_sensing_ensemble(d1, d2, m, p, seed):
    """Draw an ensemble: each entry of each mask is 0 w.p. p, 1/m w.p. 1-p.

    Entry j (row-major over all masks) is set iff u_j >= p, where
    u_j = (k_j + v_j)/256 is uniform on a grid of step 2**-61: k_j is byte j
    of the seed's raw 64-bit words read little-endian, and v_j, a uniform
    double, is drawn only when k_j == floor(256 p), after all the bytes and
    in row-major order.  So the masks do not depend on ``_BLOCK_ROWS``.
    """
    n = d1 * d2
    ensemble = SensingEnsemble(d1=d1, d2=d2, m=m, p=float(p), seed=int(seed),
                               packed=np.empty((m, (n + 7) // 8), np.uint8))
    rng = seeded_rng(seed)
    k0 = math.floor(256 * ensemble.p)  # an int, so comparisons stay in uint8
    frac = 256 * ensemble.p - k0  # exact: scaling by 256 is exact
    spare = np.empty(0, np.uint8)  # bytes of the last word a block left unused
    ties = []
    for r0 in range(0, m, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, m - r0)
        need = rows * n - spare.size
        words = rng.bit_generator.random_raw(-(-need // 8)).astype("<u8", copy=False)
        fresh = words.view(np.uint8)
        k = np.concatenate((spare, fresh[:need])) if spare.size else fresh[:need]
        k = k.reshape(rows, n)
        spare = fresh[need:]
        # with frac == 0 every tie is set, and its v need not be drawn
        ensemble.packed[r0:r0 + rows] = np.packbits(k > k0 if frac else k >= k0, axis=1)
        if frac:
            ties.append(np.flatnonzero(k == k0) + r0 * n)
    if frac:
        ties = np.concatenate(ties)
        row, col = np.divmod(ties[rng.random(ties.size) >= frac], n)
        np.bitwise_or.at(ensemble.packed, (row, col >> 3), (0x80 >> (col & 7)).astype(np.uint8))
    ensemble.packed.flags.writeable = False
    return ensemble


def apply_forward(ensemble, X):
    """Apply the measurement operator: [AX]_i = tr(A_i^T X).

    Nonnegative input gives nonnegative output, and the total measured
    intensity never exceeds the total intensity of the signal.
    """
    X = as_matrix(X, ensemble.shape)
    return ensemble.indicator_matrix() @ X.ravel() / ensemble.m


def apply_adjoint(ensemble, v):
    """Adjoint of the measurement operator: sum_i v_i A_i."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (ensemble.m,):
        raise ShapeMismatchError(
            f"vector length {v.shape} does not match ensemble size {ensemble.m}")
    flat = ensemble.indicator_matrix().T @ v / ensemble.m
    return flat.reshape(ensemble.d1, ensemble.d2)


def sample_compressive_counts(ensemble, M, seed):
    """Draw y_i ~ Poisson([AM]_i) independently; rate 0 yields count 0."""
    rates = apply_forward(ensemble, M)
    if rates.min() < -1e-12:
        raise ValueError(f"negative Poisson rate {float(rates.min())!r} from the forward map")
    rates = np.maximum(rates, 0.0)
    counts = seeded_rng(seed).poisson(rates)
    return CompressiveObservations(counts=counts)


def tilde_forward(ensemble, X):
    """Apply the zero-mean part of the operator (masks rebuilt via the affine map).

    Bit set maps to +sqrt(p/(1-p)), bit clear to -sqrt((1-p)/p), scaled by
    1/sqrt(m).  Used only by the RIP diagnostic.
    """
    X = as_matrix(X, ensemble.shape)
    p = ensemble.p
    hi = math.sqrt(p / (1.0 - p))
    lo = math.sqrt((1.0 - p) / p)
    x = X.ravel()
    ones_part = ensemble.indicator_matrix() @ x
    return (hi * ones_part - lo * (x.sum() - ones_part)) / math.sqrt(ensemble.m)


def empirical_rip_range(ensemble, test_matrices):
    """Range of ||A~ X||_2^2 over unit-Frobenius test matrices.

    Diagnostic only: the theory predicts values in [1/2, 3/2] with high
    probability once m is large relative to xi_p^4 * log2 of the test-set
    size, but the absolute constants are unknown.
    """
    vals = []
    for X in test_matrices:
        X = as_matrix(X)
        X = X / np.linalg.norm(X)
        vals.append(float(np.sum(tilde_forward(ensemble, X) ** 2)))
    return min(vals), max(vals)


def save_ensemble(path, ensemble):
    """Persist as a little-endian header (d1,d2,m,p,seed) plus packed mask bits."""
    header = _HEADER.pack(ensemble.d1, ensemble.d2, ensemble.m, ensemble.p, ensemble.seed)
    _atomic_write(path, header, memoryview(np.ascontiguousarray(ensemble.packed)))


def load_ensemble(path):
    """Load an ensemble written by :func:`save_ensemble`.  A short file, or a
    header the ensemble rejects, raises ``ValueError`` naming ``path`` (and
    the byte offset of the short part)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(
                f"{path}: byte 0: expected {_HEADER.size} header bytes, got {len(header)}")
        d1, d2, m, p, seed = _HEADER.unpack(header)
        row_bytes = (d1 * d2 + 7) // 8
        body = fh.read()
    if len(body) != m * row_bytes:
        raise ValueError(f"{path}: byte {_HEADER.size}: expected {m * row_bytes} mask bytes, "
                         f"got {len(body)}")
    try:
        packed = np.frombuffer(body, dtype=np.uint8).reshape(m, row_bytes)
        return SensingEnsemble(d1=d1, d2=d2, m=m, p=p, seed=seed, packed=packed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
