"""Shared domain types, constraint-set validation, RNG plumbing, and file formats.

Matrices are plain 2-d float64 ``numpy`` arrays throughout the package.
Indices are 0-based in memory; the CSV observation format on disk is 1-based.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# Set-membership tolerances: relative on norms, absolute on entry bounds.
# Chosen to sit just above double-precision SVD accuracy.
REL_TOL_NORM = 1e-9
ABS_TOL_ENTRY = 1e-12


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class RateFloorError(ValueError):
    """A Poisson rate fell below the admissible floor.

    ``index`` names the offending observation: an ``(i, j)`` pair for
    completion, a measurement index for recovery.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested operation (e.g. no positive part)."""


def as_matrix(X, shape=None):
    """Coerce to a 2-d float64 array, rejecting non-finite entries.

    With ``shape`` given, any other shape raises :class:`ShapeMismatchError`
    naming both; this is the one place a matrix argument's shape is checked.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got ndim={X.ndim}")
    if shape is not None and X.shape != tuple(shape):
        raise ShapeMismatchError(f"matrix shape {X.shape} does not match {tuple(shape)}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite entries")
    return X


def _as_counts(counts):
    """``counts`` as a 1-d int64 array.  The first value that is not a whole
    number in [0, 2**63) raises ValueError naming its index."""
    values = np.asarray(counts)
    if values.ndim != 1:
        raise ShapeMismatchError("counts must be a 1-d vector")
    if values.dtype.kind in "biu":
        ok = (values >= 0) & (values <= np.iinfo(np.int64).max)
    else:
        values = values.astype(np.float64)
        ok = (values >= 0) & (values < 2.0**63) & (values == np.floor(values))
    if not ok.all():
        k = int(np.argmin(ok))
        v = values[k].item()
        raise ValueError(f"counts must be nonnegative, got {v!r} at index {k}" if v < 0 else
                         f"count {v!r} at index {k} is not a whole number below 2**63")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FeasibleSet:
    """Constraint-set parameters shared by recovery and completion.

    Parameters
    ----------
    alpha : float
        Entry-wise upper bound (> 0, finite).
    beta : float
        Entry-wise lower bound (> 0, < alpha).
    rank_budget : int
        Rank surrogate r >= 1 entering the nuclear-norm radius.
    total_intensity : float
        Total intensity I > 0, finite, used by the recovery constraint set.
    entry_floor : float
        Entry-wise floor c > 0, finite, of the recovery candidate set.
    """

    alpha: float
    beta: float
    rank_budget: int = 1
    total_intensity: float = 1.0
    entry_floor: float = 1e-6

    def __post_init__(self):
        # each test is false for nan, so a nan fails it as +-inf does
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.beta < self.alpha:
            raise ValueError(f"need beta < alpha, got beta={self.beta}, alpha={self.alpha}")
        if self.rank_budget < 1:
            raise ValueError(f"rank_budget must be >= 1, got {self.rank_budget}")
        if not 0 < self.total_intensity < math.inf:
            raise ValueError(f"total_intensity must be positive and finite, "
                             f"got {self.total_intensity}")
        if not 0 < self.entry_floor < math.inf:
            raise ValueError(f"entry_floor must be positive and finite, got {self.entry_floor}")

    def nuclear_radius(self, d1, d2):
        """Nuclear-norm radius alpha * sqrt(r * d1 * d2)."""
        return self.alpha * math.sqrt(self.rank_budget * d1 * d2)

    def lipschitz(self):
        """Gradient Lipschitz constant alpha / beta**2 of the completion objective."""
        return self.alpha / self.beta**2


@dataclass(frozen=True)
class CompletionObservations:
    """Poisson counts on an observed index set of a d1-by-d2 matrix.

    ``rows``/``cols`` are 0-based and sorted lexicographically by (row, col);
    ``counts`` is int64 and aligned with them.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    dims: tuple

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        counts = _as_counts(self.counts)
        if not (rows.shape == cols.shape == counts.shape) or rows.ndim != 1:
            raise ShapeMismatchError("rows, cols and counts must be aligned 1-d arrays")
        d1, d2 = self.dims
        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= d1 or cols.max() >= d2):
            raise ValueError("observation index outside the matrix")
        order = np.lexsort((cols, rows))
        rows, cols, counts = rows[order], cols[order], counts[order]
        flat = rows * d2 + cols
        if rows.size and np.any(np.diff(flat) == 0):
            k = int(np.argmin(np.diff(flat)))
            raise ValueError(f"duplicate observation at ({rows[k]}, {cols[k]})")
        for name, val in (("rows", rows), ("cols", cols), ("counts", counts)):
            object.__setattr__(self, name, val)
        for arr in (rows, cols, counts):
            arr.flags.writeable = False

    def __len__(self):
        return self.rows.size


@dataclass(frozen=True)
class CompressiveObservations:
    """Vector of m Poisson measurement counts from the compressive model."""

    counts: np.ndarray

    def __post_init__(self):
        counts = _as_counts(self.counts)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return self.counts.size


@dataclass
class SolverTrace:
    """Per-iteration audit record of a solver run: one objective value and
    one step control per accepted iteration, and how the run ended
    (``"max_iter"``, ``"tolerance"``, or ``"aborted"`` on a trace carried by
    ``SolverAbort``)."""

    objective_values: list = field(default_factory=list)
    step_control: list = field(default_factory=list)
    terminated_by: str = "max_iter"

    @property
    def iterations_run(self):
        return len(self.objective_values)

    def record(self, objective, t):
        self.objective_values.append(float(objective))
        self.step_control.append(float(t))

    def to_csv(self, path):
        """Write ``iter,objective,t`` rows for plotting/auditing."""
        lines = ["iter,objective,t"]
        for k, (f, t) in enumerate(zip(self.objective_values, self.step_control), start=1):
            lines.append(f"{k},{f!r},{t!r}")
        _atomic_write(path, "\n".join(lines) + "\n")


@dataclass
class MembershipReport:
    """Outcome of a constraint-set membership check."""

    ok: bool
    which: str
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_membership(X, fset, which):
    """Check membership of ``X`` in one of the constraint sets.

    Parameters
    ----------
    X : array
        Candidate matrix.
    fset : FeasibleSet
        Set parameters (alpha, beta, rank budget, total intensity).
    which : str
        One of ``"S"`` (box + nuclear ball), ``"Gamma0"`` (nonnegative with
        total intensity I), ``"Gamma1"`` (box) or ``"Gamma2"`` (nuclear ball).

    Returns
    -------
    MembershipReport
        Truthy iff all invariants of the named set hold; ``violations`` names
        the first offending entry or norm.
    """
    X = as_matrix(X)
    d1, d2 = X.shape
    report = MembershipReport(ok=True, which=which)

    def _check_box():
        low = X < fset.beta - ABS_TOL_ENTRY
        high = X > fset.alpha + ABS_TOL_ENTRY
        if low.any():
            i, j = np.unravel_index(int(np.argmax(low)), X.shape)
            report.violations.append(
                f"entry ({i}, {j}) = {float(X[i, j])!r} below lower bound {fset.beta}")
        if high.any():
            i, j = np.unravel_index(int(np.argmax(high)), X.shape)
            report.violations.append(
                f"entry ({i}, {j}) = {float(X[i, j])!r} above upper bound {fset.alpha}")

    def _check_nuclear():
        radius = fset.nuclear_radius(d1, d2)
        nuc = float(np.linalg.svd(X, compute_uv=False).sum())
        if nuc > radius * (1 + REL_TOL_NORM):
            report.violations.append(f"nuclear norm {nuc!r} exceeds radius {radius!r}")

    if which == "Gamma1":
        _check_box()
    elif which == "Gamma2":
        _check_nuclear()
    elif which == "S":
        _check_box()
        _check_nuclear()
    elif which == "Gamma0":
        neg = X < -ABS_TOL_ENTRY
        if neg.any():
            i, j = np.unravel_index(int(np.argmax(neg)), X.shape)
            report.violations.append(f"entry ({i}, {j}) = {float(X[i, j])!r} is negative")
        total = float(np.abs(X).sum())
        target = fset.total_intensity
        if abs(total - target) > REL_TOL_NORM * max(abs(target), 1.0):
            report.violations.append(f"total intensity {total!r} != {target!r}")
    else:
        raise ValueError(f"unknown set {which!r}; expected S, Gamma0, Gamma1 or Gamma2")

    report.ok = not report.violations
    return report


def seeded_rng(seed):
    """Deterministic random stream from a 64-bit seed.

    Identical seeds yield identical uniform/Bernoulli/Poisson draws across
    runs (and across platforms for a fixed numpy version).
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


# ---------------------------------------------------------------------------
# File formats.
# Dense matrices: CSV, one row per line, '.' decimal, no header.
# Sparse observations: CSV triplets with header `row,col,count`, 1-based.
# Every text input is read through _numbered_lines, so its errors read
# `path: line N: ...` with N 1-based.
# ---------------------------------------------------------------------------

def _atomic_write(path, *chunks):
    """Write ``chunks`` (all str, or all bytes-like) to ``path`` in order,
    through ``path.tmp`` and a rename.

    Readers see the old file or the whole new one, never a partial write; a
    failed write removes its temporary file.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w" if isinstance(chunks[0], str) else "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _numbered_lines(path, comment=None):
    """Yield ``(line number, text)`` for each non-blank line of a UTF-8 text
    file: numbers are 1-based, text is stripped and cut at ``comment``.  A
    line that is not UTF-8 raises ``ValueError`` as ``path: line N: ...``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None
            if comment is not None:
                line = line.split(comment, 1)[0]
            line = line.strip()
            if line:
                yield lineno, line


def _parse(convert, token, path, lineno):
    """``convert(token)``, with a ``ValueError`` re-raised as ``path: line N: ...``."""
    try:
        return convert(token)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def _read_triplets(path, dims=None):
    """Read 1-based ``i,j,count`` rows into 0-based int64 arrays.

    A first line whose first field is not an integer is a header.  Each other
    line has three integer fields, a cell inside ``dims`` (else int64 indices
    >= 1), a nonnegative int64 count and a cell no earlier line gave.  Returns
    ``(rows, cols, counts, header)``, with ``header`` None when there is none.
    """
    header, triplets, seen = None, [], set()
    for lineno, line in _numbered_lines(path):
        toks = line.split(",")
        if lineno == 1 and not toks[0].strip().lstrip("-").isdigit():
            header = line
            continue
        if len(toks) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(toks)}")
        i, j, y = (_parse(int, tok, path, lineno) for tok in toks)
        if dims is not None and not (1 <= i <= dims[0] and 1 <= j <= dims[1]):
            raise ValueError(f"{path}: line {lineno}: cell ({i}, {j}) outside the "
                             f"{dims[0]}x{dims[1]} matrix")
        if i < 1 or j < 1:
            raise ValueError(f"{path}: line {lineno}: indices are 1-based")
        if y < 0:
            raise ValueError(f"{path}: line {lineno}: negative count {y}")
        for what, value in (("index", i), ("index", j), ("count", y)):
            if value >= 2**63:
                raise ValueError(f"{path}: line {lineno}: {what} {value} above the int64 range")
        if (i, j) in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate cell ({i}, {j})")
        seen.add((i, j))
        triplets.append((i - 1, j - 1, y))
    rows, cols, counts = np.array(triplets, dtype=np.int64).reshape(-1, 3).T
    return rows, cols, counts, header


def save_dense_csv(path, X):
    """Write a dense matrix as header-less CSV; floats round-trip exactly."""
    X = as_matrix(X)
    lines = [",".join(repr(float(v)) for v in row) for row in X]
    _atomic_write(path, "\n".join(lines) + "\n")


def load_dense_csv(path):
    """Read a dense header-less CSV matrix written by :func:`save_dense_csv`."""
    rows = []
    for lineno, line in _numbered_lines(path):
        row = _parse(lambda text: [float(tok) for tok in text.split(",")], line, path, lineno)
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}: line {lineno}: non-finite entry")
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.array(rows)


def save_observations_csv(path, obs):
    """Write completion observations as 1-based `row,col,count` triplets."""
    lines = ["row,col,count"]
    for i, j, y in zip(obs.rows, obs.cols, obs.counts):
        lines.append(f"{i + 1},{j + 1},{y}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_observations_csv(path, dims):
    """Read `row,col,count` triplets (1-based) into CompletionObservations."""
    rows, cols, counts, header = _read_triplets(path, dims)
    if header != "row,col,count":
        got = "no header" if header is None else repr(header)
        raise ValueError(f"{path}: line 1: expected header 'row,col,count', got {got}")
    return CompletionObservations(rows=rows, cols=cols, counts=counts, dims=tuple(dims))
