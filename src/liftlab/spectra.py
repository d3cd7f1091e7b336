"""Dense eigendecomposition and old/new eigenvalue bookkeeping for lifts.

All spectra are returned sorted descending. The solver is LAPACK's dense
symmetric / Hermitian path via numpy; the contract here is the residual bound
per returned eigenpair, not a particular factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    MatchingError,
    NumericalError,
    SizeLimitError,
)

MAX_DENSE_DIM = 5000
DEFAULT_TOL = 1e-9
# absolute slack of every check of a computed value against a stated bound,
# so a value that meets its bound exactly is not sorted by its last bit
BOUND_SLACK = 1e-9
DEFAULT_MATCH_WINDOW = 1e-6
_TOP_VALUE_TOL = 1e-6  # how far lambda_nontrivial lets the top value sit from d


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise InvalidParameterError("spectrum values must be a 1-d array")
        if not np.isfinite(vals).all():
            raise InvalidParameterError("spectrum values must be finite")
        if vals.size > 1 and np.any(np.diff(vals) > 0):
            raise InvalidParameterError("spectrum values must be sorted descending")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class OldNewSplit:
    """Partition of a lift spectrum into inherited (old) and new eigenvalues."""

    old: np.ndarray
    new: np.ndarray
    lambda_new: float
    window: float


def _check_dense_dim(size: int) -> None:
    """SizeLimitError if a dense solve of order `size` exceeds the cap."""
    if size > MAX_DENSE_DIM:
        raise SizeLimitError(f"dense solver capped at n={MAX_DENSE_DIM}, got {size}")


def _hermitian(m, ndim: int) -> np.ndarray:
    """(M + M^H) / 2 of a float or complex `ndim`-d array whose last two
    axes are square; a non-finite entry or M - M^H above 1e-12 is rejected."""
    m = np.asarray(m)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise InvalidParameterError("matrix must be square")
    _check_dense_dim(m.shape[-1])
    m = np.asarray(m, dtype=np.result_type(m.dtype, np.float64))
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix has a non-finite entry")
    mh = m.conj().swapaxes(-1, -2)
    asym = float(np.max(np.abs(m - mh))) if m.size else 0.0
    if asym > 1e-12:
        raise InvalidParameterError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")
    return (m + mh) / 2.0


def eig_stack(ms) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a (r, n, n) stack of symmetric or Hermitian matrices.

    One LAPACK call solves each matrix exactly as it would be solved alone.
    Returns values (r, n), rows descending, and vectors (r, n, n) with the
    aligned orthonormal eigenvectors as columns. Inputs are checked as in
    eig_symmetric; a pair with ||M_i v - w v||_2 > DEFAULT_TOL * ||M_i||_F
    raises NumericalError.
    """
    ms = _hermitian(ms, 3)
    try:
        w, v = np.linalg.eigh(ms)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    w = np.ascontiguousarray(w[:, ::-1])
    v = np.ascontiguousarray(v[:, :, ::-1])
    worst = np.linalg.norm(ms @ v - v * w[:, None, :], axis=1).max(axis=1, initial=0.0)
    bound = DEFAULT_TOL * np.linalg.norm(ms, axis=(1, 2))
    i = int(np.argmax(worst - bound))
    if worst[i] > bound[i]:
        raise NumericalError(
            f"eigenpair residual {worst[i]:.3e} of matrix {i} exceeds "
            f"{DEFAULT_TOL:.1e} * ||M||_F = {bound[i]:.3e}"
        )
    return w, v


def eig_symmetric(m) -> Spectrum:
    """Full spectrum of a real symmetric or complex Hermitian matrix, descending.

    Accepts an array equal to its conjugate transpose within 1e-12
    entrywise. Real input is solved by LAPACK's real symmetric routine,
    complex input by its complex Hermitian one, which returns each
    eigenvalue exactly once (the test suite cross-checks it against the
    doubled real-symmetric embedding). Eigenvectors come from eig_stack.
    """
    m = _hermitian(m, 2)
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(np.ascontiguousarray(w[::-1]))


def spectral_radius(m) -> float:
    """Largest absolute eigenvalue of a symmetric or Hermitian matrix."""
    return float(np.max(np.abs(eig_symmetric(m).values), initial=0.0))


def split_old_new(base: Spectrum, lift: Spectrum, k: int) -> OldNewSplit:
    """Greedily match each base eigenvalue to a lift eigenvalue; rest is new.

    Base eigenvalues are processed in descending order; each takes the nearest
    unused lift eigenvalue (first index on ties). Any base eigenvalue left
    without a partner within DEFAULT_MATCH_WINDOW raises MatchingError: either
    the lift spectrum does not come from a lift of this base, or the solver
    misbehaved.
    """
    n = len(base)
    if len(lift) != k * n:
        raise InvalidParameterError(
            f"lift spectrum has {len(lift)} values, expected k*n = {k * n}"
        )
    lift_vals = lift.values
    used = np.zeros(len(lift), dtype=bool)
    matched = []
    for b in base.values:
        diffs = np.abs(lift_vals - b)
        diffs[used] = np.inf
        idx = int(np.argmin(diffs))
        if diffs[idx] > DEFAULT_MATCH_WINDOW:
            raise MatchingError(
                f"base eigenvalue {b!r} has no unused lift partner within "
                f"{DEFAULT_MATCH_WINDOW:g} (closest differs by {diffs[idx]:.3e})"
            )
        used[idx] = True
        matched.append(idx)
    old = np.sort(lift_vals[matched])[::-1]
    new = np.sort(lift_vals[~used])[::-1]
    lam_new = float(np.max(np.abs(new))) if new.size else 0.0
    return OldNewSplit(old, new, lam_new, DEFAULT_MATCH_WINDOW)


def lambda_nontrivial(s: Spectrum, d: int) -> float:
    """Largest |eigenvalue| after dropping one copy of d.

    The input must be the adjacency spectrum of a connected-or-not d-regular
    graph: its top value has to equal d within _TOP_VALUE_TOL.
    """
    vals = s.values
    if not vals.size:
        raise InvalidParameterError("empty spectrum")
    if abs(vals[0] - d) > _TOP_VALUE_TOL:
        raise InvalidParameterError(
            f"top eigenvalue {vals[0]!r} differs from d={d} by more than {_TOP_VALUE_TOL!r}"
        )
    return float(np.max(np.abs(vals[1:]), initial=0.0))


def max_multiset_mismatch(a, b) -> float:
    """Max |difference| after descending sort; the multiset matching metric."""
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    b = np.sort(np.asarray(b, dtype=float))[::-1]
    if a.shape != b.shape:
        raise InvalidParameterError("multisets differ in size")
    return float(np.max(np.abs(a - b), initial=0.0))
