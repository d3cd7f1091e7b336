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
DEFAULT_MATCH_WINDOW = 1e-6


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise InvalidParameterError("spectrum values must be a 1-d array")
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


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError("matrix must be square")
    if m.shape[0] > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dense solver capped at n={MAX_DENSE_DIM}, got {m.shape[0]}"
        )
    return m


def _verify_residuals(m, w, v, tol):
    """Enforce ||M v - w v||_2 <= tol * ||M||_F for every returned eigenpair."""
    scale = float(np.linalg.norm(m))
    resid = m @ v - v * w
    worst = float(np.max(np.linalg.norm(resid, axis=0))) if w.size else 0.0
    if worst > tol * scale:
        raise NumericalError(
            f"eigenpair residual {worst:.3e} exceeds {tol:.1e} * ||M||_F = "
            f"{tol * scale:.3e}"
        )


def eig_symmetric(m, tol: float = DEFAULT_TOL, return_vectors: bool = False):
    """Full spectrum of a real symmetric or complex Hermitian matrix, descending.

    Accepts an array equal to its conjugate transpose within 1e-12
    entrywise. Real input is solved by LAPACK's real symmetric routine,
    complex input by its complex Hermitian one, which returns each
    eigenvalue exactly once (the test suite cross-checks it against the
    doubled real-symmetric embedding). With return_vectors=True the
    orthonormal eigenvectors come back as columns aligned with the descending
    eigenvalues, and each pair is verified against the residual contract
    (NumericalError on failure).
    """
    m = _check_square(m)
    m = np.asarray(m, dtype=np.result_type(m.dtype, np.float64))
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > 1e-12:
        raise InvalidParameterError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")
    m = (m + m.conj().T) / 2.0
    try:
        if return_vectors:
            w, v = np.linalg.eigh(m)
        else:
            w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    spec = Spectrum(np.ascontiguousarray(w[::-1]))
    if return_vectors:
        v = np.ascontiguousarray(v[:, ::-1])
        _verify_residuals(m, spec.values, v, tol)
        return spec, v
    return spec


def spectral_radius(m) -> float:
    """Largest absolute eigenvalue of a symmetric or Hermitian matrix."""
    spec = eig_symmetric(m)
    if len(spec) == 0:
        return 0.0
    return float(max(abs(spec.values[0]), abs(spec.values[-1])))


def split_old_new(
    base: Spectrum,
    lift: Spectrum,
    k: int,
    window: float = DEFAULT_MATCH_WINDOW,
) -> OldNewSplit:
    """Greedily match each base eigenvalue to a lift eigenvalue; rest is new.

    Base eigenvalues are processed in descending order; each takes the nearest
    unused lift eigenvalue (first index on ties). Any base eigenvalue left
    without a partner inside `window` raises MatchingError: either the lift
    spectrum does not come from a lift of this base, or the solver misbehaved.
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
        if diffs[idx] > window:
            raise MatchingError(
                f"base eigenvalue {b!r} has no unused lift partner within "
                f"{window:g} (closest differs by {diffs[idx]:.3e})"
            )
        used[idx] = True
        matched.append(idx)
    old = np.sort(lift_vals[matched])[::-1]
    new = np.sort(lift_vals[~used])[::-1]
    lam_new = float(np.max(np.abs(new))) if new.size else 0.0
    return OldNewSplit(old, new, lam_new, window)


def lambda_nontrivial(
    s: Spectrum, d: int, bipartite: bool = False, tol: float = 1e-6
) -> float:
    """Largest |eigenvalue| after dropping one copy of d (and of -d if bipartite).

    The input must be the adjacency spectrum of a connected-or-not d-regular
    graph: its top value has to equal d within tol. With bipartite=True the
    spectrum must be symmetric about 0 within tol, which holds exactly when
    the graph is bipartite.
    """
    vals = list(s.values)
    if not vals:
        raise InvalidParameterError("empty spectrum")
    if abs(vals[0] - d) > tol:
        raise InvalidParameterError(
            f"top eigenvalue {vals[0]!r} differs from d={d} by more than {tol:g}"
        )
    vals.pop(0)
    if bipartite:
        if np.max(np.abs(s.values + s.values[::-1])) > tol:
            raise InvalidParameterError(
                "bipartite flag set but the spectrum is not symmetric about 0"
            )
        vals.pop()
    if not vals:
        return 0.0
    return float(max(abs(v) for v in vals))


def rayleigh_quotient(m, x) -> float:
    """|x* M x| / (x* x) for a nonzero real or complex vector x."""
    x = np.asarray(x)
    denom = float(np.real(np.vdot(x, x)))
    if denom == 0.0:
        raise InvalidParameterError("Rayleigh quotient of the zero vector")
    num = abs(complex(np.vdot(x, np.asarray(m) @ x)))
    return num / denom


def max_multiset_mismatch(a, b) -> float:
    """Max |difference| after descending sort; the multiset matching metric."""
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    b = np.sort(np.asarray(b, dtype=float))[::-1]
    if a.shape != b.shape:
        raise InvalidParameterError("multisets differ in size")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
