"""Root-of-unity adjacency matrices for shift lifts and their exact spectral identity.

For a shift assignment with degree k, each k-th root of unity t yields a
Hermitian matrix whose (u, v) entry is t**Shift(u, v) on edges; pooling the
spectra over all k roots reproduces the lift spectrum exactly, eigenvectors
transport to the lift coordinate-wise, and lifted eigenvectors coming from
distinct roots are orthogonal. verify_characterization checks all three
statements numerically and treats any failure as an implementation bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CharacterizationError, InvalidParameterError, NumericalError
from .graphs import RegularGraph, adjacency_matrix, edge_endpoints
from .lifts import ShiftAssignment, build_shift_lift
from .spectra import (
    HermitianMatrix,
    Spectrum,
    eig_hermitian,
    eig_symmetric,
    max_multiset_mismatch,
    spectral_radius,
)


def _root_value(k: int, m: int) -> complex:
    """exp(2*pi*i*m/k), with components snapped onto exact 0 and +-1."""
    ang = 2.0 * math.pi * (m % k) / k
    re, im = math.cos(ang), math.sin(ang)
    for target in (0.0, 1.0, -1.0):
        if abs(re - target) < 1e-15:
            re = target
        if abs(im - target) < 1e-15:
            im = target
    return complex(re, im)


@dataclass(frozen=True)
class RootOfUnity:
    """The j-th of the k complex k-th roots of unity."""

    k: int
    j: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError("k must be positive")
        if not 0 <= self.j < self.k:
            raise InvalidParameterError(f"j must lie in [0,{self.k})")

    @property
    def value(self) -> complex:
        return _root_value(self.k, self.j)

    def power(self, m: int) -> complex:
        """self.value ** m, computed through the exact index (j*m mod k)."""
        return _root_value(self.k, (self.j * m) % self.k)


def roots_of_unity(k: int) -> tuple[RootOfUnity, ...]:
    """All k-th roots ordered by exponent j = 0..k-1 (j=0 is 1)."""
    return tuple(RootOfUnity(k, j) for j in range(k))


def _check_shift_count(g: RegularGraph, sa: ShiftAssignment) -> None:
    if sa.shift_array.shape[0] != g.num_edges:
        raise InvalidParameterError(
            f"assignment has {sa.shift_array.shape[0]} shifts for {g.num_edges} edges"
        )


def shift_matrix(g: RegularGraph, sa: ShiftAssignment, t: RootOfUnity) -> HermitianMatrix:
    """Hermitian matrix with entry t**shift on each stored edge direction.

    Entry (u, v) of a stored edge (u < v, shift s) is t**s and entry (v, u)
    is the conjugate t**(-s); at t = 1 this is exactly the adjacency matrix.
    """
    _check_shift_count(g, sa)
    if t.k != sa.k:
        raise InvalidParameterError("root order and assignment degree disagree")
    w = np.array([t.power(s) for s in range(sa.k)])[sa.shift_array]
    u, v = edge_endpoints(g)
    m = np.zeros((g.n, g.n), dtype=complex)
    m[u, v] = w
    m[v, u] = w.conj()
    return HermitianMatrix(m)


def lift_eigenvector(v: np.ndarray, t: RootOfUnity, k: int) -> np.ndarray:
    """Transport a base-level eigenvector of the root-t matrix to the lift.

    Component (x, i) of the output is t**i * v[x] under the fiber-contiguous
    index x*k + i, so the squared norm scales by exactly k.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise InvalidParameterError("eigenvector must be 1-d")
    if t.k != k:
        raise InvalidParameterError("root order and lift degree disagree")
    if not np.any(v):
        raise InvalidParameterError("zero vector is not an eigenvector")
    powers = np.array([t.power(i) for i in range(k)])
    return (v[:, None] * powers[None, :]).reshape(-1)


@dataclass(frozen=True, eq=False)
class CharacterizationReport:
    """Numerical summary of the three checks on one shift-lift instance."""

    k: int
    per_root_spectra: tuple[Spectrum, ...]
    pooled: np.ndarray
    lift_spectrum: Spectrum
    lift_frobenius_norm: float
    max_multiset_mismatch: float
    max_eigenvector_residual: float
    max_cross_root_inner: float


def verify_characterization(
    g: RegularGraph,
    sa: ShiftAssignment,
    tol: float = 1e-8,
    window: float = 1e-6,
    ortho_tol: float = 1e-8,
) -> CharacterizationReport:
    """Check the shift-lift spectral identity on a concrete instance.

    Three checks, all of which hold exactly in real arithmetic:
      (a) the multiset union of the k per-root spectra equals the lift
          spectrum within `window`;
      (b) every eigenpair (alpha, v) of every root matrix transports to the
          lift with residual ||A_H v^l - alpha v^l|| <= tol * ||A_H||_F
          (v taken unit-norm, so the check is scale invariant);
      (c) lifted eigenvectors from distinct roots have normalized inner
          products at most ortho_tol.

    Raises CharacterizationError naming the worst offender if any check
    fails; a failure indicates a bug, never a counterexample.
    """
    lifted = build_shift_lift(g, sa)
    a_h = adjacency_matrix(lifted.graph)
    lift_spec = eig_symmetric(a_h)
    fro = float(np.linalg.norm(a_h))
    k, n = sa.k, g.n

    per_root = []
    pooled_parts = []
    normalized_lifted = []
    max_resid = 0.0
    for j in range(k):
        t = RootOfUnity(k, j)
        spec, vecs = eig_hermitian(shift_matrix(g, sa, t), return_vectors=True)
        per_root.append(spec)
        pooled_parts.append(spec.values)
        powers = np.array([t.power(i) for i in range(k)])
        # columns: lifted eigenvectors, component (x, i) at row x*k + i
        transported = (vecs[:, None, :] * powers[None, :, None]).reshape(k * n, n)
        resid = a_h @ transported - transported * spec.values[None, :]
        max_resid = max(max_resid, float(np.max(np.linalg.norm(resid, axis=0))))
        normalized_lifted.append(transported / math.sqrt(k))

    pooled = np.sort(np.concatenate(pooled_parts))[::-1]
    mismatch = max_multiset_mismatch(pooled, lift_spec.values)

    stacked = np.concatenate(normalized_lifted, axis=1)
    gram = np.abs(stacked.conj().T @ stacked)
    for j in range(k):
        gram[j * n : (j + 1) * n, j * n : (j + 1) * n] = 0.0
    max_inner = float(np.max(gram)) if gram.size else 0.0

    report = CharacterizationReport(
        k=k,
        per_root_spectra=tuple(per_root),
        pooled=pooled,
        lift_spectrum=lift_spec,
        lift_frobenius_norm=fro,
        max_multiset_mismatch=mismatch,
        max_eigenvector_residual=max_resid,
        max_cross_root_inner=max_inner,
    )
    if mismatch > window:
        raise CharacterizationError(
            f"pooled per-root spectra mismatch lift spectrum by {mismatch:.3e} "
            f"(window {window:g})"
        )
    if max_resid > tol * fro:
        raise CharacterizationError(
            f"lifted eigenvector residual {max_resid:.3e} exceeds "
            f"{tol:g} * ||A_H||_F = {tol * fro:.3e}"
        )
    if max_inner > ortho_tol:
        raise CharacterizationError(
            f"cross-root inner product {max_inner:.3e} exceeds {ortho_tol:g}"
        )
    return report


def lambda_new_from_roots(g: RegularGraph, sa: ShiftAssignment) -> tuple[float, tuple[float, ...]]:
    """Largest new eigenvalue of a shift lift via the per-root radii.

    Only roots j <= k/2 are solved: M_{k-j} is the entrywise conjugate of
    M_j and has the same spectrum, and M_{k/2} is a real signing, solved on
    the real symmetric path. Returns (max radius over roots j >= 1, all k-1
    radii ordered by j).
    """
    k = sa.k
    half = []
    for j in range(1, k // 2 + 1):
        m = shift_matrix(g, sa, RootOfUnity(k, j)).data
        half.append(spectral_radius(m.real if 2 * j == k else m))
    radii = tuple(half[min(j, k - j) - 1] for j in range(1, k))
    return max(radii), radii


def lambda_new_from_fibers(g: RegularGraph, sa: ShiftAssignment) -> float:
    """Largest new eigenvalue of a shift lift as the spectral radius of P A_H P.

    P subtracts each fiber's mean. The fiber-constant vectors span exactly
    the eigenspace inherited from the base and A_H maps their orthogonal
    complement to itself, so the radius of P A_H P is lambda_new; no lift
    graph, no dense lift matrix and no old/new matching is involved. A_H is
    assembled as a sparse matrix from the base edges: shift s on (u, v) gives
    the lift edges (u, i)-(v, i + s mod k). The operator is solved by Lanczos
    (ARPACK, fixed start vector), asking for the two largest-magnitude values
    so that a +-lambda tie on a bipartite base converges; every lift has
    order k*n >= 4, above the two values asked for. An ARPACK failure raises
    NumericalError.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    k, n = sa.k, g.n
    _check_shift_count(g, sa)
    size = k * n
    eu, ev = edge_endpoints(g)
    copy = np.arange(k)
    shifts = sa.shift_array[:, None]
    rows = (eu[:, None] * k + copy).ravel()
    cols = (ev[:, None] * k + (copy + shifts) % k).ravel()
    ends = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    a_h = csr_matrix((np.ones(ends[0].size), ends), shape=(size, size))

    def project(x: np.ndarray) -> np.ndarray:
        x = x.reshape(n, k, -1)
        return (x - x.mean(axis=1, keepdims=True)).reshape(size, -1)

    op = LinearOperator((size, size), dtype=float,
                        matvec=lambda x: project(a_h @ project(x)))
    v0 = project(np.random.default_rng(0).standard_normal(size)).ravel()
    try:
        # ARPACK stops once each Ritz residual is below tol * |theta| <= tol * d,
        # which also bounds the Ritz value's distance to an eigenvalue
        vals = eigsh(op, k=2, which="LM", v0=v0, tol=1e-10,
                     return_eigenvectors=False)
    except ArpackError as exc:
        raise NumericalError(
            f"Lanczos on the fiber-sum-zero operator failed: {exc}"
        ) from exc
    return float(np.max(np.abs(vals)))
