"""Root-of-unity adjacency matrices for shift lifts and their exact spectral identity.

For a shift assignment with degree k, each k-th root of unity t yields a
Hermitian matrix whose (u, v) entry is t**Shift(u, v) on edges; pooling the
spectra over all k roots reproduces the lift spectrum exactly, eigenvectors
transport to the lift coordinate-wise, and lifted eigenvectors coming from
distinct roots are orthogonal. verify_characterization checks all three
statements numerically and treats any failure as an implementation bug; it
solves all k root matrices as one (k, n, n) stack in one eigensolver call.
Every other root radius comes from _root_radii, dense or Lanczos by base
order. Every matrix here is one graphs.edge_matrix or graphs.symmetric_csr call, the
lift's on the edges of lifts.lift_endpoints; no lift graph is built. Root
weights are read from the k values exp(2*pi*i*m/k), t_j**s being value (j*s)
mod k: O(m) memory per root at any k. Only verify_characterization, whose
k*n is dense-capped, holds a k x k array of powers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CharacterizationError, InvalidParameterError, NumericalError
from .graphs import RegularGraph, edge_endpoints, edge_matrix, symmetric_csr
from .lifts import ShiftAssignment, _check_per_edge, lift_endpoints, shift_to_assignment
from .spectra import (Spectrum, _check_dense_dim, eig_stack, eig_symmetric,
                      max_multiset_mismatch, spectral_radius)


def _root_values(k: int) -> np.ndarray:
    """The k values exp(2*pi*i*m/k), components within 1e-15 of 0 or +-1
    snapped onto them; t_j**s is entry (j*s) mod k, an exact index."""
    ang = 2.0 * math.pi * np.arange(k) / k
    values = np.empty(k, dtype=complex)
    np.cos(ang, out=values.real)
    np.sin(ang, out=values.imag)
    for target in (0.0, 1.0, -1.0):
        for part in (values.real, values.imag):
            part[np.abs(part - target) < 1e-15] = target
    return values


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
    fails; a failure indicates a bug, never a counterexample. A threshold
    that is not finite and >= 0 raises InvalidParameterError: a NaN or
    infinite one would pass every instance, a negative one none.
    """
    for name, value in (("tol", tol), ("window", window), ("ortho_tol", ortho_tol)):
        if not 0 <= value < math.inf:
            raise InvalidParameterError(f"{name} must be finite and >= 0, got {value}")
    _check_per_edge(g, sa.shift_array, "assignment", "shifts")
    k, n = sa.k, g.n
    _check_dense_dim(k * n)  # before the (m, k) permutations, not only the lift matrix
    a_h = edge_matrix(k * n, *lift_endpoints(g, shift_to_assignment(sa).perm_array))
    lift_spec = eig_symmetric(a_h)
    fro = float(np.linalg.norm(a_h))

    roots, js = _root_values(k), np.arange(k)[:, None]
    values, vecs = eig_stack(edge_matrix(n, *edge_endpoints(g), roots[js * sa.shift_array % k]))
    # transported[j][x*k + i, c] = t_j**i * vecs[j][x, c], with powers[j, i] = t_j**i
    powers = roots[js * np.arange(k) % k]
    transported = (vecs[:, :, None, :] * powers[:, None, :, None]).reshape(k, k * n, n)
    resid = a_h @ transported - transported * values[:, None, :]
    max_resid = float(np.max(np.linalg.norm(resid, axis=1)))

    pooled = np.sort(values.ravel())[::-1]
    mismatch = max_multiset_mismatch(pooled, lift_spec.values)

    stacked = (transported / math.sqrt(k)).transpose(1, 0, 2).reshape(k * n, k * n)
    gram = np.abs(stacked.conj().T @ stacked).reshape(k, n, k, n)
    gram[np.arange(k), :, np.arange(k), :] = 0.0
    max_inner = float(np.max(gram))

    report = CharacterizationReport(
        k=k,
        per_root_spectra=tuple(map(Spectrum, values)),
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


def _lanczos_radius(op, what: str, project=None) -> float:
    """Spectral radius of a real symmetric sparse matrix or operator `op`,
    or, given `project`, of P op: P is an orthogonal projection that
    commutes with op, and project(y) applies it to a fresh product y, which
    it may overwrite.

    Solved by a plain three-term Lanczos for the largest eigenvalue theta of
    the squared operator x -> op(op(x)), from a seeded start vector, so reruns
    give the same bytes; the radius is sqrt(theta). With a projection the
    square is x -> P(op(op(x))), which equals (P op)(P op) x, so each squared
    product is projected once. The square is positive semidefinite and merges
    the two ends of the spectrum, so a +-lambda tie (a bipartite lift) is one
    eigenvalue lambda^2 and the top gap is relatively wider: about half the
    steps of a largest-magnitude solve on op itself.

    No basis is stored or reorthogonalized against: lost orthogonality makes
    ghost copies of converged Ritz values but does not move the extreme one
    (Paige 1980), so every 5 steps the top pair (theta, s) of the tridiagonal
    T_j is taken from LAPACK dstemr, and the solve stops once the Ritz
    residual bound beta_j * |s_j| is below tol * theta. That bounds theta's
    distance to lambda^2 and so the radius error by about tol * lambda / 2.
    A beta_j below tol times the largest diagonal entry of T_j (at most
    theta) passes that test whatever s_j is, and means the Krylov space is
    invariant: the solve stops there at any step. Without
    reorthogonalization T_size need not hold the top eigenvalue, so step
    `size` is not a stop; 10 * size steps raise NumericalError naming `what`,
    as does a dstemr failure. Inner products and norms are numpy reductions,
    not BLAS dot products, whose last bits depend on the BLAS thread count at
    large sizes. Operators of order <= 2 (K_2's) are solved densely.
    """
    from scipy.linalg.lapack import dstemr

    size = op.shape[0]
    project = project or (lambda y: y)
    if size <= 2:
        return spectral_radius(project(op @ np.eye(size)))
    tol, cap = 1e-10, 10 * size
    q = project(np.random.default_rng(0).standard_normal(size))
    q /= math.sqrt(np.add.reduce(q * q))
    q_prev, beta, top = np.zeros(size), 0.0, 0.0
    alphas, betas = [], []
    for step in range(1, cap + 1):
        w = project(op @ (op @ q))
        alpha = float(np.add.reduce(q * w))
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(np.add.reduce(w * w))
        alphas.append(alpha)
        betas.append(beta)
        top = max(top, alpha)
        invariant = beta <= tol * top
        if invariant or step % 5 == 0:
            # dstemr overwrites its off-diagonal argument, which needs one
            # trailing entry of workspace: a fresh array each call
            _, theta, vec, info = dstemr(np.array(alphas), np.array(betas), 2,
                                         0.0, 0.0, step, step)
            if info != 0:
                raise NumericalError(f"Lanczos on {what} failed: dstemr info {info}")
            if invariant or beta * abs(vec[-1, 0]) <= tol * theta[0]:
                return math.sqrt(max(float(theta[0]), 0.0))
        q_prev, q = q, w / beta
    raise NumericalError(f"Lanczos on {what} did not converge in {cap} steps")


def _mean_free_radius(a, blocks: int, what: str) -> float:
    """Spectral radius of the sparse symmetric `a` on the vectors that sum to
    zero over each of `blocks` equal consecutive index blocks.

    `a` must commute with the projection P that subtracts each block's mean;
    then that radius is the one of P a, which _lanczos_radius solves with P
    made in place on each squared product.
    """
    width = a.shape[0] // blocks

    def project(y: np.ndarray) -> np.ndarray:
        z = y.reshape(blocks, width, -1)
        z -= z.sum(axis=1, keepdims=True) / width
        return z.reshape(y.shape)

    return _lanczos_radius(a, what, project)


def lambda_nontrivial_sparse(g: RegularGraph, bipartite: bool = False) -> float:
    """lambda of a d-regular graph: the largest |eigenvalue| once one copy of
    d (and of -d if bipartite) is dropped.

    The constant vector is an eigenvector for d and A maps its orthogonal
    complement to itself, so lambda is the spectral radius of A on the
    mean-zero vectors; no dense matrix is built. With bipartite=True the
    sides L and R are read off the components of the bipartite double cover
    (vertex (x, c) is x + c*n); a graph that is not bipartite raises
    InvalidParameterError. A maps 1_L to d*1_R and 1_R to d*1_L, so with L
    ordered first lambda is the radius of A on the vectors that sum to zero
    on each side. When 2d = n the graph is K_{d,d} and A is zero there.
    """
    eu, ev = edge_endpoints(g)
    if not bipartite:
        return _mean_free_radius(symmetric_csr(g.n, eu, ev), 1, "the base graph")
    from scipy.sparse.csgraph import connected_components

    n = g.n
    cover = symmetric_csr(2 * n, np.concatenate([eu, eu + n]), np.concatenate([ev + n, ev]))
    label = connected_components(cover, directed=False)[1]
    if np.any(label[:n] == label[n:]):
        raise InvalidParameterError("bipartite flag set but the graph is not bipartite")
    if 2 * g.d == n:
        return 0.0
    # side 1 of each component is the copy-0 vertices whose label is larger
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(label[:n] > label[n:], kind="stable")] = np.arange(n)
    return _mean_free_radius(symmetric_csr(n, rank[eu], rank[ev]), 2,
                             "the bipartite graph")


# dense root stacks up to this base order; for one shift row Lanczos is
# faster from about 150 (k = 4) to 180 (k = 2)
_STACKED_MAX_N = 128


def _root_radii(g: RegularGraph, k: int, shifts: np.ndarray):
    """Yield, for j = 1..k//2, the spectral radius of M_j for each row of the
    (r, m) shift stack; M_{k-j} = conj(M_j) has the same spectrum, and M_{k/2}
    is solved on its real part. Up to base order _STACKED_MAX_N, one eigvalsh
    call per root solves the (r, n, n) stack. Above it each row is one
    symmetric_csr solved by _lanczos_radius, a complex M_j through its real
    symmetric embedding [[Re, -Im], [Im, Re]] (each eigenvalue doubled) built
    from its nonzero entries, so every sparse solve is the one real Lanczos.
    A failed solve raises NumericalError naming the root.
    """
    n, (eu, ev), roots = g.n, edge_endpoints(g), _root_values(k)
    # w = a + ib on (u, v): a at (u, v) and (n+u, n+v), -b at (u, n+v), b at (v, n+u)
    rows = np.concatenate([eu, eu + n, eu, ev])
    cols = np.concatenate([ev, ev + n, ev + n, eu + n])
    for j in range(1, k // 2 + 1):
        w = roots[j * shifts % k]
        if 2 * j == k:
            w = w.real
        if n <= _STACKED_MAX_N:
            try:
                vals = np.linalg.eigvalsh(edge_matrix(n, eu, ev, w))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigvalsh on root {j} failed: {exc}") from exc
            yield np.abs(vals[:, [0, -1]]).max(axis=1)
        elif 2 * j == k:
            yield np.array([_lanczos_radius(symmetric_csr(n, eu, ev, x), f"root {j}") for x in w])
        else:
            embedded = np.concatenate([w.real, w.real, -w.imag, w.imag], axis=1)
            ops = (symmetric_csr(2 * n, rows[x != 0], cols[x != 0], x[x != 0]) for x in embedded)
            yield np.array([_lanczos_radius(op, f"root {j}") for op in ops])


def lambda_new_from_roots(g: RegularGraph, sa: ShiftAssignment) -> tuple[float, tuple[float, ...]]:
    """Largest new eigenvalue of a shift lift, and all k-1 root radii ordered
    by j, from the radii of roots j <= k/2 (_root_radii)."""
    _check_per_edge(g, sa.shift_array, "assignment", "shifts")
    half = [float(col[0]) for col in _root_radii(g, sa.k, sa.shift_array[None, :])]
    radii = tuple(half[min(j, sa.k - j) - 1] for j in range(1, sa.k))
    return max(radii), radii


def lambda_new_from_fibers(g: RegularGraph, sa: ShiftAssignment) -> float:
    """Largest new eigenvalue of a shift lift as the spectral radius of P A_H P.

    P subtracts each fiber's mean. The fiber-constant vectors span exactly
    the eigenspace inherited from the base and A_H maps their orthogonal
    complement to itself, so the radius of P A_H P is lambda_new; no lift
    graph, no dense lift matrix and no old/new matching is involved. A_H is
    assembled as a sparse matrix from the base edges: shift s on (u, v) gives
    the lift edges (u, i)-(v, i + s mod k). A_H commutes with P: for any
    lift, A_H (I (x) J) = (I (x) J) A_H = A_G (x) J, with J the k x k
    all-ones block of one fiber.
    """
    k, n = sa.k, g.n
    _check_per_edge(g, sa.shift_array, "assignment", "shifts")
    ends = lift_endpoints(g, shift_to_assignment(sa).perm_array)
    return _mean_free_radius(symmetric_csr(k * n, *ends), n,
                             "the fiber-sum-zero operator")
