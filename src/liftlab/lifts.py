"""Construction of k-lifts, shift k-lifts, and signed 2-lift objects.

A lift replaces every base edge (u, v) by a perfect matching between the two
fibers, given by a permutation of [0, k). Permutations are stored for the
direction u -> v of the stored edge (u < v); the reverse direction is the
inverse and is never stored. Lift vertex (x, i) is encoded as index x*k + i,
so each fiber is a contiguous block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graphs import RegularGraph, _as_seed


def lift_vertex(x: int, i: int, k: int) -> int:
    """Global index of lift vertex (x, i) under the fiber-contiguous encoding."""
    return x * k + i


@dataclass(frozen=True)
class Signing:
    """One label in {+1, -1} per base edge, in base-edge order."""

    signs: tuple[int, ...]

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if any(s not in (-1, 1) for s in signs):
            raise InvalidParameterError("signs must be +1 or -1")


@dataclass(frozen=True)
class ShiftAssignment:
    """One cyclic-shift amount in [0, k) per base edge, in base-edge order.

    The stored value is Shift(u, v) for the stored direction u < v; the
    reverse direction uses -Shift(u, v) mod k.
    """

    k: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameterError("lift degree k must be >= 2")
        shifts = tuple(int(s) for s in self.shifts)
        object.__setattr__(self, "shifts", shifts)
        if any(not 0 <= s < self.k for s in shifts):
            raise InvalidParameterError(f"shifts must lie in [0,{self.k})")


@dataclass(frozen=True)
class LiftAssignment:
    """One permutation of [0, k) per base edge, stored as image sequences."""

    k: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameterError("lift degree k must be >= 2")
        perms = tuple(tuple(int(i) for i in p) for p in self.perms)
        object.__setattr__(self, "perms", perms)
        full = tuple(range(self.k))
        for idx, p in enumerate(perms):
            if tuple(sorted(p)) != full:
                raise InvalidParameterError(
                    f"perm {idx} is not a bijection on [0,{self.k})"
                )


@dataclass(frozen=True)
class LiftedGraph:
    """A built lift: the base, the degree k, and the lifted RegularGraph."""

    base: RegularGraph
    k: int
    graph: RegularGraph


def random_k_lift(g: RegularGraph, k: int, seed: int) -> LiftAssignment:
    """Uniform independent permutation per edge, deterministic per seed."""
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    rng = np.random.default_rng(_as_seed(seed))
    perms = tuple(tuple(rng.permutation(k).tolist()) for _ in g.edges)
    return LiftAssignment(k, perms)


def random_shift_lift(g: RegularGraph, k: int, seed: int) -> ShiftAssignment:
    """Uniform independent shift in [0, k) per edge, deterministic per seed."""
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    rng = np.random.default_rng(_as_seed(seed))
    shifts = tuple(int(s) for s in rng.integers(0, k, size=len(g.edges)))
    return ShiftAssignment(k, shifts)


def random_signing(g: RegularGraph, seed: int) -> Signing:
    """Uniform independent +-1 label per edge, deterministic per seed."""
    rng = np.random.default_rng(_as_seed(seed))
    signs = tuple(int(s) for s in rng.integers(0, 2, size=len(g.edges)) * 2 - 1)
    return Signing(signs)


def signing_to_assignment(s: Signing) -> LiftAssignment:
    """+1 becomes the identity permutation, -1 the swap; k = 2."""
    perms = tuple((0, 1) if sign == 1 else (1, 0) for sign in s.signs)
    return LiftAssignment(2, perms)


def signing_to_shifts(s: Signing) -> ShiftAssignment:
    """+1 becomes shift 0, -1 shift 1; k = 2."""
    return ShiftAssignment(2, tuple((1 - sign) // 2 for sign in s.signs))


def assignment_to_signing(a: LiftAssignment) -> Signing:
    """Inverse of signing_to_assignment (k must be 2)."""
    if a.k != 2:
        raise InvalidParameterError("only k=2 assignments correspond to signings")
    return Signing(tuple(1 if p == (0, 1) else -1 for p in a.perms))


def shift_to_assignment(sa: ShiftAssignment) -> LiftAssignment:
    """Each shift s becomes the permutation i -> (i + s) mod k."""
    k = sa.k
    perms = tuple(
        tuple((i + s) % k for i in range(k)) for s in sa.shifts
    )
    return LiftAssignment(k, perms)


def shift_to_signing(sa: ShiftAssignment) -> Signing:
    """For k=2, shift 0 is the +1 (identity) edge and shift 1 the -1 (swap)."""
    if sa.k != 2:
        raise InvalidParameterError("shift/sign correspondence requires k=2")
    return Signing(tuple(1 if s == 0 else -1 for s in sa.shifts))


def build_lift(g: RegularGraph, a: LiftAssignment) -> LiftedGraph:
    """Assemble the lifted graph for a permutation assignment.

    Lift edge set: {(u,i)-(v, perm(i))} over base edges (u, v) and i in [0,k).
    """
    if len(a.perms) != len(g.edges):
        raise InvalidParameterError(
            f"assignment has {len(a.perms)} permutations for {len(g.edges)} edges"
        )
    k = a.k
    edges = []
    for (u, v), perm in zip(g.edges, a.perms):
        for i in range(k):
            x = lift_vertex(u, i, k)
            y = lift_vertex(v, perm[i], k)
            edges.append((x, y) if x < y else (y, x))
    edges.sort()
    return LiftedGraph(g, k, RegularGraph(k * g.n, g.d, tuple(edges)))


def build_shift_lift(g: RegularGraph, sa: ShiftAssignment) -> LiftedGraph:
    """build_lift specialized to a shift assignment."""
    return build_lift(g, shift_to_assignment(sa))


def signed_adjacency(g: RegularGraph, s: Signing) -> np.ndarray:
    """Adjacency matrix with entries replaced by the edge signs."""
    if len(s.signs) != len(g.edges):
        raise InvalidParameterError(
            f"signing has {len(s.signs)} signs for {len(g.edges)} edges"
        )
    m = np.zeros((g.n, g.n))
    for (u, v), sign in zip(g.edges, s.signs):
        m[u, v] = sign
        m[v, u] = sign
    return m


def two_lift_block_matrix(a: np.ndarray, a_s: np.ndarray) -> np.ndarray:
    """The 2n x 2n matrix [[A+As, A-As], [A-As, A+As]] / 2.

    This is the adjacency matrix of the 2-lift under the copy-major vertex
    order (x, i) -> i*n + x, which differs from the fiber-contiguous encoding
    used by build_lift; the two are permutation-similar, so spectra agree.
    """
    a = np.asarray(a, dtype=float)
    a_s = np.asarray(a_s, dtype=float)
    if a.shape != a_s.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("A and its signing must be equal square shapes")
    plus = (a + a_s) / 2.0
    minus = (a - a_s) / 2.0
    return np.block([[plus, minus], [minus, plus]])


def fiber(lg: LiftedGraph, x: int) -> frozenset:
    """The k lift vertices sitting over base vertex x."""
    if not 0 <= x < lg.base.n:
        raise InvalidParameterError(f"vertex {x} out of range [0,{lg.base.n})")
    return frozenset(range(x * lg.k, x * lg.k + lg.k))
