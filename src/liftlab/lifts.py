"""Construction of k-lifts, shift k-lifts, and signed 2-lift objects.

A lift replaces every base edge (u, v) by a perfect matching between the two
fibers, given by a permutation of [0, k). Permutations are stored for the
direction u -> v of the stored edge (u < v), one row of an (m, k) array per
edge; the reverse direction is the inverse and is never stored. Lift vertex
(x, i) is encoded as index x*k + i, so each fiber is a contiguous block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .graphs import RegularGraph, _as_seed, _int_array, edge_endpoints


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


@dataclass(frozen=True, eq=False)
class ShiftAssignment:
    """One cyclic-shift amount in [0, k) per base edge, in base-edge order.

    The stored value is Shift(u, v) for the stored direction u < v; the
    reverse direction uses -Shift(u, v) mod k. `shift_array` is the (m,)
    int64 storage, `shifts` a tuple view built on first access.
    """

    k: int
    shift_array: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameterError("lift degree k must be >= 2")
        arr = _int_array(self.shift_array, "shifts")
        if arr.ndim != 1:
            raise InvalidParameterError("shifts must be a 1-d sequence")
        object.__setattr__(self, "shift_array", arr)
        if np.any((arr < 0) | (arr >= self.k)):
            raise InvalidParameterError(f"shifts must lie in [0,{self.k})")

    def __eq__(self, other):
        if not isinstance(other, ShiftAssignment):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.shift_array, other.shift_array)

    def __hash__(self):
        return hash((self.k, self.shift_array.tobytes()))

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        return tuple(self.shift_array.tolist())


@dataclass(frozen=True, eq=False)
class LiftAssignment:
    """One permutation of [0, k) per base edge, stored as image sequences.

    `perm_array` is the (m, k) int64 storage, row e holding the images of
    0..k-1 under edge e's permutation; `perms` is a tuple view built on first
    access.
    """

    k: int
    perm_array: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise InvalidParameterError("lift degree k must be >= 2")
        try:
            arr = _int_array(self.perm_array, "perms")
        except InvalidParameterError:
            arr = None  # ragged rows
        if arr is not None and arr.size == 0:
            arr = arr.reshape(0, self.k)
        if arr is None or arr.shape[1:] != (self.k,):
            # some row has the wrong length: name the first row that is not
            # a permutation of [0, k)
            full = list(range(self.k))
            idx = next(i for i, p in enumerate(self.perm_array) if sorted(p) != full)
        else:
            object.__setattr__(self, "perm_array", arr)
            bad = np.flatnonzero(np.any(np.sort(arr, axis=1) != np.arange(self.k), axis=1))
            if not bad.size:
                return
            idx = int(bad[0])
        raise InvalidParameterError(f"perm {idx} is not a bijection on [0,{self.k})")

    def __eq__(self, other):
        if not isinstance(other, LiftAssignment):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.perm_array, other.perm_array)

    def __hash__(self):
        return hash((self.k, self.perm_array.tobytes()))

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.perm_array.tolist()))


@dataclass(frozen=True)
class LiftedGraph:
    """A built lift: the base, the degree k, and the lifted RegularGraph."""

    base: RegularGraph
    k: int
    graph: RegularGraph


def random_k_lift(g: RegularGraph, k: int, seed: int) -> LiftAssignment:
    """Uniform independent permutation per edge, deterministic per seed.

    Row e is shuffled by the generator's e-th Fisher-Yates pass, the same
    draws as one `permutation(k)` call per edge in edge order.
    """
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    rng = np.random.default_rng(_as_seed(seed))
    rows = np.broadcast_to(np.arange(k), (g.num_edges, k))
    return LiftAssignment(k, rng.permuted(rows, axis=1))


def random_shift_lift(g: RegularGraph, k: int, seed: int) -> ShiftAssignment:
    """Uniform independent shift in [0, k) per edge, deterministic per seed."""
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    rng = np.random.default_rng(_as_seed(seed))
    return ShiftAssignment(k, rng.integers(0, k, size=g.num_edges))


def random_signing(g: RegularGraph, seed: int) -> Signing:
    """Uniform independent +-1 label per edge, deterministic per seed."""
    rng = np.random.default_rng(_as_seed(seed))
    return Signing(tuple((rng.integers(0, 2, size=g.num_edges) * 2 - 1).tolist()))


def signing_to_assignment(s: Signing) -> LiftAssignment:
    """+1 becomes the identity permutation, -1 the swap; k = 2."""
    swap = np.asarray(s.signs, dtype=np.int64).reshape(-1, 1) == -1
    return LiftAssignment(2, np.where(swap, [1, 0], [0, 1]))


def signing_to_shifts(s: Signing) -> ShiftAssignment:
    """+1 becomes shift 0, -1 shift 1; k = 2."""
    return ShiftAssignment(2, (1 - np.asarray(s.signs, dtype=np.int64)) // 2)


def assignment_to_signing(a: LiftAssignment) -> Signing:
    """Inverse of signing_to_assignment (k must be 2)."""
    if a.k != 2:
        raise InvalidParameterError("only k=2 assignments correspond to signings")
    return Signing(tuple(np.where(a.perm_array[:, 0] == 0, 1, -1).tolist()))


def shift_to_assignment(sa: ShiftAssignment) -> LiftAssignment:
    """Each shift s becomes the permutation i -> (i + s) mod k."""
    return LiftAssignment(sa.k, (sa.shift_array[:, None] + np.arange(sa.k)) % sa.k)


def shift_to_signing(sa: ShiftAssignment) -> Signing:
    """For k=2, shift 0 is the +1 (identity) edge and shift 1 the -1 (swap)."""
    if sa.k != 2:
        raise InvalidParameterError("shift/sign correspondence requires k=2")
    return Signing(tuple(np.where(sa.shift_array == 0, 1, -1).tolist()))


def build_lift(g: RegularGraph, a: LiftAssignment) -> LiftedGraph:
    """Assemble the lifted graph for a permutation assignment.

    Lift edge set: {(u,i)-(v, perm(i))} over base edges (u, v) and i in [0,k),
    each stored as (min, max) of the two lift indices and sorted by one
    argsort of the key lo*kn + hi.
    """
    m = g.num_edges
    if a.perm_array.shape[0] != m:
        raise InvalidParameterError(
            f"assignment has {a.perm_array.shape[0]} permutations for {m} edges"
        )
    k, size = a.k, a.k * g.n
    x = (g.edge_array[:, :1] * k + np.arange(k)).ravel()
    y = (g.edge_array[:, 1:] * k + a.perm_array).ravel()
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    order = np.argsort(lo * size + hi, kind="stable")
    edges = np.stack([lo[order], hi[order]], axis=1)
    return LiftedGraph(g, k, RegularGraph(size, g.d, edges))


def build_shift_lift(g: RegularGraph, sa: ShiftAssignment) -> LiftedGraph:
    """build_lift specialized to a shift assignment."""
    return build_lift(g, shift_to_assignment(sa))


def signed_adjacency(g: RegularGraph, s: Signing) -> np.ndarray:
    """Adjacency matrix with entries replaced by the edge signs."""
    if len(s.signs) != g.num_edges:
        raise InvalidParameterError(
            f"signing has {len(s.signs)} signs for {g.num_edges} edges"
        )
    m = np.zeros((g.n, g.n))
    u, v = edge_endpoints(g)
    signs = np.asarray(s.signs, dtype=float)
    m[u, v] = signs
    m[v, u] = signs
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
