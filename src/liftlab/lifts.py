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

from .errors import InvalidParameterError, SizeLimitError
from .graphs import (RegularGraph, _ArrayRecord, _as_seed, _int_array, edge_endpoints,
                     edge_matrix)


@dataclass(frozen=True, eq=False)
class Signing(_ArrayRecord):
    """One label in {+1, -1} per base edge, in base-edge order.

    `sign_array` is the (m,) int64 storage, `signs` a tuple view built on
    first access.
    """

    sign_array: np.ndarray

    def __post_init__(self):
        arr = _int_array(self.sign_array, "signs")
        if arr.ndim != 1:
            raise InvalidParameterError("signs must be a 1-d sequence")
        object.__setattr__(self, "sign_array", arr)
        if np.any((arr != 1) & (arr != -1)):
            raise InvalidParameterError("signs must be +1 or -1")

    signs = cached_property(_ArrayRecord._tuples)


@dataclass(frozen=True, eq=False)
class ShiftAssignment(_ArrayRecord):
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

    shifts = cached_property(_ArrayRecord._tuples)


@dataclass(frozen=True, eq=False)
class LiftAssignment(_ArrayRecord):
    """One permutation of [0, k) per base edge, stored as image sequences.

    `perm_array` is the (m, k) int64 storage, row e holding the images of
    0..k-1 under edge e's permutation; `perms` is a tuple view built on first
    access. One range pass and one bincount of e*k + value check all rows.
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
        if arr is not None and arr.shape == (0,):
            arr = arr.reshape(0, self.k)
        if arr is None or arr.shape[1:] != (self.k,):
            # some row has the wrong length: name the first row that is not
            # a permutation of [0, k)
            full = list(range(self.k))
            idx = next(i for i, p in enumerate(self.perm_array) if sorted(p) != full)
        else:
            object.__setattr__(self, "perm_array", arr)
            # row e counts value v in slot e*k + v, a value outside [0, k) (a
            # negative wraps above k as uint64) in a spare slot at the end
            slots = arr + np.arange(0, arr.size, self.k)[:, None]
            np.copyto(slots, arr.size, where=arr.view(np.uint64) >= self.k)
            counts = np.bincount(slots.ravel(), minlength=arr.size + 1)
            if counts[-1] == 0 and counts.max() <= 1:
                return
            idx = int(np.flatnonzero(np.any(counts[:-1].reshape(arr.shape) != 1, axis=1))[0])
        raise InvalidParameterError(f"perm {idx} is not a bijection on [0,{self.k})")

    perms = cached_property(_ArrayRecord._tuples)  # one image tuple per edge


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
    return LiftAssignment._trusted(k, rng.permuted(rows, axis=1))


def random_shift_lift(g: RegularGraph, k: int, seed: int) -> ShiftAssignment:
    """Uniform independent shift in [0, k) per edge, deterministic per seed."""
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    rng = np.random.default_rng(_as_seed(seed))
    return ShiftAssignment(k, rng.integers(0, k, size=g.num_edges))


def random_signing(g: RegularGraph, seed: int) -> Signing:
    """Uniform independent +-1 label per edge, deterministic per seed."""
    rng = np.random.default_rng(_as_seed(seed))
    return Signing(rng.integers(0, 2, size=g.num_edges) * 2 - 1)


def signing_to_assignment(s: Signing) -> LiftAssignment:
    """+1 becomes the identity permutation, -1 the swap; k = 2."""
    return shift_to_assignment(signing_to_shifts(s))


def signing_to_shifts(s: Signing) -> ShiftAssignment:
    """+1 becomes shift 0, -1 shift 1; k = 2."""
    return ShiftAssignment(2, (1 - s.sign_array) // 2)


def shift_to_assignment(sa: ShiftAssignment) -> LiftAssignment:
    """Each shift s becomes the permutation i -> (i + s) mod k, that is i + s
    less k where it reaches k, since both lie in [0, k)."""
    images = sa.shift_array[:, None] + np.arange(sa.k)
    np.subtract(images, sa.k, out=images, where=images >= sa.k)
    return LiftAssignment._trusted(sa.k, images)


def _check_per_edge(g: RegularGraph, arr: np.ndarray, owner: str, what: str) -> None:
    """InvalidParameterError unless `arr` has one row per base edge of g."""
    if arr.shape[0] != g.num_edges:
        raise InvalidParameterError(f"{owner} has {arr.shape[0]} {what} for {g.num_edges} edges")


def lift_endpoints(g: RegularGraph, perm_array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lift edges (u*k + i, v*k + perm(i)) of an (m, k) permutation array as
    two parallel index arrays; entry e*k + i is copy i of base edge e."""
    k = perm_array.shape[1]
    return ((g.edge_array[:, :1] * k + np.arange(k)).ravel(),
            (g.edge_array[:, 1:] * k + perm_array).ravel())


def check_lift_order(n: int, k: int) -> None:
    """SizeLimitError if a k-lift of an n-vertex graph has more than 2**31
    vertices, the most whose packed edge keys build_lift can hold in int64."""
    if k * n > 2**31:
        raise SizeLimitError(f"lift order k*n = {k * n} exceeds 2**31")


def build_lift(g: RegularGraph, a: LiftAssignment) -> LiftedGraph:
    """Assemble the lifted graph for a permutation assignment.

    Lift edge set: {(u,i)-(v, perm(i))} over base edges (u, v) and i in [0,k).
    Since u < v, x = u*k + i is below y = v*k + perm(i), so the edge array is
    the high and low b bits of one sort of the keys (x << b) | y, with b the
    bit length of kn - 1 (check_lift_order: at most kn = 2**31). It is not
    validated again: each base edge lifts to a perfect matching between two
    fibers, so a valid base and bijective rows give a simple d-regular lift.
    """
    _check_per_edge(g, a.perm_array, "assignment", "permutations")
    check_lift_order(g.n, a.k)
    k, size = a.k, a.k * g.n
    b = (size - 1).bit_length()
    # (x << b) | y = ((u*k + i) << b) + v*k + perm(i), as y < 2**b
    keys = ((g.edge_array @ [k << b, k])[:, None] + (np.arange(k) << b)).ravel()
    keys += a.perm_array.ravel()
    keys.sort()
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.right_shift(keys, b, out=edges[:, 0])
    np.bitwise_and(keys, (1 << b) - 1, out=edges[:, 1])
    return LiftedGraph(g, k, RegularGraph._trusted(size, g.d, edges))


def build_shift_lift(g: RegularGraph, sa: ShiftAssignment) -> LiftedGraph:
    """build_lift specialized to a shift assignment."""
    return build_lift(g, shift_to_assignment(sa))


def signed_adjacency(g: RegularGraph, s: Signing) -> np.ndarray:
    """Adjacency matrix with entries replaced by the edge signs."""
    _check_per_edge(g, s.sign_array, "signing", "signs")
    return edge_matrix(g.n, *edge_endpoints(g), s.sign_array)


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
