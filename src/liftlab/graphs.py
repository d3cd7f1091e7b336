"""Simple undirected d-regular graphs: container, generators, edge counting.

Vertices are 0-indexed integers. Edges are stored as an (m, 2) int64 array of
pairs (u, v) with u < v, sorted lexicographically, so equal graphs serialize
identically. The tuple view `edges` is built only when a caller asks for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import GenerationError, InvalidParameterError

# Vertex subsets are plain frozensets of vertex indices.
VertexSubset = frozenset

_RESTART_CAP = 1000


def _as_seed(seed: int) -> int:
    """Reduce an arbitrary Python int to an unsigned 64-bit seed."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _int_array(values, what: str) -> np.ndarray:
    """A read-only int64 copy of `values`."""
    try:
        arr = np.array(values, dtype=np.int64)
    except (ValueError, OverflowError):
        raise InvalidParameterError(f"{what} must be a rectangular int64 array") from None
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """A simple undirected d-regular graph on n vertices.

    `edge_array` is the (m, 2) int64 edge storage; the constructor accepts
    any sequence of (u, v) pairs and stores a read-only copy. Invariants
    enforced at construction: every vertex has degree exactly d, edges are
    (u, v) with 0 <= u < v < n, no duplicates, sorted lexicographically, and
    m == n*d/2. Equality compares (n, d, edge_array).
    """

    n: int
    d: int
    edge_array: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InvalidParameterError("n and d must be positive integers")
        if (self.n * self.d) % 2 != 0:
            raise InvalidParameterError("n*d must be even for a d-regular graph")
        arr = _int_array(self.edge_array, "edges")
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidParameterError("edges must be (u, v) pairs")
        object.__setattr__(self, "edge_array", arr)
        m = arr.shape[0]
        if m != self.n * self.d // 2:
            raise InvalidParameterError(f"expected {self.n * self.d // 2} edges, got {m}")
        u, v = arr[:, 0], arr[:, 1]
        # the first edge out of range or not above its predecessor decides the
        # message; a tie goes to the range check, which the edge meets first
        out_of_range = np.flatnonzero((u < 0) | (u >= v) | (v >= self.n))
        unordered = 1 + np.flatnonzero(
            (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        )
        first_range = out_of_range[0] if out_of_range.size else m
        if unordered.size and unordered[0] < first_range:
            raise InvalidParameterError("edges must be sorted and duplicate-free")
        if out_of_range.size:
            bad_u, bad_v = arr[first_range].tolist()
            raise InvalidParameterError(f"bad edge ({bad_u},{bad_v}) for n={self.n}")
        deg = np.bincount(arr.ravel(), minlength=self.n)
        bad = np.flatnonzero(deg != self.d)
        if bad.size:
            x = int(bad[0])
            raise InvalidParameterError(
                f"vertex {x} has degree {int(deg[x])}, expected {self.d}"
            )

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self):
        return hash((self.n, self.d, self.edge_array.tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a tuple of (u, v) int pairs, built on first access."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[0]


def _pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.stack([u, v], axis=1)


def complete_graph(m: int) -> RegularGraph:
    """K_m: every pair of the m vertices adjacent."""
    if m < 2:
        raise InvalidParameterError("complete_graph requires m >= 2")
    return RegularGraph(m, m - 1, _pairs(*np.triu_indices(m, 1)))


def complete_bipartite(m: int) -> RegularGraph:
    """K_{m,m}: parts {0..m-1} and {m..2m-1}, all cross pairs adjacent."""
    if m < 1:
        raise InvalidParameterError("complete_bipartite requires m >= 1")
    part = np.arange(m)
    return RegularGraph(2 * m, m, _pairs(np.repeat(part, m), m + np.tile(part, m)))


def cycle_graph(n: int) -> RegularGraph:
    """The n-cycle (2-regular)."""
    if n < 3:
        raise InvalidParameterError("cycle_graph requires n >= 3")
    path = np.arange(1, n - 1)
    edges = np.concatenate([[[0, 1], [0, n - 1]], _pairs(path, path + 1)])
    return RegularGraph(n, 2, edges)


def disjoint_copies(g: RegularGraph, m: int) -> RegularGraph:
    """m vertex-disjoint copies of g; copy c occupies vertices [c*n, (c+1)*n)."""
    if m < 1:
        raise InvalidParameterError("disjoint_copies requires m >= 1")
    offsets = np.arange(m, dtype=np.int64)[:, None, None] * g.n
    return RegularGraph(m * g.n, g.d, (g.edge_array + offsets).reshape(-1, 2))


def _contains(sorted_keys: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Membership of each entry of `key` in the sorted array `sorted_keys`."""
    if sorted_keys.size == 0:
        return np.zeros(key.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, key).clip(max=sorted_keys.size - 1)
    return sorted_keys[pos] == key


def _first_occurrences(a: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct value of `a`."""
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order[first]


def _pair_stubs(rng: np.random.Generator, n: int, d: int) -> np.ndarray | None:
    """One attempt at pairing n*d vertex stubs into a simple graph.

    Each round shuffles the stub pool and pairs consecutive stubs. A pair
    becomes an edge unless it is a self-loop, an edge of an earlier round or
    a repeat of an earlier pair of the same round; the stubs of every other
    pair return to the pool, grouped by vertex in order of first appearance,
    for the next round. Returns the sorted (m, 2) edge array, or None when
    the leftover vertices are pairwise adjacent, so that no legal pair is
    left (the attempt is stuck and the caller restarts from scratch).
    """
    keys = np.empty(0, dtype=np.int64)  # sorted u*n + v of the edges so far
    stubs = np.repeat(np.arange(n), d)
    while True:
        rng.shuffle(stubs)
        lo = np.minimum(stubs[0::2], stubs[1::2])
        hi = np.maximum(stubs[0::2], stubs[1::2])
        key = lo * n + hi
        cand = np.flatnonzero((lo != hi) & ~_contains(keys, key))
        taken = np.zeros(key.size, dtype=bool)
        taken[cand[_first_occurrences(key[cand])]] = True
        keys = np.sort(np.concatenate([keys, key[taken]]), kind="stable")
        if taken.all():
            return _pairs(keys // n, keys % n)
        rest = _pairs(lo[~taken], hi[~taken]).ravel()
        verts = rest[np.sort(_first_occurrences(rest))]
        member = np.zeros(n, dtype=bool)
        member[verts] = True
        inside = member[keys // n] & member[keys % n]
        if np.count_nonzero(inside) == verts.size * (verts.size - 1) // 2:
            return None
        stubs = np.repeat(verts, np.bincount(rest)[verts])


def random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Sample a simple d-regular graph via stub pairing, deterministic per seed.

    Uses the configuration model with per-pair rejection: colliding stubs are
    reshuffled and re-paired rather than discarding the whole configuration,
    so degrees like d=6 at n=500 succeed reliably. A full restart happens only
    when the leftover stubs admit no legal pair; after 1000 restarts the
    sampler gives up with GenerationError.
    """
    if n < 1 or d < 1:
        raise InvalidParameterError("n and d must be positive")
    if d >= n:
        raise InvalidParameterError("need d < n for a simple graph")
    if (n * d) % 2 != 0:
        raise InvalidParameterError("n*d must be even")
    rng = np.random.default_rng(_as_seed(seed))
    for _ in range(_RESTART_CAP):
        edges = _pair_stubs(rng, n, d)
        if edges is not None:
            return RegularGraph(n, d, edges)
    raise GenerationError(
        f"no simple {d}-regular graph on {n} vertices found in {_RESTART_CAP} restarts"
    )


def _check_subset(g: RegularGraph, s: Iterable[int]) -> frozenset:
    out = frozenset(int(x) for x in s)
    for x in out:
        if not (0 <= x < g.n):
            raise InvalidParameterError(f"vertex {x} out of range [0,{g.n})")
    return out


def edges_between(g: RegularGraph, s: Iterable[int], t: Iterable[int]) -> int:
    """Number of ordered incidences (u in S, v in T) over edges {u,v}.

    An edge with both endpoints in the intersection of S and T counts twice;
    this is the convention under which E(S,S) equals the sum of degrees inside
    S and the mixing bound is stated.
    """
    in_s = np.zeros(g.n, dtype=bool)
    in_t = np.zeros(g.n, dtype=bool)
    in_s[list(_check_subset(g, s))] = True
    in_t[list(_check_subset(g, t))] = True
    u, v = edge_endpoints(g)
    return int(np.count_nonzero(in_s[u] & in_t[v]) + np.count_nonzero(in_s[v] & in_t[u]))


def adjacency_matrix(g: RegularGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    u, v = edge_endpoints(g)
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def edge_endpoints(g: RegularGraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge list as two parallel index arrays (useful for vectorized sums)."""
    u, v = g.edge_array.T.copy()
    return u, v
