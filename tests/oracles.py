"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results by a route different from the library
path it checks: direct enumeration, closed-form spectra, BFS, or exact
characteristic polynomials.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def circulant_cycle_spectrum(n: int) -> np.ndarray:
    """Adjacency spectrum of the n-cycle: {2 cos(2 pi j / n)}, descending."""
    vals = [2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)]
    return np.sort(np.array(vals))[::-1]


def bfs_components(n: int, edges) -> list[set]:
    """Connected components by plain breadth-first search."""
    adj = {x: [] for x in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def indicator_edge_count(a: np.ndarray, s, t) -> int:
    """E(S,T) as the bilinear form 1_S^T A 1_T (ordered incidences)."""
    n = a.shape[0]
    ind_s = np.zeros(n)
    ind_t = np.zeros(n)
    ind_s[list(s)] = 1.0
    ind_t[list(t)] = 1.0
    return int(round(float(ind_s @ a @ ind_t)))


def brute_force_expansion(n: int, edges) -> tuple[float, frozenset]:
    """min over nonempty S, |S| <= n/2, of E(S, V\\S)/|S| by direct iteration."""
    best = math.inf
    best_set = frozenset()
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            cut = sum(1 for u, v in edges if (u in s) != (v in s))
            ratio = cut / size
            if ratio < best:
                best = ratio
                best_set = frozenset(s)
    return best, best_set


def per_edge_cut_sizes(masks: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """E(S, V\\S) for every subset bitmask in `masks`, one pass per edge."""
    cut = np.zeros(masks.shape, dtype=np.int64)
    for u, v in zip(eu.tolist(), ev.tolist()):
        cut += ((masks >> u) ^ (masks >> v)) & 1
    return cut


def brute_force_mixing_ratio(n: int, d: int, a: np.ndarray) -> float:
    """max over ordered nonempty subset pairs of the mixing deviation ratio."""
    best = -math.inf
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(combinations(range(n), size))
    for s in subsets:
        for t in subsets:
            count = indicator_edge_count(a, s, t)
            dev = abs(count - d * len(s) * len(t) / n)
            best = max(best, dev / math.sqrt(len(s) * len(t)))
    return best


def charpoly_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via sympy's exact characteristic polynomial, descending."""
    import sympy

    mat = sympy.Matrix(m.astype(int).tolist())
    poly = mat.charpoly()
    roots = []
    for root, mult in sympy.roots(poly.as_expr(), sympy.Symbol(str(poly.gen))).items():
        roots.extend([complex(root.evalf(30)).real] * mult)
    if len(roots) < m.shape[0]:
        # fall back to numeric root finding when a root is not in radicals
        roots = [complex(r).real for r in poly.nroots(n=30)]
    return np.sort(np.array(roots, dtype=float))[::-1]


def signing_radii_k4() -> np.ndarray:
    """Spectral radius of all 64 signings of K_4 by direct enumeration."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    radii = []
    for code in range(64):
        m = np.zeros((4, 4))
        for e, (u, v) in enumerate(edges):
            sign = -1.0 if (code >> e) & 1 else 1.0
            m[u, v] = sign
            m[v, u] = sign
        w = np.linalg.eigvalsh(m)
        radii.append(max(abs(w[0]), abs(w[-1])))
    return np.array(radii)


def k4_top_radius_rate() -> float:
    """Fraction of the 64 signings of K_4 whose radius reaches d = 3."""
    return float(np.mean(signing_radii_k4() >= 3.0 - 1e-9))


def brute_force_signing_min_radius(n: int, edges) -> float:
    """min ||A_s|| over all signings, one dense eigensolve per signing."""
    best = math.inf
    m = len(edges)
    for code in range(1 << m):
        mat = np.zeros((n, n))
        for e, (u, v) in enumerate(edges):
            sign = -1.0 if (code >> e) & 1 else 1.0
            mat[u, v] = sign
            mat[v, u] = sign
        w = np.linalg.eigvalsh(mat)
        best = min(best, max(abs(w[0]), abs(w[-1])))
    return best


def doubled_real_embedding_spectrum(h: np.ndarray) -> np.ndarray:
    """Hermitian spectrum via the real-symmetric embedding [[Re,-Im],[Im,Re]].

    The embedding doubles every eigenvalue's multiplicity; deduplicate by
    keeping alternate entries of the sorted doubled spectrum.
    """
    re, im = h.real, h.imag
    big = np.block([[re, -im], [im, re]])
    w = np.sort(np.linalg.eigvalsh(big))[::-1]
    return w[::2]
