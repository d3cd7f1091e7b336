"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results by a route different from the library
path it checks: direct enumeration, closed-form spectra, BFS, exact
characteristic polynomials, or the per-edge Python loops that the
array-backed graphs, lifts and text readers replaced.
"""
from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations

import numpy as np

from liftlab.errors import FormatError, InvalidParameterError


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


# --------------------------------------------------------------------------
# Per-edge loops replaced by the array-backed graphs, lifts and fileio
# --------------------------------------------------------------------------


def check_regular_edges(n: int, d: int, edges) -> tuple:
    """The RegularGraph validator as an edge-by-edge loop; returns the edges
    as a tuple of int pairs or raises InvalidParameterError."""
    if n < 1 or d < 1:
        raise InvalidParameterError("n and d must be positive integers")
    if (n * d) % 2 != 0:
        raise InvalidParameterError("n*d must be even for a d-regular graph")
    edges = tuple((int(u), int(v)) for u, v in edges)
    if len(edges) != n * d // 2:
        raise InvalidParameterError(f"expected {n * d // 2} edges, got {len(edges)}")
    deg = [0] * n
    prev = None
    for u, v in edges:
        if not (0 <= u < v < n):
            raise InvalidParameterError(f"bad edge ({u},{v}) for n={n}")
        if prev is not None and (u, v) <= prev:
            raise InvalidParameterError("edges must be sorted and duplicate-free")
        prev = (u, v)
        deg[u] += 1
        deg[v] += 1
    bad = [x for x in range(n) if deg[x] != d]
    if bad:
        raise InvalidParameterError(f"vertex {bad[0]} has degree {deg[bad[0]]}, expected {d}")
    return edges


def loop_pair_stubs(rng: np.random.Generator, n: int, d: int):
    """One stub-pairing attempt, pair by pair, with a set of edges."""
    edges: set = set()
    stubs = np.repeat(np.arange(n), d)
    while stubs.size:
        rng.shuffle(stubs)
        leftover = defaultdict(int)
        it = iter(stubs.tolist())
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if not leftover:
            break
        keys = list(leftover)
        if not any(
            a != b and (min(a, b), max(a, b)) not in edges
            for i, a in enumerate(keys)
            for b in keys[i:]
        ):
            return None
        stubs = np.array([x for x, c in leftover.items() for _ in range(c)], dtype=np.int64)
    return tuple(sorted(edges))


def loop_random_regular_edges(n: int, d: int, seed: int) -> tuple:
    """random_regular's edges from the pair-by-pair stub pairing."""
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    while True:
        edges = loop_pair_stubs(rng, n, d)
        if edges is not None:
            return edges


def loop_random_perms(m: int, k: int, seed: int) -> tuple:
    """random_k_lift's permutations, one permutation(k) call per edge."""
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return tuple(tuple(rng.permutation(k).tolist()) for _ in range(m))


def loop_build_lift(edges, k: int, perms) -> tuple:
    """Sorted lift edges (u*k + i, v*k + perm(i)), one tuple at a time."""
    out = []
    for (u, v), perm in zip(edges, perms):
        for i in range(k):
            x, y = u * k + i, v * k + perm[i]
            out.append((x, y) if x < y else (y, x))
    return tuple(sorted(out))


def loop_adjacency(n: int, edges, weights=None) -> np.ndarray:
    """(Signed) adjacency matrix filled one edge at a time."""
    a = np.zeros((n, n))
    for e, (u, v) in enumerate(edges):
        a[u, v] = a[v, u] = 1.0 if weights is None else weights[e]
    return a


def loop_shift_matrix(n: int, edges, shifts, t) -> np.ndarray:
    """Root-of-unity matrix with t**s and its conjugate, one edge at a time."""
    m = np.zeros((n, n), dtype=complex)
    for (u, v), s in zip(edges, shifts):
        w = t.power(s)
        m[u, v] = w
        m[v, u] = w.conjugate()
    return m


def loop_disjoint_copies(n: int, edges, copies: int) -> tuple:
    return tuple((u + c * n, v + c * n) for c in range(copies) for u, v in edges)


def loop_edge_endpoints(edges) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(edges, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def _text_lines(text: str) -> list[str]:
    return [ln.rstrip("\r") for ln in text.split("\n")]


def _text_header(lines: list[str], names: str) -> tuple[int, int]:
    if not lines or not lines[0].strip():
        raise FormatError(f"missing header '{names}'", line=1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"expected '{names}', got {lines[0]!r}", line=1)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}", line=1) from None


def line_graph_from_text(text: str) -> tuple:
    """Edge-list parser, one line at a time: (n, d, validated edge tuple)."""
    lines = _text_lines(text)
    n, d = _text_header(lines, "n d")
    edges = []
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {ln!r}", line=no)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer edge {ln!r}", line=no) from None
    return n, d, check_regular_edges(n, d, edges)


def line_assignment_from_text(text: str) -> tuple:
    """Assignment parser, one line at a time: ("shift", k, shifts) for an
    all-shift file, else ("perm", k, perms), validated."""
    lines = _text_lines(text)
    k, m = _text_header(lines, "k m")
    shifts, perms = [], []
    saw_perm = False
    count = 0
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        count += 1
        if parts[0] == "shift" and len(parts) == 2:
            try:
                s = int(parts[1])
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
            shifts.append(s)
            perms.append(tuple((i + s) % k for i in range(k)))
        elif parts[0] == "perm" and len(parts) == k + 1:
            saw_perm = True
            try:
                perms.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
        else:
            raise FormatError(f"expected 'shift s' or 'perm i0..i{k-1}'", line=no)
    if count != m:
        raise FormatError(f"header promised {m} lines, found {count}", line=1)
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    if saw_perm:
        for idx, p in enumerate(perms):
            if tuple(sorted(p)) != tuple(range(k)):
                raise InvalidParameterError(f"perm {idx} is not a bijection on [0,{k})")
        return "perm", k, tuple(perms)
    if any(not 0 <= s < k for s in shifts):
        raise InvalidParameterError(f"shifts must lie in [0,{k})")
    return "shift", k, tuple(shifts)


def line_graph_to_text(n: int, d: int, edges) -> str:
    return "\n".join([f"{n} {d}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def line_assignment_to_text(k: int, kind: str, rows) -> str:
    if kind == "shift":
        body = [f"shift {s}" for s in rows]
    else:
        body = ["perm " + " ".join(str(i) for i in p) for p in rows]
    return "\n".join([f"{k} {len(rows)}"] + body) + "\n"
