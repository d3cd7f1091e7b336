"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results by a route different from the library
path it checks: direct enumeration (including the full subset and
subset-pair scans that the exhaustive expansion and mixing checks
shortcut), closed-form spectra, BFS, exact characteristic polynomials,
dense eigensolves of the matrices the campaigns solve sparsely, or the
per-edge Python loops that the array-backed graphs, lifts and text readers
replaced.
"""
from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

import liftlab as ll
from liftlab.errors import FormatError, InvalidParameterError


def _root_value(k: int, m: int) -> complex:
    """exp(2*pi*i*m/k), with components snapped onto exact 0 and +-1: the
    scalar reference that characterization._root_values matches bit for bit."""
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
    """The j-th of the k complex k-th roots of unity, one scalar at a time."""

    k: int
    j: int

    def power(self, m: int) -> complex:
        """t_j ** m, computed through the exact index (j*m mod k)."""
        return _root_value(self.k, (self.j * m) % self.k)


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


def brute_force_expansion(n: int, edges) -> float:
    """min over nonempty S, |S| <= n/2, of E(S, V\\S)/|S| by direct iteration."""
    best = math.inf
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            best = min(best, sum(1 for u, v in edges if (u in s) != (v in s)) / size)
    return best


def per_edge_cut_sizes(masks: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """E(S, V\\S) for every subset bitmask in `masks`, one pass per edge over
    the masks' vertex bits."""
    bit = {x: ((masks >> x) & 1).astype(np.int16) for x in {*eu.tolist(), *ev.tolist()}}
    cut = np.zeros(masks.shape, dtype=np.int16)
    for u, v in zip(eu.tolist(), ev.tolist()):
        cut += bit[u] ^ bit[v]
    return cut.astype(np.int64)


def cut_tables(n: int, eu: np.ndarray, ev: np.ndarray) -> list[tuple[int, int, int, np.ndarray]]:
    """Byte-pair lookup tables for E(S, V\\S), each edge counted in one table.

    The subset mask is read as bytes, byte a holding vertices 8a..8a+7. An
    entry (a, b, shift, t) counts cut edges at index (byte a << shift) | byte b,
    where shift is the width of block b (0 when a == b, a single-block graph).
    An edge is filed under the blocks of its ends; one inside block a is filed
    under a and its next block (the previous one for the last block), so no
    block needs a table of its own and each mask costs one lookup per table.
    """
    blocks = (n + 7) // 8
    width = [min(8, n - 8 * a) for a in range(blocks)]
    tables: dict[tuple[int, int, int], np.ndarray] = {}
    for u, v in zip(eu.tolist(), ev.tolist()):
        a, b = u // 8, v // 8
        if a == b and blocks > 1:
            a, b = (a, a + 1) if a + 1 < blocks else (a - 1, a)
        shift = width[b] if a != b else 0
        t = tables.get((a, b, shift))
        if t is None:
            t = tables[(a, b, shift)] = np.zeros(1 << (width[a] + shift), dtype=np.int64)
        index = np.arange(t.size, dtype=np.int64)
        pu, pv = (shift + w - 8 * a if w // 8 == a else w - 8 * b for w in (u, v))
        t += ((index >> pu) ^ (index >> pv)) & 1
    return [(*key, t) for key, t in sorted(tables.items())]


def cut_sizes(masks: np.ndarray, tables: list[tuple[int, int, int, np.ndarray]]) -> np.ndarray:
    """Boundary edge count E(S, V\\S) for every subset bitmask in `masks`."""
    cut = np.zeros(masks.shape, dtype=np.int64)
    for a, b, shift, t in tables:
        cut += t[(((masks >> (8 * a)) & 0xFF) << shift) | ((masks >> (8 * b)) & 0xFF)]
    return cut


def full_mask_expansion(g) -> float:
    """h by the full scan of all 2^n - 1 nonempty masks with the byte-table
    cut count: the least float ratio cut/|S| over the masks with 2|S| <= n."""
    tables = cut_tables(g.n, *ll.edge_endpoints(g))
    best = math.inf
    for lo in range(1, 1 << g.n, 1 << 16):
        masks = np.arange(lo, min(lo + (1 << 16), 1 << g.n), dtype=np.int64)
        pop = np.bitwise_count(masks).astype(np.int64)
        valid = 2 * pop <= g.n
        if not valid.any():
            continue
        ratios = np.where(valid, cut_sizes(masks, tables) / np.maximum(pop, 1), math.inf)
        best = min(best, float(ratios.min()))
    return best


def pair_scan_mixing(g) -> tuple[float, frozenset, frozenset]:
    """(max ratio, S, T) over all ordered pairs of nonempty subsets, one
    matrix product per block of T masks. The witness is the first maximum in
    scan order: the lowest block of T, then the lowest S mask, then the
    lowest T mask, where block = (T - 1) // max(1, 2^22 // (2^n - 1))."""
    masks = np.arange(1, 1 << g.n, dtype=np.int64)
    u = np.stack([(masks >> x) & 1 for x in range(g.n)], axis=1).astype(float)
    sizes = u.sum(axis=1)
    au = u @ ll.adjacency_matrix(g)
    best = -math.inf
    best_pair = (1, 1)
    step = max(1, (1 << 22) // u.shape[0])
    for lo in range(0, u.shape[0], step):
        hi = min(lo + step, u.shape[0])
        counts = au @ u[lo:hi].T
        expected = g.d * np.outer(sizes, sizes[lo:hi]) / g.n
        ratios = np.abs(counts - expected) / np.sqrt(np.outer(sizes, sizes[lo:hi]))
        idx = int(np.argmax(ratios))
        if ratios.flat[idx] > best:
            best = float(ratios.flat[idx])
            s_idx, t_idx = divmod(idx, hi - lo)
            best_pair = (s_idx + 1, lo + t_idx + 1)
    s, t = (frozenset(x for x in range(g.n) if (mask >> x) & 1) for mask in best_pair)
    return best, s, t


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


def per_root_characterization(g, sa) -> ll.CharacterizationReport:
    """The report of verify_characterization, with no bound checked, from
    one root at a time: each root matrix is built edge by edge from scalar
    t.power values, solved on its own, and its eigenvectors are transported
    with their own k powers."""
    lifted = ll.build_shift_lift(g, sa)
    a_h = ll.adjacency_matrix(lifted.graph)
    lift_spec = ll.eig_symmetric(a_h)
    k, n = sa.k, g.n
    per_root = []
    normalized_lifted = []
    max_resid = 0.0
    for j in range(k):
        t = RootOfUnity(k, j)
        m = loop_shift_matrix(n, g.edges, sa.shifts, t)
        (values,), (vecs,) = ll.spectra.eig_stack(m[None])
        per_root.append(ll.Spectrum(values))
        powers = np.array([t.power(i) for i in range(k)])
        transported = (vecs[:, None, :] * powers[None, :, None]).reshape(k * n, n)
        resid = a_h @ transported - transported * values[None, :]
        max_resid = max(max_resid, float(np.max(np.linalg.norm(resid, axis=0))))
        normalized_lifted.append(transported / math.sqrt(k))
    pooled = np.sort(np.concatenate([s.values for s in per_root]))[::-1]
    stacked = np.concatenate(normalized_lifted, axis=1)
    gram = np.abs(stacked.conj().T @ stacked)
    for j in range(k):
        gram[j * n : (j + 1) * n, j * n : (j + 1) * n] = 0.0
    return ll.CharacterizationReport(
        k=k,
        per_root_spectra=tuple(per_root),
        pooled=pooled,
        lift_spectrum=lift_spec,
        lift_frobenius_norm=float(np.linalg.norm(a_h)),
        max_multiset_mismatch=ll.max_multiset_mismatch(pooled, lift_spec.values),
        max_eigenvector_residual=max_resid,
        max_cross_root_inner=float(np.max(gram)),
    )


def dense_root_radii(g, sa) -> list[float]:
    """Radius of every root matrix j = 1..k-1, each solved densely as a
    complex Hermitian matrix."""
    radii = []
    for j in range(1, sa.k):
        m = loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(sa.k, j))
        vals = ll.eig_symmetric(m).values
        radii.append(max(abs(vals[0]), abs(vals[-1])))
    return radii


def dense_half_root_radii(g, sa) -> tuple[float, ...]:
    """All k-1 root radii from dense solves of roots j <= k/2 only, M_{k/2}
    on the real symmetric path (the trial path before the sparse solves)."""
    k = sa.k
    half = []
    for j in range(1, k // 2 + 1):
        m = loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(k, j))
        half.append(ll.spectral_radius(m.real if 2 * j == k else m))
    return tuple(half[min(j, k - j) - 1] for j in range(1, k))


def dense_lambda_nontrivial(g, bipartite: bool = False) -> float:
    """lambda of a d-regular graph from its full dense spectrum: the largest
    |eigenvalue| once one copy of d (and of -d if bipartite) is dropped. With
    bipartite=True the spectrum has to be symmetric about 0 within 1e-6, which
    holds exactly when g is bipartite; otherwise InvalidParameterError."""
    vals = ll.eig_symmetric(ll.adjacency_matrix(g)).values
    assert abs(vals[0] - g.d) <= 1e-6
    if bipartite and np.max(np.abs(vals + vals[::-1])) > 1e-6:
        raise InvalidParameterError("the spectrum is not symmetric about 0")
    return float(np.max(np.abs(vals[1:vals.size - bipartite]), initial=0.0))


def dense_split_lambda_new(g, sa) -> float:
    """lambda_new of the built lift by the dense old/new split."""
    lifted = ll.build_shift_lift(g, sa)
    return ll.split_old_new(
        ll.eig_symmetric(ll.adjacency_matrix(g)),
        ll.eig_symmetric(ll.adjacency_matrix(lifted.graph)),
        sa.k,
    ).lambda_new


def arpack_radius(op, what: str, project=None) -> float:
    """characterization._lanczos_radius as ARPACK solves it: eigsh (k = 1,
    tol 1e-10, default ncv, full reorthogonalization) for the largest
    eigenvalue of x -> P(op(op x)) from the same seeded start vector, with
    that generator drawing any restart vector; order <= 2 densely. The
    campaign path before the plain Lanczos, and a drop-in for it."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    size = op.shape[0]
    project = project or (lambda y: y)
    if size <= 2:
        return ll.spectral_radius(project(op @ np.eye(size)))
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(size)
    squared = LinearOperator((size, size), dtype=float,
                             matvec=lambda x: project(op @ (op @ x)))
    try:
        vals = eigsh(squared, k=1, which="LM", v0=v0, tol=1e-10, rng=rng,
                     return_eigenvectors=False)
    except ArpackError as exc:
        raise ll.NumericalError(f"Lanczos on {what} failed: {exc}") from exc
    return math.sqrt(max(float(vals[0]), 0.0))


def dense_scored_growth(g0, levels: int, samples_per_level: int, k: int, seed: int) -> list:
    """greedy_lift_growth scored the way it was before the root path: every
    candidate lift is built and solved densely, lambda_new comes from
    split_old_new and each level's lambda from the kept lift's own spectrum.
    The candidates and the tie rule (replace the best only when lower by more
    than CROSS_CHECK_TOL) are the library's. Returns (n, lambda, lambda_new,
    kept shift assignment) per level; level 0 has no lambda_new or lift."""
    current = g0
    spec = ll.eig_symmetric(ll.adjacency_matrix(current))
    out = [(current.n, ll.lambda_nontrivial(spec, current.d), None, None)]
    for level in range(1, levels + 1):
        if k * current.n > ll.spectra.MAX_DENSE_DIM:
            break
        m = current.num_edges
        exhaustive = k**m <= samples_per_level
        best = None
        for s in range(k**m if exhaustive else samples_per_level):
            if exhaustive:
                code, shifts = s, []
                for _ in range(m):
                    shifts.append(code % k)
                    code //= k
                sa = ll.ShiftAssignment(k, tuple(shifts))
            else:
                sa = ll.random_shift_lift(current, k, ll.trial_seed(seed, (level << 32) | s))
            lifted = ll.build_shift_lift(current, sa)
            lift_spec = ll.eig_symmetric(ll.adjacency_matrix(lifted.graph))
            lam_new = ll.split_old_new(spec, lift_spec, k).lambda_new
            if best is None or lam_new < best[0] - ll.experiments.CROSS_CHECK_TOL:
                best = (lam_new, sa, lifted.graph, lift_spec)
        lam_new, sa, current, spec = best
        out.append((current.n, ll.lambda_nontrivial(spec, current.d), lam_new, sa))
    return out


def lemma3_size_pair_list(n: int, d: int, lam: float) -> list[tuple[int, int]]:
    """Every admissible lemma3 (a, b) as one list, in (b, a) order: the O(n^2)
    table that the (b, lo, hi) row table replaced."""
    cap = (n * lam / d) ** 2
    pairs = []
    for b in range(int(n / d**2) + 1, n + 1):
        for a in range(max(1, -(-b // d)), b + 1):
            if a * b < cap and b <= d * a:
                pairs.append((a, b))
    return pairs


def lemma4_size_list(n: int, d: int, lam: float) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every admissible lemma4 |S(v)| = b with its per-level (lo, hi) ranges of
    |S(u_i)|: |S(u_i)| <= b/4^i and |S(u_i)|*b >= (n*lam/d)^2. The per-b loop
    that the (b, lo, hi) row table replaced."""
    floor_cap = (n * lam / d) ** 2
    out = []
    for b in range(1, n + 1):
        ranges = []
        level = 0
        while True:
            hi = min(n, b // (4**level))
            lo = max(1, math.ceil(floor_cap / b))
            if lo > hi:
                break
            ranges.append((lo, hi))
            level += 1
        if ranges:
            out.append((b, tuple(ranges)))
    return out


# --------------------------------------------------------------------------
# Per-edge loops replaced by the array-backed graphs, lifts and fileio
# --------------------------------------------------------------------------


def check_signs(signs) -> tuple:
    """The Signing validator as a per-edge loop; returns the signs as a tuple
    of ints or raises InvalidParameterError."""
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise InvalidParameterError("signs must be +1 or -1")
    return signs


def check_perms(k: int, perms) -> tuple:
    """The LiftAssignment validator as a per-row loop; returns the rows as a
    tuple of int tuples or raises InvalidParameterError naming the first row
    that is not a permutation of [0, k)."""
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    perms = tuple(tuple(int(x) for x in p) for p in perms)
    for idx, p in enumerate(perms):
        if tuple(sorted(p)) != tuple(range(k)):
            raise InvalidParameterError(f"perm {idx} is not a bijection on [0,{k})")
    return perms


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


def argsort_build_lift_edges(g, a) -> np.ndarray:
    """build_lift's (m*k, 2) edge array by the former construction: the
    (min, max) of each lift edge's two indices, ordered by a stable argsort
    of min*kn + max."""
    k = a.k
    x = (g.edge_array[:, :1] * k + np.arange(k)).ravel()
    y = (g.edge_array[:, 1:] * k + a.perm_array).ravel()
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    order = np.argsort(lo * (k * g.n) + hi, kind="stable")
    return np.stack([lo[order], hi[order]], axis=1)


def first_occurrences(values) -> tuple[list, list]:
    """The distinct values in increasing order and the index of the first
    occurrence of each, from a dict filled in one pass."""
    first: dict = {}
    for i, x in enumerate(values):
        first.setdefault(x, i)
    ordered = sorted(first)
    return ordered, [first[x] for x in ordered]


def bmat_root_operators(g, sa) -> list:
    """The sparse operators lambda_new_from_roots solves, roots j = 1..k/2,
    built the older way: one sorted CSR structure (d entries per row) shared
    by every root and filled with the complex entries t**s and conj(t**s)
    from scalar t.power; its real part for the signing at 2j = k, else
    [[Re, -Im], [Im, Re]] stacked by scipy.sparse.bmat, its explicit zeros
    then eliminated."""
    from scipy.sparse import bmat, csr_matrix

    k, n = sa.k, g.n
    eu, ev = ll.edge_endpoints(g)
    rows, cols = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    order = np.argsort(rows * n + cols)
    indptr = np.arange(0, rows.size + 1, g.d)
    ops = []
    for j in range(1, k // 2 + 1):
        w = np.array([RootOfUnity(k, j).power(s) for s in sa.shifts], dtype=complex)
        m = csr_matrix((np.concatenate([w, w.conj()])[order], cols[order], indptr),
                       shape=(n, n))
        if 2 * j == k:
            ops.append(m.real)
        else:
            op = bmat([[m.real, -m.imag], [m.imag, m.real]], format="csr")
            op.eliminate_zeros()
            ops.append(op)
    return ops


def spanning_tree_free_edges(g) -> np.ndarray:
    """The edges outside the minimum spanning forest under the distinct
    weights m - e, by scipy's csgraph: the forest Kruskal builds taking edges
    from the highest index down, with no union-find."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    m = g.num_edges
    weights = coo_matrix((m - np.arange(m), ll.edge_endpoints(g)), shape=(g.n, g.n))
    free = np.ones(m, dtype=bool)
    free[m - minimum_spanning_tree(weights).data.astype(np.int64)] = False
    return np.flatnonzero(free)


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


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str, int64: bool = True) -> int:
    """int(token) for a token of the file grammar, ASCII digits after an
    optional sign, within int64 unless `int64` is False; else ValueError.
    int() alone also takes '3_0' and non-ASCII digits."""
    if _DECIMAL.fullmatch(token) is None or (int64 and not -(2**63) <= int(token) < 2**63):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _text_header(lines: list[str], names: str) -> tuple[int, int]:
    if not lines or not lines[0].strip():
        raise FormatError(f"missing header '{names}'", line=1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"expected '{names}', got {lines[0]!r}", line=1)
    try:
        return _decimal(parts[0], int64=False), _decimal(parts[1], int64=False)
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
            edges.append((_decimal(parts[0]), _decimal(parts[1])))
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
                s = _decimal(parts[1])
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
            shifts.append(s)
            perms.append(tuple((i + s) % k for i in range(k)))
        elif parts[0] == "perm" and len(parts) == k + 1:
            saw_perm = True
            try:
                perms.append(tuple(_decimal(x) for x in parts[1:]))
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
        else:
            raise FormatError(f"expected 'shift s' or 'perm i0..i{k-1}'", line=no)
    if count != m:
        raise FormatError(f"header promised {m} lines, found {count}", line=1)
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")
    # every shift line, in a mixed file too, must hold a shift in [0, k)
    if any(not 0 <= s < k for s in shifts):
        raise InvalidParameterError(f"shifts must lie in [0,{k})")
    if saw_perm:
        return "perm", k, check_perms(k, perms)
    return "shift", k, tuple(shifts)


def line_graph_to_text(n: int, d: int, edges) -> str:
    return "\n".join([f"{n} {d}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def line_assignment_to_text(k: int, kind: str, rows) -> str:
    if kind == "shift":
        body = [f"shift {s}" for s in rows]
    else:
        body = ["perm " + " ".join(str(i) for i in p) for p in rows]
    return "\n".join([f"{k} {len(rows)}"] + body) + "\n"
