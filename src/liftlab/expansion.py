"""Combinatorial expansion, the Cheeger inequality, and mixing diagnostics.

Exhaustive enumerations are vectorized over subset bitmasks; the documented
caps (n <= 24 for the expansion constant, n <= 12 for subset pairs) keep runs
in the seconds range on a desktop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .graphs import RegularGraph, adjacency_matrix, edge_endpoints
from .spectra import eig_symmetric

H_EXHAUSTIVE_CAP = 24
PAIR_EXHAUSTIVE_CAP = 12
_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExpansionReport:
    """Edge expansion h = min E(S, V\\S)/|S| over nonempty S with |S| <= n/2."""

    h: float
    argmin_subset: frozenset
    method: str
    lambda2: float
    cheeger_lower: float
    cheeger_upper: float


@dataclass(frozen=True)
class CheegerReport:
    passed: bool
    h: float
    lambda2: float
    lower: float
    upper: float
    slack: float


@dataclass(frozen=True)
class MixingReport:
    """Worst deviation ratio |E(S,T) - d|S||T|/n| / sqrt(|S||T|) over pairs."""

    max_ratio: float
    worst_s: frozenset
    worst_t: frozenset
    lam: float
    slack: float
    method: str

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.lam + self.slack


@dataclass(frozen=True)
class ConverseMixingReport:
    """Observed deviation ratio alpha next to the qualitative bound shape.

    diagnostic = alpha * (1 + log2(d/alpha)); no constant is asserted, the
    two numbers are reported side by side.
    """

    alpha: float
    lam: float
    diagnostic: float
    method: str


def _mask_to_subset(mask: int, n: int) -> frozenset:
    return frozenset(x for x in range(n) if (mask >> x) & 1)


def _cut_tables(n: int, eu: np.ndarray, ev: np.ndarray) -> list[tuple[int, int, int, np.ndarray]]:
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


def _cut_sizes(masks: np.ndarray, tables: list[tuple[int, int, int, np.ndarray]]) -> np.ndarray:
    """Boundary edge count E(S, V\\S) for every subset bitmask in `masks`."""
    cut = np.zeros(masks.shape, dtype=np.int64)
    for a, b, shift, t in tables:
        cut += t[(((masks >> (8 * a)) & 0xFF) << shift) | ((masks >> (8 * b)) & 0xFF)]
    return cut


def _spectral_context(g: RegularGraph) -> tuple[float, float, float]:
    spec = eig_symmetric(adjacency_matrix(g))
    lam2 = float(spec.values[1])
    gap = max(0.0, g.d - lam2)
    return lam2, gap / 2.0, math.sqrt(g.d * gap)


def combinatorial_expansion(
    g: RegularGraph,
    method: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> ExpansionReport:
    """Edge expansion of g, exhaustively (n <= 24) or by random subsets.

    The sampled mode draws each vertex with probability 1/2 (empty draws and
    full-vertex draws are rediscarded, oversized draws replaced by their
    complements) and returns the best ratio seen, which is only an upper
    bound on h and is flagged as method="sampled".
    """
    lam2, lower, upper = _spectral_context(g)
    if method == "exhaustive":
        if g.n > H_EXHAUSTIVE_CAP:
            raise SizeLimitError(
                f"exhaustive expansion capped at n={H_EXHAUSTIVE_CAP}, got {g.n}"
            )
        tables = _cut_tables(g.n, *edge_endpoints(g))
        best = math.inf
        best_mask = 0
        for lo in range(1, 1 << g.n, _CHUNK):
            masks = np.arange(lo, min(lo + _CHUNK, 1 << g.n), dtype=np.int64)
            pop = np.bitwise_count(masks).astype(np.int64)
            valid = 2 * pop <= g.n
            if not valid.any():
                continue
            ratios = np.where(valid, _cut_sizes(masks, tables) / np.maximum(pop, 1), math.inf)
            idx = int(np.argmin(ratios))
            if ratios[idx] < best:
                best = float(ratios[idx])
                best_mask = int(masks[idx])
        return ExpansionReport(
            best, _mask_to_subset(best_mask, g.n), "exhaustive", lam2, lower, upper
        )
    if method == "sampled":
        if not samples or samples < 1 or seed is None:
            raise InvalidParameterError("sampled mode needs samples >= 1 and a seed")
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        eu, ev = edge_endpoints(g)
        best = math.inf
        best_subset: frozenset = frozenset()
        done = 0
        while done < samples:
            bits = rng.integers(0, 2, size=g.n)
            size = int(bits.sum())
            if size == 0 or size == g.n:
                continue
            if 2 * size > g.n:
                bits = 1 - bits
                size = g.n - size
            done += 1
            members = frozenset(np.flatnonzero(bits).tolist())
            cut = sum(1 for u, v in g.edges if (u in members) != (v in members))
            ratio = cut / size
            if ratio < best:
                best = ratio
                best_subset = members
        return ExpansionReport(best, best_subset, "sampled", lam2, lower, upper)
    raise InvalidParameterError(f"unknown method {method!r}")


def cheeger_check(g: RegularGraph, slack: float = 1e-9) -> CheegerReport:
    """Verify (d - lambda2)/2 <= h <= sqrt(d*(d - lambda2)) with exhaustive h."""
    report = combinatorial_expansion(g, method="exhaustive")
    passed = (
        report.cheeger_lower - slack <= report.h <= report.cheeger_upper + slack
    )
    return CheegerReport(
        passed, report.h, report.lambda2, report.cheeger_lower, report.cheeger_upper, slack
    )


def _subset_indicators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indicator matrix (2^n - 1, n) of all nonempty subsets, plus sizes."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    cols = [((masks >> x) & 1) for x in range(n)]
    u = np.stack(cols, axis=1).astype(float)
    return u, u.sum(axis=1)


def eml_check(
    g: RegularGraph,
    lam: float,
    method: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    slack: float = 1e-9,
) -> MixingReport:
    """Worst-case mixing deviation ratio against the spectral bound lam.

    Exhaustive mode scans all ordered pairs of nonempty subsets (n <= 12);
    sampled mode scans `samples` random pairs. E(S, T) counts ordered
    incidences, so an edge inside the intersection contributes 2. The caller
    chooses the lam convention: passing max_{i>=2}|lambda_i| (no bipartite
    exclusion) makes the bound hold for every graph, bipartite ones included.
    """
    a = adjacency_matrix(g)
    if method == "exhaustive":
        if g.n > PAIR_EXHAUSTIVE_CAP:
            raise SizeLimitError(
                f"exhaustive pair scan capped at n={PAIR_EXHAUSTIVE_CAP}, got {g.n}"
            )
        u, sizes = _subset_indicators(g.n)
        au = u @ a
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
        return MixingReport(
            best,
            _mask_to_subset(best_pair[0], g.n),
            _mask_to_subset(best_pair[1], g.n),
            lam,
            slack,
            "exhaustive",
        )
    if method == "sampled":
        if not samples or samples < 1 or seed is None:
            raise InvalidParameterError("sampled mode needs samples >= 1 and a seed")
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        best = -math.inf
        best_pair_sets = (frozenset(), frozenset())
        done = 0
        while done < samples:
            s_bits = rng.integers(0, 2, size=g.n)
            t_bits = rng.integers(0, 2, size=g.n)
            ssize, tsize = int(s_bits.sum()), int(t_bits.sum())
            if ssize == 0 or tsize == 0:
                continue
            done += 1
            count = float(s_bits @ a @ t_bits)
            ratio = abs(count - g.d * ssize * tsize / g.n) / math.sqrt(ssize * tsize)
            if ratio > best:
                best = ratio
                best_pair_sets = (
                    frozenset(np.flatnonzero(s_bits).tolist()),
                    frozenset(np.flatnonzero(t_bits).tolist()),
                )
        return MixingReport(best, *best_pair_sets, lam, slack, "sampled")
    raise InvalidParameterError(f"unknown method {method!r}")


def converse_eml_alpha(
    g: RegularGraph,
    lam: float,
    method: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> ConverseMixingReport:
    """Observed deviation ratio alpha, juxtaposed with alpha*(1 + log2(d/alpha)).

    Purely diagnostic: the converse direction only pins lam up to an
    unspecified constant, so nothing quantitative is asserted here.
    """
    report = eml_check(g, lam, method=method, samples=samples, seed=seed)
    alpha = report.max_ratio
    diagnostic = alpha * (1.0 + math.log2(g.d / alpha)) if alpha > 0 else 0.0
    return ConverseMixingReport(alpha, lam, diagnostic, method)
