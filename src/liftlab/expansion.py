"""Combinatorial expansion, the Cheeger inequality, and mixing diagnostics.

The exhaustive checks take exact shortcuts instead of full scans, with the
same floats (and, for mixing, the same witnesses) as the full scans. The
expansion scan uses cut(S) = cut(V\\S) to visit only the 2^(n-1) masks
without vertex n-1, and cut(S) = d|S| - 1_S^T A 1_S to count their cuts in
one int32 grid per value of the top mask byte, ranked by exact integer
ratio keys. The mixing scan takes, for each S and size t, the t largest and
t smallest entries of A 1_S (sorted prefix sums), which bound E(S, T) over
all T of size t, so no subset pair is enumerated. The caps stay n <= 24 for
the expansion constant and n <= 12 for the mixing scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .graphs import RegularGraph, _as_seed, _incidences, adjacency_matrix, edge_endpoints
from .spectra import BOUND_SLACK, eig_symmetric

H_EXHAUSTIVE_CAP = 24
PAIR_EXHAUSTIVE_CAP = 12


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


def _mask_to_subset(mask: int, n: int) -> frozenset:
    return frozenset(x for x in range(n) if (mask >> x) & 1)


def _cut_blocks(g: RegularGraph, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fixed, cols, rows) with cut(S) = fixed[b1, b0] + cols[hi, b1] + rows[hi, b0]
    for the mask (hi << 16) | (b1 << 8) | b0 of a set S without vertex n-1,
    from the adjacency matrix `a` of g.

    cut(S) = d|S| - 1_S^T A 1_S, with A the adjacency matrix without vertex
    n-1, zero-padded to 24 vertices. With B the 256 x 8 bit matrix, the form
    is the sum over byte pairs (a, b) of (B A_ab B^T)[x_a, x_b]: `fixed`
    holds the terms of bytes 1 and 0, `cols` those of hi alone and with
    byte 1, `rows` those of hi with byte 0, each byte cut to its used values.
    """
    m = g.n - 1
    width = [1 << min(max(0, m - 8 * x), 8) for x in range(3)]
    a = np.pad(a[:m, :m], (0, 24 - m))
    bits = ((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(float)  # B^T

    def form(x: int, y: int) -> np.ndarray:
        return bits[:, :width[x]].T @ a[8 * x:8 * x + 8, 8 * y:8 * y + 8] @ bits[:, :width[y]]

    own = [g.d * bits[:, :width[x]].sum(axis=0) - np.diagonal(form(x, x)) for x in range(3)]
    fixed = own[1][:, None] + own[0] - 2 * form(1, 0)
    cols = own[2][:, None] - 2 * form(2, 1)
    rows = -2 * form(2, 0)
    return fixed.astype(np.int32), cols.astype(np.int32), rows.astype(np.int32)


def _cut_grid(blocks: tuple, hi: int, out: np.ndarray) -> np.ndarray:
    """cut((hi << 16) | low) for every scanned low, as a (b1, b0) grid in `out`."""
    fixed, cols, rows = blocks
    np.add(fixed, cols[hi][:, None], out=out)
    out += rows[hi]
    return out


def _exhaustive_expansion(g: RegularGraph, a: np.ndarray) -> float:
    """h from the 2^(n-1) - 1 nonempty masks without vertex n-1.

    cut(S) = cut(V\\S), so each scanned mask stands for the one of S, V\\S with
    at most n/2 vertices, with ratio cut/k for k = min(|S|, n-|S|). Each grid
    of `_cut_grid` is scaled in place to the exact key cut * (L // k),
    L = lcm(1..n//2), below 276 * 27720 < 2^31 at n = 24. The grids run by
    popcount of hi, so one int16 grid of L // k serves each run. As k
    divides L, min key / L is the rational cut/k of the minimum, and one
    correctly rounded int/int division gives the float of cut/k.
    """
    n = g.n
    blocks = _cut_blocks(g, a)
    lcm = math.lcm(*range(1, n // 2 + 1))
    k = np.minimum(np.arange(n), n - np.arange(n))
    size_mult = (lcm // np.maximum(k, 1)).astype(np.int16)
    pop = np.bitwise_count(np.arange(256, dtype=np.uint8))
    grid = np.empty(blocks[0].shape, dtype=np.int32)
    low_pop = pop[:grid.shape[0], None] + pop[:grid.shape[1]]
    best = np.iinfo(np.int32).max
    his = sorted(range(len(blocks[1])), key=int.bit_count)
    for hi_pop, run in groupby(his, key=int.bit_count):
        mult = size_mult[low_pop + hi_pop]
        for hi in run:
            _cut_grid(blocks, hi, grid)
            grid *= mult
            if hi == 0:
                grid[0, 0] = best  # the empty set; hi = 0 runs first
            best = min(best, int(grid.min()))
    return best / lcm


def _check_method(method: str, samples: int | None, seed: int | None) -> None:
    """InvalidParameterError unless the method is "exhaustive" with neither
    samples nor a seed, or "sampled" with samples >= 1 and a seed."""
    if method not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"unknown method {method!r}")
    dropped = [name for name, value in (("samples", samples), ("seed", seed)) if value is not None]
    if method == "exhaustive" and dropped:
        raise InvalidParameterError(f"exhaustive mode takes no {' or '.join(dropped)}")
    if method == "sampled" and (not samples or samples < 1 or seed is None):
        raise InvalidParameterError("sampled mode needs samples >= 1 and a seed")


def cheeger_check(g: RegularGraph) -> CheegerReport:
    """Verify (d - lambda2)/2 <= h <= sqrt(d*(d - lambda2)) with exhaustive h,
    each side within BOUND_SLACK.

    h = min E(S, V\\S)/|S| over nonempty S with |S| <= n/2, scanned by
    `_exhaustive_expansion` for n <= 24. A larger n raises SizeLimitError
    before the dense lambda2 solve.
    """
    if g.n > H_EXHAUSTIVE_CAP:
        raise SizeLimitError(
            f"exhaustive expansion capped at n={H_EXHAUSTIVE_CAP}, got {g.n}"
        )
    a = adjacency_matrix(g)
    lam2 = float(eig_symmetric(a).values[1])
    gap = max(0.0, g.d - lam2)
    lower, upper = gap / 2.0, math.sqrt(g.d * gap)
    h = _exhaustive_expansion(g, a)
    passed = lower - BOUND_SLACK <= h <= upper + BOUND_SLACK
    return CheegerReport(passed, h, lam2, lower, upper, BOUND_SLACK)


def _lowest_extreme_masks(rows: np.ndarray, t: np.ndarray, high: np.ndarray) -> np.ndarray:
    """For each row, the lowest mask T with |T| = t whose entries sum to the
    largest (high) or the smallest total of t entries: every entry strictly
    beyond the t-th sorted value, then the lowest-index entries equal to it."""
    n = rows.shape[1]
    asc = np.sort(rows, axis=1)
    value = asc[np.arange(len(t)), np.where(high, n - t, t - 1)][:, None]
    strict = np.where(high[:, None], rows > value, rows < value)
    tie = rows == value
    need = t - strict.sum(axis=1)
    members = strict | (tie & (np.cumsum(tie, axis=1) <= need[:, None]))
    return members.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))


def _exhaustive_mixing(g: RegularGraph, a: np.ndarray) -> tuple[float, int, int]:
    """(max ratio, S mask, T mask) over all ordered pairs of nonempty subsets.

    For each S, w = A 1_S and E(S, T) = sum of w over T, so among the T of
    size t the extremes of E(S, T) are the sums of the t smallest and the t
    largest entries of w. The deviation |c - d s t / n| is largest at one of
    them, so one sorted row and its prefix sums per S give the maximum, in
    the same float expression as a scan of every pair. The witness is the
    first maximum of that scan in its order: the lowest block of T masks
    (blocks of max(1, 2^22 // (2^n - 1)) masks), then the lowest S, then the
    lowest T, which for each tied (S, t, side) is `_lowest_extreme_masks`.
    """
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    u = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    sizes = u.sum(axis=1)
    w = u @ a
    asc = np.sort(w, axis=1)
    t_sizes = np.arange(1, n + 1, dtype=float)
    expected = g.d * np.outer(sizes, t_sizes) / g.n
    root = np.sqrt(np.outer(sizes, t_sizes))
    # side 0: the t largest entries of w; side 1: the t smallest
    extremes = np.stack([np.cumsum(asc[:, ::-1], axis=1), np.cumsum(asc, axis=1)])
    ratios = np.abs(extremes - expected) / root
    best = float(ratios.max())

    side, s_idx, t_idx = np.nonzero(ratios == best)
    t_mask = _lowest_extreme_masks(w[s_idx], t_idx + 1, side == 0)
    block = (t_mask - 1) // max(1, (1 << 22) // masks.size)
    first = np.lexsort((t_mask, s_idx, block))[0]
    return best, int(s_idx[first]) + 1, int(t_mask[first])


def eml_check(
    g: RegularGraph,
    lam: float,
    method: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> MixingReport:
    """Worst-case mixing deviation ratio against the spectral bound lam, within
    BOUND_SLACK.

    Exhaustive mode (n <= 12) finds the maximum over all ordered pairs of
    nonempty subsets without enumerating them: for each S it sorts A 1_S
    once, and the prefix sums give the largest and smallest E(S, T) for every
    |T|. The ratio and the witness pair are those of a full pair scan, ties
    included; see `_exhaustive_mixing`. Sampled mode scans `samples` random
    pairs and counts E(S, T) from the edge arrays, so it builds no n x n
    matrix; exhaustive mode takes no samples and no seed. E(S, T) counts
    ordered incidences, so an edge inside the intersection contributes 2.
    The caller chooses the lam convention: passing max_{i>=2}|lambda_i| (no
    bipartite exclusion) makes the bound hold for every graph, bipartite
    ones included. A lam that is not finite and >= 0 raises
    InvalidParameterError.
    """
    if not 0 <= lam < math.inf:
        raise InvalidParameterError(f"lam must be finite and >= 0, got {lam}")
    _check_method(method, samples, seed)
    if method == "exhaustive":
        if g.n > PAIR_EXHAUSTIVE_CAP:
            raise SizeLimitError(
                f"exhaustive pair scan capped at n={PAIR_EXHAUSTIVE_CAP}, got {g.n}"
            )
        best, s_mask, t_mask = _exhaustive_mixing(g, adjacency_matrix(g))
        return MixingReport(
            best,
            _mask_to_subset(s_mask, g.n),
            _mask_to_subset(t_mask, g.n),
            lam,
            BOUND_SLACK,
            "exhaustive",
        )
    rng = np.random.default_rng(_as_seed(seed))
    eu, ev = edge_endpoints(g)
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
        count = _incidences(eu, ev, s_bits, t_bits)
        ratio = abs(count - g.d * ssize * tsize / g.n) / math.sqrt(ssize * tsize)
        if ratio > best:
            best = ratio
            best_pair_sets = (
                frozenset(np.flatnonzero(s_bits).tolist()),
                frozenset(np.flatnonzero(t_bits).tolist()),
            )
    return MixingReport(best, *best_pair_sets, lam, BOUND_SLACK, "sampled")
