"""Reproducible Monte-Carlo campaigns over random lifts.

Trial i of a campaign uses the seed base_seed XOR splitmix64(i), so any single
trial can be replayed in isolation from the report alone. Trials never share
generator state and results are folded in trial order, which keeps reports
byte-identical under any worker count.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .characterization import lambda_new_from_fibers, lambda_new_from_roots
from .errors import (
    InvalidParameterError,
    LiftLabError,
    NumericalError,
    SizeLimitError,
)
from .graphs import (
    RegularGraph,
    adjacency_matrix,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_copies,
    edge_endpoints,
    random_regular,
)
from .lifts import (
    ShiftAssignment,
    Signing,
    build_shift_lift,
    random_shift_lift,
    random_signing,
    signed_adjacency,
    signing_to_shifts,
)
from .spectra import (
    MAX_DENSE_DIM,
    eig_symmetric,
    lambda_nontrivial,
    spectral_radius,
    split_old_new,
)

_M64 = (1 << 64) - 1
CROSS_CHECK_TOL = 1e-6
SIGNING_SEARCH_CAP = 24
QUANTILE_LEVELS = ((0.0, "min"), (0.25, "q25"), (0.5, "median"), (0.75, "q75"),
                   (0.9, "q90"), (0.95, "q95"), (1.0, "max"))


def splitmix64(z: int) -> int:
    """One splitmix64 output step; the fixed per-trial seed mixer."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, index: int) -> int:
    """Seed of trial `index`: base_seed XOR splitmix64(index)."""
    return (int(base_seed) ^ splitmix64(int(index))) & _M64


def default_threads() -> int:
    """Worker count: LIFTLAB_THREADS if set and positive, else 1."""
    raw = os.environ.get("LIFTLAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# --------------------------------------------------------------------------
# Campaign configuration
# --------------------------------------------------------------------------

# generator family -> (constructor, names of its integer parameters in order)
FAMILIES = {
    "complete": (complete_graph, ("m",)),
    "complete_bipartite": (complete_bipartite, ("m",)),
    "cycle": (cycle_graph, ("n",)),
    "random_regular": (random_regular, ("n", "d", "seed")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun a campaign bit for bit.

    `base` is a generator spec: a family name followed by its integer
    parameters ("complete 4", "cycle 9", "random_regular 500 6 7"), or
    "file <path>" for an edge-list on disk. `copies` wraps the base in that
    many disjoint copies.
    """

    base: str
    k: int
    trials: int
    base_seed: int
    constants: tuple[float, ...]
    mode: str
    copies: int = 1

    def __post_init__(self):
        if self.mode not in ("two_lift", "shift_lift"):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if self.mode == "two_lift" and self.k != 2:
            raise InvalidParameterError("two_lift mode requires k = 2")
        if self.k < 2:
            raise InvalidParameterError("k must be >= 2")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.copies < 1:
            raise InvalidParameterError("copies must be >= 1")
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))
        if any(c < 0 for c in self.constants):
            raise InvalidParameterError("bound constants must be nonnegative")


def resolve_base_graph(cfg: ExperimentConfig) -> RegularGraph:
    """Build the campaign's base graph from its generator spec string."""
    tokens = cfg.base.split()
    if not tokens or (tokens[0] != "file" and tokens[0] not in FAMILIES):
        raise InvalidParameterError(f"unknown base spec {cfg.base!r}")
    family, args = tokens[0], tokens[1:]
    if family == "file":
        from .fileio import read_graph

        if len(args) != 1:
            raise InvalidParameterError("file spec takes exactly one path")
        g = read_graph(args[0])
    else:
        try:
            nums = [int(a) for a in args]
        except ValueError as exc:
            raise InvalidParameterError(f"non-integer parameter in {cfg.base!r}") from exc
        make, params = FAMILIES[family]
        if len(nums) != len(params):
            raise InvalidParameterError(f"bad parameter count in {cfg.base!r}")
        g = make(*nums)
    if cfg.copies > 1:
        g = disjoint_copies(g, cfg.copies)
    return g


# --------------------------------------------------------------------------
# Lift trials
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one lift trial.

    `root_radii` holds the spectral radius of each nontrivial root matrix in
    shift mode (None in two-lift mode). `error` is set when the trial failed;
    failed trials are excluded from the bound fractions but stay counted.
    `wall_time` is in-memory diagnostics only and never serialized, so
    reports stay byte-identical across reruns.
    """

    index: int
    seed: int
    lambda_new: float | None
    root_radii: tuple[float, ...] | None
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    n: int
    d: int
    lam: float
    records: tuple[TrialRecord, ...]
    failed: int
    frac_additive: tuple[tuple[float, float], ...]
    frac_multiplicative: tuple[tuple[float, float], ...]
    quantiles: tuple[tuple[str, float], ...]
    lambda_above_sqrt_d: bool
    moderately_expanding: bool | None


def _run_one_trial(g: RegularGraph, cfg: ExperimentConfig, index: int) -> TrialRecord:
    seed = trial_seed(cfg.base_seed, index)
    started = time.perf_counter()
    try:
        if cfg.mode == "two_lift":
            signing = random_signing(g, seed)
            sa = signing_to_shifts(signing)
            lam_new, radii = spectral_radius(signed_adjacency(g, signing)), None
        else:
            sa = random_shift_lift(g, cfg.k, seed)
            lam_new, radii = lambda_new_from_roots(g, sa)
        projected = lambda_new_from_fibers(g, sa)
        if abs(lam_new - projected) > CROSS_CHECK_TOL:
            raise NumericalError(
                f"lambda_new {lam_new!r} disagrees with the fiber-projected "
                f"radius {projected!r}"
            )
    except LiftLabError as exc:
        return TrialRecord(index, seed, None, None, time.perf_counter() - started,
                           error=str(exc))
    return TrialRecord(index, seed, lam_new, radii, time.perf_counter() - started)


def run_lift_trials(
    cfg: ExperimentConfig,
    graph: RegularGraph | None = None,
    threads: int | None = None,
) -> ExperimentReport:
    """Run the configured random-lift campaign and aggregate bound fractions.

    Each trial samples a fresh lift (a uniform signing in two-lift mode, a
    uniform shift assignment otherwise) and never builds it. lambda_new is
    the largest dense root radius: ||A_s|| in two-lift mode, the max over
    roots j >= 1 in shift mode, where all k-1 radii are recorded. It is
    cross-checked against the spectral radius of the lift adjacency on the
    fiber-sum-zero subspace; a disagreement beyond CROSS_CHECK_TOL fails the
    trial. Fractions are over successful trials only.
    """
    g = resolve_base_graph(cfg) if graph is None else graph
    lam = lambda_nontrivial(eig_symmetric(adjacency_matrix(g)), g.d)
    workers = default_threads() if threads is None else max(1, threads)

    def run(i: int) -> TrialRecord:
        return _run_one_trial(g, cfg, i)

    if workers == 1:
        records = [run(i) for i in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, range(cfg.trials)))

    ok = np.array([r.lambda_new for r in records if r.error is None])
    failed = sum(1 for r in records if r.error is not None)
    sqrt_d = math.sqrt(g.d)
    frac_add = tuple(
        (c, float(np.mean(ok <= lam + c * sqrt_d)) if ok.size else math.nan)
        for c in cfg.constants
    )
    frac_mult = tuple(
        (c, float(np.mean(ok <= c * lam)) if ok.size else math.nan)
        for c in cfg.constants
    )
    quantiles = tuple(
        (name, float(np.quantile(ok, q)) if ok.size else math.nan)
        for q, name in QUANTILE_LEVELS
    )
    moderately = (lam <= g.d / math.log2(g.d)) if g.d >= 2 else None
    return ExperimentReport(
        config=cfg,
        n=g.n,
        d=g.d,
        lam=lam,
        records=tuple(records),
        failed=failed,
        frac_additive=frac_add,
        frac_multiplicative=frac_mult,
        quantiles=quantiles,
        lambda_above_sqrt_d=lam > sqrt_d,
        moderately_expanding=moderately,
    )


# --------------------------------------------------------------------------
# Concentration-inequality spot checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpotCheckReport:
    """Violation tally for one of the two sign-sum concentration inequalities."""

    which: str
    trials: int
    violations: int
    max_ratio: float
    not_applicable: bool

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials if self.trials else 0.0


def _lemma3_size_pairs(n: int, d: int, lam: float) -> list[tuple[int, int]]:
    """Admissible (|S(u)|, |S(v)|): a <= b <= d*a, b > n/d^2, a*b < (n*lam/d)^2."""
    cap = (n * lam / d) ** 2
    pairs = []
    for b in range(int(n / d**2) + 1, n + 1):
        if b <= n / d**2:
            continue
        for a in range(max(1, -(-b // d)), b + 1):
            if a * b < cap and b <= d * a:
                pairs.append((a, b))
    return pairs


def _lemma4_sizes(n: int, d: int, lam: float) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Admissible (|S(v)|, per-level ranges): level i needs |S(u_i)| <= b/4^i
    and |S(u_i)|*b >= (n*lam/d)^2."""
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


def lemma_inequality_spot_check(
    g: RegularGraph,
    trials: int,
    seed: int,
    which: str,
    lam: float | None = None,
) -> SpotCheckReport:
    """Monte-Carlo check of one stated sign-sum inequality.

    Every trial draws a fresh uniform signing plus support sizes uniform over
    the admissible size combinations, then uniform supports and uniform +-1
    entries, and evaluates the inequality. Graphs where no admissible sizes
    exist are reported as not_applicable rather than silently passing.
    """
    if which not in ("lemma3", "lemma4"):
        raise InvalidParameterError("which must be 'lemma3' or 'lemma4'")
    if lam is None:
        lam = lambda_nontrivial(eig_symmetric(adjacency_matrix(g)), g.d)
    n, d = g.n, g.d
    eu, ev = edge_endpoints(g)
    rng = np.random.default_rng(trial_seed(seed, 0))

    if which == "lemma3":
        pairs = _lemma3_size_pairs(n, d, lam)
        if not pairs:
            return SpotCheckReport(which, 0, 0, 0.0, True)
    else:
        sizes = _lemma4_sizes(n, d, lam)
        if not sizes:
            return SpotCheckReport(which, 0, 0, 0.0, True)

    violations = 0
    max_ratio = 0.0
    m = g.num_edges
    for _ in range(trials):
        signs = rng.integers(0, 2, size=m) * 2 - 1
        if which == "lemma3":
            a, b = pairs[rng.integers(0, len(pairs))]
            u = np.zeros(n)
            v = np.zeros(n)
            u[rng.choice(n, size=a, replace=False)] = rng.integers(0, 2, size=a) * 2 - 1
            v[rng.choice(n, size=b, replace=False)] = rng.integers(0, 2, size=b) * 2 - 1
            lhs = abs(float(np.sum(signs * (u[eu] * v[ev] + u[ev] * v[eu]))))
            rhs = 8.0 * math.sqrt(
                lam * math.sqrt(a * b) * b * math.log2(2.0 * d * a / b)
            )
        else:
            b, ranges = sizes[rng.integers(0, len(sizes))]
            v = np.zeros(n)
            v[rng.choice(n, size=b, replace=False)] = rng.integers(0, 2, size=b) * 2 - 1
            perm = rng.permutation(n)
            used = 0
            u = np.zeros(n)
            weight = 0.0
            for level, (lo, hi) in enumerate(ranges):
                hi = min(hi, n - used)
                if lo > hi:
                    break
                a_i = int(rng.integers(lo, hi + 1))
                block = perm[used : used + a_i]
                used += a_i
                u[block] = (rng.integers(0, 2, size=a_i) * 2 - 1) * float(2**level)
                weight += a_i * 4.0**level
            if weight == 0.0:
                continue
            lhs = abs(float(np.sum(signs * (v[eu] * u[ev] + v[ev] * u[eu]))))
            rhs = 8.0 * math.sqrt(d / n * b * b * weight * math.log2(2.0 * n / b))
        ratio = lhs / rhs
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs + 1e-9:
            violations += 1
    return SpotCheckReport(which, trials, violations, max_ratio, False)


def sign_sum_stats(
    g: RegularGraph, u: np.ndarray, v: np.ndarray, draws: int, seed: int
) -> tuple[float, float, int]:
    """Empirical mean of u^T A_s v over fresh signings, plus its exact stddev.

    The sum is a weighted sum of independent +-1 signs, so its mean is 0 and
    its single-draw standard deviation is sqrt(sum of squared edge weights).
    Returns (empirical mean, single-draw stddev, draws).
    """
    eu, ev = edge_endpoints(g)
    w = np.asarray(u)[eu] * np.asarray(v)[ev] + np.asarray(u)[ev] * np.asarray(v)[eu]
    keep = w != 0
    w = w[keep]
    rng = np.random.default_rng(trial_seed(seed, 1))
    total = 0.0
    left = draws
    while left > 0:
        block = min(left, 20000)
        signs = rng.integers(0, 2, size=(block, w.size)) * 2 - 1
        total += float(np.sum(signs @ w))
        left -= block
    return total / draws, float(math.sqrt(np.sum(w * w))), draws


# --------------------------------------------------------------------------
# Exhaustive signing search and greedy growth
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SigningSearchResult:
    """Global minimum of ||A_s|| over all 2^|E| signings of one graph.

    The search solves one representative per switching class, so
    num_classes = 2^(|E| - n + c) spectra stand for all num_signings = 2^|E|
    signings (c is the number of connected components).
    """

    best: Signing
    min_radius: float
    ramanujan_bound: float
    within_bound: bool
    num_signings: int
    num_classes: int


def _switching_free_edges(g: RegularGraph) -> list[int]:
    """Ascending indices of the edges outside a descending-index spanning forest.

    Kruskal over edges from the highest index down keeps each edge that joins
    two components. Every switching class holds exactly one signing that is
    +1 on a spanning forest, so fixing the kept edges to +1 leaves one
    signing per class. That signing is the smallest code in its class:
    scanning bits from the top, edge e can be 0 whenever it closes no cycle
    with the higher edges, and those are the forest edges.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    free = []
    for e in range(len(g.edges) - 1, -1, -1):
        ru, rv = find(g.edges[e][0]), find(g.edges[e][1])
        if ru == rv:
            free.append(e)
        else:
            parent[ru] = rv
    return free[::-1]


def exhaustive_signing_search(g: RegularGraph) -> SigningSearchResult:
    """Minimize the spectral radius over every signing (|E| <= 24).

    Switching at a vertex (flipping all its edge signs) is a diagonal +-1
    similarity, so only one signing per switching class is solved: the one
    with +1 on a spanning forest (see _switching_free_edges). Classes are
    enumerated as binary codes over the free edges (bit i set means the i-th
    free edge gets -1), so rerunning is deterministic, and ties resolve to the
    first class in code order, whose representative is also the smallest full
    code (bit e set means edge e gets -1) among the tied classes.
    """
    m = g.num_edges
    if m > SIGNING_SEARCH_CAP:
        raise SizeLimitError(
            f"exhaustive signing search capped at |E|={SIGNING_SEARCH_CAP}, got {m}"
        )
    eu, ev = edge_endpoints(g)
    free = np.array(_switching_free_edges(g), dtype=np.int64)
    total = 1 << free.size
    best_code = 0
    best_radius = math.inf
    chunk = 4096
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        signs = np.ones((codes.size, m))
        signs[:, free] = 1.0 - 2.0 * ((codes[:, None] >> np.arange(free.size)[None, :]) & 1)
        mats = np.zeros((codes.size, g.n, g.n))
        mats[:, eu, ev] = signs
        mats[:, ev, eu] = signs
        vals = np.linalg.eigvalsh(mats)
        radii = np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))
        idx = int(np.argmin(radii))
        if radii[idx] < best_radius:
            best_radius = float(radii[idx])
            best_code = int(codes[idx])
    best_signs = [1] * m
    for i, e in enumerate(free.tolist()):
        best_signs[e] = 1 - 2 * ((best_code >> i) & 1)
    bound = 2.0 * math.sqrt(g.d - 1)
    return SigningSearchResult(
        Signing(tuple(best_signs)), best_radius, bound, best_radius <= bound + 1e-9,
        1 << m, total,
    )


@dataclass(frozen=True)
class LevelRecord:
    level: int
    n: int
    lam: float
    lambda_new: float | None


@dataclass(frozen=True)
class GrowthTrajectory:
    records: tuple[LevelRecord, ...]
    truncated: bool
    k: int
    samples_per_level: int
    seed: int


def greedy_lift_growth(
    g0: RegularGraph,
    levels: int,
    samples_per_level: int,
    k: int,
    seed: int,
) -> GrowthTrajectory:
    """Iterated best-of-sample shift lifting, keeping the smallest lambda_new.

    At each level, `samples_per_level` candidate shift assignments of the
    current graph are scored by the lambda_new of their lift and the best one
    is kept (when k^|E| <= samples_per_level the candidates are enumerated
    exhaustively instead of sampled). The trajectory records (n, lambda,
    lambda_new) after every level; if the next lift would exceed the dense
    solver cap the trajectory is cut short and flagged truncated.
    """
    if levels < 0:
        raise InvalidParameterError("levels must be >= 0")
    if samples_per_level < 1:
        raise InvalidParameterError("samples_per_level must be >= 1")
    current = g0
    spec = eig_symmetric(adjacency_matrix(current))
    records = [LevelRecord(0, current.n, lambda_nontrivial(spec, current.d), None)]
    truncated = False
    for level in range(1, levels + 1):
        if k * current.n > MAX_DENSE_DIM:
            truncated = True
            break
        m = current.num_edges
        exhaustive = k**m <= samples_per_level
        count = k**m if exhaustive else samples_per_level
        best = None
        for s in range(count):
            if exhaustive:
                code = s
                shifts = []
                for _ in range(m):
                    shifts.append(code % k)
                    code //= k
                sa = ShiftAssignment(k, tuple(shifts))
            else:
                sa = random_shift_lift(
                    current, k, trial_seed(seed, (level << 32) | s)
                )
            lifted = build_shift_lift(current, sa)
            lift_spec = eig_symmetric(adjacency_matrix(lifted.graph))
            lam_new = split_old_new(spec, lift_spec, k).lambda_new
            if best is None or lam_new < best[0]:
                best = (lam_new, lifted, lift_spec)
        lam_new, lifted, spec = best
        current = lifted.graph
        records.append(
            LevelRecord(level, current.n, lambda_nontrivial(spec, current.d), lam_new)
        )
    return GrowthTrajectory(tuple(records), truncated, k, samples_per_level, seed)
