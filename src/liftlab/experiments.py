"""Reproducible Monte-Carlo campaigns over random lifts.

Trial i of a campaign uses the seed base_seed XOR splitmix64(i), so any single
trial can be replayed in isolation from the report alone. Trials never share
generator state and results are folded in trial order, which keeps reports
byte-identical under any worker count.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .characterization import (
    _root_radii,
    lambda_new_from_fibers,
    lambda_new_from_roots,
    lambda_nontrivial_sparse,
)
from .errors import (
    InvalidParameterError,
    LiftLabError,
    NumericalError,
    SizeLimitError,
)
from .graphs import (
    RegularGraph,
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
    check_lift_order,
    random_shift_lift,
    random_signing,
    signing_to_shifts,
)
from .spectra import BOUND_SLACK, MAX_DENSE_DIM

_M64 = (1 << 64) - 1
CROSS_CHECK_TOL = 1e-6
SIGNING_SEARCH_CAP = 17  # log2 of the most switching classes one search solves
# the most vertices one search takes: every graph with |E| <= 24 (d >= 1), and
# each admitted search scores its classes on the stacked dense path
SIGNING_SEARCH_MAX_N = 48
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


def pool_size(requested: int, trials: int) -> int:
    """Processes that run a campaign's trials, the calling one included: at most
    its trials and the CPUs this process may run on, so no setting forks a flood."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, trials, cpus))


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
        if not all(0 <= c < math.inf for c in self.constants):  # NaN fails both
            raise InvalidParameterError("bound constants must be finite and nonnegative")


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
    """

    index: int
    seed: int
    lambda_new: float | None
    root_radii: tuple[float, ...] | None
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
    workers: int  # processes that ran trials (1: the caller); never serialized


def _fiber_cross_check(g: RegularGraph, sa: ShiftAssignment, lam_new: float) -> None:
    """Raise NumericalError if lam_new, the largest root radius of the shift lift
    of g by sa, is more than CROSS_CHECK_TOL from the fiber-projected radius."""
    projected = lambda_new_from_fibers(g, sa)
    if abs(lam_new - projected) > CROSS_CHECK_TOL:
        raise NumericalError(f"lambda_new {lam_new!r} disagrees with the fiber-projected "
                             f"radius {projected!r}")


def _run_one_trial(g: RegularGraph, cfg: ExperimentConfig, index: int) -> TrialRecord:
    seed = trial_seed(cfg.base_seed, index)
    try:
        if cfg.mode == "two_lift":
            sa = signing_to_shifts(random_signing(g, seed))
        else:
            sa = random_shift_lift(g, cfg.k, seed)
        lam_new, radii = lambda_new_from_roots(g, sa)
        _fiber_cross_check(g, sa, lam_new)
    except LiftLabError as exc:
        return TrialRecord(index, seed, None, None, error=str(exc))
    if cfg.mode == "two_lift":
        radii = None  # the one radius is lambda_new itself
    return TrialRecord(index, seed, lam_new, radii)


def _run_in_pool(g: RegularGraph, cfg: ExperimentConfig,
                 chunk: int) -> tuple[float, list[TrialRecord]]:
    """The base lambda and the trial records in trial order, the trials in
    contiguous chunks of `chunk` indices: one forked child runs each chunk but
    the last, and this process solves the base lambda while they run, then
    runs the last chunk. Children inherit the graph and config through the
    fork and send back only their pickled records, or the exception that
    stopped them. If the base lambda fails, every trial fails with the reason
    (no trial can be scored without it) and the children are killed."""
    # imported here, not at the top: `signal` is not loaded by `import liftlab`
    import pickle
    import signal

    starts = range(0, cfg.trials, chunk)
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for start in starts[:-1]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: run one chunk, send its outcome, never return
                try:
                    try:
                        out = [_run_one_trial(g, cfg, i) for i in range(start, start + chunk)]
                    except Exception as exc:
                        out = exc
                    with open(write_fd, "wb") as fh:
                        pickle.dump(out, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)  # before the next fork: EOF once this child exits
            children[pid] = read_fd
        try:
            lam = lambda_nontrivial_sparse(g)
        except LiftLabError as exc:
            return math.nan, [TrialRecord(i, trial_seed(cfg.base_seed, i), None, None,
                                          error=f"base lambda: {exc}")
                              for i in range(cfg.trials)]
        own = [_run_one_trial(g, cfg, i) for i in range(starts[-1], cfg.trials)]
        records = []
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code:
                how = f"exit code {code}" if code > 0 else signal.Signals(-code).name
                raise NumericalError(f"campaign worker process died: {how}")
            out = pickle.loads(data)
            if isinstance(out, Exception):
                raise out
            records.extend(out)
        return lam, records + own
    finally:
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_lift_trials(
    cfg: ExperimentConfig,
    graph: RegularGraph | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Run the configured random-lift campaign and aggregate bound fractions.

    Each trial samples a fresh lift (a uniform signing in two-lift mode, a
    uniform shift assignment otherwise) and never builds it. lambda_new is
    the largest root radius from lambda_new_from_roots (a signing is the
    shift assignment with k = 2, whose one root is A_s); in shift mode all
    k-1 radii are recorded. It is cross-checked against the spectral radius
    of the lift adjacency on the fiber-sum-zero subspace; a disagreement
    beyond CROSS_CHECK_TOL fails the trial. The base lambda comes from
    lambda_nontrivial_sparse, so no step builds a dense matrix above base
    order _STACKED_MAX_N; if it fails, every trial fails with the reason.
    Fractions are over successful trials only, each trial compared with its
    bound plus the absolute slack BOUND_SLACK; so is lambda in the regime
    flags (lambda > sqrt(d), lambda <= d / log2(d)).

    `threads` counts the processes that run trials, this one included,
    capped by pool_size; without os.fork it is 1. A count below 1 raises
    InvalidParameterError before any trial.
    One forked child runs each contiguous chunk of trials but the last. This
    process solves the base lambda while they run (with one process, before
    any trial), then runs the last chunk. A child that dies raises
    NumericalError, and a lift order k*n above 2**31 SizeLimitError before
    any trial.
    """
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    g = resolve_base_graph(cfg) if graph is None else graph
    check_lift_order(g.n, cfg.k)  # before any trial allocates its k roots
    workers = pool_size(threads, cfg.trials) if hasattr(os, "fork") else 1
    chunk = -(-cfg.trials // workers)
    workers = -(-cfg.trials // chunk)  # e.g. 5 trials, 4 requested: 3 chunks of 2
    lam, records = _run_in_pool(g, cfg, chunk)

    ok = np.array([r.lambda_new for r in records if r.error is None])
    failed = sum(1 for r in records if r.error is not None)
    sqrt_d = math.sqrt(g.d)
    frac_add = tuple(
        (c, float(np.mean(ok <= lam + c * sqrt_d + BOUND_SLACK)) if ok.size else math.nan)
        for c in cfg.constants
    )
    frac_mult = tuple(
        (c, float(np.mean(ok <= c * lam + BOUND_SLACK)) if ok.size else math.nan)
        for c in cfg.constants
    )
    quantiles = tuple(
        (name, float(np.quantile(ok, q)) if ok.size else math.nan)
        for q, name in QUANTILE_LEVELS
    )
    moderately = (lam <= g.d / math.log2(g.d) + BOUND_SLACK) if g.d >= 2 else None
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
        lambda_above_sqrt_d=lam > sqrt_d + BOUND_SLACK,
        moderately_expanding=moderately,
        workers=workers,
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


def _size_table(
    n: int, d: int, lam: float, which: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admissible support sizes as int64 rows (b, lo, hi), one per |S(v)| = b,
    ascending in b, with cap = (n*lam/d)^2.

    lemma3 admits |S(u)| = a for lo <= a <= hi: b/d <= a <= b, b > n/d^2 and
    a*b < cap. lemma4 admits a level-i size in [lo, b // 4^i] with lo*b >= cap,
    so hi = b ends level 0.
    """
    cap = (n * lam / d) ** 2
    if which == "lemma3":
        b = np.arange(int(n / d**2) + 1, n + 1, dtype=np.int64)
        lo = -(-b // d)
        hi = np.minimum(b, np.floor(cap / b)).astype(np.int64)
        # a*b < cap is strict, and the float cap / b may round up to an integer
        hi -= hi * b >= cap
    else:
        b = np.arange(1, n + 1, dtype=np.int64)
        lo = np.maximum(1.0, np.ceil(cap / b)).astype(np.int64)
        hi = b
    keep = lo <= hi
    return b[keep], lo[keep], hi[keep]


def _edge_weights(u: np.ndarray, v: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per-edge weights u_x v_y + u_y v_x of u^T A_s v = sum of s_xy times them."""
    return u[eu] * v[ev] + u[ev] * v[eu]


def lemma_inequality_spot_check(
    g: RegularGraph,
    trials: int,
    seed: int,
    which: str,
) -> SpotCheckReport:
    """Monte-Carlo check of one stated sign-sum inequality.

    Every trial draws a fresh uniform signing plus support sizes uniform over
    the admissible size combinations, then uniform supports and uniform +-1
    entries, and evaluates the inequality with lambda_nontrivial_sparse(g).
    Graphs where no admissible sizes exist are reported as not_applicable
    rather than silently passing. Both size tables hold O(n) rows, one range
    per |S(v)|.
    """
    if which not in ("lemma3", "lemma4"):
        raise InvalidParameterError("which must be 'lemma3' or 'lemma4'")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    lam = lambda_nontrivial_sparse(g)
    n, d = g.n, g.d
    eu, ev = edge_endpoints(g)
    rng = np.random.default_rng(trial_seed(seed, 0))
    b_rows, lo_rows, hi_rows = _size_table(n, d, lam, which)
    if not b_rows.size:
        return SpotCheckReport(which, 0, 0, 0.0, True)
    # lemma3 numbers its pairs (a, b) in (b, a) order; ends[i] counts the
    # pairs in rows 0..i
    ends = np.cumsum(hi_rows - lo_rows + 1)

    violations = 0
    max_ratio = 0.0
    m = g.num_edges
    for _ in range(trials):
        signs = rng.integers(0, 2, size=m) * 2 - 1
        if which == "lemma3":
            index = int(rng.integers(0, int(ends[-1])))
            i = int(np.searchsorted(ends, index, side="right"))
            a, b = int(hi_rows[i]) + 1 + index - int(ends[i]), int(b_rows[i])
            u = np.zeros(n)
            v = np.zeros(n)
            u[rng.choice(n, size=a, replace=False)] = rng.integers(0, 2, size=a) * 2 - 1
            v[rng.choice(n, size=b, replace=False)] = rng.integers(0, 2, size=b) * 2 - 1
            lhs = abs(float(np.sum(signs * _edge_weights(u, v, eu, ev))))
            rhs = 8.0 * math.sqrt(
                lam * math.sqrt(a * b) * b * math.log2(2.0 * d * a / b)
            )
        else:
            i = int(rng.integers(0, b_rows.size))
            b, lo = int(b_rows[i]), int(lo_rows[i])
            v = np.zeros(n)
            v[rng.choice(n, size=b, replace=False)] = rng.integers(0, 2, size=b) * 2 - 1
            perm = rng.permutation(n)
            used = level = 0
            u = np.zeros(n)
            weight = 0.0
            # level 0 always admits a size, since lo <= b <= n
            while lo <= (hi := min(b // 4**level, n - used)):
                a_i = int(rng.integers(lo, hi + 1))
                block = perm[used : used + a_i]
                used += a_i
                u[block] = (rng.integers(0, 2, size=a_i) * 2 - 1) * float(2**level)
                weight += a_i * 4.0**level
                level += 1
            lhs = abs(float(np.sum(signs * _edge_weights(u, v, eu, ev))))
            rhs = 8.0 * math.sqrt(d / n * b * b * weight * math.log2(2.0 * n / b))
        ratio = lhs / rhs
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs + BOUND_SLACK:
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
    u, v = np.asarray(u), np.asarray(v)
    if draws < 1 or u.shape != v.shape or u.shape != (g.n,):
        raise InvalidParameterError(f"need draws >= 1 and u, v of shape ({g.n},), "
                                    f"got {draws}, {u.shape}, {v.shape}")
    w = _edge_weights(u, v, *edge_endpoints(g))
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


def _switching_free_edges(g: RegularGraph) -> np.ndarray:
    """Ascending int64 indices of the edges outside a descending-index forest.

    Kruskal over edges from the highest index down keeps each edge that joins
    two components. Switching by t (t_u - t_v added to the shift of each edge
    (u, v); at k = 2 it flips signs) leaves every switching class exactly one
    assignment with shift 0 on a spanning forest. That is the smallest code
    in its class (shift of edge e as base-k digit e): from the top digit
    down, edge e can be 0 whenever it closes no cycle with the higher edges,
    and those are the forest edges.
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
    return np.array(free[::-1], dtype=np.int64)


def _class_shifts(free: np.ndarray, m: int, k: int, codes: np.ndarray) -> np.ndarray:
    """The (len(codes), m) shifts of switching-class codes: the base-k digits of
    each code, lowest first, on the free edges, and shift 0 on the forest."""
    shifts = np.zeros((codes.size, m), dtype=np.int64)
    shifts[:, free] = codes[:, None] // k ** np.arange(free.size) % k
    return shifts


def _pick(g: RegularGraph, k: int, tol: float, total: int, rows) -> tuple[np.ndarray, float]:
    """(shifts, radius) of the candidate of lowest largest root radius, where
    rows(idx) stacks the shifts of candidates idx < total, max(1, 2**20 // n**2)
    per stack; one is kept only when lower by more than tol (ties: earliest)."""
    step, best = max(1, 2**20 // g.n**2), (math.inf, 0)
    for lo in range(0, total, step):
        radii = reduce(np.maximum, _root_radii(g, k, rows(np.arange(lo, min(lo + step, total)))))
        for i, radius in enumerate(radii.tolist(), lo):
            if radius < best[0] - tol:
                best = (radius, i)
    return rows(np.array([best[1]]))[0], best[0]


def _best_class(g: RegularGraph, k: int, tol: float) -> tuple[np.ndarray, float, int]:
    """The shifts and radius of the switching class of k-lifts of g that _pick
    keeps over the codes of _class_shifts in order, and the class count."""
    m, free = g.num_edges, _switching_free_edges(g)
    total = k**free.size
    return (*_pick(g, k, tol, total, lambda codes: _class_shifts(free, m, k, codes)), total)


def exhaustive_signing_search(g: RegularGraph) -> SigningSearchResult:
    """Minimize the spectral radius over every signing (n <= 48, at most 2**17 classes).

    Switching at a vertex (flipping all its edge signs) is a diagonal +-1
    similarity, so only one signing per switching class is solved, by
    _best_class at k = 2 (the root matrix is the signing 1 - 2 * shifts) with
    tol 0: ties resolve to the first tied class, whose representative is the
    smallest full code (bit e set: edge e gets -1).
    """
    if g.n > SIGNING_SEARCH_MAX_N:
        raise SizeLimitError(f"exhaustive signing search capped at n={SIGNING_SEARCH_MAX_N} "
                             f"vertices, got {g.n}")
    free = _switching_free_edges(g).size
    if free > SIGNING_SEARCH_CAP:
        raise SizeLimitError(f"exhaustive signing search capped at 2**{SIGNING_SEARCH_CAP} "
                             f"switching classes, got 2**{free}")
    shifts, best_radius, total = _best_class(g, 2, 0.0)
    bound = 2.0 * math.sqrt(g.d - 1)
    return SigningSearchResult(
        Signing(1 - 2 * shifts), best_radius, bound, best_radius <= bound + BOUND_SLACK,
        1 << g.num_edges, total,
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

    Each level lifts the current graph by the candidate _pick keeps among the
    draws trial_seed(seed, (level << 32) | s), s < samples_per_level, or, when
    k^|E| <= samples_per_level, among one assignment per switching class
    (_best_class, which keeps what a scan of all k^|E| codes would); a trigger
    on the class count would change which levels are sampled, and so reports.
    lambda_new is the radius _pick gives the kept candidate, the only one that
    is cross-checked by _fiber_cross_check, as a campaign trial is, and built.
    Level 0 has the base's lambda_nontrivial_sparse, later levels the larger of
    the last lambda and lambda_new (the lift spectrum is the base's plus the
    new eigenvalues). The tower stops, flagged truncated, before a lift over
    the dense cap.
    """
    if levels < 0:
        raise InvalidParameterError("levels must be >= 0")
    if k < 2:
        raise InvalidParameterError("k must be >= 2")
    if samples_per_level < 1:
        raise InvalidParameterError("samples_per_level must be >= 1")
    current = g0
    lam = lambda_nontrivial_sparse(current)
    records = [LevelRecord(0, current.n, lam, None)]
    for level in range(1, levels + 1):
        if k * current.n > MAX_DENSE_DIM:
            break
        if k**current.num_edges <= samples_per_level:
            shifts, lam_new, _ = _best_class(current, k, CROSS_CHECK_TOL)
        else:
            shifts, lam_new = _pick(
                current, k, CROSS_CHECK_TOL, samples_per_level, lambda draws: np.array(
                    [random_shift_lift(current, k, trial_seed(seed, (level << 32) | s)).shift_array
                     for s in draws.tolist()]))
        sa = ShiftAssignment(k, shifts)
        _fiber_cross_check(current, sa, lam_new)
        current = build_shift_lift(current, sa).graph
        lam = max(lam, lam_new)
        records.append(LevelRecord(level, current.n, lam, lam_new))
    return GrowthTrajectory(tuple(records), len(records) <= levels, k, samples_per_level, seed)
