"""Dyadic vector machinery: supports, decomposition, rounding, and a sum bound.

Grid vectors take values in {0, +-1/2, +-1/4, ...}; a dyadic decomposition
writes such a vector as sum_i 2^-i * u_i with u_i in {-1,0,+1}^n and pairwise
disjoint supports. All logarithms in this module are base 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacterizationError,
    InvalidParameterError,
    SearchError,
)
from .graphs import _as_seed


def support(u: np.ndarray) -> frozenset:
    """Indices with a nonzero entry (exact comparison; entries are grid values)."""
    u = np.asarray(u)
    return frozenset(np.flatnonzero(u != 0).tolist())


@dataclass(frozen=True, eq=False)
class DyadicDecomposition:
    """Terms (i, u_i) with i >= 1, u_i in {-1,0,+1}^n, disjoint supports."""

    terms: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for i, u in self.terms:
            if i < 1:
                raise InvalidParameterError("dyadic levels start at 1")
            vals = set(np.unique(np.asarray(u)).tolist())
            if not vals <= {-1.0, 0.0, 1.0}:
                raise InvalidParameterError("term entries must be -1, 0, or +1")
            sup = support(u)
            if seen & sup:
                raise InvalidParameterError("term supports must be disjoint")
            seen |= sup

    def reconstruct(self) -> np.ndarray:
        """sum_i 2^-i * u_i; exact in binary floating point (disjoint supports)."""
        if not self.terms:
            return np.zeros(0)
        out = np.zeros_like(self.terms[0][1], dtype=float)
        for i, u in self.terms:
            out += math.ldexp(1.0, -i) * u
        return out


def _grid_level(value: float) -> int | None:
    """The i >= 1 with |value| == 2^-i, or None when off grid."""
    mant, exp = math.frexp(abs(value))
    if mant != 0.5:
        return None
    level = 1 - exp
    return level if level >= 1 else None


def dyadic_decompose(y: np.ndarray) -> DyadicDecomposition:
    """Split a grid vector into its dyadic levels.

    Every entry must be 0 or +-2^-i with i >= 1 exactly; anything else raises
    InvalidParameterError naming the offending index.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidParameterError("expected a 1-d vector")
    levels: dict[int, np.ndarray] = {}
    for idx, val in enumerate(y.tolist()):
        if val == 0.0:
            continue
        level = _grid_level(val)
        if level is None:
            raise InvalidParameterError(
                f"entry {idx} = {val!r} is not 0 or +-2^-i with i >= 1"
            )
        levels.setdefault(level, np.zeros(y.size))[idx] = math.copysign(1.0, val)
    terms = tuple((i, levels[i]) for i in sorted(levels))
    return DyadicDecomposition(terms)


def _rounding_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate (sign, down-value, up-probability) for grid rounding.

    A nonzero coordinate +-(1+delta)*2^-i (delta in [0,1)) rounds down to
    +-2^-i or up to +-2^-i+1; rounding up with probability delta keeps the
    expectation exactly at the input value. Zeros stay zero.
    """
    x = np.asarray(x, dtype=float)
    signs = np.sign(x)
    mant, exp = np.frexp(np.abs(x))
    down = np.ldexp(0.5, exp)  # 2^(exp-1) <= |x| < 2^exp
    delta = 2.0 * mant - 1.0
    down[signs == 0] = 0.0
    delta[signs == 0] = 0.0
    return signs, down, delta


def dyadic_round(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One unbiased randomized rounding of x onto the dyadic grid."""
    signs, down, delta = _rounding_parts(x)
    up = rng.random(down.shape) < delta
    return signs * np.where(up, 2.0 * down, down)


def discretize(
    x: np.ndarray, m: np.ndarray, seed: int, max_tries: int = 10000
) -> np.ndarray:
    """Round x onto the grid without losing quadratic-form mass.

    Repeats the unbiased randomized rounding until the result y satisfies
    |y^T M y| >= |x^T M x| - 1e-12. Because the rounding is unbiased and M
    has zero diagonal, E[y^T M y] = x^T M x, so a suitable y exists and the
    loop terminates quickly in practice; ||y||^2 <= 4 ||x||^2 always holds
    since each coordinate at most doubles. All tries draw from one generator
    seeded with `seed`. Raises SearchError carrying the best candidate (None
    if max_tries is 0) when max_tries is exhausted.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    if x.ndim != 1:
        raise InvalidParameterError("expected a 1-d vector")
    if not (np.isfinite(x).all() and np.isfinite(m).all()):
        raise InvalidParameterError("x and M must be finite")
    if np.max(np.abs(x), initial=0.0) > 0.5:
        raise InvalidParameterError("need ||x||_inf <= 1/2; scale the input first")
    if m.ndim != 2 or m.shape != (x.size, x.size):
        raise InvalidParameterError("matrix shape must match the vector")
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-12:
        raise InvalidParameterError("matrix must be symmetric")
    if np.any(np.diag(m) != 0.0):
        raise InvalidParameterError("matrix must have an exactly zero diagonal")
    target = abs(float(x @ m @ x))
    rng = np.random.default_rng(_as_seed(seed))
    best_val, best = -math.inf, None
    for _ in range(max_tries):
        y = dyadic_round(x, rng)
        val = abs(float(y @ m @ y))
        if val >= target - 1e-12:
            return y
        if val > best_val:
            best_val, best = val, y
    raise SearchError(f"no rounding reached |x^T M x| = {target:.6e} in {max_tries} tries "
                      f"(best {best_val:.6e})", best=best)


def geometric_log_sum_bound(
    r: float, t: int, z: float, x: float
) -> tuple[float, float, float]:
    """Bound sum_{i=0..t} (r^i log2(z/r^i))^x by c(r) times its last term.

    Needs finite arguments, r >= 2, x > 0, and r^t <= z/2. The constant is
    c(r) = 1 + alpha/(alpha - 1) with alpha = (r*(1+log2 r)/(1+2*log2 r))^x.
    Returns (lhs, rhs, c); raises if the inequality ever fails, since it is
    exact and a failure means a bug.
    """
    if not all(map(math.isfinite, (r, t, z, x))):
        raise InvalidParameterError(f"need finite r, t, z, x; got {r!r}, {t!r}, {z!r}, {x!r}")
    if r < 2:
        raise InvalidParameterError("need r >= 2")
    if x <= 0:
        raise InvalidParameterError("need x > 0")
    if t < 0 or int(t) != t:
        raise InvalidParameterError("t must be a nonnegative integer")
    if r**t > z / 2:
        raise InvalidParameterError("need r^t <= z/2")
    lhs = sum((r**i * math.log2(z / r**i)) ** x for i in range(int(t) + 1))
    log_r = math.log2(r)
    alpha = (r * (1 + log_r) / (1 + 2 * log_r)) ** x
    c = 1.0 + alpha / (alpha - 1.0)
    rhs = c * (r**t * math.log2(z / r**t)) ** x
    if lhs > rhs:
        raise CharacterizationError(
            f"geometric-log sum bound violated: lhs {lhs!r} > rhs {rhs!r}"
        )
    return lhs, rhs, c
