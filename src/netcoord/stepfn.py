"""Algebra of monotone right-continuous step functions on [0, 1].

A step function P holds a value v_k on the half-open interval
[x_k, x_{k+1}) and its last value on the closed tail up to and
including 1.  Values are weakly increasing, so P behaves like a
(sub)distribution function:

    P(x)      -- right-continuous evaluation,
    P^{-1}(y) = inf{x : P(x) >= y}  (generalized inverse, +inf when
                the set is empty, i.e. y > P(1)).

On top of evaluation the module provides the exact piecewise-quadratic
dominance integral

    ru_objective(P, x) = int_0^x (y - P^{-1}(y)) dy,

its global maximizers (``ru_dominant``), fixed points of P, a local
stability test, and staircase approximation of arbitrary monotone
functions.  One kernel, ``_dominance_integral``, evaluates the integral
at any number of points with one prefix sum over the segments on which
the inverse is constant; every integral in the package
(``ru_objective``, ``ru_dominant``, the contagion wave's RU checks and
the bound audit) goes through it.

Where P^{-1}(y) = +inf (y above P(1)) the integrand is clamped at the
sentinel ``INV_SENTINEL = 2.0``: the clamped integrand is <= -1 there,
so no maximizer can lie beyond P(1) and arithmetic stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "INV_SENTINEL",
    "TOL_X",
    "StepFn",
    "FixedPoint",
    "ru_objective",
    "ru_dominant",
    "fixed_points",
    "is_strongly_stable",
    "step_approximate",
]

# Sentinel standing in for +inf when integrating P^{-1}.
INV_SENTINEL = 2.0

# Two maximizers closer than this count as one.
TOL_X = 1e-9

# Objective values within this of the maximum count as tied.
_VALUE_TIE = 1e-12


_DOMAIN_EPS = 1e-9  # fp dust from incremental neighborhood updates

# Up to this many pieces, array evaluation and inversion count the knots
# (values) each input passes, one comparison pass per knot; above it, they
# binary-search.  Both give the same index, but a few branch-free passes
# cost less than a search per value.
_FEW_PIECES = 8


def _rank(x: np.ndarray, edges: np.ndarray, passes) -> np.ndarray:
    """Per x, the number of edges e with passes(x, e): for rising edges,
    searchsorted's index (side="right" for >=, side="left" for >)."""
    idx = np.zeros(x.shape, dtype=np.int8)
    for e in edges.tolist():
        idx += passes(x, e)
    return idx


def _check_unit(name: str, x: float) -> float:
    x = float(x)
    if not (-_DOMAIN_EPS <= x <= 1.0 + _DOMAIN_EPS):
        raise ValueError(f"{name}={x} outside [0, 1]")
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class StepFn:
    """Monotone right-continuous step function on [0, 1].

    ``base`` is the value on [0, x_1); ``steps`` is a sequence of
    (x_k, v_k) pairs, x_k strictly increasing in (0, 1], meaning the
    function takes value v_k on [x_k, x_{k+1}).  Evaluation at 1 is
    defined and equals the last value.  A step at x=0 overrides base.

    Instances are immutable and safe to share across workers.
    """

    base: float
    steps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        steps = tuple((float(x), float(v)) for x, v in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "base", float(self.base))
        xs = [x for x, _ in steps]
        if any(b >= a for a, b in zip(xs[1:], xs)):
            raise ValueError("step breakpoints must be strictly increasing")
        if xs and (xs[0] < 0.0 or xs[-1] > 1.0):
            raise ValueError("step breakpoints must lie in [0, 1]")
        values = [v for _, v in steps]
        chain = ([self.base] if not xs or xs[0] > 0.0 else []) + values
        if any(b > a for a, b in zip(chain[1:], chain)):
            raise ValueError("step values must be weakly increasing")
        if any(not (0.0 <= v <= 1.0) for v in chain):
            raise ValueError("step values must lie in [0, 1]")
        # Internal arrays: piece j has value _vals[j] on [_pos[j], _pos[j+1]).
        if xs and xs[0] == 0.0:
            pos = np.asarray(xs, dtype=float)
            vals = np.asarray(values, dtype=float)
        else:
            pos = np.asarray([0.0] + xs, dtype=float)
            vals = np.asarray([self.base] + values, dtype=float)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_knots", pos[1:])

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_grid(cls, positions: Sequence[float], values: Sequence[float]) -> "StepFn":
        """Build from piece start positions (first must be 0) and values."""
        positions = list(map(float, positions))
        values = list(map(float, values))
        if not positions or positions[0] != 0.0:
            raise ValueError("first position must be 0")
        return cls(base=values[0], steps=tuple(zip(positions[1:], values[1:])))

    # -- evaluation ------------------------------------------------------

    def eval(self, x: float) -> float:
        """Right-continuous value at x in [0, 1]."""
        return float(self.eval_array(_check_unit("x", x)))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # Written so that NaN, for which every comparison is false, fails.
        if x.size and not (-_DOMAIN_EPS <= x.min() and x.max() <= 1.0 + _DOMAIN_EPS):
            raise ValueError("x outside [0, 1]")
        if self._vals.size > _FEW_PIECES:
            idx = np.searchsorted(self._knots, np.clip(x, 0.0, 1.0), side="right")
        else:  # the knots lie in (0, 1], so x >= knot as its clipped value would
            idx = _rank(x, self._knots, np.greater_equal)
        return self._vals.take(idx)

    def eval_left(self, x: float) -> float:
        """Left limit P(x-); equals P(0) at x = 0."""
        x = _check_unit("x", x)
        idx = int(np.searchsorted(self._knots, x, side="left"))
        return float(self._vals[idx])

    def inverse_array(self, y: np.ndarray) -> np.ndarray:
        """Generalized inverse inf{x : P(x) >= y} at each y; +inf where empty."""
        y = np.asarray(y, dtype=float)
        lo, hi = (y.min(), y.max()) if y.size else (0.0, 1.0)
        if not (-_DOMAIN_EPS <= lo and hi <= 1.0 + _DOMAIN_EPS):
            raise ValueError("y outside [0, 1]")
        if lo < 0.0 or hi > 1.0:  # only fp dust within _DOMAIN_EPS; uniform draws never clip
            y = np.clip(y, 0.0, 1.0)
        if self._vals.size > _FEW_PIECES:
            idx = np.searchsorted(self._vals, y, side="left")
        else:
            idx = _rank(y, self._vals, np.greater)
        return np.append(self._pos, np.inf).take(idx)

    # -- structure accessors ----------------------------------------------

    @property
    def piece_positions(self) -> np.ndarray:
        """Start position of each piece (first is 0)."""
        return self._pos.copy()

    @property
    def piece_values(self) -> np.ndarray:
        return self._vals.copy()

    @property
    def top(self) -> float:
        """P(1), the largest value."""
        return float(self._vals[-1])

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StepFn":
        if not (isinstance(doc, dict) and "base" in doc and doc.keys() <= {"base", "steps"}):
            raise ValueError(f"a step function is an object with the key 'base' and optionally 'steps', got {doc!r}")
        return cls(base=doc["base"], steps=tuple((x, v) for x, v in doc.get("steps", [])))


# -- the dominance integral ------------------------------------------------


def _inverse_segments(P: StepFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segments of y on which P^{-1} is constant.

    Returns (lo, hi, c): P^{-1}(y) = c_j for y in (lo_j, hi_j], covering
    [0, 1] contiguously with the sentinel on (P(1), 1].  Zero-length
    segments from repeated values are kept (their integral is zero).
    """
    lo = np.concatenate(([0.0], P._vals))
    hi = np.concatenate((P._vals, [1.0]))
    return lo, hi, np.concatenate((P._pos, [INV_SENTINEL]))


def _dominance_integral(lo: np.ndarray, hi: np.ndarray, c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """int_{lo_0}^{x} (y - c(y)) dy at every x of xs in [lo_0, hi_-1].

    c(y) = c_j on (lo_j, hi_j], the segments contiguous (lo_{j+1} = hi_j).
    The integral is the prefix sum of the whole segments left of x plus
    the partial segment that holds x.
    """
    whole = np.concatenate(([0.0], np.cumsum(0.5 * (hi * hi - lo * lo) - c * (hi - lo))))
    j = np.minimum(np.searchsorted(hi, xs, side="left"), hi.size - 1)
    return whole[j] + (0.5 * (xs * xs - lo[j] * lo[j]) - c[j] * (xs - lo[j]))


def _ru_objective_at(P: StepFn, xs) -> np.ndarray:
    """ru_objective(P, x) at every x of xs, in one kernel call."""
    return _dominance_integral(*_inverse_segments(P), np.asarray(xs, dtype=float))


def ru_objective(P: StepFn, x: float) -> float:
    """Exact value of int_0^x (y - P^{-1}(y)) dy.

    P^{-1} is clamped at INV_SENTINEL above P(1); the integral is a
    finite sum of quadratic-minus-linear pieces, no quadrature.
    """
    return float(_ru_objective_at(P, [_check_unit("x", x)])[0])


def ru_dominant(P: StepFn) -> tuple[list[float], bool]:
    """Global maximizers of ru_objective over [0, 1] and a strictness flag.

    Each segment's integrand y - c increases, so the objective is convex
    there and peaks at a segment end: every segment boundary is scored
    in one kernel call.  Maximizers closer than TOL_X are merged;
    ``strict`` is True iff a single point remains.
    """
    lo, hi, c = _inverse_segments(P)
    cand = np.unique(np.append(lo, hi))
    vals = _dominance_integral(lo, hi, c, cand)
    best = vals.max()
    winners = cand[vals >= best - _VALUE_TIE]  # sorted, as cand is
    merged = [float(winners[0])]
    for w in winners[1:]:
        if w - merged[-1] > TOL_X:
            merged.append(float(w))
    return merged, len(merged) == 1


@dataclass(frozen=True)
class FixedPoint:
    x: float
    kind: str  # "exact" or "jump-crossing"


def fixed_points(P: StepFn) -> list[FixedPoint]:
    """All x with P(x) = x, plus markers where P jumps over the diagonal.

    Exact points are values v_k lying inside their own plateau; crossing
    markers are breakpoints x with P(x-) < x <= P(x).  The list is sorted
    and always nonempty (a monotone self-map of [0, 1] admits one).
    """
    pos = P._pos
    vals = P._vals
    out: list[FixedPoint] = []
    n = len(vals)
    for j in range(n):
        left = pos[j]
        right = pos[j + 1] if j + 1 < n else 1.0
        v = vals[j]
        inside = (left <= v < right) or (j == n - 1 and left <= v <= 1.0)
        if inside:
            out.append(FixedPoint(float(v), "exact"))
    for j in range(1, n):
        x = pos[j]
        if vals[j - 1] < x <= vals[j]:
            out.append(FixedPoint(float(x), "jump-crossing"))
    out.sort(key=lambda f: f.x)
    # Merge duplicates (an exact point sitting exactly on a breakpoint).
    dedup: list[FixedPoint] = []
    for f in out:
        if dedup and abs(f.x - dedup[-1].x) <= TOL_X:
            continue
        dedup.append(f)
    if not dedup:
        raise AssertionError("monotone step function without fixed point")
    return dedup


def is_strongly_stable(P: StepFn, x: float, gamma: float, radius: float) -> bool:
    """Local stability of a fixed point: one-sided slope bounds gamma < 1.

    True iff for all y in [x-radius, x+radius] cap [0,1]:
    y <= x implies P(y) >= P(x) + gamma (y - x) and
    y >= x implies P(y) <= P(x) + gamma (y - x).
    Checked exactly at piece boundaries (sufficient for step functions).
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must lie in [0, 1)")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    x = _check_unit("x", x)
    if min(abs(x - f.x) for f in fixed_points(P)) > TOL_X:
        raise ValueError(f"x={x} is not a fixed point of P")
    px = P.eval(x)
    lo_lim = max(0.0, x - radius)
    hi_lim = min(1.0, x + radius)
    pos = P._pos
    vals = P._vals
    n = len(vals)
    for j in range(n):
        a = float(pos[j])
        b = float(pos[j + 1]) if j + 1 < n else 1.0
        v = float(vals[j])
        # Left branch on this piece: y in [max(a, lo_lim), min(b, x)),
        # constraint v >= px + gamma (y - x); worst as y -> sup.
        y_lo = max(a, lo_lim)
        y_sup = min(b, x)
        if y_lo < y_sup and v < px + gamma * (y_sup - x) - 1e-15:
            return False
        # Right branch: y in [max(a, x), min(b, hi_lim)) plus the closed
        # point y = 1 on the last piece; constraint v <= px + gamma (y - x),
        # worst at the attained infimum.
        y_inf = max(a, x)
        y_hi = min(b, hi_lim) if j + 1 < n else min(b, hi_lim) + 1e-300
        if y_inf < y_hi or (j + 1 == n and y_inf <= hi_lim):
            if y_inf <= hi_lim and v > px + gamma * (y_inf - x) + 1e-15:
                return False
    return True


def step_approximate(f: Callable[[float], float], max_step: float) -> StepFn:
    """Midpoint staircase of a monotone nondecreasing f on [0, 1].

    Each cell takes the mean of f at its two ends, so the result lies
    within max_step / 2 of f on the grid, with consecutive value gaps
    <= max_step.  The grid is refined from 4097 points until per-cell
    increments of f fit under max_step; a monotone violation on the
    evaluation grid is rejected.
    """
    if max_step <= 0.0:
        raise ValueError("max_step must be positive")
    n = 4097
    for _ in range(8):
        xs = np.linspace(0.0, 1.0, n)
        ys = np.asarray([float(f(float(x))) for x in xs])
        if np.any(np.diff(ys) < -1e-12):
            raise ValueError("f is not monotone nondecreasing on the grid")
        if ys.min() < -1e-12 or ys.max() > 1.0 + 1e-12:
            raise ValueError("f must have range within [0, 1]")
        ys = np.clip(ys, 0.0, 1.0)
        if np.max(np.diff(ys)) <= max_step:
            break
        n = 2 * (n - 1) + 1
    else:
        raise ValueError("f increments exceed max_step at the finest grid (jump?)")
    # Greedy cell boundaries: extend each cell while the value increment
    # stays under max_step.  sel always starts at 0 and ends at n-1 (x=1).
    sel = [0]
    while sel[-1] < n - 1:
        k = sel[-1] + 1
        while k + 1 < n and ys[k + 1] - ys[sel[-1]] <= max_step:
            k += 1
        sel.append(k)
    # Cell i spans [xs[sel[i]], xs[sel[i+1]]) and takes the mean of its end values.
    starts = [float(xs[i]) for i in sel[:-1]]
    cell_vals = [0.5 * (float(ys[i]) + float(ys[j])) for i, j in zip(sel[:-1], sel[1:])]
    # Collapse equal consecutive values.
    keep = np.r_[True, np.diff(cell_vals) != 0.0]
    return StepFn.from_grid(np.asarray(starts)[keep].tolist(), np.asarray(cell_vals)[keep].tolist())
