"""Cube decomposition of torus lattices and percolation-style analysis.

The (M, m)-lattice is split into b x b node blocks ("small cubes") and
B x B blocks ("large cubes"), with b | B | M.  Per-cube statistics feed
the classification machinery:

* a cube is gamma-bad when its empirical threshold cdf exceeds the
  population P by more than gamma somewhere (exact decision: both are
  step functions of x, so the supremum is approached just right of
  one of the cube's own thresholds or of x = 0);
* a cube is extraordinary when every agent in it has action 0 strictly
  dominant (threshold +inf);
* ``good_set_search`` takes those two flag arrays (it does not
  classify; a caller classifies once and passes the flags, e.g. a
  ``CubeReport``'s) and looks for a connected set W of small cubes that
  covers a (1-gamma) fraction of the lattice, keeps node distance >= R
  from every bad cube, and contains a seed whose R-ball is entirely
  extraordinary;
* ``domination_check`` tests a(c) <= sigma(d(c, W) - R) + rho per cube.

A realization enters as its threshold array t (node index x*M + y),
checked like the dynamics' input: one threshold per node, no NaN.
Per-cube fractions beta(c) average the beta = Wa/g that the caller's
closure computed on ``a`` in its final sweep (``largest_equilibrium``
returns it), so a report runs no stencil of its own.  Every per-cube
number comes from one strided reduction of the node grid
(``_cube_reduce``): a(c) and beta(c) are sums over b^2, added in numpy's
own mean order for b < 8, the extraordinary flags are an ``and``, and
for a P with few pieces the gamma-bad test counts the thresholds below
each knot.  Node distances are the torus Euclidean metric scaled by 1/m;
set distances are minima over node pairs, computed exactly on the
small-cube grid (``_cube_distance``).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .contagion import ContagionWave
from .dynamics import _thresholds
from .network import LatticeSpec, is_pure
from .stepfn import StepFn

__all__ = [
    "CubePartition",
    "CubeReport",
    "GoodSet",
    "r_interior",
    "classify_bad",
    "extraordinary_cubes",
    "good_set_search",
    "domination_check",
    "cube_means",
    "cube_report",
    "report_to_csv",
]

# classify_bad's most pieces to count, one grid pass each (0.15-0.25 ms on (300,3), 2-core Xeon), before sorting cube
# rows (4-9 ms) wins: they cross at 25-30 pieces for b = 1 and 10, and at 40 or more for b = 2, 3.
_COUNT_PIECES = 24


@dataclass(frozen=True)
class CubePartition:
    """Small/large cube decomposition of an (M, m)-lattice."""

    spec: LatticeSpec
    b: int
    B: int

    def __post_init__(self):
        M = self.spec.M
        if self.b < 1 or self.B % self.b != 0 or M % self.B != 0:
            raise ValueError("need the divisibility chain b | B | M")

    @property
    def M(self) -> int:
        return self.spec.M

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def small_side(self) -> int:
        return self.M // self.b

    @property
    def large_side(self) -> int:
        return self.M // self.B

    @property
    def k(self) -> int:
        return self.B // self.b

    @property
    def n_small(self) -> int:
        return self.small_side**2

    def node_grid(self, values: np.ndarray) -> np.ndarray:
        """View a per-node array (index x*M + y) as an (M, M) grid."""
        values = np.asarray(values)
        if values.size != self.M * self.M:
            raise ValueError("array size does not match the lattice")
        return values.reshape(self.M, self.M)

    def cube_grid(self, per_cube: np.ndarray) -> np.ndarray:
        per_cube = np.asarray(per_cube)
        return per_cube.reshape(self.small_side, self.small_side)


def cube_means(part: CubePartition, values: np.ndarray) -> np.ndarray:
    """Per-small-cube mean of a per-node array, cube-id order."""
    return _cube_reduce(part, np.asarray(values, dtype=float), np.add) / part.b**2


def _blocks(part: CubePartition, values: np.ndarray) -> np.ndarray:
    """Per-node values as an (n_small, b*b) matrix, one row per small cube."""
    s, b = part.small_side, part.b
    grid = part.node_grid(values)
    return grid.reshape(s, b, s, b).transpose(0, 2, 1, 3).reshape(s * s, b * b)


def _cube_reduce(part: CubePartition, values: np.ndarray, ufunc: np.ufunc, dtype=None) -> np.ndarray:
    """``ufunc`` over each small cube's b x b values, in cube-id order.

    Each node row is reduced over each cube's b columns by strided slices,
    then each cube's b row results in one call: for b < 8 the order of
    numpy's ``mean(axis=(1, 3))`` on the (s, b, s, b) view, whose inner
    loop turns pairwise at 8 terms.  ``dtype`` is both steps' accumulator
    (e.g. an int type to count a bool grid with ``np.add``), by default the values'.
    """
    s, b = part.small_side, part.b
    grid = part.node_grid(values)
    out = grid[:, ::b].astype(grid.dtype if dtype is None else dtype)
    for j in range(1, b):
        ufunc(out, grid[:, j::b], out=out)
    return ufunc.reduce(out.reshape(s, b, s), axis=1, dtype=out.dtype).ravel()


def classify_bad(part: CubePartition, t: np.ndarray, P: StepFn, gamma: float) -> np.ndarray:
    """Per-small-cube gamma-bad flags, decided exactly.

    On (t_k, t_{k+1}] the strict cdf #{t < x}/|c| is constant and P is
    nondecreasing and right-continuous, so the sup of the gap there is
    approached as x decreases to t_k, with value #{t <= t_k}/|c| - P(t_k).
    A breakpoint of P never beats the threshold (or x = 0) to its left,
    and x = 1 lies right of the largest threshold below 1, so the
    candidates are the cube's thresholds in [0, 1) and x = 0, where the
    negative thresholds are scored.  With no threshold below 1 the gap
    is -P(x) <= 0.  Within piece j of P, [x_j, e_j) with e_j the next
    knot (or 1), P is v_j and the largest candidate scores most:
    C_j/|c| - v_j with C_j = #{t < e_j}.  A piece without a threshold
    scores no more than the piece below it (same count, P no smaller), or
    -v_j <= 0 if none below has one, so every piece may be scored.  With
    at most ``_COUNT_PIECES`` pieces the C_j are counted per cube, one pass
    per piece; above it each cube's row is sorted, where position k
    counts (k+1)/|c| and the last copy of a repeated threshold carries
    the run's maximum.  Both score the same floats.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    t = _thresholds(t, part.M**2)
    size = part.b**2
    if P.piece_values.size > _COUNT_PIECES:
        t = np.maximum(np.sort(_blocks(part, t), axis=1), 0.0)
        inside = t < 1.0
        gap = np.arange(1, size + 1) / size - P.eval_array(np.where(inside, t, 0.0))
        return np.where(inside, gap, -np.inf).max(axis=1) > gamma
    bad = np.zeros(part.n_small, dtype=bool)
    for edge, value in zip(P.piece_positions[1:].tolist() + [1.0], P.piece_values.tolist()):
        bad |= _cube_reduce(part, t < edge, np.add, np.min_scalar_type(size)) / size - value > gamma
    return bad


def extraordinary_cubes(part: CubePartition, t: np.ndarray) -> np.ndarray:
    """Flags of cubes whose agents all have action 0 strictly dominant."""
    return _cube_reduce(part, np.isinf(_thresholds(t, part.M**2)), np.logical_and)


# ---------------------------------------------------------- torus utilities


def _cube_distance(part: CubePartition, cubes: np.ndarray) -> np.ndarray:
    """Per-small-cube node distance (units of m) to the flagged cubes.

    ``cubes`` is a square grid of small or large cube flags (+inf if none).
    Cubes delta = min(|i-j|, K-|i-j|) apart on an axis of K have nearest
    nodes max(0, delta*b - b + 1) apart on it, so squared distances are a
    min-plus over each axis's K cyclic shifts (of integers, exact in
    float64); sqrt and /m are monotone and correctly rounded, so this is
    the per-cube minimum of the node-level distance.
    """
    K = part.small_side
    up = K // cubes.shape[0]
    D = np.where(cubes.repeat(up, axis=0).repeat(up, axis=1), 0.0, np.inf)
    delta = np.minimum(np.arange(K), K - np.arange(K))
    gap2 = np.maximum(0, delta * part.b - (part.b - 1)).astype(float) ** 2
    for axis in (0, 1):
        D = functools.reduce(np.minimum, (np.roll(D, s, axis) + gap2[s] for s in range(K)))
    return (np.sqrt(D) / part.m).ravel()


def _largest_component(mask_grid: np.ndarray) -> np.ndarray:
    """Largest 4-connected component on a torus grid of flags.

    Cells joined by a torus edge are merged by hooking the larger root
    under the smaller, then pointer jumping until every cell points at
    its root; each root is then its component's first cell in row-major
    order, so ties go to the component that starts earliest.
    """
    ids = np.arange(mask_grid.size).reshape(mask_grid.shape)
    edges = np.concatenate([np.stack([ids, np.roll(ids, -1, axis)])[:, mask_grid & np.roll(mask_grid, -1, axis)]
                            for axis in (0, 1)], axis=1)
    root = ids.ravel()
    while True:
        lo, hi = np.sort(root[edges], axis=0)
        if np.array_equal(lo, hi):
            break
        np.minimum.at(root, hi, lo)
        while not np.array_equal(root[root], root):
            root = root[root]
    root = root.reshape(mask_grid.shape)
    return mask_grid & (root == np.argmax(np.bincount(root[mask_grid], minlength=1)))


@dataclass(frozen=True)
class GoodSet:
    """A (gamma, R)-good set: flags over small cubes plus the seed cube."""

    W: np.ndarray
    seed_cube: int
    conditions: dict

    def to_json(self) -> str:
        doc = {"found": True, "W_size": int(self.W.sum()), "seed_cube": int(self.seed_cube)}
        return json.dumps({**doc, "conditions": self.conditions})


def r_interior(part: CubePartition, U: np.ndarray, R: float) -> np.ndarray:
    """Small cubes at node distance > R from every node outside union(U).

    ``U`` flags large cubes, shape (K, K) or flat length K^2.
    """
    U = np.asarray(U, dtype=bool).reshape(part.large_side, part.large_side)
    return _cube_distance(part, ~U) > R


def good_set_search(
    part: CubePartition,
    bad: np.ndarray,
    extra: np.ndarray,
    gamma: float,
    R: float,
) -> GoodSet | None:
    """Search for a (gamma, R)-good set of small cubes.

    ``bad`` and ``extra`` are the per-small-cube flags of
    ``classify_bad`` (at this gamma) and ``extraordinary_cubes``; the
    search does not classify.  Marks large cubes clean (no bad small
    cube), takes the largest connected component U of clean large cubes,
    forms the R-interior W(U, R) of small cubes at node distance > R
    from everything outside U, and verifies the four conditions
    directly.  Absence is a value, not an error.
    """
    if not R >= 0.0:
        raise ValueError(f"R must be nonnegative, got {R}")
    bad, extra = np.asarray(bad), np.asarray(extra)
    for name, flags in (("bad", bad), ("extra", extra)):
        if flags.dtype != bool or flags.shape != (part.n_small,):
            raise ValueError(f"{name} must be {part.n_small} boolean flags, one per small cube")
    bad_grid = part.cube_grid(bad)
    # Large cube is clean iff no bad small cube inside.
    kk, Ks = part.k, part.large_side
    clean = ~bad_grid.reshape(Ks, kk, Ks, kk).any(axis=(1, 3))
    if not clean.any():
        return None
    U = _largest_component(clean)
    W = r_interior(part, U, R)
    if not W.any():
        return None
    conditions: dict[str, bool] = {}
    # (a) coverage.
    conditions["a"] = bool(W.sum() * part.b**2 >= (1.0 - gamma) * part.M**2)
    # (b) connectivity in the small-cube network: W is its largest component.
    conditions["b"] = np.array_equal(_largest_component(part.cube_grid(W)), part.cube_grid(W))
    # (c) node distance from every bad cube to every W cube >= R.
    conditions["c"] = bool(np.all(_cube_distance(part, bad_grid)[W] >= R))
    # (d) a seed c0 in W whose R-ball of cubes is entirely extraordinary.
    seed = -1
    if extra.any():
        candidates = np.nonzero(W & (_cube_distance(part, part.cube_grid(~extra)) > R))[0]
        if candidates.size:
            seed = int(candidates[0])
    conditions["d"] = seed >= 0
    if all(conditions.values()):
        return GoodSet(W=W, seed_cube=seed, conditions=conditions)
    return None


def domination_check(
    part: CubePartition,
    a_c: np.ndarray,
    sigma: ContagionWave,
    W: np.ndarray,
    R: float,
    rho: float,
) -> tuple[bool, int | None]:
    """Check a(c) <= sigma(d(c, W) - R) + rho for every small cube.

    ``a_c`` is a(c) per cube in cube-id order (a ``CubeReport``'s);
    d(c, W) is the exact torus node metric between the cube and the
    union of W's cubes.  Returns (flag, first violating cube id).
    """
    if not all(np.isfinite(v) and v >= 0.0 for v in (R, rho)):
        raise ValueError(f"R and rho must be finite and nonnegative, got R={R}, rho={rho}")
    a_c, W = np.asarray(a_c, dtype=float), np.asarray(W, dtype=bool)
    if a_c.shape != (part.n_small,) or W.size != part.n_small:
        raise ValueError("a_c and W must each hold one entry per small cube")
    if not W.any():
        raise ValueError("W must be nonempty")
    sigma_vals = sigma.sigma_array(_cube_distance(part, part.cube_grid(W)) - R)
    bad = a_c > sigma_vals + rho + 1e-12
    if bad.any():
        return False, int(np.nonzero(bad)[0][0])
    return True, None


@dataclass(frozen=True)
class CubeReport:
    """Per-small-cube summary statistics."""

    part: CubePartition
    a_c: np.ndarray
    beta_c: np.ndarray
    bad: np.ndarray
    extraordinary: np.ndarray


def cube_report(
    part: CubePartition,
    t: np.ndarray,
    P: StepFn,
    a: np.ndarray,
    beta: np.ndarray,
    gamma: float,
) -> CubeReport:
    """Per-small-cube a(c), beta(c) and flags of the pure profile ``a``.

    ``beta`` is the per-node beta = Wa/g of ``a`` on the lattice, as the
    closure that found ``a`` computed it in its final sweep; the report
    averages it and does not recompute it.  A mixed ``a`` is rejected.
    """
    a = np.asarray(a, dtype=float)
    if not is_pure(a):
        raise ValueError("cube_report needs a pure profile (every entry 0 or 1)")
    return CubeReport(
        part=part,
        a_c=cube_means(part, a),
        beta_c=cube_means(part, beta),
        bad=classify_bad(part, t, P, gamma),
        extraordinary=extraordinary_cubes(part, t),
    )


def _format_12g(values: np.ndarray) -> list[str]:
    """``f"{v:.12g},"`` per entry, formatting each distinct float64 bit pattern once."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = np.array([f"{v:.12g}," for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


@functools.lru_cache(maxsize=4)
def _row_heads(side: int) -> list[str]:
    """The "x,y," head of each row of a side x side cube grid, cube-id order."""
    ids = [f"{i}," for i in range(side)]
    return [x + y for x in ids for y in ids]


def report_to_csv(report: CubeReport) -> str:
    """CSV with CRLF line ends, one row per small cube in cube-id order: one join
    over cached "x,y," heads, a_c and beta_c text formatted once per distinct
    value, and one of four "bad,extraordinary" ends."""
    heads = _row_heads(report.part.small_side)
    fields = [None] * (4 * len(heads))
    fields[0::4] = heads
    fields[1::4] = _format_12g(report.a_c)
    fields[2::4] = _format_12g(report.beta_c)
    ends = np.array(["0,0\r\n", "0,1\r\n", "1,0\r\n", "1,1\r\n"], dtype=object)
    fields[3::4] = ends[2 * report.bad + report.extraordinary].tolist()
    return "cube_x,cube_y,a_c,beta_c,bad,extraordinary\r\n" + "".join(fields)
