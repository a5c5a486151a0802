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
Per-cube neighborhood fractions beta(c) average the lattice network's
own ``neighborhood_fractions`` (its torus stencil, no CSR matrix).
Node distances are the torus Euclidean metric scaled by 1/m; set
distances are minima over node pairs, computed with an exact Euclidean
distance transform on a 3x3 tiling of the torus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .contagion import ContagionWave
from .dynamics import _thresholds
from .network import LatticeSpec, lattice, neighborhood_fractions
from .stepfn import StepFn

__all__ = [
    "CubePartition",
    "CubeReport",
    "GoodSet",
    "partition",
    "r_interior",
    "cube_empirical_cdf",
    "classify_bad",
    "extraordinary_cubes",
    "good_set_search",
    "domination_check",
    "cube_best_response_gap",
    "cube_means",
    "cube_report",
    "report_to_csv",
]


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
    def K(self) -> int:
        return self.M // self.B

    @property
    def n_small(self) -> int:
        return self.small_side**2

    @property
    def n_large(self) -> int:
        return self.large_side**2

    def node_grid(self, values: np.ndarray) -> np.ndarray:
        """View a per-node array (index x*M + y) as an (M, M) grid."""
        values = np.asarray(values)
        if values.size != self.M * self.M:
            raise ValueError("array size does not match the lattice")
        return values.reshape(self.M, self.M)

    def small_cube_of_node(self, node: int) -> int:
        x, y = divmod(int(node), self.M)
        return (x // self.b) * self.small_side + (y // self.b)

    def nodes_of_small(self, cube: int) -> np.ndarray:
        cx, cy = divmod(int(cube), self.small_side)
        xs = np.arange(cx * self.b, (cx + 1) * self.b)
        ys = np.arange(cy * self.b, (cy + 1) * self.b)
        return (xs[:, None] * self.M + ys[None, :]).ravel()

    def cube_grid(self, per_cube: np.ndarray) -> np.ndarray:
        per_cube = np.asarray(per_cube)
        return per_cube.reshape(self.small_side, self.small_side)


def partition(spec: LatticeSpec, b: int, B: int) -> CubePartition:
    """Exact partition; every node lies in one small and one large cube."""
    return CubePartition(spec=spec, b=b, B=B)


def cube_means(part: CubePartition, values: np.ndarray) -> np.ndarray:
    """Per-small-cube mean of a per-node array, cube-id order."""
    grid = part.node_grid(np.asarray(values, dtype=float))
    s, b = part.small_side, part.b
    return grid.reshape(s, b, s, b).mean(axis=(1, 3)).ravel()


def cube_empirical_cdf(part: CubePartition, t: np.ndarray, cube: int, x: float) -> float:
    """Strict-inequality empirical cdf (1/|c|) #{i in c : t_i < x}."""
    if not (0 <= cube < part.n_small):
        raise ValueError(f"invalid cube id {cube}")
    t = _thresholds(t, part.M**2)[part.nodes_of_small(cube)]
    return float(np.mean(t < x))


def _blocks(part: CubePartition, values: np.ndarray) -> np.ndarray:
    """Per-node values as an (n_small, b*b) matrix, one row per small cube."""
    s, b = part.small_side, part.b
    grid = part.node_grid(values)
    return grid.reshape(s, b, s, b).transpose(0, 2, 1, 3).reshape(s * s, b * b)


def classify_bad(part: CubePartition, t: np.ndarray, P: StepFn, gamma: float) -> np.ndarray:
    """Per-small-cube gamma-bad flags, decided exactly.

    On (t_k, t_{k+1}] the strict cdf #{t < x}/|c| is constant and P is
    nondecreasing and right-continuous, so the sup of the gap there is
    approached as x decreases to t_k, with value #{t <= t_k}/|c| - P(t_k).
    A breakpoint of P never beats the threshold (or x = 0) to its left,
    and x = 1 lies right of the largest threshold below 1, so the
    candidates are the cube's thresholds in [0, 1) and x = 0, where the
    negative thresholds are scored.  With no threshold below 1 the gap
    is -P(x) <= 0.  In the sorted row, position k counts (k+1)/|c|; the
    last copy of a repeated threshold carries the run's maximum.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    t = _thresholds(t, part.M**2)
    t = np.maximum(np.sort(_blocks(part, t), axis=1), 0.0)
    size = t.shape[1]
    inside = t < 1.0
    gap = np.arange(1, size + 1) / size - P.eval_array(np.where(inside, t, 0.0))
    return np.where(inside, gap, -np.inf).max(axis=1) > gamma


def extraordinary_cubes(part: CubePartition, t: np.ndarray) -> np.ndarray:
    """Flags of cubes whose agents all have action 0 strictly dominant."""
    return np.isinf(_blocks(part, _thresholds(t, part.M**2))).all(axis=1)


# ---------------------------------------------------------- torus utilities


def _torus_edt(source_mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean node distance to the nearest True cell on the torus."""
    if not source_mask.any():
        return np.full(source_mask.shape, np.inf)
    tiled = np.tile(source_mask, (3, 3))
    dist = ndimage.distance_transform_edt(~tiled)
    M = source_mask.shape[0]
    return dist[M : 2 * M, M : 2 * M]


def _cube_distance(part: CubePartition, cubes: np.ndarray) -> np.ndarray:
    """Per-small-cube node distance (units of m) to the flagged cubes.

    ``cubes`` is a square grid of small or large cube flags; the
    distance is +inf everywhere when nothing is flagged.
    """
    side = part.M // cubes.shape[0]
    nodes = np.kron(cubes, np.ones((side, side), dtype=bool))
    return _blocks(part, _torus_edt(nodes) / part.m).min(axis=1)


def _largest_component(mask_grid: np.ndarray) -> np.ndarray:
    """Largest 4-connected component on a torus grid of flags.

    ``ndimage.label`` numbers the planar components in row-major order
    of their first cell; components touching across the torus seams are
    then joined under their smallest label.  Ties therefore go to the
    component whose first cell comes earliest in row-major order.
    """
    labels, count = ndimage.label(mask_grid)
    seams = np.stack([np.r_[labels[0], labels[:, 0]], np.r_[labels[-1], labels[:, -1]]])
    seams = seams[:, (seams > 0).all(axis=0)]
    # Union by hooking the larger root under the smaller, then pointer
    # jumping until every label points at its root.
    root = np.arange(count + 1)
    while True:
        lo, hi = np.sort(root[seams], axis=0)
        if np.array_equal(lo, hi):
            break
        np.minimum.at(root, hi, lo)
        while not np.array_equal(root[root], root):
            root = root[root]
    comp = root[labels]
    return mask_grid & (comp == np.argmax(np.bincount(comp[mask_grid], minlength=1)))


def _is_connected(mask_grid: np.ndarray) -> bool:
    total = int(mask_grid.sum())
    if total == 0:
        return False
    return int(_largest_component(mask_grid).sum()) == total


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
    # (b) connectivity in the small-cube network.
    conditions["b"] = _is_connected(part.cube_grid(W))
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
    a: np.ndarray,
    sigma: ContagionWave,
    W: np.ndarray,
    R: float,
    rho: float,
) -> tuple[bool, int | None]:
    """Check a(c) <= sigma(d(c, W) - R) + rho for every small cube.

    d(c, W) is the exact torus node metric between the cube and the
    union of W's cubes.  Returns (flag, first violating cube id).
    """
    W = np.asarray(W, dtype=bool)
    if W.size != part.n_small:
        raise ValueError("W must flag every small cube")
    if not W.any():
        raise ValueError("W must be nonempty")
    a_c = cube_means(part, a)
    sigma_vals = sigma.sigma_array(_cube_distance(part, part.cube_grid(W)) - R)
    bad = a_c > sigma_vals + rho + 1e-12
    if bad.any():
        return False, int(np.nonzero(bad)[0][0])
    return True, None


def cube_best_response_gap(
    part: CubePartition,
    t: np.ndarray,
    P: StepFn,
    a: np.ndarray,
    gamma: float,
    rho: float,
    D: float = 4.0,
) -> np.ndarray:
    """Residual gamma + P(beta^a(c) + D rho) - a(c) per gamma-good cube.

    Bad cubes get NaN (the bound's scope is good cubes).  A negative
    residual on a good cube for generous D flags an inconsistency.
    """
    rep = cube_report(part, t, P, a, gamma)
    res = gamma + P.eval_array(np.clip(rep.beta_c + D * rho, 0.0, 1.0)) - rep.a_c
    res[rep.bad] = np.nan
    return res


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
    gamma: float,
) -> CubeReport:
    return CubeReport(
        part=part,
        a_c=cube_means(part, a),
        beta_c=cube_means(part, neighborhood_fractions(lattice(part.spec), a)),
        bad=classify_bad(part, t, P, gamma),
        extraordinary=extraordinary_cubes(part, t),
    )


def _format_12g(values: np.ndarray) -> list[str]:
    """``f"{v:.12g}"`` per entry, formatting each distinct float64 bit pattern once."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = np.array([f"{v:.12g}" for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def report_to_csv(report: CubeReport) -> str:
    """CSV with CRLF line ends, one row per small cube in cube-id order.

    a_c and beta_c take few distinct values (at most b^2 + 1 for a_c),
    so each distinct value is formatted once.
    """
    cx, cy = np.divmod(np.arange(report.part.n_small), report.part.small_side)
    cols = (cx.tolist(), cy.tolist(), _format_12g(report.a_c), _format_12g(report.beta_c),
            report.bad.astype(int).tolist(), report.extraordinary.astype(int).tolist())
    return "cube_x,cube_y,a_c,beta_c,bad,extraordinary\r\n" + "".join(
        f"{x},{y},{a},{b},{bad},{extra}\r\n" for x, y, a, b, bad, extra in zip(*cols)
    )
