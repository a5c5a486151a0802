"""Weighted undirected graphs, generators, statistics, and averages.

Weights are symmetric, nonnegative, with zero diagonal; every node must
have positive degree.  General graphs hold a scipy CSR matrix; scipy is
imported on the first CSR build, so lattices and copies load it only if
``weights`` is read.  Torus lattices and copies of complete graphs hold
their structure: ``_matvec``, the one neighbour-sum operator, uses a
growing-window stencil or block sums, which on pure profiles add the
integers the CSR matvec adds, so the fractions are bit-identical; float
sums agree to rounding.  ``_rows`` gives any network's neighbour rows
and weights (1.0 unless CSR); a structured network's CSR matrix is built
from them on first access to ``weights``.
Profiles are float arrays in [0, 1], or bool arrays for pure profiles:
the operators take their accumulator from the profile, so a bool one is
summed in integers (stencil, blocks) and gives its 0/1 copy's fractions.

Statistics follow the usual conventions for these games:

* fineness  d(g) = max_{ij} g_ij / g_i   (importance of a single neighbor),
* imbalance w(g) = max_i g_i / min_i g_i (degree inequality, 1 when balanced),
* weighted average Av(a) = sum_i g_i a_i / sum_i g_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Network",
    "LatticeSpec",
    "complete_graph",
    "disjoint_copies",
    "lattice",
    "lattice_ball_offsets",
    "fineness",
    "imbalance",
    "neighborhood_fractions",
    "weighted_average",
    "unweighted_average",
    "is_pure",
    "load_edgelist",
]


@dataclass(frozen=True)
class Network:
    """Symmetric weighted graph with cached degree statistics.

    ``structure`` is None for a CSR graph, the block size s for disjoint
    unit-weight complete graphs K_s, or the ``LatticeSpec`` of a torus
    lattice.  Immutable after construction apart from the lazily built
    ``weights``; safe for shared reads from concurrent replications.
    Profiles are owned per replication.
    """

    degrees: np.ndarray
    total_degree: float
    structure: LatticeSpec | int | None = None

    @classmethod
    def _from_degrees(cls, deg: np.ndarray, structure=None) -> "Network":
        if deg.size == 0 or np.any(deg <= 0):
            raise ValueError("a network needs at least one node, and every node positive degree g_i > 0")
        return cls(deg, float(deg.sum()), structure)

    @classmethod
    def from_weights(cls, W) -> "Network":
        import scipy.sparse as sp
        W = sp.csr_matrix(W, dtype=float)
        if not W.has_canonical_format:  # rows ascend without repeats, as the flips and the matvec add them
            W = W.copy()
            W.sum_duplicates()
        if W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.isfinite(W.data).all():
            raise ValueError("weights must be finite")
        if W.diagonal().any():
            raise ValueError("self-loops are not allowed (g_ii = 0)")
        asym = abs(W - W.T)
        if asym.nnz and asym.max() > 1e-12:
            raise ValueError("weights must be symmetric")
        if W.nnz and W.data.min() < 0:
            raise ValueError("weights must be nonnegative")
        g = cls._from_degrees(np.asarray(W.sum(axis=1)).ravel())
        g.__dict__["weights"] = W  # the cached_property's slot
        return g

    @cached_property
    def weights(self) -> sp.csr_matrix:
        """CSR weights; a structured network builds them from its sorted ``_rows`` on first access."""
        # On integers "stable" (timsort) gives the same order, 2-3x faster on these nearly ascending rows.
        cols = np.sort(_rows(self, np.arange(self.n))[0], axis=1, kind="stable")
        indptr = np.arange(0, cols.size + 1, cols.shape[1])
        import scipy.sparse as sp
        return sp.csr_matrix((np.ones(cols.size), cols.ravel(), indptr), shape=(self.n, self.n))

    @property
    def n(self) -> int:
        return self.degrees.size


@dataclass(frozen=True)
class LatticeSpec:
    """Torus lattice parameters: M^2 nodes at spacing 1/m, radius-1 balls."""

    M: int
    m: int

    def __post_init__(self):
        if self.m < 1 or self.M < self.m:
            raise ValueError("need M >= m >= 1")


def complete_graph(n: int) -> Network:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Network._from_degrees(np.full(n, float(n - 1)), n)


def disjoint_copies(g: Network, k: int) -> Network:
    """k disjoint copies of a complete graph (or of copies of one)."""
    if not isinstance(g.structure, int):
        raise ValueError("disjoint_copies copies complete graphs only")
    if k < 1:
        raise ValueError("k must be at least 1")
    return g if k == 1 else Network._from_degrees(np.tile(g.degrees, k), g.structure)


def lattice_ball_offsets(m: int) -> np.ndarray:
    """Integer offsets (dx, dy) != (0, 0) with dx^2 + dy^2 <= m^2."""
    r = np.arange(-m, m + 1)
    dx, dy = np.meshgrid(r, r, indexing="ij")
    keep = (dx * dx + dy * dy <= m * m) & ~((dx == 0) & (dy == 0))
    return np.stack([dx[keep], dy[keep]], axis=1)


def lattice(spec: LatticeSpec) -> Network:
    """(M, m)-lattice: nodes {0..M-1}^2, edges at torus distance <= 1.

    Node (x, y) has index x*M + y.  Requires M >= 3m so radius-1 balls do
    not wrap onto themselves.
    """
    M, m = spec.M, spec.m
    if M < 3 * m:
        raise ValueError("need M >= 3m so neighborhoods do not self-wrap")
    return Network._from_degrees(np.full(M * M, float(len(lattice_ball_offsets(m)))), spec)


@cache
def _torus_rows(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, Y, w), read-only: node (x, y) has the neighbours X[x] + Y[y], in ball-offset order, of weights w = 1."""
    dx, dy = lattice_ball_offsets(spec.m).T
    r = np.arange(spec.M)[:, None]
    X, Y, w = (r + dx) % spec.M * spec.M, (r + dy) % spec.M, np.ones(dx.size)
    X.flags.writeable = Y.flags.writeable = w.flags.writeable = False
    return X, Y, w


def _rows(g: Network, J) -> tuple[np.ndarray, np.ndarray]:
    """(cols, w): the neighbour ids of each node of J and their weights; an int J gives one row.

    Lattice rows follow the ball offsets and block rows ascend; their w is
    a row of 1.0 that broadcasts against cols.  A CSR network gives its
    stored rows, zero weights included, padded to J's longest row by
    repeating its last column with weight 0, so the padding adds zeros.
    """
    s = g.structure
    if isinstance(s, LatticeSpec):
        X, Y, w = _torus_rows(s)
        x, y = divmod(J, s.M)
        return X[x] + Y[y], w
    J = np.asarray(J)
    if s is None:
        W = g.weights
        start, stop = W.indptr[J], W.indptr[J + 1]
        pos = start[..., None] + np.arange(np.max(stop - start, initial=0))
        real = pos < stop[..., None]
        pos = np.minimum(pos, stop[..., None] - 1)
        return W.indices[pos], np.where(real, W.data[pos], 0.0)
    r, j = J % s, np.arange(s - 1)
    return (J - r)[..., None] + j + (j >= r[..., None]), np.ones(s - 1)


def _count_dtype(spec: LatticeSpec) -> type:
    """Smallest signed int type holding (2m+1)^2, which bounds a ball count and every partial sum."""
    return np.min_scalar_type(-((2 * spec.m + 1) ** 2) - 1).type


def _torus_sums(spec: LatticeSpec, a: np.ndarray) -> np.ndarray:
    """Sum of a over each node's radius-1 ball, center excluded.

    Column dy of the ball is the window |dx| <= h = isqrt(m^2 - dy^2).  The
    grid is wrapped by m on every side into one (M+2m)^2 buffer, written by
    slices.  One window V of it grows in place by two rows per h, and each
    column dy is added as a slice of V once V reaches its half-height.
    The accumulator follows the profile: float64, or ``_count_dtype`` for a
    bool profile, which is viewed as int8 when that is the count type;
    float64 sums of 0/1 terms are exact integers, so both agree.
    """
    M, m = spec.M, spec.m
    grid = a.reshape(M, M)
    acc = _count_dtype(spec) if a.dtype == bool else float
    if acc is np.int8:
        grid = grid.view(np.int8)
    p = np.empty((M + 2 * m, M + 2 * m), dtype=acc)
    p[m : m + M, m : m + M] = grid
    p[m : m + M, :m] = grid[:, M - m :]
    p[m : m + M, m + M :] = grid[:, :m]
    p[:m] = p[M : M + m]
    p[m + M :] = p[m : 2 * m]
    V = p[m : m + M].copy()
    sums = np.negative(p[m : m + M, m : m + M])
    for h in range(m + 1):
        if h:
            V += p[m - h : m - h + M]
            V += p[m + h : m + h + M]
        for dy in range(-m, m + 1):
            if math.isqrt(m * m - dy * dy) == h:
                sums += V[:, m + dy : m + dy + M]
    return sums.ravel()


def fineness(g: Network) -> float:
    """d(g) = max over pairs of g_ij / g_i (structured weights are 1)."""
    row_max = 1.0 if g.structure is not None else g.weights.max(axis=1).toarray().ravel()
    return float(np.max(row_max / g.degrees))


def imbalance(g: Network) -> float:
    """w(g) = max_i g_i / min_i g_i."""
    return float(g.degrees.max() / g.degrees.min())


def _check_profile(g: Network, a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.shape != (g.n,):
        raise ValueError(f"profile length {a.shape} does not match n={g.n}")
    return a


def is_pure(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=float)
    return bool(np.all((a == 0.0) | (a == 1.0)))


def _matvec(g: Network, x: np.ndarray) -> np.ndarray:
    """W @ x: the torus stencil, each block's sum less the node's own term, or the CSR matvec (see module doc)."""
    s = g.structure
    if isinstance(s, LatticeSpec):
        return _torus_sums(s, x)
    if s is not None:
        blocks = x.reshape(-1, s)
        return (blocks.sum(axis=1, keepdims=True) - blocks).ravel()
    return g.weights @ x


def neighborhood_fractions(g: Network, a: np.ndarray) -> np.ndarray:
    """beta_i = (1/g_i) sum_j g_ij a_j (a bool profile is summed as it is)."""
    a = np.asarray(a)
    return _matvec(g, _check_profile(g, a, bool if a.dtype == bool else float)) / g.degrees


def weighted_average(g: Network, a: np.ndarray) -> float:
    """Av(a) = sum_i g_i a_i / sum_i g_i."""
    a = _check_profile(g, a)
    return float(np.dot(g.degrees, a) / g.total_degree)


def unweighted_average(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("empty profile")
    return float(a.mean())


def load_edgelist(path) -> Network:
    lines = Path(path).read_text().strip().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "n":
        raise ValueError("edge list must start with a 'n <count>' header")
    n = int(head[1])
    rows, cols, data, seen = [], [], [], set()
    for line in lines[1:]:
        if not line.strip():
            continue
        i, j, w = line.split()
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge list node id out of range [0, {n}): {line!r}")
        if (min(i, j), max(i, j)) in seen:
            raise ValueError(f"edge list repeats an edge: {line!r}")
        seen.add((min(i, j), max(i, j)))
        rows += [i, j]
        cols += [j, i]
        data += [w, w]
    import scipy.sparse as sp
    W = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return Network.from_weights(W)
