"""Weighted undirected graphs, generators, statistics, and averages.

Weights are symmetric, nonnegative, with zero diagonal; every node must
have positive degree.  General graphs hold a scipy CSR matrix.  Torus
lattices and copies of complete graphs hold their structure: neighbor
sums come from a window-sum stencil or from block sums, which on pure
profiles add the integers the CSR matvec adds, so the fractions are
bit-identical; their CSR matrix is built on first access to ``weights``.
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
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

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
    "profile_metric",
    "eta_inclusion",
    "is_pure",
    "save_edgelist",
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
    sum_sq_degree: float
    structure: LatticeSpec | int | None = None

    @classmethod
    def _from_degrees(cls, deg: np.ndarray, structure=None) -> "Network":
        if np.any(deg <= 0):
            raise ValueError("every node needs positive degree g_i > 0")
        return cls(deg, float(deg.sum()), float(np.dot(deg, deg)), structure)

    @classmethod
    def from_weights(cls, W, validate: bool = True) -> "Network":
        W = sp.csr_matrix(W, dtype=float)
        if validate:
            if W.shape[0] != W.shape[1]:
                raise ValueError("weight matrix must be square")
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
        """CSR weights; a structured network builds them on first access."""
        if isinstance(self.structure, LatticeSpec):
            return _torus_csr(self.structure)
        # Row i of K_s lists the block's other nodes in ascending order:
        # column j of the row, shifted past the diagonal when j >= i mod s.
        s, n = self.structure, self.n
        index = np.int32 if n * (s - 1) < 2**31 else np.int64
        j = np.arange(s - 1, dtype=index)
        block = j + (j >= np.arange(s, dtype=index)[:, None])
        indices = (block[None] + np.arange(0, n, s, dtype=index)[:, None, None]).ravel()
        indptr = np.arange(0, n * (s - 1) + 1, s - 1, dtype=index)
        return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))

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
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return g
    if isinstance(g.structure, int):
        return Network._from_degrees(np.tile(g.degrees, k), g.structure)
    W = sp.block_diag([g.weights] * k, format="csr")
    return Network.from_weights(W, validate=False)


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


def _torus_csr(spec: LatticeSpec) -> sp.csr_matrix:
    M = spec.M
    xs, ys = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    cols = [(((xs + dx) % M) * M + (ys + dy) % M).ravel() for dx, dy in lattice_ball_offsets(spec.m)]
    rows = np.tile(np.arange(M * M), len(cols))
    return sp.csr_matrix((np.ones(rows.size), (rows, np.concatenate(cols))), shape=(M * M, M * M))


def _count_dtype(spec: LatticeSpec) -> type:
    """Smallest signed int type holding M + 2m (a padded column's prefix sum) and (2m+1)^2 (a ball count)."""
    bound = max(spec.M + 2 * spec.m, (2 * spec.m + 1) ** 2)
    return next(d for d in (np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max)


def _torus_sums(spec: LatticeSpec, a: np.ndarray) -> np.ndarray:
    """Sum of a over each node's radius-1 ball, center excluded.

    Column dy of the ball is the window |dx| <= isqrt(m^2 - dy^2); each
    window is a difference of column prefix sums of the wrap-padded grid.
    The accumulator follows the profile: float64, or ``_count_dtype`` for
    a bool profile.  Float64 sums of 0/1 terms are exact integers too, so
    both give the same sums; the integer pass moves 2- or 4-byte cells.
    """
    M, m = spec.M, spec.m
    grid = a.reshape(M, M)
    acc = _count_dtype(spec) if a.dtype == bool else float
    pre = np.zeros((M + 2 * m + 1, M + 2 * m), dtype=acc)
    np.cumsum(np.pad(grid, m, mode="wrap"), axis=0, dtype=acc, out=pre[1:])
    sums = np.negative(grid, dtype=acc)
    for dy in range(-m, m + 1):
        w = math.isqrt(m * m - dy * dy)
        cols = pre[:, m + dy : m + dy + M]
        sums += cols[m + w + 1 : m + w + 1 + M]
        sums -= cols[m - w : m - w + M]
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


def neighborhood_fractions(g: Network, a: np.ndarray) -> np.ndarray:
    """beta_i = (1/g_i) sum_j g_ij a_j (a bool profile is summed as it is)."""
    a = np.asarray(a)
    a = _check_profile(g, a, bool if a.dtype == bool else float)
    s = g.structure
    if isinstance(s, LatticeSpec):
        sums = _torus_sums(s, a)
    elif s is not None:
        blocks = a.reshape(-1, s)
        sums = (blocks.sum(axis=1, keepdims=True) - blocks).ravel()
    else:
        sums = g.weights @ a
    return sums / g.degrees


def weighted_average(g: Network, a: np.ndarray) -> float:
    """Av(a) = sum_i g_i a_i / sum_i g_i."""
    a = _check_profile(g, a)
    return float(np.dot(g.degrees, a) / g.total_degree)


def unweighted_average(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("empty profile")
    return float(a.mean())


def profile_metric(g: Network, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted Euclidean metric sqrt(sum g_i^2 (u_i - v_i)^2 / sum g_i^2)."""
    u = _check_profile(g, u)
    v = _check_profile(g, v)
    d = u - v
    return math.sqrt(float(np.dot(g.degrees**2, d * d)) / g.sum_sq_degree)


def eta_inclusion(A, B) -> float:
    """Smallest eta with A eta-included in B: max_{x in A} min_{y in B} |x-y|."""
    A = np.asarray(list(A), dtype=float)
    B = np.asarray(list(B), dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("eta_inclusion needs nonempty sets")
    return float(np.max(np.min(np.abs(A[:, None] - B[None, :]), axis=1)))


def save_edgelist(g: Network, path) -> None:
    """Text format: header 'n <count>' then 'i j w' triples, 0-indexed.

    Each undirected edge is written once (i < j), its weight as
    ``repr(float(w))`` so that loading gives back the same float.
    """
    W = sp.triu(g.weights, k=1).tocoo()
    lines = [f"n {g.n}"]
    order = np.lexsort((W.col, W.row))
    for i, j, w in zip(W.row[order], W.col[order], W.data[order]):
        lines.append(f"{i} {j} {float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_edgelist(path) -> Network:
    lines = Path(path).read_text().strip().splitlines()
    head = lines[0].split()
    if head[0] != "n":
        raise ValueError("edge list must start with a 'n <count>' header")
    n = int(head[1])
    rows, cols, data = [], [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        i, j, w = line.split()
        i, j, w = int(i), int(j), float(w)
        rows += [i, j]
        cols += [j, i]
        data += [w, w]
    W = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return Network.from_weights(W)
