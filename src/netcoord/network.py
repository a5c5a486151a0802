"""Weighted undirected graphs, generators, statistics, and averages.

Weights are held in a scipy CSR matrix with symmetric nonnegative
entries and zero diagonal; every node must have positive degree.
Profiles are plain float arrays with entries in [0, 1].

Statistics follow the usual conventions for these games:

* fineness  d(g) = max_{ij} g_ij / g_i   (importance of a single neighbor),
* imbalance w(g) = max_i g_i / min_i g_i (degree inequality, 1 when balanced),
* weighted average Av(a) = sum_i g_i a_i / sum_i g_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    Immutable after construction; safe for shared reads from concurrent
    replications.  Profiles are owned per replication.
    """

    weights: sp.csr_matrix
    degrees: np.ndarray
    total_degree: float
    sum_sq_degree: float

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
        deg = np.asarray(W.sum(axis=1)).ravel()
        if np.any(deg <= 0):
            raise ValueError("every node needs positive degree g_i > 0")
        return cls(
            weights=W,
            degrees=deg,
            total_degree=float(deg.sum()),
            sum_sq_degree=float(np.dot(deg, deg)),
        )

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LatticeSpec:
    """Torus lattice parameters: M^2 nodes at spacing 1/m, radius-1 balls."""

    M: int
    m: int

    def __post_init__(self):
        if self.m < 1 or self.M < self.m:
            raise ValueError("need M >= m >= 1")

    @property
    def torus_side(self) -> float:
        return self.M / self.m


def complete_graph(n: int) -> Network:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    W = np.ones((n, n)) - np.eye(n)
    return Network.from_weights(sp.csr_matrix(W))


def disjoint_copies(g: Network, k: int) -> Network:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return g
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
    offsets = lattice_ball_offsets(m)
    xs, ys = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    base = (xs * M + ys).ravel()
    rows = []
    cols = []
    for dx, dy in offsets:
        tx = (xs + dx) % M
        ty = (ys + dy) % M
        rows.append(base)
        cols.append((tx * M + ty).ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.ones(rows.size)
    W = sp.csr_matrix((data, (rows, cols)), shape=(M * M, M * M))
    return Network.from_weights(W, validate=False)


def fineness(g: Network) -> float:
    """d(g) = max over pairs of g_ij / g_i."""
    row_max = g.weights.max(axis=1).toarray().ravel()
    return float(np.max(row_max / g.degrees))


def imbalance(g: Network) -> float:
    """w(g) = max_i g_i / min_i g_i."""
    return float(g.degrees.max() / g.degrees.min())


def _check_profile(g: Network, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (g.n,):
        raise ValueError(f"profile length {a.shape} does not match n={g.n}")
    return a


def is_pure(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=float)
    return bool(np.all((a == 0.0) | (a == 1.0)))


def neighborhood_fractions(g: Network, a: np.ndarray) -> np.ndarray:
    """beta_i = (1/g_i) sum_j g_ij a_j."""
    a = _check_profile(g, a)
    return (g.weights @ a) / g.degrees


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
