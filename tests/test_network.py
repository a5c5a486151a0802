import numpy as np
import pytest
import scipy.sparse as sp

from netcoord.network import (
    LatticeSpec,
    Network,
    complete_graph,
    disjoint_copies,
    fineness,
    imbalance,
    lattice,
    lattice_ball_offsets,
    _count_dtype,
    _torus_sums,
    load_edgelist,
    neighborhood_fractions,
    unweighted_average,
    weighted_average,
)
from conftest import save_edgelist

def star(leaves: int) -> Network:
    n = leaves + 1
    W = np.zeros((n, n))
    W[0, 1:] = 1.0
    W[1:, 0] = 1.0
    return Network.from_weights(sp.csr_matrix(W))


def random_network(rng, n) -> Network:
    # Erdos-Renyi-ish with random weights; resample until connected enough
    # that every node has a neighbor.
    while True:
        W = rng.uniform(0, 1, size=(n, n))
        mask = rng.random((n, n)) < 0.6
        W = W * mask
        W = np.triu(W, 1)
        W = W + W.T
        if np.all(W.sum(axis=1) > 0):
            return Network.from_weights(sp.csr_matrix(W))


# ------------------------------------------------------------- generators


def test_complete_graph_small():
    g = complete_graph(3)
    assert np.allclose(g.degrees, 2.0)
    assert fineness(g) == 0.5


def test_complete_graph_fineness_formula():
    assert abs(fineness(complete_graph(101)) - 0.01) <= 1e-15


def test_complete_graph_two_nodes():
    g = complete_graph(2)
    assert g.n == 2
    assert fineness(g) == 1.0
    with pytest.raises(ValueError):
        complete_graph(1)


def test_disjoint_copies_identity():
    g = complete_graph(4)
    assert disjoint_copies(g, 1) is g


def test_disjoint_copies_block_structure():
    g = disjoint_copies(complete_graph(4), 3)
    assert g.n == 12
    assert np.allclose(g.degrees, 3.0)
    # No cross-copy edges.
    W = g.weights.toarray()
    assert W[0, 4] == 0.0 and W[5, 9] == 0.0


def test_disjoint_copies_preserve_stats(rng):
    for s in (2, 5, 9):
        g = complete_graph(s)
        for gk in (disjoint_copies(g, 3), disjoint_copies(disjoint_copies(g, 2), 3)):
            assert (imbalance(gk), fineness(gk)) == (imbalance(g), fineness(g))
    # Only complete graphs (and copies of them) are copied.
    for g in (random_network(rng, 6), lattice(LatticeSpec(M=6, m=2))):
        with pytest.raises(ValueError, match="complete graphs"):
            disjoint_copies(g, 3)


@pytest.mark.parametrize("s", [2, 3, 7])
@pytest.mark.parametrize("k", [1, 3])
def test_block_complete_csr_matches_dense_construction(s, k):
    W = disjoint_copies(complete_graph(s), k).weights
    block = sp.csr_matrix(np.ones((s, s)) - np.eye(s))
    want = block if k == 1 else sp.block_diag([block] * k, format="csr")
    assert W.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(W, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _torus_csr_oracle(spec: LatticeSpec) -> sp.csr_matrix:
    """The lattice CSR as it was built before rows: one COO entry per (node, ball offset)."""
    M = spec.M
    xs, ys = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    cols = [(((xs + dx) % M) * M + (ys + dy) % M).ravel() for dx, dy in lattice_ball_offsets(spec.m)]
    rows = np.tile(np.arange(M * M), len(cols))
    return sp.csr_matrix((np.ones(rows.size), (rows, np.concatenate(cols))), shape=(M * M, M * M))


def _copies_csr_oracle(s: int, n: int) -> sp.csr_matrix:
    """The K_s-copies CSR as it was built before rows: block index arithmetic."""
    index = np.int32 if n * (s - 1) < 2**31 else np.int64
    j = np.arange(s - 1, dtype=index)
    block = j + (j >= np.arange(s, dtype=index)[:, None])
    indices = (block[None] + np.arange(0, n, s, dtype=index)[:, None, None]).ravel()
    indptr = np.arange(0, n * (s - 1) + 1, s - 1, dtype=index)
    return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def _assert_same_csr(W, want):
    assert W.shape == want.shape and W.has_sorted_indices and want.has_sorted_indices
    for attr in ("indptr", "indices", "data"):
        got, ref = getattr(W, attr), getattr(want, attr)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("M,m", [(3, 1), (20, 1), (6, 2), (31, 2), (9, 3), (40, 3), (15, 5), (53, 5)])
def test_lattice_weights_equal_the_old_builder_bit_for_bit(M, m):
    _assert_same_csr(lattice(LatticeSpec(M, m)).weights, _torus_csr_oracle(LatticeSpec(M, m)))


@pytest.mark.parametrize("s,k", [(2, 1), (2, 7), (5, 3), (30, 4), (200, 1)])
def test_copies_weights_equal_the_old_builder_bit_for_bit(s, k):
    _assert_same_csr(disjoint_copies(complete_graph(s), k).weights, _copies_csr_oracle(s, s * k))


def test_lattice_degree_m2():
    g = lattice(LatticeSpec(M=10, m=2))
    # Offsets with k^2 + l^2 <= 4, excluding the origin.
    offs = lattice_ball_offsets(2)
    assert len(offs) == 12
    assert np.allclose(g.degrees, 12.0)
    assert abs(fineness(g) - 1.0 / 12.0) <= 1e-15


def test_lattice_degree_m1():
    g = lattice(LatticeSpec(M=9, m=1))
    assert np.allclose(g.degrees, 4.0)


def test_lattice_balanced():
    for M, m in ((9, 1), (12, 2), (15, 3)):
        g = lattice(LatticeSpec(M=M, m=m))
        assert imbalance(g) == 1.0


def test_lattice_symmetric_edges():
    g = lattice(LatticeSpec(M=12, m=2))
    W = g.weights
    assert (abs(W - W.T)).nnz == 0


def test_lattice_rejects_self_wrap():
    with pytest.raises(ValueError):
        lattice(LatticeSpec(M=5, m=2))


# ------------------------------------------------- structured operators


def _profiles(rng, n):
    """Pure profiles at several densities (all-0 and all-1 included)."""
    return [np.zeros(n), np.ones(n)] + [(rng.random(n) < p).astype(float) for p in (0.1, 0.5, 0.9)]


STRUCTURED = {
    f"lattice({M},{m})": (lambda M=M, m=m: lattice(LatticeSpec(M=M, m=m)))
    for M, m in [(300, 3), (200, 5), (120, 2), (60, 12), (90, 9), (6, 2), (9, 3), (31, 4), (20, 1), (15, 5)]
}
STRUCTURED["complete(2000)"] = lambda: complete_graph(2000)
STRUCTURED["copies(200x10)"] = lambda: disjoint_copies(complete_graph(200), 10)


@pytest.mark.parametrize("name", [*STRUCTURED, "weighted-csr(300)"])
def test_structured_fractions_match_csr(rng, name):
    # Bit for bit on pure profiles (the sums are exact integers), 1e-12 otherwise.
    # A bool profile gives the float profile's fractions bit for bit.
    g = STRUCTURED[name]() if name in STRUCTURED else random_network(rng, 300)
    csr = Network.from_weights(g.weights)
    assert np.array_equal(g.degrees, csr.degrees)
    assert g.total_degree == csr.total_degree
    for a in _profiles(rng, g.n):
        beta = neighborhood_fractions(g, a)
        assert np.array_equal(beta, neighborhood_fractions(csr, a))
        exact = neighborhood_fractions(g, a == 1.0)
        assert exact.dtype == np.float64 and np.array_equal(exact, beta)
    for _ in range(3):
        a = rng.random(g.n)
        assert np.max(np.abs(neighborhood_fractions(g, a) - neighborhood_fractions(csr, a))) <= 1e-12


def test_stencil_accumulator_follows_the_profile():
    # The ball count (2m + 1)^2 bounds every partial sum, whatever M is; no grid is allocated.
    assert _count_dtype(LatticeSpec(M=2**31 - 2, m=1)) is np.int8
    assert _count_dtype(LatticeSpec(M=300, m=5)) is np.int8  # 121 <= 127
    assert _count_dtype(LatticeSpec(M=300, m=6)) is np.int16  # 169 > 127
    assert _count_dtype(LatticeSpec(M=300, m=90)) is np.int16
    assert _count_dtype(LatticeSpec(M=300, m=91)) is np.int32
    assert _count_dtype(LatticeSpec(M=10**5, m=23169)) is np.int32
    assert _count_dtype(LatticeSpec(M=10**5, m=23170)) is np.int64
    full = _torus_sums(LatticeSpec(M=270, m=90), np.ones(270 * 270, dtype=bool))
    assert full.dtype == np.int16 and (full == len(lattice_ball_offsets(90))).all()
    spec = LatticeSpec(M=12, m=2)
    a = np.arange(144) % 3 == 0
    assert _torus_sums(spec, a).dtype == np.int8
    assert _torus_sums(spec, a.astype(float)).dtype == np.float64


@pytest.mark.parametrize("M,m", [(3, 1), (15, 5), (18, 6), (40, 2)])
def test_bool_stencil_counts_equal_csr_counts(rng, M, m):
    # int8 counts for m <= 5, int16 at m = 6; the wrap border is written by slices.
    spec = LatticeSpec(M=M, m=m)
    W = lattice(spec).weights
    ball = len(lattice_ball_offsets(m))
    profiles = [np.zeros(M * M, bool), np.ones(M * M, bool)] + [rng.random(M * M) < p for p in (0.1, 0.5, 0.9)]
    for a in profiles:
        sums = _torus_sums(spec, a)
        assert sums.dtype == _count_dtype(spec)
        assert np.array_equal(sums, W @ a.astype(float))
    assert (_torus_sums(spec, profiles[1]) == ball).all()


def test_structured_statistics_equal_csr_values():
    for g in (
        complete_graph(2),
        complete_graph(101),
        disjoint_copies(complete_graph(7), 4),
        lattice(LatticeSpec(M=12, m=2)),
        lattice(LatticeSpec(M=60, m=12)),
    ):
        fine, imb = fineness(g), imbalance(g)
        assert "weights" not in g.__dict__
        csr = Network.from_weights(g.weights)
        assert (fine, imb) == (fineness(csr), imbalance(csr))
        assert fine == 1.0 / g.degrees[0] and imb == 1.0


# ------------------------------------------------------------- statistics


def test_star_fineness_and_imbalance():
    g = star(3)
    assert fineness(g) == 1.0
    assert imbalance(g) == 3.0


def test_weighted_average_star():
    g = star(3)
    a = np.array([1.0, 0.0, 0.0, 0.0])
    assert weighted_average(g, a) == 0.5


def test_weighted_average_balanced_is_mean(rng):
    g = complete_graph(6)
    a = rng.uniform(0, 1, 6)
    assert abs(weighted_average(g, a) - a.mean()) <= 1e-12
    assert abs(unweighted_average(a) - a.mean()) <= 1e-15


def test_unweighted_average_basic():
    assert unweighted_average(np.array([1.0, 0.0])) == 0.5
    assert unweighted_average(np.full(7, 0.3)) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        unweighted_average(np.array([]))


# --------------------------------------------------- neighborhood fractions


def test_fractions_constant_profile(rng):
    g = random_network(rng, 8)
    beta = neighborhood_fractions(g, np.full(8, 0.37))
    assert np.allclose(beta, 0.37)


def test_fractions_two_node():
    g = complete_graph(2)
    beta = neighborhood_fractions(g, np.array([1.0, 0.0]))
    assert np.allclose(beta, [0.0, 1.0])


def test_fractions_complete_four():
    g = complete_graph(4)
    beta = neighborhood_fractions(g, np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(beta, [1 / 3, 1 / 3, 2 / 3, 2 / 3])


def test_averages_identity_lemma(rng):
    # Av(a) = Av(beta^a) for all graphs and profiles.
    for _ in range(50):
        n = int(rng.integers(3, 12))
        g = random_network(rng, n)
        a = rng.uniform(0, 1, n)
        beta = neighborhood_fractions(g, a)
        assert abs(weighted_average(g, a) - weighted_average(g, beta)) <= 1e-12


def test_lipschitz_averages_through_staircase(rng):
    # For a staircase of gamma*x + c with gamma < 1, the averaged image
    # contracts up to the staircase slack.
    from netcoord.game import additive_game

    slack = 0.01
    P = additive_game(0.5, 1.25, max_step=slack)  # the staircase of 0.8x + 0.1
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_network(rng, n)
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        lhs = abs(weighted_average(g, P.eval_array(a)) - weighted_average(g, P.eval_array(b)))
        rhs = abs(weighted_average(g, a) - weighted_average(g, b))
        assert lhs <= rhs + slack


# ------------------------------------------------------------------- file IO


def test_edgelist_round_trip(tmp_path, rng):
    W = random_network(rng, 9).weights.toarray()
    W[0, 1] = W[1, 0] = 1.0 / 3.0  # needs 17 digits to come back exactly
    g = Network.from_weights(sp.csr_matrix(W))
    p = tmp_path / "g.edges"
    save_edgelist(g, p)
    h = load_edgelist(p)
    assert (g.weights != h.weights).nnz == 0
    assert h.weights[0, 1] == 1.0 / 3.0
    assert p.read_text().startswith("n 9\n")


def test_network_rejects_non_finite_weights(tmp_path):
    for bad in (np.nan, np.inf):
        W = np.ones((3, 3)) - np.eye(3)
        W[0, 1] = W[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Network.from_weights(sp.csr_matrix(W))
    p = tmp_path / "g.edges"
    p.write_text("n 3\n0 1 1.0\n1 2 nan\n0 2 1.0\n")
    with pytest.raises(ValueError, match="finite"):
        load_edgelist(p)


def test_edgelist_rejects_a_repeated_edge(tmp_path):
    p = tmp_path / "g.edges"
    for repeat in ("1 0 1.0", "0 1 2.0"):
        p.write_text(f"n 3\n0 1 1.0\n{repeat}\n1 2 1.0\n")
        with pytest.raises(ValueError, match="repeats an edge"):
            load_edgelist(p)


def test_network_validation():
    W = np.zeros((3, 3))
    W[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        Network.from_weights(sp.csr_matrix(W))
    W = np.eye(3)
    with pytest.raises(ValueError):
        Network.from_weights(sp.csr_matrix(W))
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0  # node 2 isolated
    with pytest.raises(ValueError):
        Network.from_weights(sp.csr_matrix(W))
