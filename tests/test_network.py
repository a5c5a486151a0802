import numpy as np
import pytest
import scipy.sparse as sp

from netcoord.network import (
    LatticeSpec,
    Network,
    complete_graph,
    disjoint_copies,
    eta_inclusion,
    fineness,
    imbalance,
    lattice,
    lattice_ball_offsets,
    _count_dtype,
    _torus_sums,
    load_edgelist,
    neighborhood_fractions,
    profile_metric,
    save_edgelist,
    unweighted_average,
    weighted_average,
)

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
    for _ in range(20):
        g = random_network(rng, 6)
        gk = disjoint_copies(g, 3)
        assert abs(imbalance(gk) - imbalance(g)) <= 1e-12
        assert abs(fineness(gk) - fineness(g)) <= 1e-12


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
    for M, m in [(300, 3), (200, 5), (120, 2), (60, 12), (90, 9)]
}
STRUCTURED["complete(2000)"] = lambda: complete_graph(2000)
STRUCTURED["copies(200x10)"] = lambda: disjoint_copies(complete_graph(200), 10)


@pytest.mark.parametrize("name", [*STRUCTURED, "weighted-csr(300)"])
def test_structured_fractions_match_csr(rng, name):
    # Bit for bit on pure profiles (the sums are exact integers), 1e-12 otherwise.
    # A bool profile gives the float profile's fractions bit for bit.
    g = STRUCTURED[name]() if name in STRUCTURED else random_network(rng, 300)
    csr = Network.from_weights(g.weights, validate=False)
    assert np.array_equal(g.degrees, csr.degrees)
    assert (g.total_degree, g.sum_sq_degree) == (csr.total_degree, csr.sum_sq_degree)
    for a in _profiles(rng, g.n):
        beta = neighborhood_fractions(g, a)
        assert np.array_equal(beta, neighborhood_fractions(csr, a))
        exact = neighborhood_fractions(g, a == 1.0)
        assert exact.dtype == np.float64 and np.array_equal(exact, beta)
    for _ in range(3):
        a = rng.random(g.n)
        assert np.max(np.abs(neighborhood_fractions(g, a) - neighborhood_fractions(csr, a))) <= 1e-12


def test_stencil_accumulator_follows_the_profile():
    # int16 holds M + 2m and the ball count (2m + 1)^2 up to 32767; no grid is allocated.
    assert _count_dtype(LatticeSpec(M=32765, m=1)) is np.int16
    assert _count_dtype(LatticeSpec(M=32766, m=1)) is np.int32
    assert _count_dtype(LatticeSpec(M=300, m=90)) is np.int16
    assert _count_dtype(LatticeSpec(M=300, m=91)) is np.int32
    assert _count_dtype(LatticeSpec(M=2**31 - 3, m=1)) is np.int32
    assert _count_dtype(LatticeSpec(M=2**31 - 2, m=1)) is np.int64
    spec = LatticeSpec(M=12, m=2)
    a = np.arange(144) % 3 == 0
    assert _torus_sums(spec, a).dtype == np.int16
    assert _torus_sums(spec, a.astype(float)).dtype == np.float64


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
        csr = Network.from_weights(g.weights, validate=False)
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
    from netcoord.stepfn import step_approximate

    gamma, c, slack = 0.8, 0.1, 0.01
    P = step_approximate(lambda x: gamma * x + c, max_step=slack, direction="above")
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_network(rng, n)
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        lhs = abs(weighted_average(g, P.eval_array(a)) - weighted_average(g, P.eval_array(b)))
        rhs = abs(weighted_average(g, a) - weighted_average(g, b))
        assert lhs <= rhs + slack


# ------------------------------------------------------------ profile metric


def test_metric_identity(rng):
    g = random_network(rng, 7)
    u = rng.uniform(0, 1, 7)
    assert profile_metric(g, u, u) == 0.0


def test_metric_full_separation_balanced():
    g = complete_graph(9)
    assert abs(profile_metric(g, np.ones(9), np.zeros(9)) - 1.0) <= 1e-12


def test_metric_axioms(rng):
    for _ in range(100):
        n = int(rng.integers(3, 9))
        g = random_network(rng, n)
        u, v, w = rng.uniform(0, 1, (3, n))
        duv = profile_metric(g, u, v)
        dvu = profile_metric(g, v, u)
        assert abs(duv - dvu) <= 1e-15
        assert duv >= 0.0
        assert duv <= profile_metric(g, u, w) + profile_metric(g, w, v) + 1e-12


def test_average_vs_metric_inequality(rng):
    # |Av(u) - Av(v)| <= sqrt(w(g)) * d(u, v).
    for _ in range(100):
        n = int(rng.integers(3, 9))
        g = random_network(rng, n)
        u, v = rng.uniform(0, 1, (2, n))
        lhs = abs(weighted_average(g, u) - weighted_average(g, v))
        rhs = np.sqrt(imbalance(g)) * profile_metric(g, u, v)
        assert lhs <= rhs + 1e-12


# -------------------------------------------------------------- eta inclusion


def test_eta_inclusion_subset():
    assert eta_inclusion([0.2, 0.4], [0.1, 0.2, 0.4]) == 0.0


def test_eta_inclusion_extremes():
    assert eta_inclusion([0.0, 1.0], [0.5]) == 0.5


def test_eta_inclusion_brute_force():
    A, B = [0.1, 0.9], [0.2, 0.85]
    want = max(min(abs(x - y) for y in B) for x in A)
    assert eta_inclusion(A, B) == pytest.approx(want)
    assert eta_inclusion(A, B) == pytest.approx(0.1)


def test_eta_inclusion_empty_error():
    with pytest.raises(ValueError):
        eta_inclusion([], [0.5])


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
