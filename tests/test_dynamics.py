import math

import numpy as np
import pytest
import scipy.sparse as sp

from netcoord.dynamics import (
    DynamicsTrace,
    _FlipState,
    _thresholds,
    audit_main_bound,
    capacity,
    capacity_decrement_check,
    capacity_simple,
    enumerate_equilibria,
    extremal_equilibria,
    largest_equilibrium,
    initial_profile,
    lower_closure,
    lower_dynamics,
    upper_closure,
    upper_dynamics,
)
import netcoord.dynamics
from netcoord.game import best_response_array, sample_shocks
from netcoord.network import (
    LatticeSpec,
    Network,
    _torus_sums,
    complete_graph,
    disjoint_copies,
    lattice,
    is_pure,
    load_edgelist,
    neighborhood_fractions,
)
from netcoord.stepfn import StepFn, ru_dominant
from conftest import random_stepfn


def is_equilibrium(g, t, a, tie) -> bool:
    """True iff every agent's pure action equals her best response under tie."""
    a = np.asarray(a, dtype=float)
    if not is_pure(a):
        raise ValueError("is_equilibrium expects a pure profile")
    beta = neighborhood_fractions(g, a == 1.0)
    return bool(np.array_equal(best_response_array(_thresholds(t, g.n), beta, tie), a))


def shocks_of(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


def two_node() -> Network:
    return complete_graph(2)


def random_instance(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    while True:
        W = (rng.random((n, n)) < 0.7).astype(float) * rng.uniform(0.2, 1.0, (n, n))
        W = np.triu(W, 1)
        W = W + W.T
        if np.all(W.sum(axis=1) > 0):
            break
    g = Network.from_weights(sp.csr_matrix(W))
    P = random_stepfn(rng)
    shocks = sample_shocks(P, n, seed=int(rng.integers(1 << 31)))
    return g, P, shocks


# -------------------------------------------------------------- equilibrium


def test_is_equilibrium_two_node_cases():
    g = two_node()
    s = shocks_of([0.5, 0.5])
    assert is_equilibrium(g, s, np.array([1.0, 1.0]), "upper")
    assert is_equilibrium(g, s, np.array([0.0, 0.0]), "upper")
    assert not is_equilibrium(g, s, np.array([1.0, 0.0]), "upper")


def test_is_equilibrium_rejects_mixed():
    g = two_node()
    with pytest.raises(ValueError):
        is_equilibrium(g, shocks_of([0.5, 0.5]), np.array([0.5, 0.5]), "upper")


def test_nan_threshold_rejected_at_every_entry_point():
    # Unchecked, a NaN threshold would play 0 under both tie rules.
    g, t, P = two_node(), shocks_of([0.5, math.nan]), StepFn(0.5)
    trace = upper_dynamics(g, shocks_of([0.5, 0.5]), np.zeros(2))
    calls = [
        lambda: is_equilibrium(g, t, np.zeros(2), "upper"),
        lambda: upper_dynamics(g, t, np.zeros(2)),
        lambda: lower_dynamics(g, t, np.ones(2)),
        lambda: upper_closure(g, t, np.zeros(2)),
        lambda: initial_profile(P, 0.5, t, seed=0),
        lambda: extremal_equilibria(g, t),
        lambda: enumerate_equilibria(g, t, "upper"),
        lambda: audit_main_bound(g, t, P, 0.5, trace),
        lambda: capacity_decrement_check(g, t, trace),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="NaN"):
            call()


# ----------------------------------------------------------- upper dynamics


def test_upper_dynamics_no_flip():
    g = two_node()
    tr = upper_dynamics(g, shocks_of([0.4, 0.6]), np.zeros(2))
    assert tr.n_steps == 0
    assert np.array_equal(tr.final_profile, [0.0, 0.0])


def test_upper_dynamics_single_flip():
    g = two_node()
    tr = upper_dynamics(g, shocks_of([0.4, 0.6]), np.array([1.0, 0.0]))
    assert tr.n_steps == 1
    assert tr.agents.tolist() == [1]
    assert np.array_equal(tr.final_profile, [1.0, 1.0])


def test_upper_dynamics_order_independence(rng):
    for _ in range(50):
        g, P, shocks = random_instance(rng)
        a0 = (rng.random(g.n) < 0.4).astype(float)
        by_index = upper_dynamics(g, shocks, a0)
        # Min-index revision on a relabelled copy is a random revision
        # order on g: new label k is node perm[k].
        perm = rng.permutation(g.n)
        g_perm = Network.from_weights(g.weights[perm][:, perm])
        by_perm = upper_dynamics(g_perm, shocks_of(shocks[perm]), a0[perm])
        by_random = np.empty(g.n)
        by_random[perm] = by_perm.final_profile
        sync = upper_closure(g, shocks, a0)
        # Each agent flips at most once, so a run ends within n flips.
        assert np.unique(by_index.agents).size == by_index.n_steps <= g.n
        assert np.array_equal(by_index.final_profile, by_random)
        assert np.array_equal(by_index.final_profile, sync)


def test_upper_dynamics_monotone_beta(rng):
    g, P, shocks = random_instance(rng, n_max=8)
    a0 = np.zeros(g.n)
    a0[: g.n // 2] = 1.0
    tr = upper_dynamics(g, shocks, a0)
    # Replay: beta is nondecreasing agent-wise and moves by at most d(g).
    from netcoord.network import fineness

    a = a0.copy()
    beta_prev = neighborhood_fractions(g, a)
    for i in tr.agents:
        a[i] = 1.0
        beta_now = neighborhood_fractions(g, a)
        assert np.all(beta_now >= beta_prev - 1e-12)
        assert np.max(np.abs(beta_now - beta_prev)) <= fineness(g) + 1e-12
        beta_prev = beta_now


def test_upper_from_zeros_positive_thresholds_never_flips(rng):
    for _ in range(20):
        g, P, shocks = random_instance(rng)
        t = np.maximum(shocks, 1e-6)
        tr = upper_dynamics(g, shocks_of(t), np.zeros(g.n))
        assert tr.n_steps == 0


# ----------------------------------------------------------- lower dynamics


def test_lower_dynamics_stable_profile():
    g = two_node()
    tr = lower_dynamics(g, shocks_of([0.4, 0.6]), np.ones(2))
    assert tr.n_steps == 0
    assert np.array_equal(tr.final_profile, [1.0, 1.0])


def test_lower_dynamics_dominant_zero_flips_all():
    g = two_node()
    tr = lower_dynamics(g, shocks_of([math.inf, math.inf]), np.ones(2))
    assert tr.n_steps == 2
    assert np.array_equal(tr.final_profile, [0.0, 0.0])


def test_lower_upper_mirror_symmetry(rng):
    # Relabeling actions maps lower dynamics onto upper dynamics with
    # thresholds 1 - t (interior types only) and tie rules swapped.
    for _ in range(50):
        n = int(rng.integers(2, 9))
        W = (rng.random((n, n)) < 0.8).astype(float)
        W = np.triu(W, 1)
        W = W + W.T
        if np.any(W.sum(axis=1) == 0):
            continue
        g = Network.from_weights(sp.csr_matrix(W))
        t = rng.uniform(0.01, 0.99, n)  # interior: markers map differently
        a0 = (rng.random(n) < 0.5).astype(float)
        low = lower_dynamics(g, shocks_of(t), a0)
        mirrored = upper_dynamics(g, shocks_of(1.0 - t), 1.0 - a0)
        assert np.array_equal(low.final_profile, 1.0 - mirrored.final_profile)


def test_sandwich_is_equilibrium(rng):
    # lower dynamics from the upper limit lands on an equilibrium between
    # the one-sided limits.
    for _ in range(30):
        g, P, shocks = random_instance(rng)
        a0 = initial_profile(P, 0.3, shocks, seed=1) if P.eval_left(0.3) <= 0.3 else np.zeros(g.n)
        up = upper_dynamics(g, shocks, a0)
        down = lower_dynamics(g, shocks, up.final_profile)
        mid = down.final_profile
        assert is_equilibrium(g, shocks, mid, "lower")
        low_limit = lower_dynamics(g, shocks, a0).final_profile
        assert np.all(mid <= up.final_profile + 1e-12)
        assert np.all(mid >= low_limit - 1e-12)


# ---------------------------------------------------------- initial profile


def test_initial_profile_atom_probability():
    P = StepFn(base=0.3, steps=((0.5, 0.7),))
    # mass below x*=0.5 is 0.3, atom mass 0.4; randomization makes the
    # expectation exactly x*.
    t = np.array([0.0, 0.5, 0.5, math.inf])
    shocks = shocks_of(t)
    counts = []
    for seed in range(4000):
        a = initial_profile(P, 0.5, shocks, seed=seed)
        assert a[0] == 1.0 and a[3] == 0.0
        counts.append(a[1] + a[2])
    # p = (0.5 - 0.3) / 0.4 = 0.5.
    assert abs(np.mean(counts) / 2.0 - 0.5) <= 0.03


def test_initial_profile_mean_matches_x_star(rng):
    # E a_i^0 = x* exactly; empirical mean concentrates there.
    P = StepFn(base=0.3, steps=((0.5, 0.7),))
    n = 40_000
    shocks = sample_shocks(P, n, seed=77)
    a = initial_profile(P, 0.5, shocks, seed=78)
    assert abs(a.mean() - 0.5) <= 3.0 / math.sqrt(n)


def test_initial_profile_no_atom_deterministic(rng):
    n = 64
    pos = np.arange(n) / n
    vals = (np.arange(n) + 0.5) / n
    P = StepFn.from_grid(pos.tolist(), vals.tolist())
    shocks = sample_shocks(P, 10_000, seed=5)
    x_star = 0.37  # not a breakpoint: no atom
    a1 = initial_profile(P, x_star, shocks, seed=1)
    a2 = initial_profile(P, x_star, shocks, seed=2)
    assert np.array_equal(a1, a2)
    assert abs(a1.mean() - x_star) <= 3.0 / math.sqrt(10_000)


def test_initial_profile_all_below():
    # A draw in which every threshold lands below x* gives all ones.
    P = StepFn(base=0.3, steps=((0.5, 0.7),))
    shocks = shocks_of([0.0, 0.0, 0.0])
    a = initial_profile(P, 0.5, shocks, seed=0)
    assert np.array_equal(a, [1.0, 1.0, 1.0])


def test_initial_profile_rejects_left_mass_above():
    P = StepFn(1.0)
    with pytest.raises(ValueError):
        initial_profile(P, 0.5, shocks_of([0.0, 0.0]), seed=0)


# ------------------------------------------------------- extremal equilibria


def test_extremal_two_node():
    g = two_node()
    largest, smallest = extremal_equilibria(g, shocks_of([0.5, 0.5]))
    assert np.array_equal(largest, [1.0, 1.0])
    assert np.array_equal(smallest, [0.0, 0.0])


def test_extremal_all_dominant_zero():
    g = two_node()
    largest, smallest = extremal_equilibria(g, shocks_of([math.inf, math.inf]))
    assert np.array_equal(largest, [0.0, 0.0])
    assert np.array_equal(smallest, [0.0, 0.0])


def test_extremal_matches_enumeration(rng):
    for _ in range(200):
        g, P, shocks = random_instance(rng, n_max=8)
        largest, smallest = extremal_equilibria(g, shocks)
        upper_all = enumerate_equilibria(g, shocks, "upper")
        lower_all = enumerate_equilibria(g, shocks, "lower")
        assert upper_all.size and lower_all.size
        assert np.array_equal(largest, upper_all.max(axis=0))
        assert np.array_equal(smallest, lower_all.min(axis=0))


@pytest.mark.parametrize("seed", range(5))
def test_structured_enumeration_equals_its_csr_copy(seed):
    # The dense W comes from each network's rows; thresholds on the count
    # grid k/g put agents at ties, so both tie rules are exercised.
    rng = np.random.default_rng(seed)
    for g in (lattice(LatticeSpec(3, 1)), lattice(LatticeSpec(4, 1)), disjoint_copies(complete_graph(4), 4),
              complete_graph(12)):
        d = int(g.degrees[0])
        t = np.where(rng.random(g.n) < 0.5, rng.integers(0, d + 1, g.n) / d, rng.random(g.n))
        for tie in ("upper", "lower"):
            got = enumerate_equilibria(g, t, tie)
            assert got.size and np.array_equal(got, enumerate_equilibria(Network.from_weights(g.weights), t, tie))


def test_largest_equilibrium_returns_its_beta(rng):
    # The largest of the extremal pair, with beta = Wa/g of it bit for bit.
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    g = lattice(LatticeSpec(M=20, m=2))
    cases = [(g, sample_shocks(P, g.n, seed=s)) for s in range(3)]
    cases += [(g, t) for g, _, t in (random_instance(rng) for _ in range(20))]
    for g, t in cases:
        a, beta = largest_equilibrium(g, t)
        assert a.dtype == np.float64 and np.array_equal(a, extremal_equilibria(g, t)[0])
        assert np.array_equal(beta, neighborhood_fractions(g, a))


def test_closures_on_bool_profiles_return_float_limits(rng):
    # The sweeps run on bool profiles; the limits come back as float64 and
    # equal the async limits, on a lattice whose fractions k/12 sit on the
    # game's breakpoints and on weighted CSR graphs.
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    g = lattice(LatticeSpec(M=20, m=2))
    cases = [(g, sample_shocks(P, g.n, seed=s)) for s in range(3)]
    cases += [(g, t) for g, _, t in (random_instance(rng) for _ in range(20))]
    for g, t in cases:
        a0 = (rng.random(g.n) < 0.4).astype(float)
        for closure, dynamics in ((upper_closure, upper_dynamics), (lower_closure, lower_dynamics)):
            limit = closure(g, t, a0)
            assert limit.dtype == np.float64
            assert np.array_equal(limit, dynamics(g, t, a0).final_profile)
        # Sweeps on the float profile are the oracle for the extremal pair.
        want = []
        for a, tie, step in ((np.ones(g.n), "upper", np.minimum), (np.zeros(g.n), "lower", np.maximum)):
            while not np.array_equal(new := step(a, best_response_array(t, neighborhood_fractions(g, a), tie)), a):
                a = new
            want.append(a)
        for got, a in zip(extremal_equilibria(g, t), want):
            assert got.dtype == np.float64 and np.array_equal(got, a)


def test_closures_reject_a_mixed_start():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="pure"):
        upper_closure(g, shocks_of([0.5, 0.5, 0.5]), np.array([0.0, 0.5, 1.0]))


# --------------------------------------------------------------- enumeration


def _sweep_count(g, t):
    def sweeps(a, tie, step):
        count = 1
        while not np.array_equal(new := step(a, best_response_array(t, neighborhood_fractions(g, a), tie)), a):
            a, count = new, count + 1
        return count

    return sweeps(np.ones(g.n), "upper", np.minimum) + sweeps(np.zeros(g.n), "lower", np.maximum)


def test_extremal_computes_one_beta_per_sweep(monkeypatch):
    # The equilibrium checks reuse each closure's last beta: on the count
    # path, one stencil pass of integer counts per sweep and no fractions.
    g = lattice(LatticeSpec(M=20, m=2))
    t = sample_shocks(StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9))), g.n, seed=3)
    want = _sweep_count(g, t)
    calls = []
    monkeypatch.setattr(netcoord.dynamics, "_torus_sums", lambda s, a: calls.append(a.dtype) or _torus_sums(s, a))
    monkeypatch.setattr(netcoord.dynamics, "neighborhood_fractions", lambda g, a: pytest.fail("fractions pass"))
    extremal_equilibria(g, t)
    assert want > 2 and calls == [np.dtype(bool)] * want


def test_csr_closures_compute_one_fraction_pass_per_sweep(monkeypatch):
    # Real-valued weights keep the float path: one matvec per sweep.
    g = Network.from_weights(lattice(LatticeSpec(M=20, m=2)).weights)
    t = sample_shocks(StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9))), g.n, seed=3)
    want = _sweep_count(g, t)
    calls = []
    monkeypatch.setattr(
        netcoord.dynamics, "neighborhood_fractions", lambda g, a: calls.append(1) or neighborhood_fractions(g, a)
    )
    extremal_equilibria(g, t)
    assert want > 2 and len(calls) == want


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_count_closures_match_the_csr_float_path(rng, monkeypatch, m):
    # Thresholds on the levels c/g and their neighbours, DOMINANT_1,
    # negatives and +inf: the count path's limits, beta bits and sweep
    # counts equal those of the same lattice held as a CSR matrix
    # (int8 counts up to m = 5, int16 at m = 8).
    g = lattice(LatticeSpec(M=max(3 * m, 15), m=m))
    csr = Network.from_weights(g.weights)
    deg = int(g.degrees[0])
    levels = np.arange(deg + 1) / deg
    pool = np.concatenate([levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf), [-0.5, 0.0, np.inf]])
    passes, sweeps = [], []
    for name in ("_torus_sums", "neighborhood_fractions"):
        op = getattr(netcoord.dynamics, name)
        monkeypatch.setattr(netcoord.dynamics, name, lambda g, a, op=op, name=name: passes.append(name) or op(g, a))
    for _ in range(3):
        t = rng.choice(pool, g.n, p=np.r_[np.full(pool.size - 3, 0.94 / (pool.size - 3)), 0.02, 0.02, 0.02])
        for tie, up in (("upper", False), ("upper", True), ("lower", True), ("lower", False)):
            a0 = np.zeros(g.n) if up else np.ones(g.n)
            passes.clear()
            a, beta = netcoord.dynamics._closure(g, t, a0, tie, up)
            sweeps.append(len(passes))
            a_csr, beta_csr = netcoord.dynamics._closure(csr, t, a0, tie, up)
            assert passes == ["_torus_sums"] * sweeps[-1] + ["neighborhood_fractions"] * sweeps[-1]
            assert np.array_equal(a, a_csr) and np.array_equal(beta.view(np.int64), beta_csr.view(np.int64))
    assert max(sweeps) > 2


def test_enumerate_two_node_indifferent():
    g = two_node()
    eqs = enumerate_equilibria(g, shocks_of([0.5, 0.5]), "upper")
    assert {tuple(e) for e in eqs} == {(0.0, 0.0), (1.0, 1.0)}


def test_enumerate_dominant_one_excludes_zeros():
    g = complete_graph(3)
    eqs = enumerate_equilibria(g, shocks_of([0.0, 0.0, 0.0]), "upper")
    assert (1.0, 1.0, 1.0) in {tuple(e) for e in eqs}
    assert (0.0, 0.0, 0.0) not in {tuple(e) for e in eqs}


def test_enumerate_mixed_thresholds():
    g = two_node()
    eqs = enumerate_equilibria(g, shocks_of([0.4, 0.6]), "upper")
    assert {tuple(e) for e in eqs} == {(0.0, 0.0), (1.0, 1.0)}


def test_enumerate_size_guard():
    g = complete_graph(21)
    with pytest.raises(ValueError):
        enumerate_equilibria(g, shocks_of(np.full(21, 0.5)), "upper")


# ---------------------------------------------------------------- capacities


def test_capacity_simple_basic():
    g = two_node()
    assert capacity_simple(g, np.array([1.0, 0.0])) == 1.0
    assert capacity_simple(g, np.array([1.0, 1.0])) == 0.0
    assert capacity_simple(g, np.array([0.0, 0.0])) == 0.0


def test_capacity_simple_complete_four():
    g = complete_graph(4)
    assert capacity_simple(g, np.array([1.0, 1.0, 0.0, 0.0])) == 4.0


def test_capacity_constant_zero(rng):
    g = complete_graph(5)
    assert capacity(g, np.full(5, 0.4)) == 0.0


def test_capacity_two_node_unit():
    g = two_node()
    assert capacity(g, np.array([1.0, 0.0])) == 1.0


def test_capacity_equals_simple_on_pure(rng):
    for _ in range(100):
        g, P, shocks = random_instance(rng, n_max=9)
        a = (rng.random(g.n) < 0.5).astype(float)
        assert abs(capacity(g, a) - capacity_simple(g, a)) <= 1e-12


@pytest.fixture(scope="module")
def thousand_flips():
    """Three-point game on the (120,2)-lattice: 903 upper flips from the
    x*-profile, then the lower dynamics back down.  Each trace is replayed
    with from-scratch beta, p = P(beta) and q = Wp per step, giving each
    flipper's beta before its flip and the brute-force cross term
    A = sum_t dp . [(g beta - q)_t + (g beta - q)_{t+1}]."""
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    x_star = ru_dominant(P)[0][0]
    g = lattice(LatticeSpec(M=120, m=2))
    shocks = sample_shocks(P, g.n, seed=0, stream=0)
    a0 = initial_profile(P, x_star, shocks, seed=0)
    up = upper_dynamics(g, shocks, a0)
    down = lower_dynamics(g, shocks, up.final_profile)

    def replay(trace, value):
        a = trace.initial_profile.copy()
        before, A = [], 0.0
        for k in range(trace.n_steps + 1):
            if k:
                a[trace.agents[k - 1]] = value
            beta = neighborhood_fractions(g, a)
            p = P.eval_array(beta)
            q = g.weights @ p
            if k:
                A += float(np.dot(p - p_t, (g.degrees * beta_t - q_t) + (g.degrees * beta - q)))
            if k < trace.n_steps:
                before.append(beta[trace.agents[k]])
            beta_t, p_t, q_t = beta, p, q
        return trace, np.array(before), A

    return g, P, x_star, shocks, replay(up, 1.0), replay(down, 0.0)


def test_capacities_and_audit_over_a_thousand_flips(thousand_flips):
    # F0 moves by +-g_i (1 - 2 beta_i) per flip, the identity the
    # decrement check reads off the trace; the audit's F(p^0) and A
    # match from-scratch values.  Replayed through the flip state, beta
    # ends bit-identical to Wa/g; q, updated by increments, within 1e-12 of Wp.
    g, P, x_star, shocks, (up, _, up_A), (down, _, _) = thousand_flips
    assert up.n_steps == 903 and down.n_steps > 0
    for trace, sign in ((up, 1.0), (down, -1.0)):
        d_f0 = sign * g.degrees[trace.agents] * (1.0 - 2.0 * trace.beta_before)
        F0 = capacity_simple(g, trace.initial_profile) + d_f0.sum()
        assert capacity_simple(g, trace.final_profile) == pytest.approx(F0, abs=1e-9)
    audit = audit_main_bound(g, shocks, P, x_star, up)
    p0 = P.eval_array(neighborhood_fractions(g, up.initial_profile))
    assert audit.capacity0 == pytest.approx(capacity(g, p0), abs=1e-9)
    assert audit.cross_term_A == pytest.approx(up_A, abs=1e-9)
    state = _FlipState(g, up.initial_profile.copy(), P)
    for i in up.agents:
        state.flip(int(i), up=True)
    assert np.array_equal(state.beta, neighborhood_fractions(g, up.final_profile))
    assert np.max(np.abs(state.q - g.weights @ state.p)) <= 1e-12


def test_flips_on_an_unsorted_csr_add_in_ascending_column_order(rng):
    # A hand-built CSR whose rows are stored in descending column order:
    # from_weights sorts a copy (the caller's arrays are kept), so beta, p
    # and q after each flip equal those on the sorted matrix bit for bit.
    n = 40
    W = np.triu((rng.random((n, n)) < 0.5) * rng.uniform(0.2, 1.0, (n, n)), 1)
    S = sp.csr_matrix(W + W.T)
    ind, dat = S.indices.copy(), S.data.copy()
    for r in range(n):
        row = slice(S.indptr[r], S.indptr[r + 1])
        ind[row], dat[row] = ind[row][::-1], dat[row][::-1]
    U = sp.csr_matrix((dat, ind, S.indptr.copy()), shape=S.shape)
    stored = U.indices.copy()
    h = Network.from_weights(U)
    assert np.array_equal(U.indices, stored) and np.array_equal(h.weights.indices, S.indices)
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    a0 = (rng.random(n) < 0.5).astype(float)
    states = [_FlipState(x, a0.copy(), P) for x in (Network.from_weights(S), h)]
    for i in rng.integers(0, n, 200).tolist():
        up = states[0].a[i] == 0.0
        for state in states:
            state.flip(i, up)
        for name in ("beta", "p", "q"):
            assert np.array_equal(getattr(states[0], name).view(np.int64), getattr(states[1], name).view(np.int64))


def test_async_dynamics_follow_exact_fractions(thousand_flips):
    g, P, x_star, shocks, _, (down, _, _) = thousand_flips
    for trace, before, _ in thousand_flips[4:]:
        assert np.array_equal(trace.beta_before, before)
    assert is_equilibrium(g, shocks, down.final_profile, "lower")


def test_flip_state_equals_matvecs_bit_for_bit(rng):
    # Random weights, uneven row lengths: after every flip beta equals
    # Wa/g, and q equals the scipy update q + W[J].T @ dp, bit for bit.
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.6, 0.7), (0.75, 0.9)))
    for _ in range(10):
        n = int(rng.integers(20, 120))
        W = (rng.random((n, n)) < rng.uniform(0.05, 0.5)) * rng.uniform(0.1, 3.0, (n, n))
        W = np.triu(W, 1) + np.diag(np.full(n - 1, 0.5), 1)
        g = Network.from_weights(sp.csr_matrix(W + W.T))
        state = _FlipState(g, (rng.random(n) < 0.5).astype(float), P)
        q_ref = state.q.copy()
        for i in rng.integers(n, size=3 * n):
            J, _, dp, _ = state.flip(int(i), up=state.a[i] == 0.0)
            if dp is not None:
                q_ref += g.weights[J].T @ dp
            assert np.array_equal(state.beta, neighborhood_fractions(g, state.a))
            assert np.array_equal(state.q, q_ref)


def test_flip_state_keeps_zero_weight_neighbours(tmp_path):
    # Explicit zero-weight edges stay in J = N(i); rows shorter than the
    # longest row of J are padded, and padding moves neither beta nor q.
    path = tmp_path / "g.edges"
    path.write_text("n 5\n0 1 1.0\n0 2 0.0\n0 3 0.5\n1 2 2.0\n2 3 1.0\n3 4 0.0\n1 4 1.5\n")
    g = load_edgelist(path)
    state = _FlipState(g, np.zeros(5), StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9))))
    q_ref = state.q.copy()
    for i, want in ((0, [1, 2, 3]), (3, [0, 2, 4]), (2, [0, 1, 3])):
        J, _, dp, _ = state.flip(i, up=True)
        assert J.tolist() == want
        if dp is not None:
            q_ref += g.weights[J].T @ dp
        assert np.array_equal(state.beta, neighborhood_fractions(g, state.a))
        assert np.array_equal(state.q, q_ref)


# ---------------------------------------------------------------- main bound


def test_audit_zero_step_trace():
    g = two_node()
    P = StepFn(base=0.3, steps=((0.5, 0.7),))
    shocks = shocks_of([0.5, 0.5])
    a0 = initial_profile(P, 0.5, shocks, seed=3)
    tr = upper_dynamics(g, shocks, a0)
    audit = audit_main_bound(g, shocks, P, 0.5, tr)
    assert audit.satisfied
    assert audit.cross_term_A == 0.0 or tr.n_steps > 0


def test_audit_two_node_hand_replay():
    # t = (0.4, 0.6), a0 = (1, 0): agent 1 flips once.  All five terms of
    # the audit recomputed by hand for P = {0.3 on [0,0.5), 0.7 on [0.5,1]}.
    g = two_node()
    P = StepFn(base=0.3, steps=((0.5, 0.7),))
    x_star = 0.5
    shocks = shocks_of([0.4, 0.6])
    a0 = np.array([1.0, 0.0])
    tr = upper_dynamics(g, shocks, a0)
    assert tr.agents.tolist() == [1]
    audit = audit_main_bound(g, shocks, P, x_star, tr)
    # Hand replay: beta^0 = (0, 1), p^0 = (P(0), P(1)) = (0.3, 0.7).
    # F(p0) = (0.3 - 0.7)^2 = 0.16.
    assert audit.capacity0 == pytest.approx(0.16, abs=1e-12)
    # After the flip: beta^1 = (1, 1), p^1 = (0.7, 0.7).
    # A = sum_i dp_i * [ (g beta^t - (Wp)^t)_i + (g beta^{t+1} - (Wp)^{t+1})_i ]
    #   only agent 0 changes p: dp_0 = 0.4;
    #   s=t:   g_0 beta_0^t - p_1^t = 0*? ... recomputed numerically below.
    a = a0.copy()
    beta_t = neighborhood_fractions(g, a)
    p_t = P.eval_array(beta_t)
    a[1] = 1.0
    beta_n = neighborhood_fractions(g, a)
    p_n = P.eval_array(beta_n)
    dp = p_n - p_t
    W = g.weights
    A_hand = float(
        np.dot(dp, (g.degrees * beta_t - W @ p_t) + (g.degrees * beta_n - W @ p_n))
    )
    assert audit.cross_term_A == pytest.approx(A_hand, abs=1e-12)
    # beta deviation: 2 * sum g_i |beta_i^0 - 0.5| = 2 * (0.5 + 0.5) = 2.
    assert audit.beta_deviation == pytest.approx(2.0, abs=1e-12)
    # fineness term: 2 * d(g) * sum g_i = 2 * 1 * 2 = 4.
    assert audit.fineness_term == pytest.approx(4.0, abs=1e-12)
    from netcoord.stepfn import ru_objective

    loss = [ru_objective(P, x_star) - ru_objective(P, float(p)) for p in p_n]
    lhs_hand = 2.0 * sum(g.degrees[i] * loss[i] for i in range(2))
    assert audit.lhs == pytest.approx(lhs_hand, abs=1e-12)
    assert audit.satisfied


def test_audit_random_lattice_runs(rng):
    # The inequality is deterministic given the trace: must hold always.
    g = lattice(LatticeSpec(M=20, m=2))
    for k in range(10):
        P = random_stepfn(rng)
        from netcoord.stepfn import ru_dominant

        maximizers, _ = ru_dominant(P)
        x_star = maximizers[-1]
        if P.eval_left(x_star) > x_star:
            continue
        shocks = sample_shocks(P, g.n, seed=1000 + k)
        a0 = initial_profile(P, x_star, shocks, seed=k)
        tr = upper_dynamics(g, shocks, a0)
        audit = audit_main_bound(g, shocks, P, x_star, tr)
        assert audit.satisfied


def test_audit_rejects_a_trace_it_cannot_replay():
    g, P = complete_graph(4), StepFn(base=0.3, steps=((0.5, 0.7),))
    t = shocks_of([0.2, 0.4, 0.6, 0.8])

    def trace(agents, direction="upper", a0=np.zeros(4)):
        agents = np.array(agents, dtype=np.int64)
        return DynamicsTrace(agents, np.zeros(agents.size), a0, a0, direction)

    assert audit_main_bound(g, t, P, 0.5, trace([0, 1, 2, 3])).satisfied
    cases = [
        (trace([0, 4]), "trace replay mismatch"),  # out of range
        (trace([0, -1]), "trace replay mismatch"),  # would wrap as an index
        (trace([1, 0, 1]), "trace replay mismatch"),  # flipped twice
        (lower_dynamics(g, t, np.ones(4)), "upper dynamics traces"),
        (trace([0], a0=np.zeros(5)), "does not match the network size"),
    ]
    for tr, match in cases:
        with pytest.raises(ValueError, match=match):
            audit_main_bound(g, t, P, 0.5, tr)


# ----------------------------------------------------- capacity decrement


def test_decrement_vacuous_without_flips():
    g = two_node()
    s = shocks_of([0.7, 0.7])
    tr = upper_dynamics(g, s, np.zeros(2))
    assert capacity_decrement_check(g, s, tr)


def test_decrement_boundary_flip():
    # A flip at beta exactly alpha decrements by exactly (2 alpha - 1) g_i.
    g = complete_graph(11)
    alpha = 0.7
    t = np.full(11, alpha)
    s = shocks_of(t)
    a0 = np.zeros(11)
    a0[:7] = 1.0  # beta of the others: 7/10 = alpha exactly
    tr = upper_dynamics(g, s, a0)
    assert tr.n_steps > 0
    assert capacity_decrement_check(g, s, tr)
    first, beta = tr.agents[0], tr.beta_before[0]
    d_f0 = g.degrees[first] * (1.0 - 2.0 * beta)
    assert d_f0 == pytest.approx(-(2 * alpha - 1) * g.degrees[first], abs=1e-12)


def test_decrement_many_lattice_runs(rng):
    g = lattice(LatticeSpec(M=12, m=2))
    alpha = 0.7
    s = shocks_of(np.full(g.n, alpha))
    ok = 0
    for k in range(50):
        rng_local = np.random.default_rng(k)
        a0 = (rng_local.random(g.n) < 0.75).astype(float)
        tr = upper_dynamics(g, s, a0)
        ok += capacity_decrement_check(g, s, tr)
    assert ok == 50


def test_decrement_rejects_nonconstant():
    g = two_node()
    s = shocks_of([0.6, 0.7])
    tr = upper_dynamics(g, s, np.zeros(2))
    with pytest.raises(ValueError):
        capacity_decrement_check(g, s, tr)
