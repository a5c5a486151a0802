import csv
import io
import math
import time

import numpy as np
import pytest

from netcoord.contagion import build_delta_wave
from netcoord.cubes import (
    CubePartition,
    CubeReport,
    _COUNT_PIECES,
    _blocks,
    _cube_distance,
    _cube_reduce,
    _largest_component,
    classify_bad,
    cube_means,
    cube_report,
    domination_check,
    extraordinary_cubes,
    good_set_search,
    r_interior,
    report_to_csv,
)
from netcoord.dynamics import extremal_equilibria, largest_equilibrium
from netcoord.game import sample_shocks
from netcoord.network import LatticeSpec, lattice, neighborhood_fractions
from netcoord.stepfn import StepFn


def shocks_of(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


def uniform_shocks(part, value):
    return shocks_of(np.full(part.M * part.M, value))


def cube_nodes(part):
    """Node ids of each small cube, one row per cube."""
    return _blocks(part, np.arange(part.M**2))


def search(part, t, P, gamma, R):
    """Classify the cubes, then search for a good set on those flags."""
    return good_set_search(part, classify_bad(part, t, P, gamma), extraordinary_cubes(part, t), gamma, R)


@pytest.fixture(scope="module")
def low_wave():
    return build_delta_wave(StepFn(0.05), eta=0.1)


# ---------------------------------------------------------------- partition


def test_partition_counts():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    assert part.n_small == 16
    assert cube_nodes(part)[0].size == 9
    assert part.k == 2 and part.large_side == 2


def test_partition_single_cube():
    part = CubePartition(LatticeSpec(M=12, m=2), b=12, B=12)
    assert part.n_small == 1
    assert cube_nodes(part)[0].size == 144


def test_partition_is_a_partition(rng):
    for _ in range(10):
        m = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4)) * 2
        k = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        M = b * k * K
        if M < 3 * m:
            continue
        part = CubePartition(LatticeSpec(M=M, m=m), b=b, B=b * k)
        seen = np.zeros(M * M, dtype=int)
        for row in cube_nodes(part):
            seen[row] += 1
        assert np.all(seen == 1)


def test_partition_divisibility_guard():
    with pytest.raises(ValueError):
        CubePartition(LatticeSpec(M=12, m=2), b=5, B=10)
    with pytest.raises(ValueError):
        CubePartition(LatticeSpec(M=12, m=2), b=3, B=8)


def test_node_cube_arithmetic():
    # Row c of the blocks holds the nodes (x, y) with (x // b, y // b) = divmod(c, small_side).
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    x, y = np.divmod(cube_nodes(part), part.M)
    cx, cy = np.divmod(np.arange(part.n_small), part.small_side)
    assert np.all(x // part.b == cx[:, None]) and np.all(y // part.b == cy[:, None])


# ------------------------------------------------------------- classify_bad


def test_classify_all_inf_good():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    s = uniform_shocks(part, math.inf)
    P = StepFn(0.5)
    assert not classify_bad(part, s, P, gamma=0.1).any()


def test_classify_all_zero_bad():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    s = uniform_shocks(part, 0.0)
    P = StepFn(base=0.4, steps=((0.5, 0.6),))  # P(0.5) + gamma < 1
    assert classify_bad(part, s, P, gamma=0.3).all()


def test_classify_bad_matches_dense_grid(rng):
    # Brute-force sup over a dense x grid agrees with the exact decision.
    part = CubePartition(LatticeSpec(M=40, m=2), b=2, B=40)
    from conftest import random_stepfn

    for trial in range(3):
        P = random_stepfn(rng)
        s = sample_shocks(P, part.M**2, seed=trial)
        gamma = float(rng.uniform(0.05, 0.4))
        flags = classify_bad(part, s, P, gamma)
        xs = np.linspace(0.0, 1.0, 4001)
        Pv = P.eval_array(xs)
        for c in range(part.n_small):
            t = s[cube_nodes(part)[c]]
            emp = (t[None, :] < xs[:, None]).mean(axis=1)
            brute = np.max(emp - Pv) > gamma
            # The dense grid can only miss sup points, never invent them.
            if brute:
                assert flags[c]
            elif not flags[c]:
                assert not brute


def test_classify_bad_dkw_frequency():
    # Nontrivial DKW check: Prob(bad) <= exp(-2 b^2 gamma^2).
    b, gamma = 10, 0.15
    n_cubes_side = 30
    M = b * n_cubes_side
    part = CubePartition(LatticeSpec(M=M, m=1), b=b, B=M)
    n = 64
    pos = np.arange(n) / n
    vals = (np.arange(n) + 0.5) / n
    P = StepFn.from_grid(pos.tolist(), vals.tolist())
    s = sample_shocks(P, M * M, seed=303)
    freq = classify_bad(part, s, P, gamma).mean()
    bound = math.exp(-2 * b * b * gamma * gamma)
    n_cubes = n_cubes_side**2
    assert freq <= bound + 3.0 * math.sqrt(bound / n_cubes) + 1e-3


def _brute_bad_flag(t: np.ndarray, P: StepFn, gamma: float) -> bool:
    # Candidates: the cube's thresholds, every breakpoint of P and 0,
    # scored just right of each; plus x = 1 itself.
    t = np.sort(t)
    cand = np.unique(np.concatenate([t[np.isfinite(t)], P.piece_positions, [0.0]]))
    cand = cand[(cand >= 0.0) & (cand < 1.0)]
    right = np.searchsorted(t, cand, side="right") / t.size - P.eval_array(cand)
    at_one = np.searchsorted(t, 1.0, side="left") / t.size - P.top
    return bool(right.max(initial=-np.inf) > gamma or at_one > gamma)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_classify_bad_matches_breakpoint_oracle(rng, b):
    # P with 1 to 9 and _COUNT_PIECES pieces (counted per piece) and with
    # _COUNT_PIECES + 1 and 40 (sorted rows), half of them with a knot at
    # exactly 1.0.  Thresholds are drawn from a pool with negatives, P's
    # knots and their float neighbours, off-knot values, 0, 1, +inf and
    # (by drawing with replacement) duplicates.
    from conftest import step_with_pieces

    part = CubePartition(LatticeSpec(M=4 * b, m=1), b=b, B=4 * b)
    for k in [*range(1, 10), _COUNT_PIECES, _COUNT_PIECES + 1, 40] * 3:
        P = step_with_pieces(rng, k)
        knots = P.piece_positions
        pool = np.concatenate(
            [knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0), [-0.5, -1e-12, 0.0, 1.0, math.inf, 0.5],
             rng.uniform(-0.1, 1.1, 4)]
        )
        t = rng.choice(pool, size=part.M**2)
        s = shocks_of(t)
        for gamma in (1e-9, 0.1, 0.3, 0.6):
            want = [_brute_bad_flag(t[cube_nodes(part)[c]], P, gamma) for c in range(part.n_small)]
            assert classify_bad(part, s, P, gamma).tolist() == want


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8, 12])
def test_cube_reduce_matches_block_rows(rng, b):
    part = CubePartition(LatticeSpec(M=4 * b, m=1), b=b, B=2 * b)
    x = rng.random(part.M**2)
    flags = x < 0.7
    assert np.array_equal(_cube_reduce(part, x, np.minimum), _blocks(part, x).min(axis=1))
    assert np.array_equal(_cube_reduce(part, flags, np.logical_and), _blocks(part, flags).all(axis=1))
    counts = _cube_reduce(part, flags, np.add, np.min_scalar_type(b * b))
    assert counts.dtype == np.min_scalar_type(b * b)
    assert np.array_equal(counts, _blocks(part, flags).sum(axis=1))
    assert np.array_equal(_cube_reduce(part, np.ones(part.M**2, dtype=bool), np.add, np.min_scalar_type(b * b)),
                          np.full(part.n_small, b * b))


@pytest.mark.parametrize("b", [*range(1, 8), 8, 10])
def test_cube_means_adds_each_row_then_the_rows(rng, b):
    # The CSV's beta(c) bytes rely on this order: each node row's b terms
    # left to right, then the cube's b row sums top to bottom.  For b < 8
    # it is the order of numpy's mean over the cube axes, whose inner loop
    # turns pairwise at 8 terms.  Magnitudes spread over 1e-4..1e4 make
    # another order round differently.
    part = CubePartition(LatticeSpec(M=4 * b, m=1), b=b, B=2 * b)
    x = rng.random(part.M**2) * 10.0 ** rng.integers(-4, 5, part.M**2)
    want = []
    for block in _blocks(part, x):
        total = 0.0
        for row in block.reshape(b, b).tolist():
            row_sum = 0.0
            for v in row:
                row_sum += v
            total += row_sum
        want.append(total / b**2)
    got = cube_means(part, x)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    if b < 8:
        s = part.small_side
        assert np.array_equal(got.view(np.int64), x.reshape(s, b, s, b).mean(axis=(1, 3)).ravel().view(np.int64))


# ------------------------------------------------------------- extraordinary


def test_extraordinary_all_inf():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    assert extraordinary_cubes(part, uniform_shocks(part, math.inf)).all()


def test_extraordinary_flags_only_action_0_dominance():
    # t = -inf makes action 1 strictly dominant: those agents play 1 in every equilibrium, so the cube is not
    # extraordinary.
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    assert not extraordinary_cubes(part, uniform_shocks(part, -math.inf)).any()
    largest, smallest = extremal_equilibria(lattice(part.spec), uniform_shocks(part, -math.inf))
    assert largest.mean() == smallest.mean() == 1.0
    nodes = cube_nodes(part)
    t = np.full(144, math.inf)
    t[nodes[3]] = -math.inf  # all -inf
    t[nodes[5][::2]] = -math.inf  # mixed +inf and -inf
    t[nodes[9][4]] = 0.3  # mixed +inf and finite
    assert np.flatnonzero(~extraordinary_cubes(part, shocks_of(t))).tolist() == [3, 5, 9]


@pytest.mark.parametrize("gamma", [0.0, -0.1, 1.0, 5.0, math.inf, math.nan])
def test_cube_entry_points_reject_gamma_outside_the_unit_interval(gamma):
    # At gamma >= 1 no cube can be gamma-bad, and coverage (a) holds for any W.
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    with pytest.raises(ValueError, match="gamma must lie in"):
        classify_bad(part, np.full(144, 0.3), StepFn(0.5), gamma)
    bad = np.arange(part.n_small) < 8  # half the lattice bad: found at gamma = 5 before the check
    with pytest.raises(ValueError, match="gamma must lie in"):
        good_set_search(part, bad, np.ones(part.n_small, dtype=bool), gamma, 0.0)


def test_nan_threshold_rejected_by_cube_entry_points():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    P = StepFn(0.5)
    t = np.full(144, 0.3)
    t[17] = math.nan
    calls = [
        lambda: classify_bad(part, t, P, 0.1),
        lambda: extraordinary_cubes(part, t),
        lambda: cube_report(part, t, P, np.zeros(144), np.zeros(144), 0.1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="NaN"):
            call()
    with pytest.raises(ValueError, match="does not match"):
        classify_bad(part, t[:-1], P, 0.1)
    # good_set_search takes flags, not thresholds: it checks their size.
    flags = np.zeros(part.n_small, dtype=bool)
    with pytest.raises(ValueError, match="16 boolean flags"):
        good_set_search(part, flags[:-1], flags, 0.1, 1.0)


def test_good_set_search_checks_its_flags():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    ok = np.zeros(part.n_small, dtype=bool)
    for bad, extra in [(ok, np.zeros(part.n_small + 1, dtype=bool)), (ok.astype(float), ok),
                       (ok, ok.astype(int)), (ok.reshape(4, 4), ok)]:
        with pytest.raises(ValueError, match="16 boolean flags"):
            good_set_search(part, bad, extra, 0.1, 1.0)
    assert good_set_search(part, ok, ~ok, 0.1, 1.0) is not None


def test_extraordinary_excludes_interior_agent():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    t = np.full(144, math.inf)
    t[cube_nodes(part)[5][4]] = 0.3
    flags = extraordinary_cubes(part, shocks_of(t))
    assert not flags[5]
    assert flags.sum() == 15


def test_extraordinary_binomial_rate():
    part = CubePartition(LatticeSpec(M=200, m=2), b=2, B=200)
    P = StepFn(0.5)  # Prob(inf) = 1 - P(1) = 0.5
    s = sample_shocks(P, 200 * 200, seed=7)
    share = extraordinary_cubes(part, s).mean()
    p = 0.5**4
    sigma = math.sqrt(p * (1 - p) / part.n_small)
    assert abs(share - p) <= 3 * sigma


def test_extraordinary_matches_per_cube_rows(rng):
    # The per-cube rows of _blocks, as the flags were once computed, are the oracle.
    for M, b in [(12, 1), (12, 2), (12, 3), (12, 12), (60, 3), (60, 5)]:
        part = CubePartition(LatticeSpec(M=M, m=2), b=b, B=M)
        for p_inf in (0.0, 0.5, 0.9, 1.0):
            t = np.where(rng.random(M * M) < p_inf, math.inf, rng.random(M * M))
            want = np.isinf(_blocks(part, t)).all(axis=1)
            assert np.array_equal(extraordinary_cubes(part, t), want)


# ------------------------------------------------------------ good set search


def test_good_set_all_extraordinary():
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    s = uniform_shocks(part, math.inf)
    P = StepFn(0.3)
    found = search(part, s, P, gamma=0.2, R=1.0)
    assert found is not None
    assert found.W.all()
    assert all(found.conditions.values())


def test_good_set_planted_bad_cube():
    part = CubePartition(LatticeSpec(M=48, m=2), b=3, B=12)
    t = np.full(48 * 48, math.inf)
    center = part.n_small // 2 + part.small_side // 2
    t[cube_nodes(part)[center]] = 0.0  # all-zero thresholds: bad cube
    s = shocks_of(t)
    P = StepFn(0.5)
    R = 1.5
    found = search(part, s, P, gamma=0.25, R=R)
    assert found is not None
    assert not found.W[center]
    # Exhaustive distance audit of condition (c).
    bad_nodes = cube_nodes(part)[center]
    bx = bad_nodes // part.M
    by = bad_nodes % part.M
    for c in np.nonzero(found.W)[0]:
        nodes = cube_nodes(part)[c]
        cx = nodes // part.M
        cy = nodes % part.M
        dx = np.abs(cx[:, None] - bx[None, :])
        dy = np.abs(cy[:, None] - by[None, :])
        dx = np.minimum(dx, part.M - dx)
        dy = np.minimum(dy, part.M - dy)
        d = np.sqrt(dx**2 + dy**2) / part.m
        assert d.min() >= R


def test_good_set_absent_without_seed():
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    s = uniform_shocks(part, 0.9)  # nobody extraordinary
    P = StepFn(0.95)
    assert search(part, s, P, gamma=0.2, R=1.0) is None


def test_good_set_rejects_negative_radius():
    # With R < 0 condition (d) held at distance 0, so a non-extraordinary
    # cube could be returned as the seed.
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    t = np.full(24 * 24, 0.9)
    t[cube_nodes(part)[10]] = math.inf
    s = shocks_of(t)
    P = StepFn(0.95)
    assert search(part, s, P, gamma=0.2, R=0.0).seed_cube == 10
    with pytest.raises(ValueError, match="R must"):
        search(part, s, P, gamma=0.2, R=-1.0)


# ------------------------------------------------------------ torus distances


def test_cube_distance_matches_brute_force(rng):
    # The per-cube minimum of the brute-force torus node distance to every
    # node of a flagged cube, for small- and large-cube sources, b = m and
    # b != m, an empty source (+inf) and a full one (0).
    for M, m, b, B in ((1, 1, 1, 1), (4, 1, 1, 2), (6, 2, 2, 6), (8, 2, 2, 4), (9, 1, 3, 9),
                       (12, 3, 3, 6), (12, 2, 3, 12), (12, 5, 2, 4), (16, 3, 2, 8)):
        part = CubePartition(LatticeSpec(M=M, m=m), b=b, B=B)
        x, y = np.divmod(np.arange(M * M), M)
        dx = np.abs(x[:, None] - x[None, :])
        dy = np.abs(y[:, None] - y[None, :])
        pair = np.sqrt(np.minimum(dx, M - dx) ** 2 + np.minimum(dy, M - dy) ** 2) / m
        cube_of = (x // b) * part.small_side + y // b
        for side in (part.small_side, part.large_side):
            masks = [rng.random((side, side)) < d for d in (0.05, 0.2, 0.7)]
            for mask in masks + [np.zeros((side, side), dtype=bool), np.ones((side, side), dtype=bool)]:
                nodes = np.kron(mask, np.ones((M // side, M // side), dtype=bool)).ravel()
                want = np.full(part.n_small, np.inf)
                np.minimum.at(want, cube_of, np.where(nodes[None, :], pair, np.inf).min(axis=1))
                assert np.array_equal(_cube_distance(part, mask), want), (M, m, b, B, side)


# ------------------------------------------------------------ r-interior lemmas


def random_connected_large_set(rng, side, target):
    grid = np.zeros((side, side), dtype=bool)
    x, y = int(rng.integers(side)), int(rng.integers(side))
    grid[x, y] = True
    frontier = [(x, y)]
    while grid.sum() < target and frontier:
        x, y = frontier[int(rng.integers(len(frontier)))]
        dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(4))]
        nx, ny = (x + dx) % side, (y + dy) % side
        if not grid[nx, ny]:
            grid[nx, ny] = True
            frontier.append((nx, ny))
    return grid


def test_size_of_r_interior_bound(rng):
    # |union W(U, R)| / M^2 >= (|U| / K^2) (1 - 4 (R m / b + 1) / k).
    part = CubePartition(LatticeSpec(M=60, m=2), b=5, B=20)
    for _ in range(20):
        U = random_connected_large_set(rng, part.large_side, int(rng.integers(1, 9)))
        for R in (0.5, 1.0, 2.0):
            W = r_interior(part, U, R)
            lhs = W.sum() * part.b**2 / part.M**2
            rhs = (U.sum() / part.large_side**2) * (
                1.0 - 4.0 * (R * part.m / part.b + 1.0) / part.k
            )
            assert lhs >= rhs - 1e-12


def test_connected_r_interior(rng):
    # R < (b/m)(k/2 - 1) and U connected implies W(U, R) connected.
    part = CubePartition(LatticeSpec(M=60, m=2), b=5, B=20)
    R = 0.9 * (part.b / part.m) * (part.k / 2 - 1)
    assert R > 0
    checked = 0
    for _ in range(20):
        U = random_connected_large_set(rng, part.large_side, int(rng.integers(1, 9)))
        W = r_interior(part, U, R)
        if W.any():
            assert np.array_equal(_largest_component(part.cube_grid(W)), part.cube_grid(W))
            checked += 1
    assert checked > 0


def _bfs_largest_component(mask):
    # Row-major scan with a breadth-first flood; a later component
    # replaces the best only when strictly larger.
    n = mask.shape[0]
    seen = np.zeros_like(mask)
    best = np.zeros_like(mask)
    for sx in range(n):
        for sy in range(n):
            if not mask[sx, sy] or seen[sx, sy]:
                continue
            comp, queue = [], [(sx, sy)]
            seen[sx, sy] = True
            while queue:
                x, y = queue.pop(0)
                comp.append((x, y))
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = (x + dx) % n, (y + dy) % n
                    if mask[nx, ny] and not seen[nx, ny]:
                        seen[nx, ny] = True
                        queue.append((nx, ny))
            if len(comp) > best.sum():
                best = np.zeros_like(mask)
                best[tuple(np.array(comp).T)] = True
    return best


def test_largest_component_matches_bfs_oracle(rng):
    for _ in range(400):
        n = int(rng.integers(1, 12))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        assert np.array_equal(_largest_component(mask), _bfs_largest_component(mask))


def _serpentine(n):
    # One path: the even rows, joined at alternate ends through the odd rows.
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(n):
    # An inward spiral corridor one cell wide between walls one cell wide.
    mask = np.zeros((n, n), dtype=bool)
    lo, hi = 0, n - 1
    while lo <= hi:
        mask[lo, lo:hi + 1] = True
        mask[lo:hi + 1, hi] = True
        mask[hi, lo:hi + 1] = True
        mask[lo + 2:hi + 1, lo] = True
        if lo + 2 <= hi:
            mask[lo + 2, lo:hi - 1] = True
        lo, hi = lo + 2, hi - 2
    return mask


def test_largest_component_labels_long_paths_quickly():
    # Serpentine and spiral corridors on a 100 x 100 torus, each one
    # component, rolled so that they cross both seams.
    for make in (_serpentine, _spiral):
        for shift in ((0, 0), (37, 61)):
            mask = np.roll(make(100), shift, axis=(0, 1))
            start = time.perf_counter()
            got = _largest_component(mask)
            elapsed = time.perf_counter() - start
            assert np.array_equal(got, _bfs_largest_component(mask)), (make.__name__, shift)
            assert np.array_equal(got, mask)
            assert elapsed < 0.5, (make.__name__, shift, elapsed)


def test_largest_component_ties_and_wraparound():
    # Two components of size 3: the one starting earlier in row-major
    # order wins.  The first wraps around the left/right edge.
    mask = np.zeros((6, 6), dtype=bool)
    mask[1, [0, 4, 5]] = True
    mask[3, [1, 2, 3]] = True
    got = _largest_component(mask)
    assert np.array_equal(got, _bfs_largest_component(mask))
    assert got[1].tolist() == [True, False, False, False, True, True]
    # Cells joined only across the top/bottom edge beat a singleton.
    mask = np.zeros((5, 5), dtype=bool)
    mask[[0, 4], 2] = True
    mask[1, 0] = True
    assert _largest_component(mask)[[0, 4], 2].all()
    assert not _largest_component(np.zeros((4, 4), dtype=bool)).any()


# ------------------------------------------------------------- domination


def test_domination_all_zero_profile(low_wave):
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    W = np.zeros(part.n_small, dtype=bool)
    W[0] = True
    ok, bad = domination_check(part, cube_means(part, np.zeros(24 * 24)), low_wave, W, R=1.0, rho=0.05)
    assert ok and bad is None


def test_domination_far_cubes_capped_at_one(low_wave):
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    W = np.zeros(part.n_small, dtype=bool)
    W[0] = True
    a = np.ones(24 * 24)  # far cubes allowed at 1 through the sigma tail
    ok, bad = domination_check(part, cube_means(part, a), low_wave, W, R=1.0, rho=0.05)
    # Cubes adjacent to W see sigma near a_star < 1: must be flagged.
    assert not ok
    assert bad is not None


def test_domination_planted_violation(low_wave):
    part = CubePartition(LatticeSpec(M=48, m=2), b=3, B=12)
    a = np.zeros(48 * 48)
    W = np.zeros(part.n_small, dtype=bool)
    W[0] = True
    # Neighbor cube of W playing 1 while sigma(-R) = a_star < 1 - rho.
    a[cube_nodes(part)[1]] = 1.0
    ok, bad = domination_check(part, cube_means(part, a), low_wave, W, R=2.0, rho=0.05)
    assert not ok and bad == 1


@pytest.mark.parametrize("R, rho", [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, -0.1),
                                    (math.nan, 0.05), (math.inf, 0.05), (-1.0, 0.05)])
def test_domination_rejects_a_non_finite_or_negative_radius_or_rho(low_wave, R, rho):
    # NaN or +inf rho made every a(c) > sigma + rho false, so every cube passed; -inf failed every one.
    part = CubePartition(LatticeSpec(M=24, m=2), b=3, B=12)
    W = np.zeros(part.n_small, dtype=bool)
    W[0] = True
    with pytest.raises(ValueError, match="R and rho must"):
        domination_check(part, cube_means(part, np.ones(24 * 24)), low_wave, W, R=R, rho=rho)


def test_beliefs_in_a_cube_bound(rng):
    # Deviation of node-level from cube-level neighborhood fractions is
    # bounded for small b/m.
    part = CubePartition(LatticeSpec(M=300, m=100), b=10, B=300)
    worst = 0.0
    for _ in range(5):
        a = (rng.random(300 * 300) < rng.uniform(0.2, 0.8)).astype(float)
        beta = neighborhood_fractions(lattice(part.spec), a)
        beta_c = cube_means(part, beta)
        dev = np.abs(part.node_grid(beta) - np.kron(part.cube_grid(beta_c), np.ones((10, 10))))
        worst = max(worst, float(dev.max()))
    assert worst <= 0.3


# ------------------------------------------------------------------ report


def test_cube_report_csv():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    t = np.full(144, math.inf)
    t[:72] = 0.4
    s = shocks_of(t)
    P = StepFn(0.5)
    rep = cube_report(part, s, P, np.zeros(144), np.zeros(144), gamma=0.2)
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "cube_x,cube_y,a_c,beta_c,bad,extraordinary"
    assert len(lines) == 17


def test_cube_report_rejects_a_mixed_profile():
    part = CubePartition(LatticeSpec(M=12, m=2), b=3, B=6)
    a = np.zeros(144)
    a[17] = 0.5
    with pytest.raises(ValueError, match="pure profile"):
        cube_report(part, np.full(144, 0.3), StepFn(0.5), a, np.zeros(144), gamma=0.2)


def test_report_csv_matches_csv_writer(rng):
    part = CubePartition(LatticeSpec(M=60, m=3), b=3, B=30)
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    shocks = sample_shocks(P, part.M**2, seed=5)
    a = (rng.random(part.M**2) < 0.5).astype(float)
    rep = cube_report(part, shocks, P, a, neighborhood_fractions(lattice(part.spec), a == 1.0), gamma=0.2)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["cube_x", "cube_y", "a_c", "beta_c", "bad", "extraordinary"])
    for c in range(part.n_small):
        cx, cy = divmod(c, part.small_side)
        row = [cx, cy, f"{rep.a_c[c]:.12g}", f"{rep.beta_c[c]:.12g}", int(rep.bad[c]), int(rep.extraordinary[c])]
        writer.writerow(row)
    assert report_to_csv(rep) == out.getvalue()


def test_report_csv_matches_row_by_row_oracle(rng):
    def oracle(rep):
        lines = ["cube_x,cube_y,a_c,beta_c,bad,extraordinary\r\n"]
        for c in range(rep.part.n_small):
            x, y = divmod(c, rep.part.small_side)
            a, b = rep.a_c[c], rep.beta_c[c]
            lines.append(f"{x},{y},{a:.12g},{b:.12g},{int(rep.bad[c])},{int(rep.extraordinary[c])}\r\n")
        return "".join(lines)

    for M, b in [(12, 12), (12, 3), (60, 3), (300, 3)]:
        part = CubePartition(LatticeSpec(M=M, m=2), b=b, B=M)
        k = part.n_small
        pool = np.concatenate([[0.0, -0.0, 1.0, 1 / 3, 2 / 3, 1e-20, 123456.789012345678], rng.random(8)])
        a_c, beta_c = pool[rng.integers(pool.size, size=k)], rng.random(k)
        beta_c[: k // 2] = beta_c[0]  # repeated values
        rep = CubeReport(part, a_c, beta_c, rng.random(k) < 0.5, rng.random(k) < 0.5)
        assert report_to_csv(rep) == oracle(rep)


def test_lattice_analysis_leaves_csr_unbuilt():
    spec = LatticeSpec(M=60, m=3)
    part = CubePartition(spec, b=3, B=30)
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    g = lattice(spec)
    shocks = sample_shocks(P, g.n, seed=7)
    largest, beta = largest_equilibrium(g, shocks)
    cube_report(part, shocks, P, largest, beta, gamma=0.2)
    assert "weights" not in g.__dict__


def test_cube_report_averages_the_closures_beta():
    # The report takes beta from the closure's last sweep; recomputing it
    # on the profile, as the report once did, is the oracle.
    spec = LatticeSpec(M=60, m=3)
    part = CubePartition(spec, b=3, B=30)
    P = StepFn(base=0.1, steps=((0.25, 0.5), (0.75, 0.9)))
    g = lattice(spec)
    for seed in range(3):
        shocks = sample_shocks(P, g.n, seed=seed)
        largest, beta = largest_equilibrium(g, shocks)
        assert 0.0 < largest.mean() < 1.0
        rep = cube_report(part, shocks, P, largest, beta, gamma=0.2)
        want = cube_means(part, neighborhood_fractions(lattice(spec), largest == 1.0))
        assert np.array_equal(rep.beta_c, want)
        assert np.array_equal(rep.a_c, cube_means(part, largest))
